// Reference CPU implementations of the BLAS Level-1 routines.
//
// These serve two roles in the reproduction: (1) the numerical oracle the
// streaming modules are tested against, and (2) the CPU baseline of the
// paper's evaluation (stand-in for MKL; see DESIGN.md substitutions).
// Semantics follow the netlib reference BLAS.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"
#include "common/view.hpp"

namespace fblas::ref {

/// Plane rotation parameters produced by rotg/rotmg.
template <typename T>
struct Givens {
  T c, s;
};

/// Modified-Givens parameter block (flag + 2x2 H), netlib layout.
template <typename T>
struct RotmParam {
  T flag;  // -2: identity, -1: full H, 0: off-diagonal, 1: diagonal
  T h11, h21, h12, h22;

  /// The full H = {h11, h12, h21, h22} the flag encodes.
  std::array<T, 4> matrix() const {
    if (flag == T(-2)) return {T(1), T(0), T(0), T(1)};
    if (flag == T(-1)) return {h11, h12, h21, h22};
    if (flag == T(0)) return {T(1), h12, h21, T(1)};
    return {h11, T(1), T(-1), h22};
  }
};

/// Constructs a Givens rotation zeroing b: [c s; -s c] [a; b] = [r; 0].
/// On return a holds r and b holds the reconstruction value z.
template <typename T>
Givens<T> rotg(T& a, T& b);

/// Constructs a modified Givens rotation (netlib *rotmg).
/// Updates d1, d2, x1 in place; y1 is read-only.
template <typename T>
RotmParam<T> rotmg(T& d1, T& d2, T& x1, T y1);

/// Applies a plane rotation to (x, y).
template <typename T>
void rot(VectorView<T> x, VectorView<T> y, T c, T s);

/// Applies a modified Givens rotation to (x, y).
template <typename T>
void rotm(VectorView<T> x, VectorView<T> y, const RotmParam<T>& p);

template <typename T>
void swap(VectorView<T> x, VectorView<T> y);

/// x = alpha * x
template <typename T>
void scal(T alpha, VectorView<T> x);

/// y = x
template <typename T>
void copy(VectorView<const T> x, VectorView<T> y);

/// y = alpha * x + y
template <typename T>
void axpy(T alpha, VectorView<const T> x, VectorView<T> y);

/// Returns x . y
template <typename T>
T dot(VectorView<const T> x, VectorView<const T> y);

/// Single-precision dot with double accumulation plus offset (netlib SDSDOT).
float sdsdot(float sb, VectorView<const float> x, VectorView<const float> y);

/// Euclidean norm with overflow-safe scaling.
template <typename T>
T nrm2(VectorView<const T> x);

/// Sum of absolute values.
template <typename T>
T asum(VectorView<const T> x);

/// Index of the first element with maximum |x_i| (0-based; -1 if empty).
template <typename T>
std::int64_t iamax(VectorView<const T> x);

}  // namespace fblas::ref
