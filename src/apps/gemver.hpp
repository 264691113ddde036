// GEMVER (Sec. V-C, Fig. 9): B = A + u1 v1^T + u2 v2^T,
// x = beta B^T y + z, w = alpha B x. The fully-streaming MDAG is an
// invalid non-multitree (B reaches the w-computation both directly and
// through the x-computation), so the composition runs as two sequential
// streaming components: (1) GER -> GER -> GEMV^T producing B and x, and
// (2) GEMV producing w — cutting I/O from ~8N^2 to ~3N^2 and completion
// from ~5N^2 to ~2N^2 despite the sequentialization.
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"

namespace fblas::apps {

template <typename T>
struct GemverResult {
  std::vector<T> b;  ///< n x n
  std::vector<T> x;  ///< n
  std::vector<T> w;  ///< n
  std::uint64_t cycles = 0;  ///< sum over the two components
};

/// Host-layer baseline: COPY + GER + GER + GEMV^T + GEMV, one by one.
template <typename T>
GemverResult<T> gemver_host_layer(host::Context& ctx, T alpha, T beta,
                                  MatrixView<const T> A,
                                  VectorView<const T> u1,
                                  VectorView<const T> v1,
                                  VectorView<const T> u2,
                                  VectorView<const T> v2,
                                  VectorView<const T> y,
                                  VectorView<const T> z);

/// The description gemver_composed_async runs, with the knobs of `rc`.
template <typename T>
host::Composition<T> gemver_composition(
    const host::RoutineConfig& rc, std::int64_t n, T alpha, T beta,
    const host::Buffer<T>& a, const host::Buffer<T>& u1,
    const host::Buffer<T>& v1, const host::Buffer<T>& u2,
    const host::Buffer<T>& v2, const host::Buffer<T>& y,
    const host::Buffer<T>& z, host::Buffer<T>& b, host::Buffer<T>& x,
    host::Buffer<T>& w);

/// Fault-tolerant composed command through the generic MDAG compiler
/// (rollback / retry / CPU-fallback ladder, per-FIFO checksum taps).
/// The compiler derives the Fig. 9 two-component schedule itself:
/// `prefer_split` cuts B and x through DRAM instead of buffering B on
/// chip. `a` is n x n row-major; every vector is length n; `b` (n x n),
/// `x` and `w` receive the results.
template <typename T>
host::Event gemver_composed_async(
    host::Context& ctx, std::int64_t n, T alpha, T beta,
    const host::Buffer<T>& a, const host::Buffer<T>& u1,
    const host::Buffer<T>& v1, const host::Buffer<T>& u2,
    const host::Buffer<T>& v2, const host::Buffer<T>& y,
    const host::Buffer<T>& z, host::Buffer<T>& b, host::Buffer<T>& x,
    host::Buffer<T>& w) {
  return ctx.run_composition_async(gemver_composition(
      ctx.config(), n, alpha, beta, a, u1, v1, u2, v2, y, z, b, x, w));
}
template <typename T>
void gemver_composed(host::Context& ctx, std::int64_t n, T alpha, T beta,
                     const host::Buffer<T>& a, const host::Buffer<T>& u1,
                     const host::Buffer<T>& v1, const host::Buffer<T>& u2,
                     const host::Buffer<T>& v2, const host::Buffer<T>& y,
                     const host::Buffer<T>& z, host::Buffer<T>& b,
                     host::Buffer<T>& x, host::Buffer<T>& w) {
  gemver_composed_async(ctx, n, alpha, beta, a, u1, v1, u2, v2, y, z, b, x, w)
      .wait();
}

/// CPU reference.
template <typename T>
GemverResult<T> gemver_cpu(T alpha, T beta, MatrixView<const T> A,
                           VectorView<const T> u1, VectorView<const T> v1,
                           VectorView<const T> u2, VectorView<const T> v2,
                           VectorView<const T> y, VectorView<const T> z);

/// The fully-streaming (invalid) MDAG, for analysis.
mdag::Mdag gemver_mdag(std::int64_t n, std::int64_t tile);

}  // namespace fblas::apps
