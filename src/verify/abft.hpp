// Algorithm-based fault tolerance (ABFT) result checkers.
//
// Huang–Abraham style checksum verification: before a routine runs, the
// host folds its inputs into one or a few checksum scalars/vectors (a
// matrix-vector or vector-sum pass — an order of magnitude cheaper than
// the routine itself); after the device reports success, the same
// checksums recomputed over the *outputs* must match the prediction to
// within a floating-point error bound. A mismatch means some bits of the
// result differ from what any correct execution could have produced —
// silent data corruption — and raises VerificationError.
//
// Checksum arithmetic is done in double regardless of the routine
// precision, so the checker's own rounding is negligible next to the
// bound it enforces.
//
// Two bodies make every prediction, one per update shape. The matrix
// checkers (GER, SYR, SYR2, SYRK, SYR2K, GEMM rows and columns, GEMV's
// e^T y, TRSM) each call one rank-k row sum: per row, the stored-span sum
// of beta*C0 + alpha*sum_p U_p V_p^T. SCAL, COPY, AXPY and the 2x2 maps
// call one linear sum a*sum(x0) + b*sum(y0). Each `*_prepare` holds only
// its routine's decomposition into those terms and its term count. Row,
// column and residual checks share one comparison. TRSV's scalar
// residual, the DOT/ASUM recomputation and the NRM2/IAMAX invariants are
// their own checks.
//
// Conventions:
//  * `*_prepare` runs once per command, before the first device attempt
//    (after the write-set snapshot — rollback restores exactly the state
//    the prediction was computed from, so it stays valid across retries).
//  * `*_check` / `check_*` run after each successful attempt and throw
//    VerificationError on mismatch. Routines whose inputs are not
//    overwritten (dot, nrm2, asum, iamax) are checked single-phase.
//  * A prediction that comes out non-finite (inputs already contained
//    NaN/Inf, or the true magnitudes overflow the checksum) marks the
//    checker `skip`: non-finite data is the taint channel's job
//    (stream::Scheduler taint), not the checksum's.
//  * `tol_scale` is verify::Options::tolerance_scale(); the acceptance
//    bound is rel_bound<T>(terms, tol_scale) * magnitude (see
//    verify/policy.hpp).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/view.hpp"
#include "verify/policy.hpp"

namespace fblas::verify {

// --- Checker state -------------------------------------------------------

/// One predicted scalar checksum plus its magnitude (sum of absolute
/// values) and the accumulation length the error bound grows with — the
/// record behind routine sums, composition FIFO taps and composition
/// writer audits alike.
struct ScalarCheck {
  double pred = 0.0;
  double mag = 0.0;
  std::int64_t terms = 0;
  bool skip = false;
};

/// A ScalarCheck marked `skip` when the prediction is non-finite.
inline ScalarCheck scalar_check(double pred, double mag,
                                std::int64_t terms) {
  return {pred, mag, terms, !std::isfinite(pred) || !std::isfinite(mag)};
}

/// Two independent scalar checksums (routines writing two vectors).
struct PairCheck {
  ScalarCheck x, y;
};

/// Per-row checksums of a matrix output. `tri` selects which part of
/// each row participates: 0 = full row, +1 = lower-stored (j <= i),
/// -1 = upper-stored (j >= i) — the triangle BLAS actually writes.
struct RowSumCheck {
  std::vector<double> pred, mag;
  std::int64_t terms = 0;
  int tri = 0;
  bool skip = false;
};

/// GEMM gets both directions of the Huang–Abraham scheme: row checksums
/// C·e and column checksums e^T·C, so a corrupted entry is caught from
/// two independent directions.
struct GemmCheck {
  RowSumCheck rows;                 // C_new · e per row
  std::vector<double> col_pred, col_mag;  // e^T · C_new per column
  std::int64_t col_terms = 0;
  bool skip = false;
};

// --- Level 3 -------------------------------------------------------------

template <typename T>
GemmCheck gemm_prepare(Transpose ta, Transpose tb, std::int64_t m,
                       std::int64_t n, std::int64_t k, T alpha,
                       MatrixView<const T> a, MatrixView<const T> b, T beta,
                       MatrixView<const T> c0);
template <typename T>
void gemm_check(const GemmCheck& chk, MatrixView<const T> c,
                double tol_scale);

template <typename T>
RowSumCheck syrk_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                         std::int64_t k, T alpha, MatrixView<const T> a,
                         T beta, MatrixView<const T> c0);
template <typename T>
RowSumCheck syr2k_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, MatrixView<const T> a,
                          MatrixView<const T> b, T beta,
                          MatrixView<const T> c0);

/// TRSM residual checksums: alpha·(B0·e) per row (Left) or alpha·e^T·B0
/// per column (Right), which op(A)·(X·e), or (e^T·X)·op(A), must equal.
template <typename T>
RowSumCheck trsm_prepare(Side side, std::int64_t m, std::int64_t n, T alpha,
                         MatrixView<const T> b0);
template <typename T>
void trsm_check(const RowSumCheck& chk, Side side, Uplo uplo,
                Transpose trans, Diag diag, std::int64_t m, std::int64_t n,
                MatrixView<const T> a, MatrixView<const T> x,
                double tol_scale);

// --- Level 2 -------------------------------------------------------------

template <typename T>
ScalarCheck gemv_prepare(Transpose trans, std::int64_t rows,
                         std::int64_t cols, T alpha, MatrixView<const T> a,
                         VectorView<const T> x, T beta,
                         VectorView<const T> y0);

template <typename T>
ScalarCheck trsv_prepare(std::int64_t n, VectorView<const T> b0);
template <typename T>
void trsv_check(const ScalarCheck& chk, Uplo uplo, Transpose trans,
                Diag diag, std::int64_t n, MatrixView<const T> a,
                VectorView<const T> x, double tol_scale);

template <typename T>
RowSumCheck ger_prepare(std::int64_t rows, std::int64_t cols, T alpha,
                        VectorView<const T> x, VectorView<const T> y,
                        MatrixView<const T> a0);
template <typename T>
RowSumCheck syr_prepare(Uplo uplo, std::int64_t n, T alpha,
                        VectorView<const T> x, MatrixView<const T> a0);
template <typename T>
RowSumCheck syr2_prepare(Uplo uplo, std::int64_t n, T alpha,
                         VectorView<const T> x, VectorView<const T> y,
                         MatrixView<const T> a0);

// --- Level 1 (vector-sum checksums for mutating routines) ---------------

template <typename T>
ScalarCheck scal_prepare(T alpha, VectorView<const T> x0);
template <typename T>
ScalarCheck axpy_prepare(T alpha, VectorView<const T> x,
                         VectorView<const T> y0);
template <typename T>
ScalarCheck copy_prepare(VectorView<const T> x);
/// A fixed 2x2 map h = {h11, h12, h21, h22} applied element-wise:
/// x = h11 x0 + h12 y0, y = h21 x0 + h22 y0, so the sums map the same
/// way. ROT uses {c, s, -s, c}, ROTM the H its flag encodes and SWAP
/// {0, 1, 1, 0}.
template <typename T>
PairCheck pair_prepare(VectorView<const T> x0, VectorView<const T> y0,
                       std::array<T, 4> h);

// --- Level 1 (single-phase checks for scalar-result routines) -----------

/// DOT: recomputes the dot product in double (one O(n) pass — the same
/// cost as the prepare passes above) and compares. SDSDOT passes its
/// offset as `sb`.
template <typename T>
void dot_check(VectorView<const T> x, VectorView<const T> y, T result,
               double tol_scale, double sb = 0.0);
/// NRM2 invariants: finite & >= 0, and max|x| <= result <= sqrt(n)*max|x|
/// within tolerance.
template <typename T>
void nrm2_check(VectorView<const T> x, T result, double tol_scale);
/// ASUM: recomputes sum |x_i| in double and compares.
template <typename T>
void asum_check(VectorView<const T> x, T result, double tol_scale);
/// IAMAX invariants: index in [0, n) (or -1 for n == 0) and |x[index]|
/// equals the maximum absolute value (the inputs are unchanged, so the
/// comparison is exact).
template <typename T>
void iamax_check(VectorView<const T> x, std::int64_t result);

// --- Generic check entry points -----------------------------------------

/// Compares the (tri-masked) row sums of `c` against `chk`. `routine`
/// names the caller in the VerificationError diagnostic.
template <typename T>
void check_rowsums(const RowSumCheck& chk, const char* routine,
                   MatrixView<const T> c, double tol_scale);

/// Compares sum(v) against a prepared scalar checksum.
template <typename T>
void check_sum(const ScalarCheck& chk, const char* routine,
               VectorView<const T> v, double tol_scale);

}  // namespace fblas::verify
