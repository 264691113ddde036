#include "verify/abft.hpp"

#include <cmath>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace fblas::verify {
namespace {

// NaN-rejecting comparison: a non-finite `got` against a finite
// prediction always mismatches.
bool mismatch(double got, double pred, double tol) {
  return !(std::abs(got - pred) <= tol);
}

[[noreturn]] void reject(const char* routine, const char* what,
                         std::int64_t idx, double got, double pred,
                         double tol) {
  std::ostringstream os;
  os.precision(17);
  os << "ABFT verification failed: " << routine << " " << what;
  if (idx >= 0) os << " [" << idx << "]";
  os << ": got " << got << ", predicted " << pred << " (tolerance " << tol
     << ") — silent data corruption suspected";
  throw VerificationError(os.str());
}

template <typename T>
double abs_floor() {
  // Absolute floor under the relative bound, so an all-zero checksum
  // still accepts an exactly-zero result while any real corruption
  // (which perturbs an exponent byte) lands far above it.
  return static_cast<double>(std::numeric_limits<T>::min());
}

bool finite(double v) { return std::isfinite(v); }

template <typename C>
bool all_finite(const C& v) {
  for (double d : v) {
    if (!std::isfinite(d)) return false;
  }
  return true;
}

/// A strided operand read as an (i, l) array in double: element (i, l)
/// is p[i * rs + l * cs].
template <typename T>
struct Panel {
  const T* p = nullptr;
  std::int64_t rs = 0, cs = 0;

  double operator()(std::int64_t i, std::int64_t l) const {
    return static_cast<double>(p[i * rs + l * cs]);
  }
  Panel t() const { return {p, cs, rs}; }
};

/// op(M) of a row-major matrix; a vector as one column or one row.
template <typename T>
Panel<T> op(MatrixView<const T> m, Transpose t = Transpose::None) {
  const Panel<T> p{m.data(), m.ld(), 1};
  return t == Transpose::None ? p : p.t();
}
template <typename T>
Panel<T> column(VectorView<const T> v) {
  return {v.data(), v.inc(), 0};
}
template <typename T>
Panel<T> row(VectorView<const T> v) {
  return {v.data(), 0, v.inc()};
}

/// op(A) of a triangular-stored A: structural zeros off the stored
/// triangle (`tri` keeps l <= i for +1, l >= i for -1), implicit ones on
/// a unit diagonal. A type of its own, so the Panel every other checker
/// reads in its inner loops carries no mask branch.
template <typename T>
struct TriPanel {
  Panel<T> a;
  int tri = 0;
  bool unit = false;

  TriPanel(MatrixView<const T> m, Uplo uplo, Transpose trans, Diag diag)
      : a(op(m, trans)),
        tri((uplo == Uplo::Lower) == (trans == Transpose::None) ? 1 : -1),
        unit(diag == Diag::Unit) {}
  double operator()(std::int64_t i, std::int64_t l) const {
    if (tri > 0 ? l > i : l < i) return 0.0;
    return unit && i == l ? 1.0 : a(i, l);
  }
  TriPanel t() const {
    TriPanel r = *this;
    r.a = a.t();
    r.tri = -tri;
    return r;
  }
};

/// Sum (value, |value|) of row i of `c` over its stored span: j <= i for
/// tri = +1 (lower), j >= i for tri = -1 (upper), the full `cols` for 0.
template <typename T>
std::pair<double, double> span_sum(Panel<T> c, std::int64_t i,
                                   std::int64_t cols, int tri) {
  double sum = 0.0, mag = 0.0;
  for (std::int64_t j = tri < 0 ? i : 0; j < (tri > 0 ? i + 1 : cols); ++j) {
    const double v = c(i, j);
    sum += v;
    mag += std::abs(v);
  }
  return {sum, mag};
}

template <typename T>
std::pair<double, double> vec_sum(VectorView<const T> v) {
  return span_sum(row(v), 0, v.size(), 0);
}

/// One term U·V^T of a rank-k update: U is rows x k, V is cols x k.
template <typename U, typename V>
struct Pair {
  U u;
  V v;
};

/// The prediction every matrix checker shares: per row i, the sum over
/// its stored span (as in span_sum) of beta·C0 + alpha·Σ_p U_p·V_p^T,
/// with the same sum over absolute values as the magnitude. Row i's span
/// sum of U_p·V_p^T is U_p(i, :) · (V_p's column sums over the span), so
/// the column sums are folded once for a full span, or as a running
/// prefix (lower) or suffix (upper) for a triangle: O((rows + cols)·k)
/// per pair instead of the O(rows·cols·k) product.
template <typename T, typename U = Panel<T>>
RowSumCheck update_rowsums(
    int tri, std::int64_t rows, std::int64_t cols, std::int64_t k,
    double alpha, std::initializer_list<Pair<U, Panel<T>>> pairs, double beta,
    Panel<T> c0, std::int64_t terms) {
  RowSumCheck chk{std::vector<double>(static_cast<std::size_t>(rows)),
                  std::vector<double>(static_cast<std::size_t>(rows)), terms,
                  tri};
  std::vector<double> vs(pairs.size() * static_cast<std::size_t>(k), 0.0);
  std::vector<double> va = vs;
  const auto fold = [&](std::int64_t j) {
    std::size_t at = 0;
    for (const auto& pr : pairs) {
      for (std::int64_t l = 0; l < k; ++l, ++at) {
        const double v = pr.v(j, l);
        vs[at] += v;
        va[at] += std::abs(v);
      }
    }
  };
  if (tri == 0) {
    for (std::int64_t j = 0; j < cols; ++j) fold(j);
  }
  for (std::int64_t s = 0; s < rows; ++s) {
    const std::int64_t i = tri < 0 ? rows - 1 - s : s;
    if (tri != 0) fold(i);
    double p = 0.0, g = 0.0;
    std::size_t at = 0;
    for (const auto& pr : pairs) {
      for (std::int64_t l = 0; l < k; ++l, ++at) {
        const double u = pr.u(i, l);
        p += u * vs[at];
        g += std::abs(u) * va[at];
      }
    }
    p *= alpha;
    g *= std::abs(alpha);
    if (beta != 0.0) {
      const auto [c, cm] = span_sum(c0, i, cols, tri);
      p += beta * c;
      g += std::abs(beta) * cm;
    }
    chk.pred[static_cast<std::size_t>(i)] = p;
    chk.mag[static_cast<std::size_t>(i)] = g;
  }
  chk.skip = !all_finite(chk.pred) || !all_finite(chk.mag);
  return chk;
}

/// The prediction every mutating Level-1 checker shares: a·Σx + b·Σy from
/// the sums (Σx, Σ|x|) and (Σy, Σ|y|).
ScalarCheck linear_sum(double a, std::pair<double, double> x, double b,
                       std::pair<double, double> y, std::int64_t terms) {
  return scalar_check(a * x.first + b * y.first,
                      std::abs(a) * x.second + std::abs(b) * y.second, terms);
}

/// The comparison every row-checksum checker shares: line i's observed
/// (sum, |sum|) from `got(i)` against pred[i] within
/// rel_bound(terms)·(predicted + observed magnitude).
template <typename T, typename Got>
void compare_lines(const char* routine, const char* what,
                   const std::vector<double>& pred,
                   const std::vector<double>& mag, std::int64_t terms,
                   double tol_scale, Got got) {
  const double rel = rel_bound<T>(terms, tol_scale);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const auto [sum, sum_mag] = got(static_cast<std::int64_t>(i));
    const double tol = rel * (mag[i] + sum_mag) + abs_floor<T>();
    if (mismatch(sum, pred[i], tol)) {
      reject(routine, what, static_cast<std::int64_t>(i), sum, pred[i], tol);
    }
  }
}

}  // namespace

// --- Generic check entry points -----------------------------------------

template <typename T>
void check_rowsums(const RowSumCheck& chk, const char* routine,
                   MatrixView<const T> c, double tol_scale) {
  if (chk.skip) return;
  compare_lines<T>(routine, "row checksum", chk.pred, chk.mag, chk.terms,
                   tol_scale, [&](std::int64_t i) {
                     return span_sum(op(c), i, c.cols(), chk.tri);
                   });
}

template <typename T>
void check_sum(const ScalarCheck& chk, const char* routine,
               VectorView<const T> v, double tol_scale) {
  if (chk.skip) return;
  const auto [got, got_mag] = vec_sum(v);
  const double tol = rel_bound<T>(chk.terms, tol_scale) * (chk.mag + got_mag) +
                     abs_floor<T>();
  if (mismatch(got, chk.pred, tol)) {
    reject(routine, "sum checksum", -1, got, chk.pred, tol);
  }
}

// --- Level 3 -------------------------------------------------------------

template <typename T>
GemmCheck gemm_prepare(Transpose ta, Transpose tb, std::int64_t m,
                       std::int64_t n, std::int64_t k, T alpha,
                       MatrixView<const T> a, MatrixView<const T> b, T beta,
                       MatrixView<const T> c0) {
  // Rows of C = op(A)·op(B); columns are the rows of C^T = op(B)^T·op(A)^T.
  const Panel<T> opa = op(a, ta), opbt = op(b, tb).t();
  RowSumCheck rows = update_rowsums<T>(0, m, n, k, alpha, {{opa, opbt}}, beta,
                                       op(c0), k + n);
  RowSumCheck cols = update_rowsums<T>(0, n, m, k, alpha, {{opbt, opa}},
                                       beta, op(c0).t(), k + m);
  rows.skip = rows.skip || cols.skip;
  const bool skip = rows.skip;
  return {std::move(rows), std::move(cols.pred), std::move(cols.mag),
          cols.terms, skip};
}

template <typename T>
void gemm_check(const GemmCheck& chk, MatrixView<const T> c,
                double tol_scale) {
  if (chk.skip) return;
  check_rowsums<T>(chk.rows, "gemm", c, tol_scale);
  compare_lines<T>("gemm", "column checksum", chk.col_pred, chk.col_mag,
                   chk.col_terms, tol_scale, [&](std::int64_t j) {
                     return span_sum(op(c).t(), j, c.rows(), 0);
                   });
}

template <typename T>
RowSumCheck syrk_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                         std::int64_t k, T alpha, MatrixView<const T> a,
                         T beta, MatrixView<const T> c0) {
  // Σ_{j in span} a_i·a_j = a_i · Σ_{j in span} a_j.
  const Panel<T> opa = op(a, trans);
  return update_rowsums<T>(uplo == Uplo::Lower ? 1 : -1, n, n, k, alpha,
                           {{opa, opa}}, beta, op(c0), n + k);
}

template <typename T>
RowSumCheck syr2k_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, MatrixView<const T> a,
                          MatrixView<const T> b, T beta,
                          MatrixView<const T> c0) {
  const Panel<T> opa = op(a, trans), opb = op(b, trans);
  return update_rowsums<T>(uplo == Uplo::Lower ? 1 : -1, n, n, k, alpha,
                           {{opa, opb}, {opb, opa}}, beta, op(c0), n + k);
}

template <typename T>
RowSumCheck trsm_prepare(Side side, std::int64_t m, std::int64_t n, T alpha,
                         MatrixView<const T> b0) {
  // alpha·(B0·e) per row (Left) or alpha·(e^T·B0) per column (Right):
  // the one-column update alpha·B0·e, or alpha·B0^T·e.
  static const T one = 1;
  const bool left = side == Side::Left;
  return update_rowsums<T>(0, left ? m : n, 1, left ? n : m, alpha,
                           {{left ? op(b0) : op(b0).t(), Panel<T>{&one}}},
                           0.0, {}, m + n);
}

template <typename T>
void trsm_check(const RowSumCheck& chk, Side side, Uplo uplo,
                Transpose trans, Diag diag, std::int64_t m, std::int64_t n,
                MatrixView<const T> a, MatrixView<const T> x,
                double tol_scale) {
  if (chk.skip) return;
  // Residual checksum: op(A)·(X·e) == alpha·(B0·e) for a Left solve,
  // (e^T X)·op(A) == alpha·e^T B0 for a Right solve — the row sums of
  // op(A)·X, or of op(A)^T·X^T.
  const bool left = side == Side::Left;
  const TriPanel<T> opa(a, uplo, trans, diag);
  const RowSumCheck r = update_rowsums<T, TriPanel<T>>(
      0, left ? m : n, left ? n : m, left ? m : n, 1.0,
      {{left ? opa : opa.t(), left ? op(x).t() : op(x)}}, 0.0, {}, 0);
  compare_lines<T>("trsm", "residual checksum", chk.pred, chk.mag, chk.terms,
                   tol_scale, [&](std::int64_t i) {
                     const auto u = static_cast<std::size_t>(i);
                     return std::pair<double, double>{r.pred[u], r.mag[u]};
                   });
}

// --- Level 2 -------------------------------------------------------------

template <typename T>
ScalarCheck gemv_prepare(Transpose trans, std::int64_t rows,
                         std::int64_t cols, T alpha, MatrixView<const T> a,
                         VectorView<const T> x, T beta,
                         VectorView<const T> y0) {
  // e^T y as the one row y^T = alpha·x^T·op(A)^T + beta·y0^T.
  const std::int64_t xlen = trans == Transpose::None ? cols : rows;
  const std::int64_t ylen = trans == Transpose::None ? rows : cols;
  const RowSumCheck r = update_rowsums<T>(
      0, 1, ylen, xlen, alpha, {{row(x), op(a, trans)}}, beta, row(y0), 0);
  return scalar_check(r.pred[0], r.mag[0], xlen + ylen);
}

template <typename T>
ScalarCheck trsv_prepare(std::int64_t n, VectorView<const T> b0) {
  const auto [p, g] = vec_sum(b0);
  return scalar_check(p, g, 2 * n);
}

template <typename T>
void trsv_check(const ScalarCheck& chk, Uplo uplo, Transpose trans,
                Diag diag, std::int64_t n, MatrixView<const T> a,
                VectorView<const T> x, double tol_scale) {
  if (chk.skip) return;
  // Residual checksum: e^T op(A) x_new == e^T b0.
  const TriPanel<T> opa(a, uplo, trans, diag);
  double r = 0.0, rmag = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t l = 0; l < n; ++l) {
      const double e = opa(i, l);
      const double xv = static_cast<double>(x[l]);
      r += e * xv;
      rmag += std::abs(e * xv);
    }
  }
  const double tol =
      rel_bound<T>(chk.terms, tol_scale) * (rmag + chk.mag) + abs_floor<T>();
  if (mismatch(r, chk.pred, tol)) {
    reject("trsv", "residual checksum", -1, r, chk.pred, tol);
  }
}

template <typename T>
RowSumCheck ger_prepare(std::int64_t rows, std::int64_t cols, T alpha,
                        VectorView<const T> x, VectorView<const T> y,
                        MatrixView<const T> a0) {
  return update_rowsums<T>(0, rows, cols, 1, alpha, {{column(x), column(y)}},
                           1.0, op(a0), cols + 2);
}

template <typename T>
RowSumCheck syr_prepare(Uplo uplo, std::int64_t n, T alpha,
                        VectorView<const T> x, MatrixView<const T> a0) {
  return update_rowsums<T>(uplo == Uplo::Lower ? 1 : -1, n, n, 1, alpha,
                           {{column(x), column(x)}}, 1.0, op(a0), n + 2);
}

template <typename T>
RowSumCheck syr2_prepare(Uplo uplo, std::int64_t n, T alpha,
                         VectorView<const T> x, VectorView<const T> y,
                         MatrixView<const T> a0) {
  return update_rowsums<T>(uplo == Uplo::Lower ? 1 : -1, n, n, 1, alpha,
                           {{column(x), column(y)}, {column(y), column(x)}},
                           1.0, op(a0), n + 2);
}

// --- Level 1 -------------------------------------------------------------

template <typename T>
ScalarCheck scal_prepare(T alpha, VectorView<const T> x0) {
  return linear_sum(alpha, vec_sum(x0), 0.0, {}, x0.size());
}

template <typename T>
ScalarCheck axpy_prepare(T alpha, VectorView<const T> x,
                         VectorView<const T> y0) {
  return linear_sum(alpha, vec_sum(x), 1.0, vec_sum(y0), 2 * x.size());
}

template <typename T>
ScalarCheck copy_prepare(VectorView<const T> x) {
  return linear_sum(1.0, vec_sum(x), 0.0, {}, x.size());
}

template <typename T>
PairCheck pair_prepare(VectorView<const T> x0, VectorView<const T> y0,
                       std::array<T, 4> h) {
  const auto sx = vec_sum(x0), sy = vec_sum(y0);
  // Each output element accumulates one term per nonzero coefficient.
  const auto line = [&](T a, T b) {
    return linear_sum(a, sx, b, sy,
                      (int{a != T(0)} + int{b != T(0)}) * x0.size());
  };
  return {line(h[0], h[1]), line(h[2], h[3])};
}

template <typename T>
void dot_check(VectorView<const T> x, VectorView<const T> y, T result,
               double tol_scale, double sb) {
  double p = sb, g = std::abs(sb);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const double v = static_cast<double>(x[i]) * static_cast<double>(y[i]);
    p += v;
    g += std::abs(v);
  }
  if (!finite(p) || !finite(g)) return;
  const double tol = rel_bound<T>(x.size(), tol_scale) * g + abs_floor<T>();
  if (mismatch(static_cast<double>(result), p, tol)) {
    reject("dot", "product checksum", -1, static_cast<double>(result), p,
           tol);
  }
}

template <typename T>
void nrm2_check(VectorView<const T> x, T result, double tol_scale) {
  const std::int64_t n = x.size();
  const double got = static_cast<double>(result);
  double maxabs = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = std::abs(static_cast<double>(x[i]));
    if (!std::isfinite(a)) return;  // non-finite inputs: taint's job
    if (a > maxabs) maxabs = a;
  }
  const double f = rel_bound<T>(n, tol_scale);
  const double lo = maxabs * (1.0 - f) - abs_floor<T>();
  const double hi =
      std::sqrt(static_cast<double>(n)) * maxabs * (1.0 + f) + abs_floor<T>();
  // A NaN/negative/out-of-range result fails all three predicates.
  if (!(got >= 0.0) || !(got >= lo) || !(got <= hi)) {
    reject("nrm2", "range invariant", -1, got, maxabs, hi);
  }
}

template <typename T>
void asum_check(VectorView<const T> x, T result, double tol_scale) {
  double p = 0.0;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    p += std::abs(static_cast<double>(x[i]));
  }
  if (!finite(p)) return;
  const double tol = rel_bound<T>(x.size(), tol_scale) * p + abs_floor<T>();
  if (mismatch(static_cast<double>(result), p, tol)) {
    reject("asum", "absolute-sum checksum", -1, static_cast<double>(result),
           p, tol);
  }
}

template <typename T>
void iamax_check(VectorView<const T> x, std::int64_t result) {
  const std::int64_t n = x.size();
  if (n == 0) {
    if (result != -1) {
      reject("iamax", "empty-input invariant", -1,
             static_cast<double>(result), -1.0, 0.0);
    }
    return;
  }
  if (result < 0 || result >= n) {
    reject("iamax", "index-range invariant", -1,
           static_cast<double>(result), static_cast<double>(n), 0.0);
  }
  double maxabs = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = std::abs(static_cast<double>(x[i]));
    if (!std::isfinite(a)) return;
    if (a > maxabs) maxabs = a;
  }
  // Inputs are unchanged by IAMAX, so the winner must hold the exact max.
  const double at = std::abs(static_cast<double>(x[result]));
  if (at != maxabs) {
    reject("iamax", "maximum invariant", result, at, maxabs, 0.0);
  }
}

// --- Explicit instantiations --------------------------------------------

#define FBLAS_VERIFY_INSTANTIATE(T)                                          \
  template GemmCheck gemm_prepare<T>(Transpose, Transpose, std::int64_t,     \
                                     std::int64_t, std::int64_t, T,          \
                                     MatrixView<const T>,                    \
                                     MatrixView<const T>, T,                 \
                                     MatrixView<const T>);                   \
  template void gemm_check<T>(const GemmCheck&, MatrixView<const T>,         \
                              double);                                       \
  template RowSumCheck syrk_prepare<T>(Uplo, Transpose, std::int64_t,        \
                                       std::int64_t, T, MatrixView<const T>, \
                                       T, MatrixView<const T>);              \
  template RowSumCheck syr2k_prepare<T>(Uplo, Transpose, std::int64_t,       \
                                        std::int64_t, T,                     \
                                        MatrixView<const T>,                 \
                                        MatrixView<const T>, T,              \
                                        MatrixView<const T>);                \
  template RowSumCheck trsm_prepare<T>(Side, std::int64_t, std::int64_t, T,  \
                                       MatrixView<const T>);                 \
  template void trsm_check<T>(const RowSumCheck&, Side, Uplo, Transpose,     \
                              Diag, std::int64_t, std::int64_t,              \
                              MatrixView<const T>, MatrixView<const T>,      \
                              double);                                       \
  template ScalarCheck gemv_prepare<T>(Transpose, std::int64_t,              \
                                       std::int64_t, T, MatrixView<const T>, \
                                       VectorView<const T>, T,               \
                                       VectorView<const T>);                 \
  template ScalarCheck trsv_prepare<T>(std::int64_t, VectorView<const T>);   \
  template void trsv_check<T>(const ScalarCheck&, Uplo, Transpose, Diag,     \
                              std::int64_t, MatrixView<const T>,             \
                              VectorView<const T>, double);                  \
  template RowSumCheck ger_prepare<T>(std::int64_t, std::int64_t, T,         \
                                      VectorView<const T>,                   \
                                      VectorView<const T>,                   \
                                      MatrixView<const T>);                  \
  template RowSumCheck syr_prepare<T>(Uplo, std::int64_t, T,                 \
                                      VectorView<const T>,                   \
                                      MatrixView<const T>);                  \
  template RowSumCheck syr2_prepare<T>(Uplo, std::int64_t, T,                \
                                       VectorView<const T>,                  \
                                       VectorView<const T>,                  \
                                       MatrixView<const T>);                 \
  template ScalarCheck scal_prepare<T>(T, VectorView<const T>);              \
  template ScalarCheck axpy_prepare<T>(T, VectorView<const T>,               \
                                       VectorView<const T>);                 \
  template ScalarCheck copy_prepare<T>(VectorView<const T>);                 \
  template PairCheck pair_prepare<T>(VectorView<const T>,                    \
                                     VectorView<const T>, std::array<T, 4>); \
  template void dot_check<T>(VectorView<const T>, VectorView<const T>, T,    \
                             double, double);                                \
  template void nrm2_check<T>(VectorView<const T>, T, double);               \
  template void asum_check<T>(VectorView<const T>, T, double);               \
  template void iamax_check<T>(VectorView<const T>, std::int64_t);           \
  template void check_rowsums<T>(const RowSumCheck&, const char*,            \
                                 MatrixView<const T>, double);               \
  template void check_sum<T>(const ScalarCheck&, const char*,                \
                             VectorView<const T>, double);

FBLAS_VERIFY_INSTANTIATE(float)
FBLAS_VERIFY_INSTANTIATE(double)
#undef FBLAS_VERIFY_INSTANTIATE

}  // namespace fblas::verify
