#include "verify/abft.hpp"

#include <cmath>
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

/// Element accessor for op(A) with A triangular-stored: structural
/// zeros outside the stored triangle, implicit ones on a unit diagonal.
template <typename T>
struct TriOp {
  MatrixView<const T> a;
  Uplo uplo;
  Transpose trans;
  Diag diag;

  double operator()(std::int64_t r, std::int64_t c) const {
    const std::int64_t ai = trans == Transpose::None ? r : c;
    const std::int64_t aj = trans == Transpose::None ? c : r;
    if (ai == aj) {
      return diag == Diag::Unit ? 1.0 : static_cast<double>(a(ai, aj));
    }
    const bool stored = uplo == Uplo::Lower ? ai > aj : ai < aj;
    return stored ? static_cast<double>(a(ai, aj)) : 0.0;
  }
};

/// Sum (value, |value|) of the stored part of row i of a triangular
/// result: j <= i for tri = +1 (lower), j >= i for tri = -1 (upper),
/// the full row for tri = 0.
template <typename T>
std::pair<double, double> row_span_sum(MatrixView<const T> c, std::int64_t i,
                                       int tri) {
  const std::int64_t j0 = tri < 0 ? i : 0;
  const std::int64_t j1 = tri > 0 ? i + 1 : c.cols();
  double sum = 0.0, mag = 0.0;
  for (std::int64_t j = j0; j < j1; ++j) {
    const double v = static_cast<double>(c(i, j));
    sum += v;
    mag += std::abs(v);
  }
  return {sum, mag};
}

template <typename T>
std::pair<double, double> vec_sum(VectorView<const T> v) {
  double sum = 0.0, mag = 0.0;
  for (std::int64_t i = 0; i < v.size(); ++i) {
    const double x = static_cast<double>(v[i]);
    sum += x;
    mag += std::abs(x);
  }
  return {sum, mag};
}

}  // namespace

// --- Generic check entry points -----------------------------------------

template <typename T>
void check_rowsums(const RowSumCheck& chk, const char* routine,
                   MatrixView<const T> c, double tol_scale) {
  if (chk.skip) return;
  const double rel = rel_bound<T>(chk.terms, tol_scale);
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(chk.pred.size());
       ++i) {
    const auto [got, got_mag] = row_span_sum(c, i, chk.tri);
    const double tol = rel * (chk.mag[static_cast<std::size_t>(i)] + got_mag) +
                       abs_floor<T>();
    if (mismatch(got, chk.pred[static_cast<std::size_t>(i)], tol)) {
      reject(routine, "row checksum", i, got,
             chk.pred[static_cast<std::size_t>(i)], tol);
    }
  }
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
GemmCheck<T> gemm_prepare(Transpose ta, Transpose tb, std::int64_t m,
                          std::int64_t n, std::int64_t k, T alpha,
                          MatrixView<const T> a, MatrixView<const T> b,
                          T beta, MatrixView<const T> c0) {
  GemmCheck<T> chk;
  const auto opa = [&](std::int64_t i, std::int64_t l) {
    return static_cast<double>(ta == Transpose::None ? a(i, l) : a(l, i));
  };
  const auto opb = [&](std::int64_t l, std::int64_t j) {
    return static_cast<double>(tb == Transpose::None ? b(l, j) : b(j, l));
  };
  // Right checksums of op(B) (row sums) and left checksums of op(A)
  // (column sums), plus their absolute-value twins for the bound.
  std::vector<double> bs(static_cast<std::size_t>(k), 0.0), babs = bs;
  for (std::int64_t l = 0; l < k; ++l) {
    for (std::int64_t j = 0; j < n; ++j) {
      const double v = opb(l, j);
      bs[static_cast<std::size_t>(l)] += v;
      babs[static_cast<std::size_t>(l)] += std::abs(v);
    }
  }
  std::vector<double> as(static_cast<std::size_t>(k), 0.0), aabs = as;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t l = 0; l < k; ++l) {
      const double v = opa(i, l);
      as[static_cast<std::size_t>(l)] += v;
      aabs[static_cast<std::size_t>(l)] += std::abs(v);
    }
  }
  const double al = static_cast<double>(alpha);
  const double be = static_cast<double>(beta);
  chk.rows.pred.assign(static_cast<std::size_t>(m), 0.0);
  chk.rows.mag = chk.rows.pred;
  for (std::int64_t i = 0; i < m; ++i) {
    double p = 0.0, g = 0.0;
    for (std::int64_t l = 0; l < k; ++l) {
      p += opa(i, l) * bs[static_cast<std::size_t>(l)];
      g += std::abs(opa(i, l)) * babs[static_cast<std::size_t>(l)];
    }
    p *= al;
    g *= std::abs(al);
    if (be != 0.0) {
      for (std::int64_t j = 0; j < n; ++j) {
        const double v = static_cast<double>(c0(i, j));
        p += be * v;
        g += std::abs(be * v);
      }
    }
    chk.rows.pred[static_cast<std::size_t>(i)] = p;
    chk.rows.mag[static_cast<std::size_t>(i)] = g;
  }
  chk.rows.terms = k + n;
  chk.rows.tri = 0;
  chk.col_pred.assign(static_cast<std::size_t>(n), 0.0);
  chk.col_mag = chk.col_pred;
  for (std::int64_t j = 0; j < n; ++j) {
    double p = 0.0, g = 0.0;
    for (std::int64_t l = 0; l < k; ++l) {
      p += as[static_cast<std::size_t>(l)] * opb(l, j);
      g += aabs[static_cast<std::size_t>(l)] * std::abs(opb(l, j));
    }
    p *= al;
    g *= std::abs(al);
    if (be != 0.0) {
      for (std::int64_t i = 0; i < m; ++i) {
        const double v = static_cast<double>(c0(i, j));
        p += be * v;
        g += std::abs(be * v);
      }
    }
    chk.col_pred[static_cast<std::size_t>(j)] = p;
    chk.col_mag[static_cast<std::size_t>(j)] = g;
  }
  chk.col_terms = k + m;
  chk.skip = !all_finite(chk.rows.pred) || !all_finite(chk.rows.mag) ||
             !all_finite(chk.col_pred) || !all_finite(chk.col_mag);
  chk.rows.skip = chk.skip;
  return chk;
}

template <typename T>
void gemm_check(const GemmCheck<T>& chk, MatrixView<const T> c,
                double tol_scale) {
  if (chk.skip) return;
  check_rowsums<T>(chk.rows, "gemm", c, tol_scale);
  const double rel = rel_bound<T>(chk.col_terms, tol_scale);
  for (std::int64_t j = 0; j < static_cast<std::int64_t>(chk.col_pred.size());
       ++j) {
    double got = 0.0, got_mag = 0.0;
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      const double v = static_cast<double>(c(i, j));
      got += v;
      got_mag += std::abs(v);
    }
    const double tol =
        rel * (chk.col_mag[static_cast<std::size_t>(j)] + got_mag) +
        abs_floor<T>();
    if (mismatch(got, chk.col_pred[static_cast<std::size_t>(j)], tol)) {
      reject("gemm", "column checksum", j, got,
             chk.col_pred[static_cast<std::size_t>(j)], tol);
    }
  }
}

namespace {

// Shared triangular-update checksum: per stored row i, the sum of the
// rank-k update over the stored span collapses to a running prefix
// (lower) or suffix (upper) checksum of the panel rows — O(nk) instead
// of the O(n^2 k) full product. `term(i, run_a, run_b)` produces the
// update contribution of row i given the running checksums.
template <typename T, typename Row, typename Term>
RowSumCheck tri_update_prepare(Uplo uplo, std::int64_t n, std::int64_t k,
                               double beta, MatrixView<const T> c0, Row row,
                               Term term) {
  RowSumCheck chk;
  chk.pred.assign(static_cast<std::size_t>(n), 0.0);
  chk.mag = chk.pred;
  chk.tri = uplo == Uplo::Lower ? 1 : -1;
  chk.terms = n + k;
  const std::int64_t i0 = uplo == Uplo::Lower ? 0 : n - 1;
  const std::int64_t step = uplo == Uplo::Lower ? 1 : -1;
  std::vector<double> run(static_cast<std::size_t>(2 * k), 0.0);
  std::vector<double> run_abs = run;
  for (std::int64_t s = 0, i = i0; s < n; ++s, i += step) {
    row(i, run, run_abs);  // fold row i into the running checksums
    auto [p, g] = term(i, run, run_abs);
    if (beta != 0.0) {
      const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
      const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
      for (std::int64_t j = j0; j < j1; ++j) {
        const double v = static_cast<double>(c0(i, j));
        p += beta * v;
        g += std::abs(beta * v);
      }
    }
    chk.pred[static_cast<std::size_t>(i)] = p;
    chk.mag[static_cast<std::size_t>(i)] = g;
  }
  chk.skip = !all_finite(chk.pred) || !all_finite(chk.mag);
  return chk;
}

}  // namespace

template <typename T>
RowSumCheck syrk_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                         std::int64_t k, T alpha, MatrixView<const T> a,
                         T beta, MatrixView<const T> c0) {
  const auto opa = [&](std::int64_t i, std::int64_t l) {
    return static_cast<double>(trans == Transpose::None ? a(i, l) : a(l, i));
  };
  const double al = static_cast<double>(alpha);
  return tri_update_prepare<T>(
      uplo, n, k, static_cast<double>(beta), c0,
      [&](std::int64_t i, std::vector<double>& run,
          std::vector<double>& run_abs) {
        for (std::int64_t l = 0; l < k; ++l) {
          const double v = opa(i, l);
          run[static_cast<std::size_t>(l)] += v;
          run_abs[static_cast<std::size_t>(l)] += std::abs(v);
        }
      },
      [&](std::int64_t i, const std::vector<double>& run,
          const std::vector<double>& run_abs) {
        // sum_{j in span} a_i . a_j = a_i . (sum_{j in span} a_j)
        double p = 0.0, g = 0.0;
        for (std::int64_t l = 0; l < k; ++l) {
          p += opa(i, l) * run[static_cast<std::size_t>(l)];
          g += std::abs(opa(i, l)) * run_abs[static_cast<std::size_t>(l)];
        }
        return std::pair<double, double>{al * p, std::abs(al) * g};
      });
}

template <typename T>
RowSumCheck syr2k_prepare(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, MatrixView<const T> a,
                          MatrixView<const T> b, T beta,
                          MatrixView<const T> c0) {
  const auto opa = [&](std::int64_t i, std::int64_t l) {
    return static_cast<double>(trans == Transpose::None ? a(i, l) : a(l, i));
  };
  const auto opb = [&](std::int64_t i, std::int64_t l) {
    return static_cast<double>(trans == Transpose::None ? b(i, l) : b(l, i));
  };
  const double al = static_cast<double>(alpha);
  // run[0:k) accumulates A-panel rows, run[k:2k) B-panel rows.
  return tri_update_prepare<T>(
      uplo, n, k, static_cast<double>(beta), c0,
      [&](std::int64_t i, std::vector<double>& run,
          std::vector<double>& run_abs) {
        for (std::int64_t l = 0; l < k; ++l) {
          run[static_cast<std::size_t>(l)] += opa(i, l);
          run_abs[static_cast<std::size_t>(l)] += std::abs(opa(i, l));
          run[static_cast<std::size_t>(k + l)] += opb(i, l);
          run_abs[static_cast<std::size_t>(k + l)] += std::abs(opb(i, l));
        }
      },
      [&](std::int64_t i, const std::vector<double>& run,
          const std::vector<double>& run_abs) {
        // sum_{j in span} (a_i.b_j + b_i.a_j) = a_i.runB + b_i.runA
        double p = 0.0, g = 0.0;
        for (std::int64_t l = 0; l < k; ++l) {
          p += opa(i, l) * run[static_cast<std::size_t>(k + l)] +
               opb(i, l) * run[static_cast<std::size_t>(l)];
          g += std::abs(opa(i, l)) * run_abs[static_cast<std::size_t>(k + l)] +
               std::abs(opb(i, l)) * run_abs[static_cast<std::size_t>(l)];
        }
        return std::pair<double, double>{al * p, std::abs(al) * g};
      });
}

template <typename T>
TrsmCheck trsm_prepare(Side side, std::int64_t m, std::int64_t n, T alpha,
                       MatrixView<const T> b0) {
  TrsmCheck chk;
  const double al = static_cast<double>(alpha);
  const std::int64_t dim = side == Side::Left ? m : n;
  chk.pred.assign(static_cast<std::size_t>(dim), 0.0);
  chk.mag = chk.pred;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t r = side == Side::Left ? i : j;
      const double v = al * static_cast<double>(b0(i, j));
      chk.pred[static_cast<std::size_t>(r)] += v;
      chk.mag[static_cast<std::size_t>(r)] += std::abs(v);
    }
  }
  chk.skip = !all_finite(chk.pred) || !all_finite(chk.mag);
  return chk;
}

template <typename T>
void trsm_check(const TrsmCheck& chk, Side side, Uplo uplo, Transpose trans,
                Diag diag, std::int64_t m, std::int64_t n,
                MatrixView<const T> a, MatrixView<const T> x,
                double tol_scale) {
  if (chk.skip) return;
  // Residual checksum: op(A)·(X·e) == alpha·(B0·e) for a Left solve,
  // (e^T X)·op(A) == alpha·e^T B0 for a Right solve.
  const std::int64_t dim = side == Side::Left ? m : n;
  const std::int64_t other = side == Side::Left ? n : m;
  const TriOp<T> opa{a, uplo, trans, diag};
  std::vector<double> s(static_cast<std::size_t>(dim), 0.0), sabs = s;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t r = side == Side::Left ? i : j;
      const double v = static_cast<double>(x(i, j));
      s[static_cast<std::size_t>(r)] += v;
      sabs[static_cast<std::size_t>(r)] += std::abs(v);
    }
  }
  const double rel = rel_bound<T>(dim + other, tol_scale);
  for (std::int64_t i = 0; i < dim; ++i) {
    double r = 0.0, rmag = 0.0;
    for (std::int64_t l = 0; l < dim; ++l) {
      const double e =
          side == Side::Left ? opa(i, l) : opa(l, i);
      r += e * s[static_cast<std::size_t>(l)];
      rmag += std::abs(e) * sabs[static_cast<std::size_t>(l)];
    }
    const double tol =
        rel * (rmag + chk.mag[static_cast<std::size_t>(i)]) + abs_floor<T>();
    if (mismatch(r, chk.pred[static_cast<std::size_t>(i)], tol)) {
      reject("trsm", "residual checksum", i, r,
             chk.pred[static_cast<std::size_t>(i)], tol);
    }
  }
}

// --- Level 2 -------------------------------------------------------------

template <typename T>
ScalarCheck gemv_prepare(Transpose trans, std::int64_t rows,
                         std::int64_t cols, T alpha, MatrixView<const T> a,
                         VectorView<const T> x, T beta,
                         VectorView<const T> y0) {
  const double al = static_cast<double>(alpha);
  const double be = static_cast<double>(beta);
  const std::int64_t xlen = trans == Transpose::None ? cols : rows;
  const std::int64_t ylen = trans == Transpose::None ? rows : cols;
  double p = 0.0, g = 0.0;
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const double xv = static_cast<double>(
          x[trans == Transpose::None ? j : i]);
      const double v = al * static_cast<double>(a(i, j)) * xv;
      p += v;
      g += std::abs(v);
    }
  }
  if (be != 0.0) {
    const auto [sy, say] = vec_sum(y0);
    p += be * sy;
    g += std::abs(be) * say;
  }
  return scalar_check(p, g, xlen + ylen);
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
  const TriOp<T> opa{a, uplo, trans, diag};
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
  RowSumCheck chk;
  const double al = static_cast<double>(alpha);
  const auto [sy, say] = vec_sum(y);
  chk.pred.assign(static_cast<std::size_t>(rows), 0.0);
  chk.mag = chk.pred;
  for (std::int64_t i = 0; i < rows; ++i) {
    double p = 0.0, g = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const double v = static_cast<double>(a0(i, j));
      p += v;
      g += std::abs(v);
    }
    const double xv = static_cast<double>(x[i]);
    chk.pred[static_cast<std::size_t>(i)] = p + al * xv * sy;
    chk.mag[static_cast<std::size_t>(i)] = g + std::abs(al * xv) * say;
  }
  chk.terms = cols + 2;
  chk.tri = 0;
  chk.skip = !all_finite(chk.pred) || !all_finite(chk.mag);
  return chk;
}

namespace {

// SYR/SYR2 stored-span checksum: for row i the update sum over the
// stored span needs the prefix (lower) / suffix (upper) sums of the
// update vectors — the same collapse as the Level-3 triangle.
template <typename T, typename Term>
RowSumCheck tri_rank1_prepare(Uplo uplo, std::int64_t n,
                              MatrixView<const T> a0, Term term) {
  RowSumCheck chk;
  chk.pred.assign(static_cast<std::size_t>(n), 0.0);
  chk.mag = chk.pred;
  chk.tri = uplo == Uplo::Lower ? 1 : -1;
  chk.terms = n + 2;
  const std::int64_t i0 = uplo == Uplo::Lower ? 0 : n - 1;
  const std::int64_t step = uplo == Uplo::Lower ? 1 : -1;
  for (std::int64_t s = 0, i = i0; s < n; ++s, i += step) {
    auto [p, g] = term(i);
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) {
      const double v = static_cast<double>(a0(i, j));
      p += v;
      g += std::abs(v);
    }
    chk.pred[static_cast<std::size_t>(i)] = p;
    chk.mag[static_cast<std::size_t>(i)] = g;
  }
  chk.skip = !all_finite(chk.pred) || !all_finite(chk.mag);
  return chk;
}

}  // namespace

template <typename T>
RowSumCheck syr_prepare(Uplo uplo, std::int64_t n, T alpha,
                        VectorView<const T> x, MatrixView<const T> a0) {
  const double al = static_cast<double>(alpha);
  double px = 0.0, pax = 0.0;  // running span sum of x and |x|
  return tri_rank1_prepare<T>(uplo, n, a0, [&](std::int64_t i) {
    const double xv = static_cast<double>(x[i]);
    px += xv;
    pax += std::abs(xv);
    return std::pair<double, double>{al * xv * px,
                                     std::abs(al * xv) * pax};
  });
}

template <typename T>
RowSumCheck syr2_prepare(Uplo uplo, std::int64_t n, T alpha,
                         VectorView<const T> x, VectorView<const T> y,
                         MatrixView<const T> a0) {
  const double al = static_cast<double>(alpha);
  double px = 0.0, py = 0.0, pax = 0.0, pay = 0.0;
  return tri_rank1_prepare<T>(uplo, n, a0, [&](std::int64_t i) {
    const double xv = static_cast<double>(x[i]);
    const double yv = static_cast<double>(y[i]);
    px += xv;
    py += yv;
    pax += std::abs(xv);
    pay += std::abs(yv);
    // sum_{j in span} (x_i y_j + y_i x_j) = x_i * span(y) + y_i * span(x)
    return std::pair<double, double>{
        al * (xv * py + yv * px),
        std::abs(al) * (std::abs(xv) * pay + std::abs(yv) * pax)};
  });
}

// --- Level 1 -------------------------------------------------------------

template <typename T>
ScalarCheck scal_prepare(T alpha, VectorView<const T> x0) {
  const auto [s, m] = vec_sum(x0);
  return scalar_check(static_cast<double>(alpha) * s,
                      std::abs(static_cast<double>(alpha)) * m, x0.size());
}

template <typename T>
ScalarCheck axpy_prepare(T alpha, VectorView<const T> x,
                         VectorView<const T> y0) {
  const auto [sx, mx] = vec_sum(x);
  const auto [sy, my] = vec_sum(y0);
  return scalar_check(static_cast<double>(alpha) * sx + sy,
                      std::abs(static_cast<double>(alpha)) * mx + my,
                      2 * x.size());
}

template <typename T>
ScalarCheck copy_prepare(VectorView<const T> x) {
  const auto [s, m] = vec_sum(x);
  return scalar_check(s, m, x.size());
}

template <typename T>
PairCheck pair_prepare(VectorView<const T> x0, VectorView<const T> y0,
                       std::array<T, 4> h) {
  const auto [sx, mx] = vec_sum(x0);
  const auto [sy, my] = vec_sum(y0);
  // Each output element accumulates one term per nonzero coefficient.
  const auto row = [&](T a, T b) {
    const double ad = static_cast<double>(a), bd = static_cast<double>(b);
    return scalar_check(ad * sx + bd * sy,
                        std::abs(ad) * mx + std::abs(bd) * my,
                        (int{a != T(0)} + int{b != T(0)}) * x0.size());
  };
  return {row(h[0], h[1]), row(h[2], h[3])};
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
  template GemmCheck<T> gemm_prepare<T>(Transpose, Transpose, std::int64_t,  \
                                        std::int64_t, std::int64_t, T,       \
                                        MatrixView<const T>,                 \
                                        MatrixView<const T>, T,              \
                                        MatrixView<const T>);                \
  template void gemm_check<T>(const GemmCheck<T>&, MatrixView<const T>,      \
                              double);                                       \
  template RowSumCheck syrk_prepare<T>(Uplo, Transpose, std::int64_t,        \
                                       std::int64_t, T, MatrixView<const T>, \
                                       T, MatrixView<const T>);              \
  template RowSumCheck syr2k_prepare<T>(Uplo, Transpose, std::int64_t,       \
                                        std::int64_t, T,                     \
                                        MatrixView<const T>,                 \
                                        MatrixView<const T>, T,              \
                                        MatrixView<const T>);                \
  template TrsmCheck trsm_prepare<T>(Side, std::int64_t, std::int64_t, T,    \
                                     MatrixView<const T>);                   \
  template void trsm_check<T>(const TrsmCheck&, Side, Uplo, Transpose,       \
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
