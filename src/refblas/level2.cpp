#include "refblas/level2.hpp"

#include "common/error.hpp"

namespace fblas::ref {

template <typename T>
void gemv(Transpose trans, T alpha, MatrixView<const T> A,
          VectorView<const T> x, T beta, VectorView<T> y) {
  const std::int64_t n = A.rows(), m = A.cols();
  if (trans == Transpose::None) {
    FBLAS_REQUIRE(x.size() == m && y.size() == n, "gemv: shape mismatch");
    // Four rows per sweep over x, each accumulated over ascending j on
    // its own chain, so the chains overlap and every row's sum is the
    // one-row loop's.
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      T acc0 = T(0), acc1 = T(0), acc2 = T(0), acc3 = T(0);
      for (std::int64_t j = 0; j < m; ++j) {
        const T xj = x[j];
        acc0 += A(i, j) * xj;
        acc1 += A(i + 1, j) * xj;
        acc2 += A(i + 2, j) * xj;
        acc3 += A(i + 3, j) * xj;
      }
      y[i] = alpha * acc0 + beta * y[i];
      y[i + 1] = alpha * acc1 + beta * y[i + 1];
      y[i + 2] = alpha * acc2 + beta * y[i + 2];
      y[i + 3] = alpha * acc3 + beta * y[i + 3];
    }
    for (; i < n; ++i) {
      T acc = T(0);
      for (std::int64_t j = 0; j < m; ++j) acc += A(i, j) * x[j];
      y[i] = alpha * acc + beta * y[i];
    }
  } else {
    FBLAS_REQUIRE(x.size() == n && y.size() == m, "gemv^T: shape mismatch");
    for (std::int64_t j = 0; j < m; ++j) y[j] *= beta;
    for (std::int64_t i = 0; i < n; ++i) {
      const T xi = alpha * x[i];
      for (std::int64_t j = 0; j < m; ++j) y[j] += A(i, j) * xi;
    }
  }
}

template <typename T>
void trsv(Uplo uplo, Transpose trans, Diag diag, MatrixView<const T> A,
          VectorView<T> x) {
  const std::int64_t n = A.rows();
  FBLAS_REQUIRE(A.cols() == n && x.size() == n, "trsv: shape mismatch");
  // Effective orientation: transposing flips the triangle.
  const bool lower =
      (uplo == Uplo::Lower) == (trans == Transpose::None);
  auto a = [&](std::int64_t i, std::int64_t j) -> T {
    return trans == Transpose::None ? A(i, j) : A(j, i);
  };
  if (lower) {
    for (std::int64_t i = 0; i < n; ++i) {
      T acc = x[i];
      for (std::int64_t j = 0; j < i; ++j) acc -= a(i, j) * x[j];
      x[i] = diag == Diag::Unit ? acc : acc / a(i, i);
    }
  } else {
    for (std::int64_t i = n - 1; i >= 0; --i) {
      T acc = x[i];
      for (std::int64_t j = i + 1; j < n; ++j) acc -= a(i, j) * x[j];
      x[i] = diag == Diag::Unit ? acc : acc / a(i, i);
    }
  }
}

template <typename T>
void ger(T alpha, VectorView<const T> x, VectorView<const T> y,
         MatrixView<T> A) {
  FBLAS_REQUIRE(x.size() == A.rows() && y.size() == A.cols(),
                "ger: shape mismatch");
  for (std::int64_t i = 0; i < A.rows(); ++i) {
    const T xi = alpha * x[i];
    for (std::int64_t j = 0; j < A.cols(); ++j) A(i, j) += xi * y[j];
  }
}

template <typename T>
void syr(Uplo uplo, T alpha, VectorView<const T> x, MatrixView<T> A) {
  const std::int64_t n = A.rows();
  FBLAS_REQUIRE(A.cols() == n && x.size() == n, "syr: shape mismatch");
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) A(i, j) += alpha * x[i] * x[j];
  }
}

template <typename T>
void syr2(Uplo uplo, T alpha, VectorView<const T> x, VectorView<const T> y,
          MatrixView<T> A) {
  const std::int64_t n = A.rows();
  FBLAS_REQUIRE(A.cols() == n && x.size() == n && y.size() == n,
                "syr2: shape mismatch");
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) {
      A(i, j) += alpha * (x[i] * y[j] + y[i] * x[j]);
    }
  }
}

#define FBLAS_REF_L2_INSTANTIATE(T)                                        \
  template void gemv<T>(Transpose, T, MatrixView<const T>,                 \
                        VectorView<const T>, T, VectorView<T>);            \
  template void trsv<T>(Uplo, Transpose, Diag, MatrixView<const T>,        \
                        VectorView<T>);                                    \
  template void ger<T>(T, VectorView<const T>, VectorView<const T>,        \
                       MatrixView<T>);                                     \
  template void syr<T>(Uplo, T, VectorView<const T>, MatrixView<T>);       \
  template void syr2<T>(Uplo, T, VectorView<const T>, VectorView<const T>, \
                        MatrixView<T>);

FBLAS_REF_L2_INSTANTIATE(float)
FBLAS_REF_L2_INSTANTIATE(double)
#undef FBLAS_REF_L2_INSTANTIATE

}  // namespace fblas::ref
