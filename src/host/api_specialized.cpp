// Specialized matrix routines lowered onto the generic GEMV, per the
// paper's prescription (Sec. VI). Each is one command: its work expands
// the stored triangle into a dense scratch operand (the equivalent of a
// small expansion kernel in front of the generic module) and launches
// the GEMV graph with the RoutineConfig captured at enqueue. The result
// check is GEMV's checksum on the expanded operand, and the CPU fallback
// is the same expansion followed by the reference GEMV.
#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

namespace {

/// The symmetric matrix whose `uplo` triangle `a` stores, dense.
template <typename T>
std::vector<T> expand_symmetric(Uplo uplo, std::int64_t n,
                                const Buffer<T>& a) {
  const auto src = a.cmat(n, n);
  std::vector<T> full(static_cast<std::size_t>(n * n));
  MatrixView<T> D(full.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const bool stored = uplo == Uplo::Lower ? j <= i : j >= i;
      D(i, j) = stored ? src(i, j) : src(j, i);
    }
  }
  return full;
}

/// The triangular matrix `a` stores in `uplo`, dense: the opposite
/// triangle zero-filled, the diagonal forced to one for Diag::Unit.
template <typename T>
std::vector<T> expand_triangular(Uplo uplo, Diag diag, std::int64_t n,
                                 const Buffer<T>& a) {
  const auto src = a.cmat(n, n);
  std::vector<T> full(static_cast<std::size_t>(n * n), T(0));
  MatrixView<T> D(full.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) D(i, j) = src(i, j);
    if (diag == Diag::Unit) D(i, i) = T(1);
  }
  return full;
}

template <typename T>
MatrixView<const T> square(const std::vector<T>& full, std::int64_t n) {
  return MatrixView<const T>(full.data(), n, n);
}

}  // namespace

template <typename T>
Event Context::symv_async(Uplo uplo, std::int64_t n, T alpha,
                          const Buffer<T>& a, const Buffer<T>& x,
                          std::int64_t incx, T beta, Buffer<T>& y,
                          std::int64_t incy) {
  const core::GemvConfig cfg = detail::gemv_config(cfg_, Transpose::None);
  Command cmd;
  cmd.label = "symv";
  cmd.reads = {&a, &x, &y};
  cmd.writes = {&y};
  cmd.work = [this, cfg, uplo, n, alpha, &a, &x, incx, beta, &y, incy] {
    Buffer<T> dense(*dev_, n * n, a.bank());
    dense.write(expand_symmetric(uplo, n, a));
    detail::stream_launch<T>(
        *this, RoutineKind::Gemv, "gemv", cfg.width,
        detail::gemv_operands<T>(cfg, n, n, dense, x, incx, y, incy),
        detail::gemv_module<T>(cfg, n, n, alpha, beta));
  };
  cmd.fallback = [=, &a, &x, &y] {
    ref::gemv(Transpose::None, alpha, square(expand_symmetric(uplo, n, a), n),
              x.cvec(n, incx), beta, y.vec(n, incy));
  };
  return enqueue(std::move(cmd), [=, &a, &x, &y] {
    return [chk = verify::gemv_prepare<T>(
                Transpose::None, n, n, alpha,
                square(expand_symmetric(uplo, n, a), n), x.cvec(n, incx), beta,
                y.cvec(n, incy)),
            &y, incy, n](double scale) {
      verify::check_sum<T>(chk, "symv", y.cvec(n, incy), scale);
    };
  });
}

template <typename T>
Event Context::trmv_async(Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t n, const Buffer<T>& a, Buffer<T>& x,
                          std::int64_t incx) {
  const core::GemvConfig cfg = detail::gemv_config(cfg_, trans);
  Command cmd;
  cmd.label = "trmv";
  cmd.reads = {&a, &x};
  cmd.writes = {&x};
  // x = op(A) x: the GEMV (alpha 1, beta 0) writes a zeroed scratch
  // vector, copied back into x afterwards.
  cmd.work = [this, cfg, uplo, diag, n, &a, &x, incx] {
    Buffer<T> dense(*dev_, n * n, a.bank());
    dense.write(expand_triangular(uplo, diag, n, a));
    Buffer<T> result(*dev_, n, x.bank());
    result.write(std::vector<T>(static_cast<std::size_t>(n), T(0)));
    detail::stream_launch<T>(
        *this, RoutineKind::Gemv, "gemv", cfg.width,
        detail::gemv_operands<T>(cfg, n, n, dense, x, incx, result, 1),
        detail::gemv_module<T>(cfg, n, n, T(1), T(0)));
    ref::copy(result.cvec(n), x.vec(n, incx));
  };
  cmd.fallback = [=, &a, &x] {
    std::vector<T> result(static_cast<std::size_t>(n), T(0));
    ref::gemv(trans, T(1), square(expand_triangular(uplo, diag, n, a), n),
              x.cvec(n, incx), T(0), VectorView<T>(result.data(), n));
    ref::copy(VectorView<const T>(result.data(), n), x.vec(n, incx));
  };
  // beta = 0: the checksum never reads the y operand, so x stands in.
  return enqueue(std::move(cmd), [=, &a, &x] {
    return [chk = verify::gemv_prepare<T>(
                trans, n, n, T(1),
                square(expand_triangular(uplo, diag, n, a), n),
                x.cvec(n, incx), T(0), x.cvec(n, incx)),
            &x, incx, n](double scale) {
      verify::check_sum<T>(chk, "trmv", x.cvec(n, incx), scale);
    };
  });
}

#define FBLAS_HOST_SPECIALIZED_INSTANTIATE(T)                                \
  template Event Context::symv_async<T>(Uplo, std::int64_t, T,               \
                                        const Buffer<T>&, const Buffer<T>&,  \
                                        std::int64_t, T, Buffer<T>&,         \
                                        std::int64_t);                       \
  template Event Context::trmv_async<T>(Uplo, Transpose, Diag,               \
                                        std::int64_t, const Buffer<T>&,      \
                                        Buffer<T>&, std::int64_t);

FBLAS_HOST_SPECIALIZED_INSTANTIATE(float)
FBLAS_HOST_SPECIALIZED_INSTANTIATE(double)
#undef FBLAS_HOST_SPECIALIZED_INSTANTIATE

}  // namespace fblas::host
