// Level-2 host API lowerings. Each routine lists its DRAM operands and
// its module (detail::stream_command derives the Command from them),
// captures the RoutineConfig by value at enqueue time, and carries its
// refblas CPU reference path as the retry machinery's fallback plus,
// when the captured config enables verification, its ABFT dot-product /
// rank-update checksum checker.
#include <array>

#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/level2.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

using detail::Movement;

namespace {

// GER's module config from `rc`, validated first (like
// detail::gemv_config): the operand list derives tile schedules and
// replay counts from it before the command is enqueued.
core::GerConfig ger_config(const RoutineConfig& rc) {
  rc.validate();
  return {rc.tiling, rc.width, rc.tile_rows, rc.tile_cols};
}

}  // namespace

template <typename T>
Event Context::gemv_async(Transpose trans, std::int64_t rows,
                          std::int64_t cols, T alpha, const Buffer<T>& a,
                          const Buffer<T>& x, std::int64_t incx, T beta,
                          Buffer<T>& y, std::int64_t incy) {
  const core::GemvConfig cfg = detail::gemv_config(cfg_, trans);
  const std::int64_t xlen = trans == Transpose::None ? cols : rows;
  const std::int64_t ylen = trans == Transpose::None ? rows : cols;
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Gemv, "gemv",
      detail::gemv_operands<T>(cfg, rows, cols, a, x, incx, y, incy),
      detail::gemv_module<T>(cfg, rows, cols, alpha, beta),
      [=, &a, &x, &y] {
        ref::gemv(trans, alpha, a.cmat(rows, cols), x.cvec(xlen, incx), beta,
                  y.vec(ylen, incy));
      });
  return enqueue(std::move(cmd), [=, &a, &x, &y] {
    return [chk = verify::gemv_prepare<T>(trans, rows, cols, alpha,
                                          a.cmat(rows, cols),
                                          x.cvec(xlen, incx), beta,
                                          y.cvec(ylen, incy)),
            &y, incy, ylen](double scale) {
      verify::check_sum<T>(chk, "gemv", y.cvec(ylen, incy), scale);
    };
  });
}

template <typename T>
Event Context::trsv_async(Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t n, const Buffer<T>& a, Buffer<T>& x,
                          std::int64_t incx) {
  // Transposition flips the triangle op(A) effectively occupies.
  const Uplo eff = trans == Transpose::None
                       ? uplo
                       : (uplo == Uplo::Lower ? Uplo::Upper : Uplo::Lower);
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Trsv, "trsv",
      {{.chan = "A", .mover = "read_A", .how = Movement::Triangular,
        .src = &a, .n = n, .uplo = eff, .trans = trans},
       {.chan = "b", .mover = "read_b", .how = Movement::SolveRows, .src = &x,
        .n = n, .inc = incx, .uplo = eff, .in_place = true},
       {.chan = "x", .mover = "write_x", .how = Movement::SolveRows, .dst = &x,
        .n = n, .inc = incx, .uplo = eff}},
      [=](const auto& p) {
        return core::trsv<T>({eff, diag, p.width}, n, p[0], p[1], p[2]);
      },
      [=, &a, &x] {
        ref::trsv(uplo, trans, diag, a.cmat(n, n), x.vec(n, incx));
      });
  // Residual check: the solve overwrites b with x, so capture e^T b
  // first; afterwards e^T (op(A) x) must reproduce it.
  return enqueue(std::move(cmd), [=, &a, &x] {
    return [chk = verify::trsv_prepare<T>(n, x.cvec(n, incx)), uplo, trans,
            diag, n, &a, &x, incx](double scale) {
      verify::trsv_check<T>(chk, uplo, trans, diag, n, a.cmat(n, n),
                            x.cvec(n, incx), scale);
    };
  });
}

template <typename T>
Event Context::ger_async(std::int64_t rows, std::int64_t cols, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         const Buffer<T>& y, std::int64_t incy,
                         Buffer<T>& a) {
  const core::GerConfig cfg = ger_config(cfg_);
  const auto sched = core::ger_a_schedule(cfg);
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Ger, "ger",
      {{.chan = "A", .mover = "read_A", .how = Movement::Matrix, .src = &a,
        .n = rows, .cols = cols, .sched = sched, .in_place = true},
       {.chan = "x", .mover = "read_x", .src = &x, .n = rows, .inc = incx,
        .repeat = core::ger_x_repeat(cfg, rows, cols)},
       {.chan = "y", .mover = "read_y", .src = &y, .n = cols, .inc = incy,
        .repeat = core::ger_y_repeat(cfg, rows, cols)},
       {.chan = "out", .mover = "write_A", .how = Movement::Matrix, .dst = &a,
        .n = rows, .cols = cols, .sched = sched}},
      [=](const auto& p) {
        return core::ger<T>(cfg, rows, cols, alpha, p[0], p[1], p[2], p[3]);
      },
      [=, &x, &y, &a] {
        ref::ger(alpha, x.cvec(rows, incx), y.cvec(cols, incy),
                 a.mat(rows, cols));
      });
  return enqueue(std::move(cmd), [=, &x, &y, &a] {
    return [chk = verify::ger_prepare<T>(rows, cols, alpha,
                                         x.cvec(rows, incx),
                                         y.cvec(cols, incy),
                                         a.cmat(rows, cols)),
            rows, cols, &a](double scale) {
      verify::check_rowsums<T>(chk, "ger", a.cmat(rows, cols), scale);
    };
  });
}

// SYR and SYR2 stream x (and y) twice, once per GER-style port; only the
// requested triangle is stored back (BLAS semantics).

template <typename T>
Event Context::syr_async(Uplo uplo, std::int64_t n, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& a) {
  const core::GerConfig cfg = ger_config(cfg_);
  const auto sched = core::ger_a_schedule(cfg);
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Syr, "syr",
      {{.chan = "A", .mover = "read_A", .how = Movement::Matrix, .src = &a,
        .n = n, .cols = n, .sched = sched, .in_place = true},
       {.chan = "x_row", .mover = "read_x_row", .src = &x, .n = n, .inc = incx,
        .repeat = core::ger_x_repeat(cfg, n, n)},
       {.chan = "x_col", .mover = "read_x_col", .src = &x, .n = n, .inc = incx,
        .repeat = core::ger_y_repeat(cfg, n, n)},
       {.chan = "out", .mover = "write_A", .how = Movement::UploMatrix,
        .dst = &a, .n = n, .sched = sched, .uplo = uplo}},
      [=](const auto& p) {
        return core::syr<T>(cfg, n, alpha, p[0], p[1], p[2], p[3]);
      },
      [=, &x, &a] { ref::syr(uplo, alpha, x.cvec(n, incx), a.mat(n, n)); });
  return enqueue(std::move(cmd), [=, &x, &a] {
    return [chk = verify::syr_prepare<T>(uplo, n, alpha, x.cvec(n, incx),
                                         a.cmat(n, n)),
            n, &a](double scale) {
      verify::check_rowsums<T>(chk, "syr", a.cmat(n, n), scale);
    };
  });
}

template <typename T>
Event Context::syr2_async(Uplo uplo, std::int64_t n, T alpha,
                          const Buffer<T>& x, std::int64_t incx,
                          const Buffer<T>& y, std::int64_t incy,
                          Buffer<T>& a) {
  const core::GerConfig cfg = ger_config(cfg_);
  const auto sched = core::ger_a_schedule(cfg);
  const std::int64_t row_rep = core::ger_x_repeat(cfg, n, n);
  const std::int64_t col_rep = core::ger_y_repeat(cfg, n, n);
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Syr2, "syr2",
      {{.chan = "A", .mover = "read_A", .how = Movement::Matrix, .src = &a,
        .n = n, .cols = n, .sched = sched, .in_place = true},
       {.chan = "x_row", .mover = "read_x_row", .src = &x, .n = n, .inc = incx,
        .repeat = row_rep},
       {.chan = "x_col", .mover = "read_x_col", .src = &x, .n = n, .inc = incx,
        .repeat = col_rep},
       {.chan = "y_row", .mover = "read_y_row", .src = &y, .n = n, .inc = incy,
        .repeat = row_rep},
       {.chan = "y_col", .mover = "read_y_col", .src = &y, .n = n, .inc = incy,
        .repeat = col_rep},
       {.chan = "out", .mover = "write_A", .how = Movement::UploMatrix,
        .dst = &a, .n = n, .sched = sched, .uplo = uplo}},
      [=](const auto& p) {
        return core::syr2<T>(cfg, n, alpha, p[0], p[1], p[2], p[3], p[4],
                             p[5]);
      },
      [=, &x, &y, &a] {
        ref::syr2(uplo, alpha, x.cvec(n, incx), y.cvec(n, incy), a.mat(n, n));
      });
  return enqueue(std::move(cmd), [=, &x, &y, &a] {
    return [chk = verify::syr2_prepare<T>(uplo, n, alpha, x.cvec(n, incx),
                                          y.cvec(n, incy), a.cmat(n, n)),
            n, &a](double scale) {
      verify::check_rowsums<T>(chk, "syr2", a.cmat(n, n), scale);
    };
  });
}

#define FBLAS_HOST_L2_INSTANTIATE(T)                                          \
  template Event Context::gemv_async<T>(Transpose, std::int64_t,              \
                                        std::int64_t, T, const Buffer<T>&,    \
                                        const Buffer<T>&, std::int64_t, T,    \
                                        Buffer<T>&, std::int64_t);            \
  template Event Context::trsv_async<T>(Uplo, Transpose, Diag, std::int64_t,  \
                                        const Buffer<T>&, Buffer<T>&,         \
                                        std::int64_t);                        \
  template Event Context::ger_async<T>(std::int64_t, std::int64_t, T,         \
                                       const Buffer<T>&, std::int64_t,        \
                                       const Buffer<T>&, std::int64_t,        \
                                       Buffer<T>&);                           \
  template Event Context::syr_async<T>(Uplo, std::int64_t, T,                 \
                                       const Buffer<T>&, std::int64_t,        \
                                       Buffer<T>&);                           \
  template Event Context::syr2_async<T>(Uplo, std::int64_t, T,                \
                                        const Buffer<T>&, std::int64_t,       \
                                        const Buffer<T>&, std::int64_t,       \
                                        Buffer<T>&);

FBLAS_HOST_L2_INSTANTIATE(float)
FBLAS_HOST_L2_INSTANTIATE(double)
#undef FBLAS_HOST_L2_INSTANTIATE

}  // namespace fblas::host
