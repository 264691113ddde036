// Level-2 host API lowerings. Commands declare their buffer read/write
// sets, capture the RoutineConfig by value at enqueue time, and carry
// their refblas CPU reference path as the retry machinery's fallback
// plus, when the captured config enables verification, their ABFT
// dot-product / rank-update checksum checkers.
#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/level2.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemv_async(Transpose trans, std::int64_t rows,
                          std::int64_t cols, T alpha, const Buffer<T>& a,
                          const Buffer<T>& x, std::int64_t incx, T beta,
                          Buffer<T>& y, std::int64_t incy) {
  Command command;
  command.label = "gemv";
  command.reads = {&a, &x, &y};
  command.writes = {&y};
  command.work = [this, rc = cfg_, trans, rows, cols, alpha, &a, &x, incx,
                  beta, &y, incy] {
    detail::launch<T>(*this, RoutineKind::Gemv, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      const core::GemvConfig cfg{trans, rc.tiling, rc.width, rc.tile_rows,
                                 rc.tile_cols};
      const std::int64_t xlen = trans == Transpose::None ? cols : rows;
      const std::int64_t ylen = trans == Transpose::None ? rows : cols;
      const int W = rc.width;
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& out = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_A",
              stream::read_matrix<T>(a.cmat(rows, cols),
                                     core::gemv_a_schedule(cfg), 1, W, ca,
                                     banks.at(a.bank())));
      g.spawn("read_x", stream::read_vector<T>(
                            x.cvec(xlen, incx),
                            core::gemv_x_repeat(cfg, rows, cols), W, cx,
                            banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(ylen, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("gemv",
              core::gemv<T>(cfg, rows, cols, alpha, beta, ca, cx, cy, out));
      g.spawn("write_y", stream::write_vector<T>(y.vec(ylen, incy), 1, W, out,
                                                 banks.at(y.bank())));
    });
  };
  command.fallback = [trans, rows, cols, alpha, &a, &x, incx, beta, &y,
                      incy] {
    const std::int64_t xlen = trans == Transpose::None ? cols : rows;
    const std::int64_t ylen = trans == Transpose::None ? rows : cols;
    ref::gemv(trans, alpha, a.cmat(rows, cols), x.cvec(xlen, incx), beta,
              y.vec(ylen, incy));
  };
  return enqueue(std::move(command), [trans, rows, cols, alpha, &a, &x, incx,
                                      beta, &y, incy] {
    const std::int64_t xlen = trans == Transpose::None ? cols : rows;
    const std::int64_t ylen = trans == Transpose::None ? rows : cols;
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
  Command command;
  command.label = "trsv";
  command.reads = {&a, &x};
  command.writes = {&x};
  command.work = [this, rc = cfg_, uplo, trans, diag, n, &a, &x, incx] {
    detail::launch<T>(*this, RoutineKind::Trsv, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      const int W = rc.width;
      // Transposition flips the triangle op(A) effectively occupies.
      const Uplo eff = trans == Transpose::None
                           ? uplo
                           : (uplo == Uplo::Lower ? Uplo::Upper : Uplo::Lower);
      const core::TrsvConfig cfg{eff, diag, W};
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cb = g.channel<T>("b", detail::chan_cap(W));
      auto& out = g.channel<T>("x", detail::chan_cap(W));
      g.spawn("read_A", core::read_triangular<T>(a.cmat(n, n), eff, W, ca,
                                                 banks.at(a.bank()), trans));
      g.spawn("read_b", detail::read_rows_solve_order<T>(
                            detail::as_column(x.cvec(n, incx)), eff, W, cb,
                            banks.at(x.bank())));
      g.spawn("trsv", core::trsv<T>(cfg, n, ca, cb, out));
      g.spawn("write_x", detail::write_rows_solve_order<T>(
                             detail::as_column(x.vec(n, incx)), eff, W, out,
                             banks.at(x.bank())));
    });
  };
  command.fallback = [uplo, trans, diag, n, &a, &x, incx] {
    ref::trsv(uplo, trans, diag, a.cmat(n, n), x.vec(n, incx));
  };
  // Residual check: the solve overwrites b with x, so capture e^T b
  // first; afterwards e^T (op(A) x) must reproduce it.
  return enqueue(std::move(command), [uplo, trans, diag, n, &a, &x, incx] {
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
  Command command;
  command.label = "ger";
  command.reads = {&x, &y, &a};
  command.writes = {&a};
  command.work = [this, rc = cfg_, rows, cols, alpha, &x, incx, &y, incy,
                  &a] {
    detail::launch<T>(*this, RoutineKind::Ger, [&](stream::Graph& g,
                                                   detail::BankSet& banks) {
      const core::GerConfig cfg{rc.tiling, rc.width, rc.tile_rows,
                                rc.tile_cols};
      const int W = rc.width;
      const auto sched = core::ger_a_schedule(cfg);
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& out = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_A", stream::read_matrix<T>(a.cmat(rows, cols), sched, 1, W,
                                               ca, banks.at(a.bank())));
      g.spawn("read_x", stream::read_vector<T>(
                            x.cvec(rows, incx),
                            core::ger_x_repeat(cfg, rows, cols), W, cx,
                            banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(
                            y.cvec(cols, incy),
                            core::ger_y_repeat(cfg, rows, cols), W, cy,
                            banks.at(y.bank())));
      g.spawn("ger", core::ger<T>(cfg, rows, cols, alpha, ca, cx, cy, out));
      g.spawn("write_A", stream::write_matrix<T>(a.mat(rows, cols), sched, W,
                                                 out, banks.at(a.bank())));
    });
  };
  command.fallback = [rows, cols, alpha, &x, incx, &y, incy, &a] {
    ref::ger(alpha, x.cvec(rows, incx), y.cvec(cols, incy),
             a.mat(rows, cols));
  };
  return enqueue(std::move(command), [rows, cols, alpha, &x, incx, &y, incy,
                                      &a] {
    return [chk = verify::ger_prepare<T>(rows, cols, alpha,
                                         x.cvec(rows, incx),
                                         y.cvec(cols, incy),
                                         a.cmat(rows, cols)),
            rows, cols, &a](double scale) {
      verify::check_rowsums<T>(chk, "ger", a.cmat(rows, cols), scale);
    };
  });
}

template <typename T>
Event Context::syr_async(Uplo uplo, std::int64_t n, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& a) {
  Command command;
  command.label = "syr";
  command.reads = {&x, &a};
  command.writes = {&a};
  command.work = [this, rc = cfg_, uplo, n, alpha, &x, incx, &a] {
    detail::launch<T>(*this, RoutineKind::Syr, [&](stream::Graph& g,
                                                   detail::BankSet& banks) {
      const core::GerConfig cfg{rc.tiling, rc.width, rc.tile_rows,
                                rc.tile_cols};
      const int W = rc.width;
      const auto sched = core::ger_a_schedule(cfg);
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cxr = g.channel<T>("x_row", detail::chan_cap(W));
      auto& cxc = g.channel<T>("x_col", detail::chan_cap(W));
      auto& out = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_A", stream::read_matrix<T>(a.cmat(n, n), sched, 1, W, ca,
                                               banks.at(a.bank())));
      g.spawn("read_x_row",
              stream::read_vector<T>(x.cvec(n, incx),
                                     core::ger_x_repeat(cfg, n, n), W, cxr,
                                     banks.at(x.bank())));
      g.spawn("read_x_col",
              stream::read_vector<T>(x.cvec(n, incx),
                                     core::ger_y_repeat(cfg, n, n), W, cxc,
                                     banks.at(x.bank())));
      g.spawn("syr", core::syr<T>(cfg, n, alpha, ca, cxr, cxc, out));
      // Only the requested triangle is stored back (BLAS semantics).
      g.spawn("write_A", detail::write_matrix_uplo<T>(a.mat(n, n), sched, uplo,
                                                      W, out,
                                                      banks.at(a.bank())));
    });
  };
  command.fallback = [uplo, n, alpha, &x, incx, &a] {
    ref::syr(uplo, alpha, x.cvec(n, incx), a.mat(n, n));
  };
  return enqueue(std::move(command), [uplo, n, alpha, &x, incx, &a] {
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
  Command command;
  command.label = "syr2";
  command.reads = {&x, &y, &a};
  command.writes = {&a};
  command.work = [this, rc = cfg_, uplo, n, alpha, &x, incx, &y, incy, &a] {
    detail::launch<T>(*this, RoutineKind::Syr2, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      const core::GerConfig cfg{rc.tiling, rc.width, rc.tile_rows,
                                rc.tile_cols};
      const int W = rc.width;
      const auto sched = core::ger_a_schedule(cfg);
      auto& ca = g.channel<T>("A", detail::chan_cap(W));
      auto& cxr = g.channel<T>("x_row", detail::chan_cap(W));
      auto& cxc = g.channel<T>("x_col", detail::chan_cap(W));
      auto& cyr = g.channel<T>("y_row", detail::chan_cap(W));
      auto& cyc = g.channel<T>("y_col", detail::chan_cap(W));
      auto& out = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_A", stream::read_matrix<T>(a.cmat(n, n), sched, 1, W, ca,
                                               banks.at(a.bank())));
      g.spawn("read_x_row",
              stream::read_vector<T>(x.cvec(n, incx),
                                     core::ger_x_repeat(cfg, n, n), W, cxr,
                                     banks.at(x.bank())));
      g.spawn("read_x_col",
              stream::read_vector<T>(x.cvec(n, incx),
                                     core::ger_y_repeat(cfg, n, n), W, cxc,
                                     banks.at(x.bank())));
      g.spawn("read_y_row",
              stream::read_vector<T>(y.cvec(n, incy),
                                     core::ger_x_repeat(cfg, n, n), W, cyr,
                                     banks.at(y.bank())));
      g.spawn("read_y_col",
              stream::read_vector<T>(y.cvec(n, incy),
                                     core::ger_y_repeat(cfg, n, n), W, cyc,
                                     banks.at(y.bank())));
      g.spawn("syr2",
              core::syr2<T>(cfg, n, alpha, ca, cxr, cxc, cyr, cyc, out));
      g.spawn("write_A", detail::write_matrix_uplo<T>(a.mat(n, n), sched, uplo,
                                                      W, out,
                                                      banks.at(a.bank())));
    });
  };
  command.fallback = [uplo, n, alpha, &x, incx, &y, incy, &a] {
    ref::syr2(uplo, alpha, x.cvec(n, incx), y.cvec(n, incy), a.mat(n, n));
  };
  return enqueue(std::move(command), [uplo, n, alpha, &x, incx, &y, incy,
                                      &a] {
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
