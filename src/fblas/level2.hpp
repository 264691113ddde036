// Streaming HLS modules for the BLAS Level-2 routines.
//
// Level-2 modules stream their matrix operand in 2-D tiles (Sec. III-B).
// The tiling scheme is part of the module's *interface*: it fixes the
// order elements cross the channel, which vector operands must be
// replayed, and the routine's I/O complexity. GEMV implements both
// variants of Fig. 2:
//   * tiles by rows    — reuse over y, x replayed ceil(N/TN) times,
//                        I/O = N*M + M*ceil(N/TN) + 2N
//   * tiles by columns — x read once, y replayed ceil(M/TM) times,
//                        I/O = N*M + M + 2N*ceil(M/TM)
// The replay FIFO of a replayed *output* (y in the by-columns variant) is
// an internal buffer standing in for the DRAM round trip; the I/O volume
// of that round trip is accounted by the MDAG I/O calculus (mdag/).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "stream/channel.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::Channel;
using stream::next_cycle;
using stream::Task;
using stream::TileSchedule;

/// Whether the matrix operand arrives in tiles ordered by rows or by
/// columns (the two streaming schemes of Fig. 2).
enum class MatrixTiling { TilesByRows, TilesByCols };

struct GemvConfig {
  Transpose trans = Transpose::None;
  MatrixTiling tiling = MatrixTiling::TilesByRows;
  int width = 16;
  std::int64_t tile_rows = 1024;  ///< TN
  std::int64_t tile_cols = 1024;  ///< TM
  /// Element order within a tile. Together with `tiling` this covers all
  /// 4 streaming modes of a matrix interface (Sec. III-B).
  Order elem_order = Order::RowMajor;

  void validate() const;
};

/// The schedule the A-interface module must use to feed a GEMV with this
/// configuration.
TileSchedule gemv_a_schedule(const GemvConfig& cfg);

/// Replay count of the x operand for a (rows x cols) GEMV.
std::int64_t gemv_x_repeat(const GemvConfig& cfg, std::int64_t rows,
                           std::int64_t cols);
/// Replay count of the y operand (1 means y makes a single pass).
std::int64_t gemv_y_repeat(const GemvConfig& cfg, std::int64_t rows,
                           std::int64_t cols);
/// Total DRAM I/O operations (reads+writes) of a standalone GEMV with this
/// configuration — the Sec. III-B formulas.
std::int64_t gemv_io_ops(const GemvConfig& cfg, std::int64_t rows,
                         std::int64_t cols);

namespace detail {

/// Adds one batch of `len` A values into GEMV accumulators. The batch
/// starts at flat position `e` of a tile traversed (outer, inner) with
/// `ni` inner elements; it is walked a run of inner indices at a time.
/// `dst` is indexed by the outer coordinate and `src` by the inner one
/// when `dst_outer`, the other way round otherwise. Each term is a * src
/// (alpha * a * src when Scaled), added in arrival order.
template <bool Scaled, typename T>
void gemv_runs(const T* a, std::int64_t len, std::int64_t e, std::int64_t ni,
               bool dst_outer, T alpha, T* dst, const T* src) {
  auto term = [alpha](T v) {
    if constexpr (Scaled) {
      return alpha * v;
    } else {
      return v;
    }
  };
  std::int64_t o = e / ni, i = e % ni;
  for (std::int64_t k = 0; k < len; i = 0, ++o) {
    const std::int64_t cnt = std::min(len - k, ni - i);
    if (dst_outer) {
      T d = dst[o];
      for (std::int64_t t = 0; t < cnt; ++t) d += term(a[k + t]) * src[i + t];
      dst[o] = d;
    } else {
      const T s = src[o];
      for (std::int64_t t = 0; t < cnt; ++t) dst[i + t] += term(a[k + t]) * s;
    }
    k += cnt;
  }
}

/// Calls f(k, row, col) for the tile coordinates of `len` elements from
/// flat position `e` of a tile traversed (outer, inner) with `ni` inner
/// elements; outer is the row for row-major elements.
template <typename F>
void tile_runs(std::int64_t e, std::int64_t len, std::int64_t ni,
               bool row_elems, F&& f) {
  std::int64_t o = e / ni, i = e % ni;
  for (std::int64_t k = 0; k < len; i = 0, ++o) {
    const std::int64_t cnt = std::min(len - k, ni - i);
    for (std::int64_t t = 0; t < cnt; ++t) {
      if (row_elems) {
        f(k + t, o, i + t);
      } else {
        f(k + t, i + t, o);
      }
    }
    k += cnt;
  }
}

}  // namespace detail

/// GEMV: y = alpha * op(A) * x + beta * y.
///
/// `rows` x `cols` is always the shape of A as stored; for trans ==
/// Transpose::Trans the module computes A^T x (x has `rows` elements and
/// y has `cols`). A arrives on ch_a following gemv_a_schedule(cfg); x and
/// y arrive on ch_x / ch_y with the replay counts above; the result
/// leaves on ch_out in natural order.
template <typename T>
Task gemv(GemvConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
          T beta, Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const std::int64_t W = cfg.width;
  // Element traversal within a tile (row- or column-major): the tile loops
  // below iterate (outer, inner), outer = row for row-major elements.
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  std::vector<T> abuf = stream::lanes<T>(W);
  std::vector<T> xbuf, acc;

  if (cfg.trans == Transpose::None && cfg.tiling == MatrixTiling::TilesByRows) {
    // Fig. 2 (left): reuse over y; x replayed once per tile-row.
    xbuf.resize(static_cast<std::size_t>(TM));
    acc.resize(static_cast<std::size_t>(TN));
    std::vector<T> ybuf(static_cast<std::size_t>(TN));
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_y.pop_some(ybuf.data() + r, th - r);
      }
      for (std::int64_t r = 0; r < th; ++r) {
        ybuf[r] = beta * ybuf[r];
        acc[r] = T(0);
      }
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        for (std::int64_t c = 0; c < tw;) {
          c += co_await ch_x.pop_some(xbuf.data() + c, tw - c);
        }
        std::int64_t in_cycle = 0;
        const std::int64_t ni = row_elems ? tw : th;
        const std::int64_t total = th * tw;
        for (std::int64_t e = 0; e < total;) {
          const std::int64_t got = co_await ch_a.pop_some(
              abuf.data(), std::min(W - in_cycle, total - e));
          detail::gemv_runs<false>(abuf.data(), got, e, ni, row_elems, alpha,
                                   acc.data(), xbuf.data());
          e += got;
          if ((in_cycle += got) == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
      for (std::int64_t r = 0; r < th; ++r) ybuf[r] = ybuf[r] + alpha * acc[r];
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_out.push_some(ybuf.data() + r, th - r);
      }
      co_await next_cycle();
    }
  } else if (cfg.trans == Transpose::None &&
             cfg.tiling == MatrixTiling::TilesByCols) {
    // Fig. 2 (right): x read once; y (partial results) replayed. The
    // full-length partial buffer models the DRAM round trip.
    xbuf.resize(static_cast<std::size_t>(TM));
    std::vector<T> part(static_cast<std::size_t>(rows), T(0));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_x.pop_some(xbuf.data() + c, tw - c);
      }
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        T* tile_part = part.data() + ti * TN;
        if (tj == 0) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_y.pop_some(tile_part + r, th - r);
          }
          for (std::int64_t r = 0; r < th; ++r) tile_part[r] = beta * tile_part[r];
        }
        std::int64_t in_cycle = 0;
        const std::int64_t ni = row_elems ? tw : th;
        const std::int64_t total = th * tw;
        for (std::int64_t e = 0; e < total;) {
          const std::int64_t got = co_await ch_a.pop_some(
              abuf.data(), std::min(W - in_cycle, total - e));
          detail::gemv_runs<true>(abuf.data(), got, e, ni, row_elems, alpha,
                                  tile_part, xbuf.data());
          e += got;
          if ((in_cycle += got) == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
        if (tj == ntj - 1) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_out.push_some(tile_part + r, th - r);
          }
        }
      }
      co_await next_cycle();
    }
  } else if (cfg.trans == Transpose::Trans &&
             cfg.tiling == MatrixTiling::TilesByRows) {
    // y = alpha A^T x + beta y with A in tiles by rows: x (length rows)
    // read once, block per tile-row; y partials buffered full-length.
    xbuf.resize(static_cast<std::size_t>(TN));
    std::vector<T> part(static_cast<std::size_t>(cols));
    for (std::int64_t c = 0; c < cols;) {
      c += co_await ch_y.pop_some(part.data() + c, cols - c);
    }
    for (std::int64_t c = 0; c < cols; ++c) part[c] = beta * part[c];
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_x.pop_some(xbuf.data() + r, th - r);
      }
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        std::int64_t in_cycle = 0;
        const std::int64_t ni = row_elems ? tw : th;
        const std::int64_t total = th * tw;
        for (std::int64_t e = 0; e < total;) {
          const std::int64_t got = co_await ch_a.pop_some(
              abuf.data(), std::min(W - in_cycle, total - e));
          detail::gemv_runs<true>(abuf.data(), got, e, ni, !row_elems, alpha,
                                  part.data() + tj * TM, xbuf.data());
          e += got;
          if ((in_cycle += got) == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
    for (std::int64_t c = 0; c < cols;) {
      c += co_await ch_out.push_some(part.data() + c, cols - c);
    }
    co_await next_cycle();
  } else {
    // trans, tiles by columns: reuse over y blocks; x replayed per
    // tile-column.
    xbuf.resize(static_cast<std::size_t>(TN));
    acc.resize(static_cast<std::size_t>(TM));
    std::vector<T> ybuf(static_cast<std::size_t>(TM));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_y.pop_some(ybuf.data() + c, tw - c);
      }
      for (std::int64_t c = 0; c < tw; ++c) {
        ybuf[c] = beta * ybuf[c];
        acc[c] = T(0);
      }
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        for (std::int64_t r = 0; r < th;) {
          r += co_await ch_x.pop_some(xbuf.data() + r, th - r);
        }
        std::int64_t in_cycle = 0;
        const std::int64_t ni = row_elems ? tw : th;
        const std::int64_t total = th * tw;
        for (std::int64_t e = 0; e < total;) {
          const std::int64_t got = co_await ch_a.pop_some(
              abuf.data(), std::min(W - in_cycle, total - e));
          detail::gemv_runs<false>(abuf.data(), got, e, ni, !row_elems, alpha,
                                   acc.data(), xbuf.data());
          e += got;
          if ((in_cycle += got) == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
      for (std::int64_t c = 0; c < tw; ++c) ybuf[c] = ybuf[c] + alpha * acc[c];
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_out.push_some(ybuf.data() + c, tw - c);
      }
      co_await next_cycle();
    }
  }
}

struct GerConfig {
  MatrixTiling tiling = MatrixTiling::TilesByRows;
  int width = 16;
  std::int64_t tile_rows = 1024;
  std::int64_t tile_cols = 1024;
  /// Element order within a tile (row- or column-major traversal).
  Order elem_order = Order::RowMajor;

  void validate() const;
};

/// The schedule for both the A-in and A-out interfaces of GER/SYR/SYR2.
TileSchedule ger_a_schedule(const GerConfig& cfg);
/// Replay counts for the two vector operands of GER.
std::int64_t ger_x_repeat(const GerConfig& cfg, std::int64_t rows,
                          std::int64_t cols);
std::int64_t ger_y_repeat(const GerConfig& cfg, std::int64_t rows,
                          std::int64_t cols);
/// Total DRAM I/O operations of a standalone GER.
std::int64_t ger_io_ops(const GerConfig& cfg, std::int64_t rows,
                        std::int64_t cols);

/// GER: out = A + alpha * x * y^T, streamed tile by tile.
template <typename T>
Task ger(GerConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
         Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const std::int64_t W = cfg.width;
  const bool by_rows = cfg.tiling == MatrixTiling::TilesByRows;
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  std::vector<T> rbuf(static_cast<std::size_t>(TN));
  std::vector<T> cbuf(static_cast<std::size_t>(TM));
  std::vector<T> v = stream::lanes<T>(W);
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = 0; tin < inner; ++tin) {
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, rows - ti * TN);
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      // The outer-dimension block is loaded once per outer step; the
      // inner-dimension block is (re)loaded for every tile: that operand
      // is the replayed one.
      if (by_rows) {
        if (tin == 0) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_x.pop_some(rbuf.data() + r, th - r);
          }
        }
        for (std::int64_t c = 0; c < tw;) {
          c += co_await ch_y.pop_some(cbuf.data() + c, tw - c);
        }
      } else {
        if (tin == 0) {
          for (std::int64_t c = 0; c < tw;) {
            c += co_await ch_y.pop_some(cbuf.data() + c, tw - c);
          }
        }
        for (std::int64_t r = 0; r < th;) {
          r += co_await ch_x.pop_some(rbuf.data() + r, th - r);
        }
      }
      std::int64_t in_cycle = 0;
      const std::int64_t ni = row_elems ? tw : th;
      const std::int64_t total = th * tw;
      for (std::int64_t e = 0; e < total;) {
        const std::size_t m = stream::lockstep(
            static_cast<std::size_t>(std::min(W - in_cycle, total - e)),
            {&ch_a}, {&ch_out});
        co_await ch_a.pop_some(v.data(), m);
        detail::tile_runs(e, static_cast<std::int64_t>(m), ni, row_elems,
                          [&](std::int64_t k, std::int64_t r, std::int64_t c) {
                            v[k] = v[k] + alpha * rbuf[r] * cbuf[c];
                          });
        co_await ch_out.push_some(v.data(), m);
        e += static_cast<std::int64_t>(m);
        if ((in_cycle += static_cast<std::int64_t>(m)) == W) {
          in_cycle = 0;
          co_await next_cycle();
        }
      }
    }
    co_await next_cycle();
  }
}

/// SYR: out = A + alpha * x * x^T (generic full-matrix stream; the paper
/// implements symmetric routines in terms of the generic ones). The module
/// needs x along both dimensions, hence two x channels with the same
/// replay pattern as GER's (x, y) pair.
template <typename T>
Task syr(GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
         Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_out) {
  return ger<T>(cfg, n, n, alpha, ch_a, ch_x_row, ch_x_col, ch_out);
}

/// SYR2: out = A + alpha * (x y^T + y x^T); four vector streams (row and
/// column blocks of both x and y).
template <typename T>
Task syr2(GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
          Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_y_row,
          Channel<T>& ch_y_col, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(n, TN), ntj = ceil_div(n, TM);
  const std::int64_t W = cfg.width;
  const bool by_rows = cfg.tiling == MatrixTiling::TilesByRows;
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  std::vector<T> xr(static_cast<std::size_t>(TN)), yr(static_cast<std::size_t>(TN));
  std::vector<T> xc(static_cast<std::size_t>(TM)), yc(static_cast<std::size_t>(TM));
  std::vector<T> v = stream::lanes<T>(W);
  // An x/y block pair of one tile dimension and whether this tile loads it.
  struct Blocks {
    Channel<T>* cx;
    Channel<T>* cy;
    T* x;
    T* y;
    std::int64_t len;
    bool load;
  };
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = 0; tin < inner; ++tin) {
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, n - ti * TN);
      const std::int64_t tw = std::min(TM, n - tj * TM);
      // The outer-dimension blocks load once per outer step, first; the
      // inner-dimension blocks load for every tile. Each x/y pair loads in
      // lockstep: the element-wise form popped x, then y, per element.
      const Blocks rows_blk{&ch_x_row, &ch_y_row, xr.data(), yr.data(), th,
                            !by_rows || tin == 0};
      const Blocks cols_blk{&ch_x_col, &ch_y_col, xc.data(), yc.data(), tw,
                            by_rows || tin == 0};
      for (const Blocks& b : by_rows ? std::array{rows_blk, cols_blk}
                                     : std::array{cols_blk, rows_blk}) {
        for (std::int64_t k = 0; b.load && k < b.len;) {
          const std::size_t m = stream::lockstep(
              static_cast<std::size_t>(b.len - k), {b.cx, b.cy}, {});
          co_await b.cx->pop_some(b.x + k, m);
          co_await b.cy->pop_some(b.y + k, m);
          k += static_cast<std::int64_t>(m);
        }
      }
      std::int64_t in_cycle = 0;
      const std::int64_t ni = row_elems ? tw : th;
      const std::int64_t total = th * tw;
      for (std::int64_t e = 0; e < total;) {
        const std::size_t m = stream::lockstep(
            static_cast<std::size_t>(std::min(W - in_cycle, total - e)),
            {&ch_a}, {&ch_out});
        co_await ch_a.pop_some(v.data(), m);
        detail::tile_runs(e, static_cast<std::int64_t>(m), ni, row_elems,
                          [&](std::int64_t k, std::int64_t r, std::int64_t c) {
                            v[k] = v[k] + alpha * (xr[r] * yc[c] + yr[r] * xc[c]);
                          });
        co_await ch_out.push_some(v.data(), m);
        e += static_cast<std::int64_t>(m);
        if ((in_cycle += static_cast<std::int64_t>(m)) == W) {
          in_cycle = 0;
          co_await next_cycle();
        }
      }
    }
    co_await next_cycle();
  }
}

struct TrsvConfig {
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  int width = 16;

  void validate() const {
    FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  }
};

/// Streams the `uplo` triangle (including the diagonal) of op(A) for an
/// n x n matrix, in the row order the TRSV/TRSM modules consume (lower:
/// top-down; upper: bottom-up), i.e. in solve order. `uplo` refers to
/// op(A): for a transposed solve pass the flipped triangle and
/// trans == Trans.
template <typename T>
Task read_triangular(MatrixView<const T> A, Uplo uplo, int width,
                     Channel<T>& out, stream::DramBank* bank = nullptr,
                     Transpose trans = Transpose::None) {
  const std::int64_t n = A.rows();
  auto at = [&](std::int64_t i, std::int64_t j) -> T {
    return trans == Transpose::None ? A(i, j) : A(j, i);
  };
  std::vector<T> buf = stream::lanes<T>(width);
  std::int64_t in_cycle = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t i = uplo == Uplo::Lower ? k : n - 1 - k;
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1;) {
      bool refused = false;
      const std::int64_t g = stream::gather_granted(
          bank, out, std::min(width - in_cycle, j1 - j), buf.data(),
          [&](std::int64_t t) { return at(i, j + t); }, refused);
      for (std::int64_t t = 0; t < g;) {
        t += co_await out.push_some(buf.data() + t, g - t);
      }
      j += g;
      in_cycle += g;
      if (refused) {
        co_await next_cycle();
      } else if (in_cycle == width) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
  }
  co_await next_cycle();
}

/// TRSV: solves op(A) x = b for a triangular A streamed in solve order
/// (see read_triangular). b arrives on ch_b one element per row in solve
/// order; solutions leave on ch_out in the same order. The progressive
/// solution buffer is on-chip state (the loop-carried dependency that
/// keeps TRSV's initiation interval above 1 in hardware).
template <typename T>
Task trsv(TrsvConfig cfg, std::int64_t n, Channel<T>& ch_a, Channel<T>& ch_b,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t W = cfg.width;
  std::vector<T> x(static_cast<std::size_t>(n), T(0));
  std::vector<T> a = stream::lanes<T>(W);
  std::int64_t in_cycle = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? k : n - 1 - k;
    T acc = co_await ch_b.pop();
    T diag_val = T(1);
    // Row arrives as (dependencies..., diagonal) for lower and
    // (diagonal, dependencies...) for upper; consume in arrival order.
    const std::int64_t j0 = cfg.uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = cfg.uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1;) {
      const std::int64_t got =
          co_await ch_a.pop_some(a.data(), std::min(W - in_cycle, j1 - j));
      for (std::int64_t t = 0; t < got; ++t, ++j) {
        if (j == i) {
          diag_val = a[t];
        } else {
          acc -= a[t] * x[j];
        }
      }
      if ((in_cycle += got) == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
    x[i] = cfg.diag == Diag::Unit ? acc : acc / diag_val;
    co_await ch_out.push(x[i]);
  }
  co_await next_cycle();
}

}  // namespace fblas::core
