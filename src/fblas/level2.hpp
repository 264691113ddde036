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
#include <span>
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

/// gemv_runs for accumulators indexed by the outer coordinate, four whole
/// rows (runs of `ni` inner elements) per pass. Each of the four rows adds
/// its terms into its own accumulator in ascending inner index, the chain
/// gemv_runs adds, so no bit moves. The partial rows at either end of the
/// batch, and the last rows short of four, go through gemv_runs.
template <bool Scaled, typename T>
void gemv_rows(const T* a, std::int64_t len, std::int64_t e, std::int64_t ni,
               T alpha, T* dst, const T* src) {
  auto term = [alpha](T v) {
    if constexpr (Scaled) {
      return alpha * v;
    } else {
      return v;
    }
  };
  std::int64_t k = std::min(len, (ni - e % ni) % ni);
  gemv_runs<Scaled>(a, k, e, ni, true, alpha, dst, src);
  for (std::int64_t o = (e + k) / ni; len - k >= 4 * ni; k += 4 * ni, o += 4) {
    const T* const a0 = a + k;
    T d0 = dst[o], d1 = dst[o + 1], d2 = dst[o + 2], d3 = dst[o + 3];
    for (std::int64_t t = 0; t < ni; ++t) {
      const T s = src[t];
      d0 += term(a0[t]) * s;
      d1 += term(a0[ni + t]) * s;
      d2 += term(a0[2 * ni + t]) * s;
      d3 += term(a0[3 * ni + t]) * s;
    }
    dst[o] = d0;
    dst[o + 1] = d1;
    dst[o + 2] = d2;
    dst[o + 3] = d3;
  }
  gemv_runs<Scaled>(a + k, len - k, e + k, ni, true, alpha, dst, src);
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
///
/// One tile loop serves all four (trans x tiling) variants. Tiles are
/// visited along the outer tile dimension (rows for tiles by rows), then
/// the inner one. When y runs along the outer dimension its block is
/// reused: accumulated on chip over the inner tiles, then written, and x
/// is replayed per tile. Otherwise x makes one pass, a block per outer
/// step, and y's partials stay on chip in full (standing in for the DRAM
/// round trip): each block is read at the first outer step and written at
/// the last, or, for A^T x and when no tile runs, read before the loop
/// and written after it. A arrives up to step_width values per step,
/// each run of it read in ch_a's front window, then dropped. A step that
/// moves only A (not a tile's first, which loads blocks) repeats for the
/// tile's whole steps left, its horizon; a fast-forward grant of d steps
/// reads d steps' worth of A.
template <typename T>
Task gemv(GemvConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
          T beta, Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::array<const stream::ChannelBase*, 4> ports{&ch_a, &ch_x, &ch_y,
                                                       &ch_out};
  const std::span<const stream::ChannelBase* const> all(ports);
  co_await stream::declare_ports(all.first(3), all.last(1));
  const std::int64_t W = stream::step_width(cfg.width, all.first(1));
  const bool none = cfg.trans == Transpose::None;
  const bool by_rows = cfg.tiling == MatrixTiling::TilesByRows;
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  const bool x_outer = none != by_rows;
  // The A term's accumulator is indexed by the element's outer coordinate.
  const bool dst_outer = none == row_elems;
  // Tile size, matrix extent and tile count along the outer and inner
  // tile dimensions.
  const std::int64_t o_tile = by_rows ? cfg.tile_rows : cfg.tile_cols;
  const std::int64_t i_tile = by_rows ? cfg.tile_cols : cfg.tile_rows;
  const std::int64_t o_ext = by_rows ? rows : cols;
  const std::int64_t i_ext = by_rows ? cols : rows;
  const std::int64_t o_tiles = ceil_div(o_ext, o_tile);
  const std::int64_t i_tiles = ceil_div(i_ext, i_tile);
  const std::int64_t ylen = none ? rows : cols;
  const bool whole = x_outer && (!none || o_tiles == 0);
  std::vector<T> xbuf(static_cast<std::size_t>(x_outer ? o_tile : i_tile));
  std::vector<T> ybuf(static_cast<std::size_t>(x_outer ? ylen : o_tile));
  std::vector<T> acc(x_outer ? 0 : ybuf.size());
  if (whole) {
    for (std::int64_t r = 0; r < ylen;) {
      r += co_await ch_y.pop_some(ybuf.data() + r, ylen - r);
    }
    for (std::int64_t r = 0; r < ylen; ++r) ybuf[r] = beta * ybuf[r];
  }
  for (std::int64_t to = 0; to < o_tiles; ++to) {
    const std::int64_t lo = std::min(o_tile, o_ext - to * o_tile);
    // The outer step's block: x's, or the reused y's.
    T* const outer = x_outer ? xbuf.data() : ybuf.data();
    for (std::int64_t r = 0; r < lo;) {
      r += co_await (x_outer ? ch_x : ch_y).pop_some(outer + r, lo - r);
    }
    if (!x_outer) {
      for (std::int64_t r = 0; r < lo; ++r) {
        ybuf[r] = beta * ybuf[r];
        acc[r] = T(0);
      }
    }
    for (std::int64_t tin = 0; tin < i_tiles; ++tin) {
      const std::int64_t li = std::min(i_tile, i_ext - tin * i_tile);
      const std::int64_t th = by_rows ? lo : li, tw = by_rows ? li : lo;
      // The inner tile's block: x's, or a block of y's partials.
      T* const inner = x_outer ? ybuf.data() + tin * i_tile : xbuf.data();
      const bool load = !x_outer || (!whole && to == 0);
      for (std::int64_t r = 0; load && r < li;) {
        r += co_await (x_outer ? ch_y : ch_x).pop_some(inner + r, li - r);
      }
      if (x_outer && load) {
        for (std::int64_t r = 0; r < li; ++r) inner[r] = beta * inner[r];
      }
      std::int64_t in_cycle = 0;
      std::int64_t d = 1;  // steps this resume moves
      bool only_a = false;  // whether this cycle's step moves only A
      const std::int64_t tile_ni = row_elems ? tw : th;
      const std::int64_t total = th * tw;
      for (std::int64_t e = 0; e < total;) {
        const std::span<const T> a = co_await ch_a.front_some(
            static_cast<std::size_t>(std::min(W * d - in_cycle, total - e)));
        const auto got = static_cast<std::int64_t>(a.size());
        // Four rows per pass where the window holds them (functional
        // steps); a cycle-mode step holds W values.
        const bool rows = dst_outer && got >= 4 * tile_ni;
        if (x_outer && rows) {
          detail::gemv_rows<true>(a.data(), got, e, tile_ni, alpha, inner,
                                  xbuf.data());
        } else if (x_outer) {
          detail::gemv_runs<true>(a.data(), got, e, tile_ni, dst_outer, alpha,
                                  inner, xbuf.data());
        } else if (rows) {
          detail::gemv_rows<false>(a.data(), got, e, tile_ni, alpha,
                                   acc.data(), inner);
        } else {
          detail::gemv_runs<false>(a.data(), got, e, tile_ni, dst_outer, alpha,
                                   acc.data(), inner);
        }
        ch_a.drop(a.size());
        e += got;
        if ((in_cycle += got) == W * d) {
          in_cycle = 0;
          d = co_await next_cycle(only_a ? total - e : 0, W);
          only_a = true;
        }
      }
      if (x_outer && !whole && to == o_tiles - 1) {
        for (std::int64_t r = 0; r < li;) {
          r += co_await ch_out.push_some(inner + r, li - r);
        }
      }
    }
    if (!x_outer) {
      for (std::int64_t r = 0; r < lo; ++r) ybuf[r] = ybuf[r] + alpha * acc[r];
      for (std::int64_t r = 0; r < lo;) {
        r += co_await ch_out.push_some(ybuf.data() + r, lo - r);
      }
    }
    if (!whole) co_await next_cycle();
  }
  if (whole) {
    for (std::int64_t r = 0; r < ylen;) {
      r += co_await ch_out.push_some(ybuf.data() + r, ylen - r);
    }
    co_await next_cycle();
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

/// The one rank-r tile update: out = A + alpha * x y^T (one vector pair,
/// GER) or out = A + alpha * (x y^T + y x^T) (two pairs, SYR2), streamed
/// tile by tile. ch_rows[p] carries pair p's row-dimension vector (x, then
/// y) and ch_cols[p] its column-dimension one. The blocks along the outer
/// tile dimension load once per outer step, first; those along the inner
/// dimension load for every tile: that operand is the replayed one. The
/// channels of one dimension load in lockstep, and A moves through the
/// update up to step_width values per step. A step that moves only A and
/// the output (not a tile's first) repeats for the tile's whole steps
/// left, its horizon; a fast-forward grant of d steps moves d steps'
/// worth.
template <typename T, std::size_t R>
Task ger_pairs(GerConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
               Channel<T>& ch_a, std::array<Channel<T>*, R> ch_rows,
               std::array<Channel<T>*, R> ch_cols, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const bool by_rows = cfg.tiling == MatrixTiling::TilesByRows;
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  // Per dimension (0: rows, 1: columns): its channels, ports and blocks.
  std::array<std::array<Channel<T>*, R>, 2> ch{ch_rows, ch_cols};
  std::array<std::array<const stream::ChannelBase*, R>, 2> ports;
  std::array<std::array<std::vector<T>, R>, 2> blk;
  for (std::size_t p = 0; p < R; ++p) {
    for (std::size_t d = 0; d < 2; ++d) {
      ports[d][p] = ch[d][p];
      blk[d][p].resize(static_cast<std::size_t>(d == 0 ? TN : TM));
    }
  }
  const std::array<const stream::ChannelBase*, 2> a_ports{&ch_a, &ch_out};
  const auto a_port = std::span(a_ports).template first<1>();
  const auto out_port = std::span(a_ports).template last<1>();
  std::vector<const stream::ChannelBase*> in_ports{&ch_a};
  in_ports.insert(in_ports.end(), ch_rows.begin(), ch_rows.end());
  in_ports.insert(in_ports.end(), ch_cols.begin(), ch_cols.end());
  co_await stream::declare_ports(in_ports, out_port);
  const std::int64_t W = stream::step_width(cfg.width, a_ports);
  std::vector<T> v = stream::lanes<T>(W);
  const std::size_t outer_dim = by_rows ? 0 : 1;
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = -1; tin < inner; ++tin) {
      // Step -1 loads the outer step's blocks, step tin >= 0 the tile's.
      const std::size_t d = tin < 0 ? outer_dim : 1 - outer_dim;
      const std::int64_t t = tin < 0 ? to : tin;
      const std::int64_t len = d == 0 ? std::min(TN, rows - t * TN)
                                      : std::min(TM, cols - t * TM);
      for (std::int64_t k = 0; k < len;) {
        const std::size_t m =
            stream::lockstep(static_cast<std::size_t>(len - k), ports[d], {});
        for (std::size_t p = 0; p < R; ++p) {
          co_await ch[d][p]->pop_some(blk[d][p].data() + k, m);
        }
        k += static_cast<std::int64_t>(m);
      }
      if (tin < 0) continue;
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, rows - ti * TN);
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      const auto& rb = blk[0];
      const auto& cb = blk[1];
      std::int64_t in_cycle = 0;
      std::int64_t grant = 1;  // steps this resume moves
      bool only_a = false;  // whether this cycle's step moves only A
      const std::int64_t ni = row_elems ? tw : th;
      const std::int64_t total = th * tw;
      for (std::int64_t e = 0; e < total;) {
        const std::size_t m = stream::lockstep(
            static_cast<std::size_t>(std::min(W * grant - in_cycle, total - e)),
            a_port, out_port);
        if (v.size() < m) v.resize(m);
        co_await ch_a.pop_some(v.data(), m);
        detail::tile_runs(e, static_cast<std::int64_t>(m), ni, row_elems,
                          [&](std::int64_t k, std::int64_t r, std::int64_t c) {
                            if constexpr (R == 1) {
                              v[k] = v[k] + alpha * rb[0][r] * cb[0][c];
                            } else {
                              v[k] = v[k] + alpha * (rb[0][r] * cb[1][c] +
                                                     rb[1][r] * cb[0][c]);
                            }
                          });
        co_await ch_out.push_some(v.data(), m);
        e += static_cast<std::int64_t>(m);
        if ((in_cycle += static_cast<std::int64_t>(m)) == W * grant) {
          in_cycle = 0;
          grant = co_await next_cycle(only_a ? total - e : 0, W);
          only_a = true;
        }
      }
    }
    co_await next_cycle();
  }
}

/// GER: out = A + alpha * x * y^T, streamed tile by tile.
template <typename T>
Task ger(GerConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
         Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_out) {
  return ger_pairs<T, 1>(cfg, rows, cols, alpha, ch_a, {&ch_x}, {&ch_y},
                         ch_out);
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

/// SYR2: out = A + alpha * (x y^T + y x^T), GER with two vector pairs;
/// four vector streams (row and column blocks of both x and y).
template <typename T>
Task syr2(GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
          Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_y_row,
          Channel<T>& ch_y_col, Channel<T>& ch_out) {
  return ger_pairs<T, 2>(cfg, n, n, alpha, ch_a, {&ch_x_row, &ch_y_row},
                         {&ch_x_col, &ch_y_col}, ch_out);
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
/// top-down; upper: bottom-up), i.e. in solve order, then closes its
/// cycle. `uplo` refers to op(A): for a transposed solve pass the flipped
/// triangle and trans == Trans.
template <typename T>
Task read_triangular(MatrixView<const T> A, Uplo uplo, int width,
                     Channel<T>& out, stream::DramBank* bank = nullptr,
                     Transpose trans = Transpose::None) {
  const std::int64_t n = A.rows();
  const bool lower = uplo == Uplo::Lower;
  const bool none = trans == Transpose::None;
  return stream::read_granted<T>(
      stream::runs<const T>(n + 1,
                            [=](std::int64_t k) -> stream::Run<const T> {
                              if (k == n) return {.close = true};
                              const std::int64_t i = lower ? k : n - 1 - k;
                              const std::int64_t j0 = lower ? 0 : i;
                              return {none ? &A(i, j0) : &A(j0, i),
                                      none ? 1 : A.ld(), lower ? i + 1 : n - i};
                            }),
      width, out, bank);
}

/// TRSV: solves op(A) x = b for a triangular A streamed in solve order
/// (see read_triangular). b arrives on ch_b one element per row in solve
/// order; solutions leave on ch_out in the same order. The progressive
/// solution buffer is on-chip state (the loop-carried dependency that
/// keeps TRSV's initiation interval above 1 in hardware). A arrives up to
/// step_width values per step.
template <typename T>
Task trsv(TrsvConfig cfg, std::int64_t n, Channel<T>& ch_a, Channel<T>& ch_b,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::array<const stream::ChannelBase*, 1> a_port{&ch_a};
  const std::int64_t W = stream::step_width(cfg.width, a_port);
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
