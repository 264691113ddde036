// Streaming HLS modules for the BLAS Level-3 routines.
//
// GEMM follows the paper's systolic organization (Sec. III-C, Fig. 3): a
// PR x PC grid of processing elements computes a TR x TC tile of C, where
// TR and TC (the compute tile) are multiples of PR and PC. The grid
// performs PR*PC multiply-adds per clock cycle; feeding needs TR + TC
// elements per K-step, i.e. (PR + PC)/ratio elements per cycle — which is
// why larger compute/memory tile ratios lower the bandwidth pressure
// (Fig. 10, right). This single-coroutine module is the "single kernel
// with a fully-unrolled PE function" formulation used for Intel FPGAs;
// an explicit PE-grid simulation lives in src/systolic/ and is tested to
// agree with it.
//
// Helper kernels Read-A / Read-B / Store-C (the paper's interface
// modules) are provided alongside, emitting exactly the order the module
// consumes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::Channel;
using stream::next_cycle;
using stream::Task;

struct GemmConfig {
  int pe_rows = 4;             ///< PR: systolic grid height
  int pe_cols = 4;             ///< PC: systolic grid width
  std::int64_t tile_rows = 16; ///< TR: compute-tile height (multiple of PR)
  std::int64_t tile_cols = 16; ///< TC: compute-tile width (multiple of PC)

  void validate() const;
  /// The compute/memory tile ratio of Fig. 10 (right): TR/PR == TC/PC is
  /// not required, so this reports the element ratio per PE.
  double ratio() const {
    return static_cast<double>(tile_rows * tile_cols) /
           static_cast<double>(pe_rows * pe_cols);
  }
};

/// DRAM I/O operations of a standalone GEMM (C is m x n, contraction k):
/// A is re-read once per C tile-column, B once per C tile-row, C written
/// (and read when beta != 0).
std::int64_t gemm_io_ops(const GemmConfig& cfg, std::int64_t m,
                         std::int64_t n, std::int64_t k, bool reads_c);

/// Read-A helper: streams the op(A) panel (column segments of length TR)
/// for every C tile in module order, pe_rows elements per cycle. With
/// trans == Trans the stored matrix is k x m and elements are fetched
/// transposed (the functional parameter of the code generator).
template <typename T>
Task read_a_gemm(MatrixView<const T> A, GemmConfig cfg, std::int64_t n,
                 Channel<T>& out, stream::DramBank* bank = nullptr,
                 Transpose trans = Transpose::None) {
  const bool none = trans == Transpose::None;
  const std::int64_t m = none ? A.rows() : A.cols();
  const std::int64_t k = none ? A.cols() : A.rows();
  const std::int64_t TR = cfg.tile_rows;
  const std::int64_t nbi = ceil_div(m, TR), nbj = ceil_div(n, cfg.tile_cols);
  // Segment (bi, bj, p): rows bi*TR.. of op(A)'s column p, for every bj.
  return stream::read_granted<T>(
      stream::runs<const T>(nbi * nbj * k,
                            [=](std::int64_t s) -> stream::Run<const T> {
                              const std::int64_t i = s / (nbj * k) * TR;
                              const std::int64_t p = s % k;
                              return {none ? &A(i, p) : &A(p, i),
                                      none ? A.ld() : 1, std::min(TR, m - i)};
                            }),
      cfg.pe_rows, out, bank);
}

/// Read-B helper: streams the op(B) panel (row segments of length TC) for
/// every C tile in module order, pe_cols elements per cycle.
template <typename T>
Task read_b_gemm(MatrixView<const T> B, GemmConfig cfg, std::int64_t m,
                 Channel<T>& out, stream::DramBank* bank = nullptr,
                 Transpose trans = Transpose::None) {
  const bool none = trans == Transpose::None;
  const std::int64_t k = none ? B.rows() : B.cols();
  const std::int64_t n = none ? B.cols() : B.rows();
  const std::int64_t TC = cfg.tile_cols;
  const std::int64_t nbi = ceil_div(m, cfg.tile_rows), nbj = ceil_div(n, TC);
  // Segment (bi, bj, p): columns bj*TC.. of op(B)'s row p, for every bi.
  return stream::read_granted<T>(
      stream::runs<const T>(nbi * nbj * k,
                            [=](std::int64_t s) -> stream::Run<const T> {
                              const std::int64_t j = s / k % nbj * TC;
                              const std::int64_t p = s % k;
                              return {none ? &B(p, j) : &B(j, p),
                                      none ? 1 : B.ld(), std::min(TC, n - j)};
                            }),
      cfg.pe_cols, out, bank);
}

/// The Store-C schedule: C tiles leave the drain in row-major tile order,
/// row-major elements within the tile.
inline stream::TileSchedule gemm_c_schedule(const GemmConfig& cfg) {
  return stream::TileSchedule{Order::RowMajor, Order::RowMajor, cfg.tile_rows,
                              cfg.tile_cols};
}

/// The one GEMM-family module: C = alpha * sum of the panel products +
/// beta * C, for one panel pair (GEMM: A B; SYRK streams A and A^T) or two
/// (SYR2K: A B^T + B A^T). ch_cols[p] carries pair p's op(A)-style column
/// segments (as read_a_gemm emits) and ch_rows[p] its op(B)-style row
/// segments (as read_b_gemm emits); for two pairs the product is
/// col[0] row[1] + col[1] row[0]. When beta is non-zero, the previous C
/// arrives on ch_c in gemm_c_schedule order; for beta == 0 the channel is
/// never popped. The result leaves on ch_out in gemm_c_schedule order.
template <typename T, std::size_t R>
Task gemm_pairs(GemmConfig cfg, std::int64_t m, std::int64_t n,
                std::int64_t k, T alpha, T beta,
                std::array<Channel<T>*, R> ch_cols,
                std::array<Channel<T>*, R> ch_rows, Channel<T>& ch_c,
                Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TR = cfg.tile_rows, TC = cfg.tile_cols;
  const std::int64_t nbi = ceil_div(m, TR), nbj = ceil_div(n, TC);
  const std::int64_t macs_per_cycle =
      static_cast<std::int64_t>(cfg.pe_rows) * cfg.pe_cols;
  std::vector<T> acc(static_cast<std::size_t>(TR * TC));
  std::array<std::vector<T>, R> col, row;
  for (std::size_t p = 0; p < R; ++p) {
    col[p].resize(static_cast<std::size_t>(TR));
    row[p].resize(static_cast<std::size_t>(TC));
  }
  const std::array<const stream::ChannelBase*, 1> c_port{&ch_c};
  const std::array<const stream::ChannelBase*, 1> out_port{&ch_out};
  std::vector<T> c_in = stream::lanes<T>(cfg.pe_cols), c_out = c_in;
  for (std::int64_t bi = 0; bi < nbi; ++bi) {
    const std::int64_t th = std::min(TR, m - bi * TR);
    for (std::int64_t bj = 0; bj < nbj; ++bj) {
      const std::int64_t tw = std::min(TC, n - bj * TC);
      std::fill(acc.begin(), acc.end(), T(0));
      std::int64_t in_cycle = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::size_t q = 0; q < R; ++q) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_cols[q]->pop_some(col[q].data() + r, th - r);
          }
        }
        for (std::size_t q = 0; q < R; ++q) {
          for (std::int64_t c = 0; c < tw;) {
            c += co_await ch_rows[q]->pop_some(row[q].data() + c, tw - c);
          }
        }
        // The PE grid: PR*PC of these multiply-adds happen per cycle.
        for (std::int64_t r = 0; r < th; ++r) {
          T* acc_row = acc.data() + r * TC;
          const T a0 = col[0][r], a1 = col[R - 1][r];
          for (std::int64_t c = 0; c < tw;) {
            const std::int64_t cnt = std::min(macs_per_cycle - in_cycle, tw - c);
            for (std::int64_t t = c; t < c + cnt; ++t) {
              if constexpr (R == 1) {
                acc_row[t] += a0 * row[0][t];
              } else {
                acc_row[t] += a0 * row[1][t] + a1 * row[0][t];
              }
            }
            c += cnt;
            if ((in_cycle += cnt) == macs_per_cycle) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      // Drain phase: results leave PC elements per cycle through the
      // drain chain (Fig. 3), merging in the previous C when beta != 0.
      std::int64_t drained = 0;
      for (std::int64_t e = 0; e < th * tw;) {
        const auto want = static_cast<std::size_t>(
            std::min(cfg.pe_cols - drained, th * tw - e));
        const std::size_t got = stream::lockstep(
            want, std::span(c_port).first(beta != T(0) ? 1 : 0), out_port);
        if (beta != T(0)) co_await ch_c.pop_some(c_in.data(), got);
        for (std::size_t t = 0; t < got; ++t, ++e) {
          T v = alpha * acc[(e / tw) * TC + e % tw];
          if (beta != T(0)) v += beta * c_in[t];
          c_out[t] = v;
        }
        co_await ch_out.push_some(c_out.data(), got);
        if ((drained += static_cast<std::int64_t>(got)) == cfg.pe_cols) {
          drained = 0;
          co_await next_cycle();
        }
      }
      co_await next_cycle();
    }
  }
}

/// GEMM: C = alpha * A * B + beta * C, gemm_pairs over one panel pair: A
/// arrives as read_a_gemm emits, B as read_b_gemm emits.
template <typename T>
Task gemm(GemmConfig cfg, std::int64_t m, std::int64_t n, std::int64_t k,
          T alpha, T beta, Channel<T>& ch_a, Channel<T>& ch_b,
          Channel<T>& ch_c, Channel<T>& ch_out) {
  return gemm_pairs<T, 1>(cfg, m, n, k, alpha, beta, {&ch_a}, {&ch_b}, ch_c,
                          ch_out);
}

/// SYR2K: C = alpha * (A B^T + B A^T) + beta * C with A and B both n x k,
/// gemm_pairs over two panel pairs: column segments of A and B (as
/// read_a_gemm emits) and row segments of A^T and B^T (as read_b_gemm
/// emits on the transposed views). Only the `uplo` triangle of the output
/// is meaningful; the store helper filters it.
template <typename T>
Task syr2k(GemmConfig cfg, std::int64_t n, std::int64_t k, T alpha, T beta,
           Channel<T>& ch_a, Channel<T>& ch_b, Channel<T>& ch_at,
           Channel<T>& ch_bt, Channel<T>& ch_c, Channel<T>& ch_out) {
  return gemm_pairs<T, 2>(cfg, n, n, k, alpha, beta, {&ch_a, &ch_b},
                          {&ch_at, &ch_bt}, ch_c, ch_out);
}

struct TrsmConfig {
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  int width = 16;

  void validate() const {
    FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  }
};

/// TRSM (left side): solves op-free A * X = alpha * B for triangular A
/// (m x m) and B (m x n), streaming A's triangle in solve order (see
/// read_triangular) and B's rows in the same order. X rows leave in solve
/// order. The progressively-filled X buffer is the on-chip state of the
/// blocked solve. Right-side and transposed solves are lowered to this
/// module by the host API through operand transposition.
template <typename T>
Task trsm(TrsmConfig cfg, std::int64_t m, std::int64_t n, T alpha,
          Channel<T>& ch_a, Channel<T>& ch_b, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t W = cfg.width;
  std::vector<T> x(static_cast<std::size_t>(m * n), T(0));
  std::vector<T> row(static_cast<std::size_t>(n));
  std::int64_t in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n;) {
      const std::int64_t got =
          co_await ch_b.pop_some(row.data() + c, std::min(W - in_cycle, n - c));
      for (std::int64_t t = c; t < c + got; ++t) row[t] = alpha * row[t];
      c += got;
      if ((in_cycle += got) == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
    T diag_val = T(1);
    const std::int64_t j0 = cfg.uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = cfg.uplo == Uplo::Lower ? i + 1 : m;
    for (std::int64_t j = j0; j < j1; ++j) {
      const T a = co_await ch_a.pop();
      if (j == i) {
        diag_val = a;
        continue;
      }
      for (std::int64_t c = 0; c < n;) {
        const std::int64_t cnt = std::min(W - in_cycle, n - c);
        for (std::int64_t t = c; t < c + cnt; ++t) row[t] -= a * x[j * n + t];
        c += cnt;
        if ((in_cycle += cnt) == W) {
          in_cycle = 0;
          co_await next_cycle();
        }
      }
    }
    T* xi = x.data() + i * n;
    for (std::int64_t c = 0; c < n;) {
      const std::int64_t cnt = std::min(W - in_cycle, n - c);
      for (std::int64_t t = c; t < c + cnt; ++t) {
        xi[t] = cfg.diag == Diag::Unit ? row[t] : row[t] / diag_val;
      }
      for (std::int64_t t = c; t < c + cnt;) {
        t += co_await ch_out.push_some(xi + t, c + cnt - t);
      }
      c += cnt;
      if ((in_cycle += cnt) == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
  }
  co_await next_cycle();
}

}  // namespace fblas::core
