// Interface modules: the helper kernels that move data between (simulated)
// off-chip DRAM and the streaming modules, plus on-chip sources/sinks and
// stream plumbing. These correspond to the "Read A / Read B / Store C"
// helper kernels the paper's code generator emits around each module.
//
// Matrices are streamed according to a TileSchedule: tiles visited by rows
// or by columns, and elements within each tile by rows or by columns —
// the 4 streaming modes of Sec. III-B.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "common/view.hpp"
#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/graph.hpp"

namespace fblas::stream {

/// How a matrix operand crosses a streaming interface.
struct TileSchedule {
  Order tile_order = Order::RowMajor;  ///< order in which tiles are visited
  Order elem_order = Order::RowMajor;  ///< element order within a tile
  std::int64_t tile_rows = 0;          ///< TN: tile height
  std::int64_t tile_cols = 0;          ///< TM: tile width

  bool operator==(const TileSchedule&) const = default;
};

/// Enumerates the (row, col) coordinates of an `rows x cols` matrix in the
/// order defined by a TileSchedule, clamping edge tiles.
class TileWalker {
 public:
  TileWalker(std::int64_t rows, std::int64_t cols, TileSchedule sched);

  /// Advances to the next coordinate; false when the traversal is done.
  bool next(std::int64_t& row, std::int64_t& col);

  std::int64_t total() const { return rows_ * cols_; }
  void reset();

 private:
  std::int64_t rows_, cols_;
  TileSchedule s_;
  std::int64_t n_trow_, n_tcol_;  // number of tile rows / cols
  // Current position: tile indices and element indices within the tile.
  std::int64_t ti_ = 0, tj_ = 0, ei_ = 0, ej_ = 0;
  bool done_ = false;
};

/// Streams `v` into `out`, `repeat` times over, up to `width` elements per
/// cycle, metered by `bank` when present. Replaying a vector (repeat > 1)
/// is exactly the paper's "x must be replayed" behaviour.
template <typename T>
Task read_vector(VectorView<const T> v, std::int64_t repeat, int width,
                 Channel<T>& out, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) co_await out.push(v[idx + k]);
      idx += got;
      co_await next_cycle();
    }
  }
}

/// Drains `in` into `v`, `repeat` times over (each pass overwrites, so the
/// final pass persists — the DRAM round-trip of a replayed result vector).
template <typename T>
Task write_vector(VectorView<T> v, std::int64_t repeat, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) v[idx + k] = co_await in.pop();
      idx += got;
      co_await next_cycle();
    }
  }
}

/// Streams matrix `A` into `out` following `sched`, `repeat` times.
template <typename T>
Task read_matrix(MatrixView<const T> A, TileSchedule sched, std::int64_t repeat,
                 int width, Channel<T>& out, DramBank* bank = nullptr) {
  for (std::int64_t r = 0; r < repeat; ++r) {
    TileWalker walk(A.rows(), A.cols(), sched);
    std::int64_t remaining = walk.total();
    while (remaining > 0) {
      const std::int64_t want = std::min<std::int64_t>(width, remaining);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) {
        std::int64_t i = 0, j = 0;
        walk.next(i, j);
        co_await out.push(A(i, j));
      }
      remaining -= got;
      co_await next_cycle();
    }
  }
}

/// Stores a stream into matrix `A` following `sched`.
template <typename T>
Task write_matrix(MatrixView<T> A, TileSchedule sched, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  while (remaining > 0) {
    const std::int64_t want = std::min<std::int64_t>(width, remaining);
    const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
    for (std::int64_t k = 0; k < got; ++k) {
      std::int64_t i = 0, j = 0;
      walk.next(i, j);
      A(i, j) = co_await in.pop();
    }
    remaining -= got;
    co_await next_cycle();
  }
}

/// Stores an n x n matrix stream arriving in `sched` order but keeps only
/// the `uplo` triangle (SYR/SYR2 and SYRK/SYR2K, whose generic modules
/// emit the full square). Every kept element waits for its bank grant;
/// `width` elements are consumed per cycle.
template <typename T>
Task write_matrix_uplo(MatrixView<T> A, TileSchedule sched, Uplo uplo,
                       int width, Channel<T>& in, DramBank* bank = nullptr) {
  TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  int in_cycle = 0;
  while (remaining > 0) {
    std::int64_t i = 0, j = 0;
    walk.next(i, j);
    const T v = co_await in.pop();
    const bool keep = uplo == Uplo::Lower ? j <= i : j >= i;
    if (keep) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) co_await next_cycle();
      }
      A(i, j) = v;
    }
    --remaining;
    if (++in_cycle == width) {
      in_cycle = 0;
      co_await next_cycle();
    }
  }
}

/// On-chip data source: n copies of `value`, `width` per cycle. The paper
/// generates input directly on the FPGA for the module-scaling experiments
/// to decouple them from the testbed's memory interface.
template <typename T>
Task generate(std::int64_t n, T value, int width, Channel<T>& out) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) co_await out.push(value);
    idx += batch;
    co_await next_cycle();
  }
}

/// On-chip sink: consumes and discards n elements, `width` per cycle.
template <typename T>
Task sink(std::int64_t n, int width, Channel<T>& in) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) (void)co_await in.pop();
    idx += batch;
    co_await next_cycle();
  }
}

/// Duplicates a stream of n elements into two downstream channels (the
/// shared-A interface module of the BICG composition, Fig. 7).
template <typename T>
Task fanout2(std::int64_t n, int width, Channel<T>& in, Channel<T>& out_a,
             Channel<T>& out_b) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) {
      T v = co_await in.pop();
      co_await out_a.push(v);
      co_await out_b.push(std::move(v));
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// Collects a stream of n elements into a std::vector (test utility).
template <typename T>
Task collect(std::int64_t n, Channel<T>& in, std::vector<T>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) out.push_back(co_await in.pop());
  co_await next_cycle();
}

/// Feeds a std::vector into a channel verbatim (test utility). Takes the
/// data by value: module coroutines start lazily, so reference parameters
/// to temporaries would dangle.
template <typename T>
Task feed(std::vector<T> data, Channel<T>& out) {
  for (const T& v : data) co_await out.push(v);
  co_await next_cycle();
}

}  // namespace fblas::stream
