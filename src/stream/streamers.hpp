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

  /// Advances over the next run of up to `max` coordinates that are
  /// contiguous in element order: (row, col), then along the row (row-major
  /// elements) or the column (column-major) within the current tile.
  /// Returns the run's length, 0 when the traversal is done.
  std::int64_t run(std::int64_t max, std::int64_t& row, std::int64_t& col);
  /// Advances to the next coordinate; false when the traversal is done.
  bool next(std::int64_t& row, std::int64_t& col) {
    return run(1, row, col) != 0;
  }

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

/// Memory step between consecutive elements of a TileWalker run of a
/// matrix with leading dimension `ld`.
inline std::int64_t run_stride(const TileSchedule& s, std::int64_t ld) {
  return s.elem_order == Order::RowMajor ? 1 : ld;
}

/// Copies the next `n` elements of `walk`'s traversal of `A` into `dst`,
/// a run at a time.
template <typename T>
void gather_runs(TileWalker& walk, const TileSchedule& s, MatrixView<const T> A,
                 T* dst, std::int64_t n) {
  const std::int64_t stride = run_stride(s, A.ld());
  for (std::int64_t k = 0; k < n;) {
    std::int64_t i = 0, j = 0;
    const std::int64_t len = walk.run(n - k, i, j);
    const T* p = &A(i, j);
    for (std::int64_t t = 0; t < len; ++t) dst[k + t] = p[t * stride];
    k += len;
  }
}

/// Stores `n` values into the next `n` elements of `walk`'s traversal of
/// `A`, a run at a time.
template <typename T>
void scatter_runs(TileWalker& walk, const TileSchedule& s, MatrixView<T> A,
                  const T* src, std::int64_t n) {
  const std::int64_t stride = run_stride(s, A.ld());
  for (std::int64_t k = 0; k < n;) {
    std::int64_t i = 0, j = 0;
    const std::int64_t len = walk.run(n - k, i, j);
    T* p = &A(i, j);
    for (std::int64_t t = 0; t < len; ++t) p[t * stride] = src[k + t];
    k += len;
  }
}

/// The non-suspending half of a reader whose bank grants one element at
/// a time: of the next `want` elements, grants as many as `out` has room
/// for (at least one) against `bank` (every one when it is null), one by
/// one and stopping at the first refusal, and gathers at(0), at(1), ... of
/// the granted ones into `buf`. Returns how many were granted; `refused`
/// tells whether a grant failed, after which the reader waits a cycle.
template <typename T, typename At>
std::int64_t gather_granted(DramBank* bank, const Channel<T>& out,
                            std::int64_t want, T* buf, At&& at,
                            bool& refused) {
  const std::int64_t m = std::min<std::int64_t>(
      want, static_cast<std::int64_t>(std::max<std::size_t>(out.space(), 1)));
  std::int64_t g = 0;
  refused = false;
  while (g < m) {
    if (bank != nullptr && bank->grant_elems(1, sizeof(T)) == 0) {
      refused = true;
      break;
    }
    buf[g] = at(g);
    ++g;
  }
  return g;
}

/// The non-suspending half of a writer whose bank grants each kept
/// element right after it is popped: of the next `avail` popped elements,
/// grants the kept ones (keep(t)) against `bank` in order, and ends the
/// run at the first refusal. Returns the run's length; `refused` tells
/// whether its last element still waits for a grant.
template <typename Keep>
std::int64_t grant_run(DramBank* bank, std::size_t elem_bytes,
                       std::int64_t avail, Keep&& keep, bool& refused) {
  refused = false;
  for (std::int64_t t = 0; t < avail; ++t) {
    if (bank != nullptr && keep(t) && bank->grant_elems(1, elem_bytes) == 0) {
      refused = true;
      return t + 1;
    }
  }
  return avail;
}

/// Batch buffer of a module moving up to `width` values per cycle.
template <typename T>
std::vector<T> lanes(std::int64_t width) {
  return std::vector<T>(static_cast<std::size_t>(std::max<std::int64_t>(width, 1)));
}

/// Streams `v` into `out`, `repeat` times over, up to `width` elements per
/// cycle, metered by `bank` when present. Replaying a vector (repeat > 1)
/// is exactly the paper's "x must be replayed" behaviour.
template <typename T>
Task read_vector(VectorView<const T> v, std::int64_t repeat, int width,
                 Channel<T>& out, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  std::vector<T> buf = lanes<T>(width);
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) buf[k] = v[idx + k];
      for (std::int64_t k = 0; k < got;) {
        k += co_await out.push_some(buf.data() + k, got - k);
      }
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
  std::vector<T> buf = lanes<T>(width);
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got;) {
        const auto moved = static_cast<std::int64_t>(
            co_await in.pop_some(buf.data(), got - k));
        for (std::int64_t t = 0; t < moved; ++t) v[idx + k + t] = buf[t];
        k += moved;
      }
      idx += got;
      co_await next_cycle();
    }
  }
}

/// Streams matrix `A` into `out` following `sched`, `repeat` times.
template <typename T>
Task read_matrix(MatrixView<const T> A, TileSchedule sched, std::int64_t repeat,
                 int width, Channel<T>& out, DramBank* bank = nullptr) {
  std::vector<T> buf = lanes<T>(width);
  for (std::int64_t r = 0; r < repeat; ++r) {
    TileWalker walk(A.rows(), A.cols(), sched);
    std::int64_t remaining = walk.total();
    while (remaining > 0) {
      const std::int64_t want = std::min<std::int64_t>(width, remaining);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      gather_runs(walk, sched, A, buf.data(), got);
      for (std::int64_t k = 0; k < got;) {
        k += co_await out.push_some(buf.data() + k, got - k);
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
  std::vector<T> buf = lanes<T>(width);
  std::int64_t remaining = walk.total();
  while (remaining > 0) {
    const std::int64_t want = std::min<std::int64_t>(width, remaining);
    const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
    for (std::int64_t k = 0; k < got;) {
      const auto moved = static_cast<std::int64_t>(
          co_await in.pop_some(buf.data(), got - k));
      scatter_runs(walk, sched, A, buf.data(), moved);
      k += moved;
    }
    remaining -= got;
    co_await next_cycle();
  }
}

/// Stores an n x n matrix stream arriving in `sched` order but keeps only
/// the `uplo` triangle (SYR/SYR2 and SYRK/SYR2K, whose generic modules
/// emit the full square). Every kept element is granted by the bank right
/// after it is popped and waits for its grant before the next pop;
/// `width` elements are consumed per cycle.
template <typename T>
Task write_matrix_uplo(MatrixView<T> A, TileSchedule sched, Uplo uplo,
                       int width, Channel<T>& in, DramBank* bank = nullptr) {
  TileWalker walk(A.rows(), A.cols(), sched);
  const bool row_elems = sched.elem_order == Order::RowMajor;
  const std::int64_t stride = run_stride(sched, A.ld());
  std::vector<T> buf = lanes<T>(width);
  std::int64_t remaining = walk.total();
  std::int64_t in_cycle = 0;
  while (remaining > 0) {
    const auto avail = std::min<std::int64_t>(
        std::min<std::int64_t>(width - in_cycle, remaining),
        static_cast<std::int64_t>(in.size()));
    // Nothing buffered: one element step, whose pop may suspend.
    if (avail == 0) co_await in.pop_some(buf.data(), 1);
    std::int64_t i = 0, j = 0;
    TileWalker ahead = walk;
    std::int64_t len = ahead.run(std::max<std::int64_t>(avail, 1), i, j);
    // Whether element t of the run is kept.
    auto keep = [&](std::int64_t t) {
      const std::int64_t r = row_elems ? i : i + t;
      const std::int64_t c = row_elems ? j + t : j;
      return uplo == Uplo::Lower ? c <= r : c >= r;
    };
    bool waiting = false;
    len = grant_run(bank, sizeof(T), len, keep, waiting);
    walk.run(len, i, j);
    if (avail > 0) in.take_some(buf.data(), static_cast<std::size_t>(len));
    T* p = &A(i, j);
    for (std::int64_t t = 0; t < len - (waiting ? 1 : 0); ++t) {
      if (keep(t)) p[t * stride] = buf[t];
    }
    if (waiting) {
      do {
        co_await next_cycle();
      } while (bank->grant_elems(1, sizeof(T)) == 0);
      p[(len - 1) * stride] = buf[len - 1];
    }
    remaining -= len;
    if ((in_cycle += len) == width) {
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
  std::vector<T> buf = lanes<T>(width);
  std::fill(buf.begin(), buf.end(), value);
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      k += co_await out.push_some(buf.data(), batch - k);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// On-chip sink: consumes and discards n elements, `width` per cycle.
template <typename T>
Task sink(std::int64_t n, int width, Channel<T>& in) {
  std::vector<T> buf = lanes<T>(width);
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      k += co_await in.pop_some(buf.data(), batch - k);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// Duplicates a stream of n elements into two downstream channels (the
/// shared-A interface module of the BICG composition, Fig. 7).
template <typename T>
Task fanout2(std::int64_t n, int width, Channel<T>& in, Channel<T>& out_a,
             Channel<T>& out_b) {
  std::vector<T> buf = lanes<T>(width);
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      const std::size_t m = lockstep(static_cast<std::size_t>(batch - k),
                                     {&in}, {&out_a, &out_b});
      co_await in.pop_some(buf.data(), m);
      co_await out_a.push_some(buf.data(), m);
      co_await out_b.push_some(buf.data(), m);
      k += static_cast<std::int64_t>(m);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// Collects a stream of n elements into a std::vector (test utility).
template <typename T>
Task collect(std::int64_t n, Channel<T>& in, std::vector<T>& out) {
  out.assign(static_cast<std::size_t>(n), T{});
  for (std::int64_t k = 0; k < n;) {
    k += co_await in.pop_some(out.data() + k, static_cast<std::size_t>(n - k));
  }
  co_await next_cycle();
}

/// Feeds a std::vector into a channel verbatim (test utility). Takes the
/// data by value: module coroutines start lazily, so reference parameters
/// to temporaries would dangle.
template <typename T>
Task feed(std::vector<T> data, Channel<T>& out) {
  for (std::size_t k = 0; k < data.size();) {
    k += co_await out.push_some(data.data() + k, data.size() - k);
  }
  co_await next_cycle();
}

}  // namespace fblas::stream
