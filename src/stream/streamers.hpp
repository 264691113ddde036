// Interface modules: the helper kernels that move data between (simulated)
// off-chip DRAM and the streaming modules, plus on-chip sources/sinks and
// stream plumbing. These correspond to the "Read A / Read B / Store C"
// helper kernels the paper's code generator emits around each module.
// Movers that move a fixed batch per cycle share read_bulk and
// write_bulk, driven by gather/scatter functors; movers that walk strided
// runs and move only what their channel can take at once share
// read_granted and write_granted, driven by run sources. Each makes one
// bank grant per step. Element-wise modules share elementwise.
//
// Modules and movers read and write the channels' rings in place
// (Channel::front/back windows): elementwise maps from the inputs' front
// windows into the outputs' back windows, the writers scatter from front
// windows and the readers gather into back windows, so a value is copied
// at most once per stream. A functional reader waits for room before its
// grant, so it never stages; in cycle mode a grant that does not fit is
// staged so memory is still read at grant time. Over one contiguous run
// (read_vector at unit stride) a functional read_bulk step waits for its
// channel to drain and lends it the run (Channel::lend) instead: the
// consumer reads memory in place, when it reads the value.
//
// Matrices are streamed according to a TileSchedule: tiles visited by rows
// or by columns, and elements within each tile by rows or by columns —
// the 4 streaming modes of Sec. III-B.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
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

/// Copies `n` values from `src`, `from` apart, to `dst`, `to` apart. Both
/// strides 1 is one std::copy_n, which vectorizes where the strided loop
/// does not.
template <typename T>
void copy_strided(const T* src, std::int64_t from, T* dst, std::int64_t to,
                  std::int64_t n) {
  if (from == 1 && to == 1) {
    std::copy_n(src, n, dst);
    return;
  }
  for (std::int64_t t = 0; t < n; ++t) dst[t * to] = src[t * from];
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
    copy_strided(p, stride, dst + k, 1, len);
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
    copy_strided(src + k, 1, p, stride, len);
    k += len;
  }
}

/// Batch buffer of a module moving up to `width` values per cycle.
template <typename T>
std::vector<T> lanes(std::int64_t width) {
  return std::vector<T>(
      static_cast<std::size_t>(std::max<std::int64_t>(width, 1)));
}

/// Applies `f` to lanes 0..m-1: lane k's I input values are in[0][k],
/// in[1][k], ..., and its O output values go to out[0][k], out[1][k], ....
/// A lane's inputs are read before its outputs are written, so an output
/// may be the buffer of an input. A plain function, so its locals stay in
/// registers instead of the calling coroutine's frame.
template <std::size_t I, std::size_t O, typename T, typename F>
void map_lanes(F& f, const std::array<const T*, I>& in,
               const std::array<T*, O>& out, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    std::array<T, I> v;
    for (std::size_t c = 0; c < I; ++c) v[c] = in[c][k];
    const std::array<T, O> r = f(v);
    for (std::size_t c = 0; c < O; ++c) out[c][k] = r[c];
  }
}

/// True when a step of `m` elements moves through every port without
/// suspending: each channel of `in` holds m values and each of `out` has
/// room for m.
inline bool moves_now(std::size_t m, std::span<const ChannelBase* const> in,
                      std::span<const ChannelBase* const> out) {
  for (const ChannelBase* c : in) {
    if (c->size() < m) return false;
  }
  for (const ChannelBase* c : out) {
    if (c->space() < m) return false;
  }
  return true;
}

/// The step of elementwise that suspends nowhere (see moves_now): maps `m`
/// elements through `f` from the front windows of `in` straight into the
/// back windows of `out`, a piece at a time, split only where a ring
/// wraps. Each piece drops the inputs in port order, then commits the
/// outputs in port order; under `taint`, a piece whose outputs hold NaN/Inf
/// commits element by element across the outputs, so the first one is
/// reported where an element-by-element module would report it.
template <typename T, std::size_t I, std::size_t O, typename F>
void map_windows(F& f, const std::array<Channel<T>*, I>& in,
                 const std::array<Channel<T>*, O>& out, std::size_t m,
                 bool taint) {
  std::array<const T*, I> src;
  std::array<T*, O> dst;
  while (m > 0) {
    std::size_t s = m;
    for (std::size_t c = 0; c < I; ++c) {
      const std::span<const T> w = in[c]->front(s);
      src[c] = w.data();
      s = w.size();
    }
    for (std::size_t c = 0; c < O; ++c) {
      const std::span<T> w = out[c]->back(s);
      dst[c] = w.data();
      s = w.size();
    }
    map_lanes<I, O>(f, src, dst, s);
    for (Channel<T>* c : in) c->drop(s);
    bool finite = true;
    for (std::size_t c = 0; taint && finite && c < O; ++c) {
      finite = all_finite(dst[c], s);
    }
    const std::size_t step = finite ? s : 1;
    for (std::size_t k = 0; k < s; k += step) {
      for (Channel<T>* c : out) c->commit(step);
    }
    m -= s;
  }
}

/// The one element-wise module body: moves `n` elements through `f`, up
/// to `width` per cycle (a step_width per step), from the channels of `in`
/// to those of `out` in lockstep (see lockstep); `f` maps one element's I
/// input values to its O output values. A step that suspends nowhere
/// computes in the channels' windows (map_windows). Only lockstep's forced
/// one-element step, whose awaits suspend where a per-element loop would,
/// pops every input into a one-element buffer per port, maps it there and
/// pushes every output from it. Every whole step left is one the body
/// repeats, so that is its horizon; a fast-forward grant of d steps is
/// one batch of d times the width.
template <typename T, std::size_t I, std::size_t O, typename F>
Task elementwise(std::int64_t n, int width, F f,
                 std::array<Channel<T>*, I> in,
                 std::array<Channel<T>*, O> out) {
  FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  const bool taint = O > 1 && out[0]->scheduler().taint_enabled();
  std::array<const ChannelBase*, I + O> ports;
  std::copy(in.begin(), in.end(), ports.begin());
  std::copy(out.begin(), out.end(), ports.begin() + I);
  const auto in_ports = std::span(ports).template first<I>();
  const auto out_ports = std::span(ports).template last<O>();
  co_await declare_ports(in_ports, out_ports);
  const std::int64_t w = step_width(width, ports);
  constexpr std::size_t N = std::max(I, O);
  std::array<T, N> one{};
  std::array<const T*, I> one_in;
  std::array<T*, O> one_out;
  for (std::size_t c = 0; c < I; ++c) one_in[c] = &one[c];
  for (std::size_t c = 0; c < O; ++c) one_out[c] = &one[c];
  std::int64_t d = 1;  // steps this resume moves
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min(w * d, n - it);
    for (std::int64_t i = 0; i < batch;) {
      const std::size_t m = lockstep(static_cast<std::size_t>(batch - i),
                                     in_ports, out_ports);
      if (moves_now(m, in_ports, out_ports)) {
        map_windows(f, in, out, m, taint);
      } else {
        for (std::size_t c = 0; c < I; ++c) {
          co_await in[c]->pop_some(&one[c], 1);
        }
        map_lanes<I, O>(f, one_in, one_out, 1);
        for (std::size_t c = 0; c < O; ++c) {
          co_await out[c]->push_some(&one[c], 1);
        }
      }
      i += static_cast<std::int64_t>(m);
    }
    it += batch;
    d = co_await next_cycle(n - it, w);
  }
}

/// One strided run of a granted mover: `len` elements at p[0], p[stride],
/// and so on. A writer stores only the elements in [keep_from, keep_to)
/// and drops the rest; `close` ends the mover's cycle after the run.
template <typename P>
struct Run {
  P* p = nullptr;
  std::int64_t stride = 1;
  std::int64_t len = 0;
  std::int64_t keep_from = 0;
  std::int64_t keep_to = std::numeric_limits<std::int64_t>::max();
  bool close = false;
};

/// A run source yielding at(0), ..., at(count - 1): the `next(run)`
/// functor read_granted and write_granted are driven by.
template <typename P, typename At>
auto runs(std::int64_t count, At at) {
  return [count, at, k = std::int64_t{0}](Run<P>& r) mutable {
    if (k == count) return false;
    r = at(k++);
    return true;
  };
}

/// The one run reader: streams the runs `next` yields into `out`, up to
/// `width` elements per cycle (a step_width per step). Of the elements a
/// cycle still has room for, a step takes as many as `out` can hold (at
/// least one) and grants them with one call to `bank` (all of them when
/// `bank` is null); a short grant ends its cycle early, and so does a
/// closing run. A grant that fits in `out` is gathered straight into its
/// back windows; in cycle mode one that does not (one element into a full
/// channel) is read at grant time and pushed when room frees. In
/// functional mode a step first waits for room, so every grant fits.
template <typename T, typename Runs>
Task read_granted(Runs next, std::int64_t width, Channel<T>& out,
                  DramBank* bank) {
  const std::array<const ChannelBase*, 1> port{&out};
  const std::int64_t w = step_width(width, port);
  const bool cycle = out.scheduler().cycle_mode();
  std::int64_t in_cycle = 0;
  for (Run<const T> run; next(run);) {
    for (std::int64_t j = 0; j < run.len;) {
      if (!cycle) co_await out.back_some(1);
      const std::int64_t want = std::min(
          {w - in_cycle, run.len - j,
           static_cast<std::int64_t>(std::max<std::size_t>(out.space(), 1))});
      const std::int64_t g = bank ? bank->grant_elems(want, sizeof(T)) : want;
      const T* const p = run.p + j * run.stride;
      if (g <= static_cast<std::int64_t>(out.space())) {
        for (std::int64_t t = 0; t < g;) {
          const std::span<T> win = out.back(static_cast<std::size_t>(g - t));
          const auto m = static_cast<std::int64_t>(win.size());
          copy_strided(p + t * run.stride, run.stride, win.data(), 1, m);
          out.commit(win.size());
          t += m;
        }
      } else {
        co_await out.push(*p);
      }
      j += g;
      in_cycle += g;
      if (g < want) {
        co_await next_cycle();
      } else if (in_cycle == w) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
    if (run.close) co_await next_cycle();
  }
}

/// Pops `len` values from `in` through its front windows, stores those at
/// [lo, lo + m) to p[0], p[stride], and so on, and returns the last one
/// popped. A plain function, so its locals stay out of the coroutine
/// frame.
template <typename T>
T scatter_front(Channel<T>& in, std::int64_t len, std::int64_t lo,
                std::int64_t m, T* p, std::int64_t stride) {
  T last{};
  for (std::int64_t t = 0; t < len;) {
    const std::span<const T> win = in.front(static_cast<std::size_t>(len - t));
    const auto size = static_cast<std::int64_t>(win.size());
    const std::int64_t from = std::clamp(lo - t, std::int64_t{0}, size);
    const std::int64_t to = std::clamp(lo + m - t, from, size);
    if (to > from) {
      copy_strided(win.data() + from, 1, p + (t + from - lo) * stride, stride,
                   to - from);
    }
    last = win[static_cast<std::size_t>(size - 1)];
    in.drop(win.size());
    t += size;
  }
  return last;
}

/// The one run writer: stores the stream from `in` into the runs `next`
/// yields, up to `width` elements per cycle (a step_width per step). A
/// step pops what `in` holds (at least one element) and grants its kept
/// elements, one range, with one call to `bank`, storing the granted ones
/// straight from `in`'s front windows; a kept element the bank refuses
/// ends the step and waits for its grant before the next pop.
template <typename T, typename Runs>
Task write_granted(Runs next, std::int64_t width, Channel<T>& in,
                   DramBank* bank) {
  const std::array<const ChannelBase*, 1> port{&in};
  const std::int64_t w = step_width(width, port);
  std::int64_t in_cycle = 0;
  for (Run<T> run; next(run);) {
    for (std::int64_t j = 0; j < run.len;) {
      std::int64_t len = std::min({w - in_cycle, run.len - j,
                                   static_cast<std::int64_t>(in.size())});
      // Nothing buffered: one element step, whose wait may suspend.
      if (len == 0) {
        co_await in.front_some(1);
        len = 1;
      }
      // The step's kept elements, [lo, hi); the first refused one, at
      // lo + granted, ends the step.
      const std::int64_t lo =
          std::clamp(run.keep_from - j, std::int64_t{0}, len);
      const std::int64_t hi = std::clamp(run.keep_to - j, lo, len);
      const std::int64_t granted =
          bank ? bank->grant_elems(hi - lo, sizeof(T)) : hi - lo;
      const bool waiting = granted < hi - lo;
      if (waiting) len = lo + granted + 1;
      const T refused = scatter_front(in, len, lo, granted,
                                      run.p + (j + lo) * run.stride, run.stride);
      if (waiting) {
        do {
          co_await next_cycle();
        } while (bank->grant_elems(1, sizeof(T)) == 0);
        run.p[(j + len - 1) * run.stride] = refused;
      }
      j += len;
      if ((in_cycle += len) == w) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
  }
}

/// The one bulk reader: streams `passes` passes of `n` elements each into
/// `out`. Every cycle it takes as many of the pass's next min(w, left)
/// elements as `bank` grants (all of them when `bank` is null), w being
/// the step_width of `width` on `out`; `gather(pass, k, dst, m)` copies
/// the pass's elements k..k+m-1 to `dst`. A grant that fits in `out`
/// is gathered straight into its back windows; one that does not is
/// gathered into the reader's lanes at grant time and pushed from there,
/// suspending while `out` is full. Then the cycle ends. In functional
/// mode, where banks are unmetered and no cycle is observed, a step first
/// waits for room in `out` and takes only what fits, so every grant is
/// gathered in place. When every pass's elements lie at `contiguous`
/// (not null), a functional step instead waits for `out` to drain and
/// lends it the granted run (Channel::lend), so the consumer reads the
/// run in memory; a step that cannot lend (an armed corruption, or NaN/Inf
/// under taint or a tap) gathers. Cycle mode never lends: its memory is
/// read at grant time. An empty pass takes no cycle. After a whole grant
/// the horizon is the whole steps left in the pass; a fast-forward grant
/// of d steps asks the bank for one step's elements d times over and
/// gathers d steps' worth.
template <typename T, typename Gather>
Task read_bulk(std::int64_t passes, std::int64_t n, std::int64_t width,
               Gather gather, Channel<T>& out, DramBank* bank,
               const T* contiguous = nullptr) {
  const std::array<const ChannelBase*, 1> port{&out};
  const std::int64_t w = step_width(width, port);
  const bool cycle = out.scheduler().cycle_mode();
  const T* const run = cycle ? nullptr : contiguous;
  co_await declare_ports({}, port);
  std::vector<T> buf;
  std::int64_t d = 1;  // steps this resume moves
  for (std::int64_t r = 0; r < passes; ++r) {
    for (std::int64_t k = 0; k < n;) {
      std::int64_t want = std::min(w, n - k);
      if (run != nullptr) {
        co_await out.drained();
      } else if (!cycle) {
        co_await out.back_some(static_cast<std::size_t>(want));
      }
      if (!cycle) {
        want = std::min(want, static_cast<std::int64_t>(out.space()));
      }
      const std::int64_t g =
          bank ? bank->grant_elems(want, sizeof(T), d) : want;
      const std::int64_t got = g * d;
      if (run != nullptr && out.lend(run + k, static_cast<std::size_t>(got))) {
        // Lent in place.
      } else if (got <= static_cast<std::int64_t>(out.space())) {
        for (std::int64_t t = 0; t < got;) {
          const std::span<T> win = out.back(static_cast<std::size_t>(got - t));
          gather(r, k + t, win.data(), static_cast<std::int64_t>(win.size()));
          out.commit(win.size());
          t += static_cast<std::int64_t>(win.size());
        }
      } else {
        if (buf.empty()) buf = lanes<T>(std::min(w, n));
        gather(r, k, buf.data(), got);
        for (std::int64_t t = 0; t < got;) {
          t += co_await out.push_some(buf.data() + t, got - t);
        }
      }
      k += got;
      d = co_await next_cycle(g == w ? n - k : 0, w);
    }
  }
}

/// The one bulk writer: drains `passes` passes of `n` elements each from
/// `in`. Every cycle it pops as many of the pass's next min(w, left)
/// elements as `bank` grants (all of them when `bank` is null), w being
/// the step_width of `width` on `in`; it hands each front window of `in`
/// to `scatter(pass, k, src, m)` (the pass's elements k..k+m-1), drops it
/// and ends the cycle. An empty pass takes no cycle. Horizons and
/// fast-forward grants are read_bulk's.
template <typename T, typename Scatter>
Task write_bulk(std::int64_t passes, std::int64_t n, std::int64_t width,
                Scatter scatter, Channel<T>& in, DramBank* bank) {
  const std::array<const ChannelBase*, 1> port{&in};
  const std::int64_t w = step_width(width, port);
  co_await declare_ports(port, {});
  std::int64_t d = 1;  // steps this resume moves
  for (std::int64_t r = 0; r < passes; ++r) {
    for (std::int64_t k = 0; k < n;) {
      const std::int64_t want = std::min(w, n - k);
      const std::int64_t g =
          bank ? bank->grant_elems(want, sizeof(T), d) : want;
      const std::int64_t got = g * d;
      for (std::int64_t t = 0; t < got;) {
        const std::span<const T> win =
            co_await in.front_some(static_cast<std::size_t>(got - t));
        scatter(r, k + t, win.data(), static_cast<std::int64_t>(win.size()));
        in.drop(win.size());
        t += static_cast<std::int64_t>(win.size());
      }
      k += got;
      d = co_await next_cycle(g == w ? n - k : 0, w);
    }
  }
}

/// Streams `v` into `out`, `repeat` times over, up to `width` elements per
/// cycle, metered by `bank` when present. Replaying a vector (repeat > 1)
/// is exactly the paper's "x must be replayed" behaviour. At unit stride
/// `v` is one contiguous run, which a functional step lends to `out`.
template <typename T>
Task read_vector(VectorView<const T> v, std::int64_t repeat, int width,
                 Channel<T>& out, DramBank* bank = nullptr) {
  return read_bulk<T>(
      repeat, v.size(), width,
      [v](std::int64_t, std::int64_t k, T* dst, std::int64_t m) {
        copy_strided(&v[k], v.inc(), dst, 1, m);
      },
      out, bank, v.inc() == 1 ? v.data() : nullptr);
}

/// Drains `in` into `v`, `repeat` times over (each pass overwrites, so the
/// final pass persists — the DRAM round-trip of a replayed result vector).
template <typename T>
Task write_vector(VectorView<T> v, std::int64_t repeat, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  return write_bulk<T>(
      repeat, v.size(), width,
      [v](std::int64_t, std::int64_t k, const T* src, std::int64_t m) {
        copy_strided(src, 1, &v[k], v.inc(), m);
      },
      in, bank);
}

/// Streams matrix `A` into `out` following `sched`, `repeat` times.
template <typename T>
Task read_matrix(MatrixView<const T> A, TileSchedule sched, std::int64_t repeat,
                 int width, Channel<T>& out, DramBank* bank = nullptr) {
  return read_bulk<T>(
      repeat, A.rows() * A.cols(), width,
      [=, walk = TileWalker(A.rows(), A.cols(), sched)](
          std::int64_t, std::int64_t k, T* dst, std::int64_t m) mutable {
        if (k == 0) walk.reset();  // a new pass
        gather_runs(walk, sched, A, dst, m);
      },
      out, bank);
}

/// Stores a stream into matrix `A` following `sched`.
template <typename T>
Task write_matrix(MatrixView<T> A, TileSchedule sched, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  return write_bulk<T>(
      1, A.rows() * A.cols(), width,
      [=, walk = TileWalker(A.rows(), A.cols(), sched)](
          std::int64_t, std::int64_t, const T* src, std::int64_t m) mutable {
        scatter_runs(walk, sched, A, src, m);
      },
      in, bank);
}

/// Stores an n x n matrix stream arriving in `sched` order but keeps only
/// the `uplo` triangle (SYR/SYR2 and SYRK/SYR2K, whose generic modules
/// emit the full square): write_granted over the schedule's runs, each
/// keeping the part on the `uplo` side of the diagonal.
template <typename T>
Task write_matrix_uplo(MatrixView<T> A, TileSchedule sched, Uplo uplo,
                       int width, Channel<T>& in, DramBank* bank = nullptr) {
  const bool row_elems = sched.elem_order == Order::RowMajor;
  // The kept part of a run is a prefix when the run moves towards the
  // kept side of the diagonal: along a row for Lower, down a column for
  // Upper.
  const bool prefix = (uplo == Uplo::Lower) == row_elems;
  auto next = [=, walk = TileWalker(A.rows(), A.cols(), sched)](
                  Run<T>& r) mutable {
    std::int64_t i = 0, j = 0;
    const std::int64_t len =
        walk.run(std::numeric_limits<std::int64_t>::max(), i, j);
    if (len == 0) return false;
    const std::int64_t diag = row_elems ? i - j : j - i;
    r = {&A(i, j), run_stride(sched, A.ld()), len, prefix ? 0 : diag,
         prefix ? diag + 1 : len};
    return true;
  };
  return write_granted<T>(next, width, in, bank);
}

/// On-chip data source: n copies of `value`, `width` per cycle. The paper
/// generates input directly on the FPGA for the module-scaling experiments
/// to decouple them from the testbed's memory interface.
template <typename T>
Task generate(std::int64_t n, T value, int width, Channel<T>& out) {
  return read_bulk<T>(
      1, n, width,
      [value](std::int64_t, std::int64_t, T* dst, std::int64_t m) {
        std::fill_n(dst, m, value);
      },
      out, nullptr);
}

/// On-chip sink: consumes and discards n elements, `width` per cycle.
template <typename T>
Task sink(std::int64_t n, int width, Channel<T>& in) {
  return write_bulk<T>(
      1, n, width, [](std::int64_t, std::int64_t, const T*, std::int64_t) {},
      in, nullptr);
}

/// Duplicates a stream of n elements into two downstream channels (the
/// shared-A interface module of the BICG composition, Fig. 7).
template <typename T>
Task fanout2(std::int64_t n, int width, Channel<T>& in, Channel<T>& out_a,
             Channel<T>& out_b) {
  return elementwise<T, 1, 2>(
      n, width, [](std::array<T, 1> v) { return std::array<T, 2>{v[0], v[0]}; },
      {&in}, {&out_a, &out_b});
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
