// Internal helpers shared by the host-API routine lowerings.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/routines.hpp"
#include "common/types.hpp"
#include "host/context.hpp"
#include "host/device.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::host::detail {

/// DDR banks of the simulated device registered with a graph. In cycle
/// mode every reader/writer is metered against the bank its buffer lives
/// on; bank contention (several interfaces on one bank) emerges naturally.
class BankSet {
 public:
  BankSet(stream::Graph& g, const Device& dev, double freq_mhz) {
    const double bytes_per_cycle =
        dev.spec().bank_bandwidth_gbs * 1e9 / (freq_mhz * 1e6);
    for (int b = 0; b < dev.bank_count(); ++b) {
      banks_.push_back(&g.bank("ddr" + std::to_string(b), bytes_per_cycle));
    }
  }
  stream::DramBank* at(int bank) {
    return banks_[static_cast<std::size_t>(bank)];
  }

 private:
  std::vector<stream::DramBank*> banks_;
};

/// The one graph launch every routine lowering shares: a graph in the
/// context's mode with the device's DDR banks metered at `freq_mhz`,
/// wired by `build(graph, banks)` and run through Context::run_graph
/// (fault injection, taint tracking, cycle accounting).
template <typename Build>
void launch(Context& ctx, double freq_mhz, Build&& build) {
  stream::Graph g(ctx.mode());
  BankSet banks(g, ctx.device(), freq_mhz);
  build(g, banks);
  ctx.run_graph(g);
}

/// launch() at the clock of routine `kind`'s module in precision T.
template <typename T, typename Build>
void launch(Context& ctx, RoutineKind kind, Build&& build) {
  launch(ctx,
         sim::module_frequency(kind, PrecisionTraits<T>::value,
                               ctx.device().spec())
             .mhz,
         std::forward<Build>(build));
}

/// Stores a matrix stream but only keeps the `uplo` triangle (used by the
/// SYR/SYR2 lowerings, whose generic modules update the full square).
template <typename T>
stream::Task write_matrix_uplo(MatrixView<T> A, stream::TileSchedule sched,
                               Uplo uplo, int width, stream::Channel<T>& in,
                               stream::DramBank* bank = nullptr) {
  stream::TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  int in_cycle = 0;
  while (remaining > 0) {
    std::int64_t i = 0, j = 0;
    walk.next(i, j);
    const T v = co_await in.pop();
    const bool keep = uplo == Uplo::Lower ? j <= i : j >= i;
    if (keep) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      A(i, j) = v;
    }
    --remaining;
    if (++in_cycle == width) {
      in_cycle = 0;
      co_await stream::next_cycle();
    }
  }
}

/// `v` as an n x 1 matrix (ld = inc): how the row movers below stream a
/// vector in solve order (TRSV's b and x).
template <typename T>
MatrixView<T> as_column(VectorView<T> v) {
  return MatrixView<T>(v.data(), v.size(), 1, v.inc());
}

/// Streams matrix rows in solve order (reversed for Upper solves).
template <typename T>
stream::Task read_rows_solve_order(MatrixView<const T> B, Uplo uplo,
                                   int width, stream::Channel<T>& out,
                                   stream::DramBank* bank = nullptr) {
  const std::int64_t m = B.rows(), n = B.cols();
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      co_await out.push(B(i, c));
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
  co_await stream::next_cycle();
}

/// Stores solve-order rows back in natural order.
template <typename T>
stream::Task write_rows_solve_order(MatrixView<T> X, Uplo uplo, int width,
                                    stream::Channel<T>& in,
                                    stream::DramBank* bank = nullptr) {
  const std::int64_t m = X.rows(), n = X.cols();
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      const T v = co_await in.pop();
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      X(i, c) = v;
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
}

/// Channel capacity used by the lowerings: deep enough for two width-
/// batches so producer and consumer never false-stall within a cycle.
inline std::size_t chan_cap(int width) {
  return static_cast<std::size_t>(std::max(64, 2 * width));
}

}  // namespace fblas::host::detail
