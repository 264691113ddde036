// Internal helpers shared by the host-API routine lowerings and the
// composition interpreter: the graph launch, the DRAM movers, and the
// operand list a streaming routine's Command is derived from.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/routines.hpp"
#include "common/types.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
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

/// `v` as an n x 1 matrix (ld = inc): how the row movers below stream a
/// vector in solve order (TRSV's b and x).
template <typename T>
MatrixView<T> as_column(VectorView<T> v) {
  return MatrixView<T>(v.data(), v.size(), 1, v.inc());
}

/// The row runs of `M` in solve order (reversed for Upper solves).
template <typename P>
auto solve_order_rows(MatrixView<P> M, Uplo uplo) {
  const std::int64_t m = M.rows();
  return [=](std::int64_t s) -> stream::Run<P> {
    return {&M(uplo == Uplo::Lower ? s : m - 1 - s, 0), 1, M.cols()};
  };
}

/// Streams matrix rows in solve order, then closes its cycle.
template <typename T>
stream::Task read_rows_solve_order(MatrixView<const T> B, Uplo uplo,
                                   int width, stream::Channel<T>& out,
                                   stream::DramBank* bank = nullptr) {
  const std::int64_t m = B.rows();
  auto row = solve_order_rows(B, uplo);
  return stream::read_granted<T>(
      stream::runs<const T>(m + 1,
                            [=](std::int64_t s) -> stream::Run<const T> {
                              if (s == m) return {.close = true};
                              return row(s);
                            }),
      width, out, bank);
}

/// Stores solve-order rows back in natural order.
template <typename T>
stream::Task write_rows_solve_order(MatrixView<T> X, Uplo uplo, int width,
                                    stream::Channel<T>& in,
                                    stream::DramBank* bank = nullptr) {
  return stream::write_granted<T>(
      stream::runs<T>(X.rows(), solve_order_rows(X, uplo)), width, in, bank);
}

/// Routine FIFO depth in functional mode, where a step moves a channel's
/// worth (stream::step_width): a step's working set stays in L2.
inline constexpr int kFunctionalDepth = 4096;

/// Channel capacity used by the routine lowerings in a graph of `mode`
/// whose longest stream carries `values` values. Cycle mode: two width-
/// batches, at least 64, so producer and consumer never false-stall
/// within a cycle. Functional mode keeps no time, so a FIFO is one step
/// deep: kFunctionalDepth, but no deeper than `values` (a small command
/// allocates no ring it cannot fill) and never shallower than in cycle
/// mode, so a graph that completes there completes here.
inline std::size_t chan_cap(stream::Mode mode, int width,
                            std::int64_t values) {
  const std::int64_t cycle = std::max(64, 2 * width);
  if (mode == stream::Mode::Cycle) return static_cast<std::size_t>(cycle);
  return static_cast<std::size_t>(std::max(
      cycle, std::min<std::int64_t>(kFunctionalDepth, values)));
}

/// Collects `n` values from `in`; the first lands in the host scalar
/// `*dst` (a DOT-like module pushes one; a replayed stream repeats it).
template <typename U>
stream::Task collect_first(std::int64_t n, stream::Channel<U>& in, U* dst) {
  for (std::int64_t k = 0; k < n; ++k) {
    const U v = co_await in.pop();
    if (k == 0) *dst = v;
  }
  co_await stream::next_cycle();
}

// ---- Operands: what a streaming routine moves, and the movers it gets ----

/// How an operand moves between its buffer and its channel.
enum class Movement : std::uint8_t {
  Vector,      ///< `n` elements at stride `inc`, `repeat` passes
  Matrix,      ///< `n` x `cols` in `sched` order (`repeat` passes if read)
  SolveRows,   ///< `n` elements at stride `inc` in `uplo` solve order
  Triangular,  ///< op(A)'s `uplo` triangle of an `n` x `n` A (read only)
  UploMatrix,  ///< `n` x `n` in `sched` order, storing only `uplo` (write)
};

/// One DRAM operand of a streaming routine: a strided view of a Buffer
/// plus how it streams, or a host scalar. Exactly one of `src` (a read),
/// `dst` (a write), `value` or `index` (a scalar collected from `n`
/// values) is set. The routine's hazard sets, channels and reader/writer
/// modules all follow from its operand list; views and banks are
/// resolved when the graph is built.
template <typename T>
struct Operand {
  const char* chan = "";   ///< channel name
  const char* mover = "";  ///< reader/writer module name
  Movement how = Movement::Vector;
  const Buffer<T>* src = nullptr;
  Buffer<T>* dst = nullptr;
  T* value = nullptr;
  std::int64_t* index = nullptr;  ///< IAMAX's result
  std::int64_t n = 1;
  std::int64_t cols = 0;
  std::int64_t inc = 1;
  std::int64_t repeat = 1;
  stream::TileSchedule sched{};
  Uplo uplo = Uplo::Lower;
  Transpose trans = Transpose::None;
  /// A read of the old values of an operand the routine writes back in
  /// place (AXPY's y): the one other slot a written Buffer may fill.
  bool in_place = false;

  bool written() const { return src == nullptr; }
  bool scalar() const { return value != nullptr || index != nullptr; }
  /// How many values the operand moves through its channel.
  std::int64_t values() const {
    switch (how) {
      case Movement::Vector:
      case Movement::SolveRows: return n * repeat;
      case Movement::Matrix: return n * cols * repeat;
      case Movement::Triangular:
      case Movement::UploMatrix: return n * n;
    }
    return n;
  }
  /// The hazard key: the Buffer, or the host scalar's address.
  const void* key() const {
    if (src != nullptr) return src;
    if (dst != nullptr) return dst;
    return value != nullptr ? static_cast<const void*>(value) : index;
  }
};

/// The one DRAM-mover dispatch: spawns `op`'s reader (or writer, or
/// scalar collector) as module `op.mover` on channel `ch`, metered by the
/// bank its buffer lives on.
template <typename T>
void spawn_mover(stream::Graph& g, BankSet& banks, int width,
                 const Operand<T>& op, stream::ChannelBase& ch) {
  if (op.index != nullptr) {
    auto& c = static_cast<stream::Channel<std::int64_t>&>(ch);
    g.spawn(op.mover, collect_first(op.n, c, op.index));
    return;
  }
  auto& c = static_cast<stream::Channel<T>&>(ch);
  if (op.value != nullptr) {
    g.spawn(op.mover, collect_first(op.n, c, op.value));
    return;
  }
  const Buffer<T>* src = op.src;
  Buffer<T>* dst = op.dst;
  stream::DramBank* bank = banks.at(src != nullptr ? src->bank() : dst->bank());
  switch (op.how) {
    case Movement::Vector:
      g.spawn(op.mover,
              src != nullptr
                  ? stream::read_vector<T>(src->cvec(op.n, op.inc), op.repeat,
                                           width, c, bank)
                  : stream::write_vector<T>(dst->vec(op.n, op.inc), op.repeat,
                                            width, c, bank));
      return;
    case Movement::Matrix:
      g.spawn(op.mover,
              src != nullptr
                  ? stream::read_matrix<T>(src->cmat(op.n, op.cols), op.sched,
                                           op.repeat, width, c, bank)
                  : stream::write_matrix<T>(dst->mat(op.n, op.cols), op.sched,
                                            width, c, bank));
      return;
    case Movement::SolveRows:
      g.spawn(op.mover,
              src != nullptr
                  ? read_rows_solve_order<T>(as_column(src->cvec(op.n, op.inc)),
                                             op.uplo, width, c, bank)
                  : write_rows_solve_order<T>(as_column(dst->vec(op.n, op.inc)),
                                              op.uplo, width, c, bank));
      return;
    case Movement::Triangular:
      g.spawn(op.mover, core::read_triangular<T>(src->cmat(op.n, op.n),
                                                 op.uplo, width, c, bank,
                                                 op.trans));
      return;
    case Movement::UploMatrix:
      g.spawn(op.mover,
              stream::write_matrix_uplo<T>(dst->mat(op.n, op.n), op.sched,
                                           op.uplo, width, c, bank));
      return;
  }
}

/// What a routine module is wired to: one channel per operand, in list
/// order, and the vectorization width the command captured.
template <typename T, std::size_t N>
struct Ports {
  std::array<stream::ChannelBase*, N> ch;
  int width;

  stream::Channel<T>& operator[](std::size_t i) const {
    return static_cast<stream::Channel<T>&>(*ch[i]);
  }
  /// The channel of an `index` operand (IAMAX's result).
  stream::Channel<std::int64_t>& index(std::size_t i) const {
    return static_cast<stream::Channel<std::int64_t>&>(*ch[i]);
  }
};

/// Launches a streaming routine's graph from its operand list: a graph
/// at `kind`'s module clock with one channel per operand (chan_cap of the
/// graph's mode, `width` and the longest operand stream; 2 for a collected
/// scalar), then the readers in list order, the module `module(ports)`
/// named `label`, and the writers in list order.
template <typename T, std::size_t N, typename Module>
void stream_launch(Context& ctx, RoutineKind kind, const char* label,
                   int width, const std::array<Operand<T>, N>& ops,
                   const Module& module) {
  launch<T>(ctx, kind, [&](stream::Graph& g, BankSet& banks) {
    Ports<T, N> p{{}, width};
    std::int64_t longest = 0;
    for (const Operand<T>& op : ops) {
      if (!op.scalar()) longest = std::max(longest, op.values());
    }
    const std::size_t depth = chan_cap(g.mode(), width, longest);
    for (std::size_t i = 0; i < N; ++i) {
      const Operand<T>& op = ops[i];
      const std::size_t cap = op.scalar() ? 2 : depth;
      if (op.index != nullptr) {
        p.ch[i] = &g.channel<std::int64_t>(op.chan, cap);
      } else {
        p.ch[i] = &g.channel<T>(op.chan, cap);
      }
    }
    for (std::size_t i = 0; i < N; ++i) {
      if (!ops[i].written()) spawn_mover(g, banks, width, ops[i], *p.ch[i]);
    }
    g.spawn(label, module(p));
    for (std::size_t i = 0; i < N; ++i) {
      if (ops[i].written()) spawn_mover(g, banks, width, ops[i], *p.ch[i]);
    }
  });
}

/// The operand name of a mover: "x" for read_x or write_x.
inline std::string operand_name(const char* mover) {
  const std::string m(mover);
  return m.substr(m.find('_') + 1);
}

/// Refuses, at enqueue, an operand list that binds a written Buffer to a
/// second slot other than its own in-place read: the routine's readers
/// would stream values its writer has already replaced (a GEMV with
/// y = x reads x again after writing y), so the result depends on the
/// schedule. Read-only pairs (DOT with x = y) are fine.
template <typename T, std::size_t N>
void refuse_aliases(const char* label, const std::array<Operand<T>, N>& ops) {
  for (const Operand<T>& w : ops) {
    if (w.dst == nullptr) continue;
    for (const Operand<T>& o : ops) {
      if (&o == &w || o.key() != w.key() || (o.in_place && !o.written())) {
        continue;
      }
      throw ConfigError(std::string(label) + ": operand '" +
                        operand_name(o.mover) + "' and written operand '" +
                        operand_name(w.mover) +
                        "' are bound to the same Buffer; pass distinct "
                        "Buffers (only an in-place update may share one)");
    }
  }
}

/// The Command of a streaming routine, derived from its operand list:
/// `reads`/`writes` are the operands' hazard keys, each listed once, and
/// the work is stream_launch at the width configured now. `fallback` is
/// the routine's CPU reference path.
template <typename T, std::size_t N, typename Module, typename Fallback>
Command stream_command(Context& ctx, RoutineKind kind, const char* label,
                       std::array<Operand<T>, N> ops, Module module,
                       Fallback fallback) {
  refuse_aliases<T>(label, ops);
  Command cmd;
  cmd.label = label;
  cmd.reads.reserve(N);
  cmd.writes.reserve(N);
  for (const Operand<T>& op : ops) {
    auto& set = op.written() ? cmd.writes : cmd.reads;
    if (std::find(set.begin(), set.end(), op.key()) == set.end()) {
      set.push_back(op.key());
    }
  }
  cmd.work = [&ctx, kind, label, width = ctx.config().width, ops, module] {
    stream_launch<T>(ctx, kind, label, width, ops, module);
  };
  cmd.fallback = std::move(fallback);
  return cmd;
}

/// stream_command over a braced operand list.
template <typename T, std::size_t N, typename Module, typename Fallback>
Command stream_command(Context& ctx, RoutineKind kind, const char* label,
                       const Operand<T> (&ops)[N], Module module,
                       Fallback fallback) {
  return stream_command<T>(ctx, kind, label, std::to_array(ops),
                           std::move(module), std::move(fallback));
}

/// GEMV's module configuration from `rc`, validated first: the operand
/// list derives tile schedules and replay counts from it.
inline core::GemvConfig gemv_config(const RoutineConfig& rc,
                                    Transpose trans) {
  rc.validate();
  return {trans, rc.tiling, rc.width, rc.tile_rows, rc.tile_cols};
}

/// GEMV's operands (y_out = alpha op(A) x + beta y, A rows x cols): A
/// tiled per `cfg`, x replayed per tile, y read and written back.
template <typename T>
std::array<Operand<T>, 4> gemv_operands(const core::GemvConfig& cfg,
                                        std::int64_t rows, std::int64_t cols,
                                        const Buffer<T>& a,
                                        const Buffer<T>& x, std::int64_t incx,
                                        Buffer<T>& y, std::int64_t incy) {
  const bool none = cfg.trans == Transpose::None;
  const std::int64_t xlen = none ? cols : rows;
  const std::int64_t ylen = none ? rows : cols;
  return {{{.chan = "A", .mover = "read_A", .how = Movement::Matrix,
            .src = &a, .n = rows, .cols = cols,
            .sched = core::gemv_a_schedule(cfg)},
           {.chan = "x", .mover = "read_x", .src = &x, .n = xlen,
            .inc = incx, .repeat = core::gemv_x_repeat(cfg, rows, cols)},
           {.chan = "y", .mover = "read_y", .src = &y, .n = ylen,
            .inc = incy, .in_place = true},
           {.chan = "out", .mover = "write_y", .dst = &y, .n = ylen,
            .inc = incy}}};
}

/// GEMV's module over gemv_operands' ports.
template <typename T>
auto gemv_module(const core::GemvConfig& cfg, std::int64_t rows,
                 std::int64_t cols, T alpha, T beta) {
  return [=](const auto& p) {
    return core::gemv<T>(cfg, rows, cols, alpha, beta, p[0], p[1], p[2], p[3]);
  };
}

}  // namespace fblas::host::detail
