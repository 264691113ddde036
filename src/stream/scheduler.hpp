// Deterministic cooperative scheduler for streaming module graphs.
//
// Two execution modes mirror the two things the paper measures:
//  * Functional — modules run eagerly; channel backpressure still applies
//    (bounded FIFOs) but no notion of time. Used for numerical validation.
//  * Cycle — a module performs one step of work per simulated clock
//    cycle (it ends each step with `co_await next_cycle(...)`), DRAM banks
//    meter bytes per cycle, and the scheduler counts cycles. Used for
//    throughput/backpressure/composition experiments.
//
// Fast-forward (cycle mode). A module that ends a full step states its
// horizon h: how many following cycles its body would repeat exactly
// that step (the same count on every port, no loop, tile or pass
// boundary), as the values it has left to move in such steps and the
// step's size, h = left / step, divided only when a span is granted.
// When every module resumed in the cycle just finished made such a step
// with h >= 1, none blocked or was woken, no bank grant was short, every
// channel's occupancy changed by the same amount as in the cycle before
// (and a growing channel set its peak in it) and every bank's budget at
// the boundary repeats, the next cycles are copies of it. The scheduler
// then grants D of them at once: each of those modules is resumed once,
// producers before consumers (by the ports it declared,
// stream::declare_ports), and its next_cycle returns D, so the step
// moves D steps' worth of values through the same code. D is the
// smallest of the horizons, the cycles before a channel would fill or
// run dry, the watchdog, wedge and deadline-poll limits, and 4,096
// values through any port (the functional FIFO depth: a ring grows to
// hold the window, never past that). Cycles, resumes, watchdog steps,
// stall module-cycles, bank bytes, channel peaks and occupancy samples
// are booked as D stepped cycles would book them, and a non-finite
// value pushed in a window is attributed to the cycle, module and
// element stepping would give it (the earliest wins). Fast-forward is
// off while a corrupt_push or a taint trap is armed and once wedged; a
// watchdog limit or wedge point inside a span cuts the window short, so
// it strikes at the step and cycle it would when stepping.
//
// The step rule (stream::step_width): a body that batches by W moves up
// to W values per step in cycle mode, where W per cycle is the timing,
// and up to max(W, the smallest capacity of its ports) in functional
// mode, a channel's worth per step. The host's routine lowerings size
// their FIFOs by mode (host::detail::chan_cap): max(64, 2W) in cycle
// mode; in functional mode 4096, or the graph's longest stream when that
// is shorter, but never less than in cycle mode, so a functional routine
// step moves up to 4096 values. A functional bulk reader
// (stream::read_bulk) waits for room before its bank grant and grants
// only what fits, so it gathers straight into the channel, or, over one
// contiguous run, waits for the channel to drain and lends it the run;
// banks are unmetered there and no cycle is observed, and its grants add
// up to the same bytes. Each channel carries its values in
// the same order in both modes and reductions fold the same W-aligned
// chunks, so the outputs are the same bits. The order of pushes across
// channels differs in functional mode (it is still deterministic), so
// the value an armed corrupt_push(k) hits can differ between the modes.
//
// In either mode, if every live module is blocked on a channel the graph
// has stalled forever; the scheduler throws DeadlockError with a full
// diagnostic, making the paper's invalid-composition analysis (Sec. V-B)
// directly observable.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "stream/task.hpp"

namespace fblas::stream {

class ChannelBase;
class DramBank;

enum class Mode { Functional, Cycle };

/// Limits on a single graph run. A run that exceeds any configured limit
/// raises TimeoutError with full module/channel diagnostics instead of
/// hanging the host. Zero means unlimited (the default: today's
/// behavior). The cycle budget only constrains cycle mode; the step
/// budget (module resumes) and wall-clock deadline catch functional-mode
/// livelocks too.
struct Watchdog {
  std::uint64_t max_cycles = 0;  ///< simulated-cycle budget (cycle mode)
  std::uint64_t max_steps = 0;   ///< scheduler-step budget (both modes)
  std::chrono::milliseconds wall_deadline{0};  ///< host wall-clock limit

  bool enabled() const {
    return max_cycles != 0 || max_steps != 0 || wall_deadline.count() != 0;
  }
};

enum class ModuleState : std::uint8_t {
  Ready,
  Running,
  BlockedPop,
  BlockedPush,
  WaitCycle,
  Done,
};

/// Provenance of the first non-finite value (NaN/Inf) that crossed a
/// module boundary during a run — recorded when taint tracking is on.
/// ABFT checkers skip comparisons poisoned by non-finite data, so this
/// is the diagnostic that tells you *which* module first produced it.
struct Taint {
  bool tainted = false;
  std::string module;   ///< producing module ("host" if pushed off-graph)
  std::string channel;  ///< channel the value entered
  double value = 0.0;   ///< the offending value (NaN or ±Inf)
  std::uint64_t cycle = 0;  ///< simulated cycle of the push (cycle mode)
};

class Scheduler {
 public:
  explicit Scheduler(Mode mode) : mode_(mode) {}

  Mode mode() const { return mode_; }
  bool cycle_mode() const { return mode_ == Mode::Cycle; }
  std::uint64_t cycle() const { return cycle_; }

  /// Registers a module coroutine; returns its module id. The handle's
  /// frame stays owned by the caller (Graph) and must outlive run().
  int add_module(TaskHandle handle, std::string name);

  /// Registers a channel / DRAM bank for diagnostics and cycle resets.
  void register_channel(ChannelBase* ch) { channels_.push_back(ch); }
  void register_bank(DramBank* bank) { banks_.push_back(bank); }

  /// Runs until every module completes. Throws DeadlockError if the graph
  /// stalls, TimeoutError if a watchdog limit expires first, and rethrows
  /// any exception escaping a module body.
  void run(const Watchdog& watchdog = {});

  /// Fault injection: after `steps` further module resumes the scheduler
  /// wedges — it stops resuming modules while cycles keep ticking,
  /// modeling a hung kernel mid-stream. Only a watchdog limit (or
  /// wall-clock deadline) ends a wedged run; without one it spins like
  /// real stalled hardware. Call before run().
  void wedge_after(std::uint64_t steps) { wedge_after_steps_ = steps; }

  /// True once run() completed successfully.
  bool finished() const { return live_ == 0; }

  // --- awaiter interface -------------------------------------------------
  void block_on_pop(int id, ChannelBase& ch);
  void block_on_push(int id, ChannelBase& ch);
  /// Parks module `id` until the next cycle, after a step whose next
  /// `left / step` cycles would repeat it (its horizon).
  void wait_cycle(int id, std::uint64_t left, std::uint64_t step);
  /// Moves a blocked module back to the ready queue (channel wakeups).
  void wake(int id);
  /// Records the channels module `id` reads and writes (the spans must
  /// live as long as the module runs); fast-forward windows resume
  /// producers before consumers by them.
  void declare_ports(int id, std::span<const ChannelBase* const> in,
                     std::span<const ChannelBase* const> out);

  const std::string& module_name(int id) const { return modules_[id].name; }
  std::size_t module_count() const { return modules_.size(); }
  /// Cycles the module was scheduled for: one per stepped resume and D
  /// per resume in a fast-forward window of D cycles, so in cycle mode it
  /// is the number of cycles in which the module ran a step (a
  /// utilization diagnostic).
  std::uint64_t module_resumes(int id) const { return modules_[id].resumes; }
  /// Simulated cycles advanced by fast-forward windows (cycle mode): a
  /// read-only diagnostic of how much of the run repeated one step.
  std::uint64_t fast_forwarded_cycles() const { return ff_cycles_; }

  /// Enables non-finite taint tracking: every floating-point push is
  /// screened and the first NaN/Inf is recorded with its producing
  /// module, channel and cycle. With `trap` set the push additionally
  /// throws TaintError — a deterministic, non-transient failure (a NaN
  /// re-runs identically, so retrying is pointless). Call before run().
  void enable_taint(bool trap) {
    taint_enabled_ = true;
    taint_trap_ = trap;
    taint_ = Taint{};
  }
  bool taint_enabled() const { return taint_enabled_; }
  const Taint& taint() const { return taint_; }
  /// Records (and in trap mode, throws on) a non-finite value entering
  /// `ch`. Called by Channel<T>::commit for floating-point payloads.
  void note_nonfinite(const ChannelBase& ch, double value);

  /// Fault injection: arms silent corruption of the `target`-th (1-based)
  /// floating-point value pushed into any channel of this graph — the
  /// value's top byte is flipped as it crosses the module boundary,
  /// modeling in-flight damage to an intermediate stream that no DRAM
  /// write-set snapshot can observe. No error is raised; only a checksum
  /// carried through the composition can catch it. Call before run().
  void corrupt_push(std::uint64_t target) {
    corrupt_target_ = target;
    corrupt_seen_ = 0;
    corrupt_fired_ = false;
  }
  bool corrupt_armed() const {
    return corrupt_target_ != 0 && !corrupt_fired_;
  }
  /// Counts one floating-point push; true exactly when it is the targeted
  /// one. Records the victim channel for the localization diagnostics.
  /// Called by Channel<T>::commit, once per value.
  bool corrupt_hits(const ChannelBase& ch);
  /// True once the armed corruption actually fired (the graph pushed at
  /// least `target` floating-point values).
  bool corruption_fired() const { return corrupt_fired_; }
  const std::string& corrupted_channel() const { return corrupt_channel_; }

  /// Enables per-cycle channel-occupancy sampling (cycle mode only —
  /// samples are taken by advance_cycle, which functional mode never
  /// reaches, so a functional run records nothing even when enabled).
  /// Call before run().
  void enable_occupancy_trace() { trace_occupancy_ = true; }
  /// Occupancy samples of the i-th registered channel (one per simulated
  /// cycle). Throws ConfigError when enable_occupancy_trace() was never
  /// called or `chan` is not a registered channel index; a run that
  /// never advanced a cycle (functional mode) yields an empty vector.
  const std::vector<std::uint32_t>& occupancy_trace(std::size_t chan) const;
  std::size_t channel_count() const { return channels_.size(); }

  /// Module-cycles spent blocked on a channel: each simulated cycle adds
  /// the number of modules blocked pushing or popping at that moment
  /// (cycle mode only — functional mode never advances the clock). The
  /// graph-level stall diagnostic the tracing layer exports; per-channel
  /// splits live on ChannelBase::stall_events().
  std::uint64_t stall_module_cycles() const { return stall_module_cycles_; }

 private:
  struct ModuleEntry {
    TaskHandle handle;
    std::string name;
    ModuleState state = ModuleState::Ready;
    const ChannelBase* blocked_on = nullptr;
    std::uint64_t resumes = 0;
    // Declared ports: views of the module's own port lists, cleared
    // when it finishes (its frame's locals are gone then).
    std::span<const ChannelBase* const> ins, outs;
    int rank = 0;  // longest producer chain by declared ports
    int slot = 0;  // position in the last stepped cycle's order
    std::uint64_t left = 0, step = 1;  // the horizon, left / step
  };
  /// One channel's traffic in the last cycle, per cycle of it.
  struct ChannelTrack {
    std::uint64_t pushed = 0, popped = 0;  // totals at the boundary
    std::size_t size = 0;                  // occupancy at the boundary
    std::size_t peak = 0;                  // peak at the boundary
    std::int64_t delta = 0;                // occupancy change per cycle
    std::uint64_t in = 0, out = 0;         // pushes and pops per cycle
  };
  /// The earliest non-finite value pushed in a window, by the cycle and
  /// stepped module order stepping would have pushed it at.
  struct WindowTaint {
    bool found = false;
    std::uint64_t cycle = 0;
    int slot = 0;
    Taint taint;
  };

  /// `header`, then every module's state (only the blocked ones with
  /// `blocked_only`) and every channel's.
  std::string diagnose(const std::string& header, bool blocked_only) const;
  [[noreturn]] void throw_timeout(const char* limit, std::uint64_t steps);
  /// Ends the cycle: samples, stall accounting, bank budgets, the waiters
  /// back to the ready queue in their order. True when the cycle just
  /// finished can be fast-forwarded.
  bool advance_cycle();
  /// Books the last cycle's channel traffic into the tracks; true when
  /// every channel changed as in the cycle before.
  bool track_cycle();
  /// The length of the window to open now (below 2: none).
  std::uint64_t window_length(const Watchdog& watchdog, std::uint64_t steps,
                              std::uint64_t next_poll) const;
  void open_window(std::uint64_t d);
  void close_window();
  /// Orders modules by declared ports; false if they form a loop.
  bool rank_modules();

  Mode mode_;
  std::uint64_t cycle_ = 0;
  std::vector<ModuleEntry> modules_;
  std::deque<int> ready_;
  std::vector<int> cycle_waiters_;
  std::vector<ChannelBase*> channels_;
  std::vector<DramBank*> banks_;
  int live_ = 0;
  bool ran_ = false;
  int current_ = -1;  // module being resumed right now (-1 = host code)
  std::uint64_t wedge_after_steps_ = 0;  // 0 = no wedge injected
  bool wedged_ = false;
  bool trace_occupancy_ = false;
  int blocked_modules_ = 0;  // currently BlockedPop/BlockedPush
  std::uint64_t stall_module_cycles_ = 0;
  bool taint_enabled_ = false;
  bool taint_trap_ = false;
  Taint taint_;
  std::uint64_t corrupt_target_ = 0;  // 1-based fp-push index; 0 = unarmed
  std::uint64_t corrupt_seen_ = 0;
  bool corrupt_fired_ = false;
  std::string corrupt_channel_;
  std::vector<std::vector<std::uint32_t>> occupancy_samples_;
  // Fast-forward state: whether the current cycle is still a candidate
  // (every resumed module stepped with a horizon, nothing blocked or
  // woke; the banks report short grants at the boundary), the channel
  // tracks, the open window's length (1: none) and what it changes until
  // it closes.
  bool steady_ = false;
  std::uint64_t last_span_ = 1;  // cycles the last boundary closed
  std::uint64_t tracked_ = 0;    // boundaries booked in a row
  std::vector<ChannelTrack> tracks_;
  int ranked_ = 0;  // 0 not yet, 1 ranked, -1 ports form a loop
  std::int64_t window_ = 1;
  std::vector<int> window_modules_;
  std::vector<std::size_t> window_capacity_, window_peak_;
  WindowTaint window_taint_;
  std::uint64_t ff_cycles_ = 0;
};

/// Awaitable that parks the current module until the next simulated clock
/// cycle (no-op in functional mode) and returns how many steps its next
/// step moves: 1, or the length of a fast-forward window the scheduler
/// granted (never more than the horizon). Modules call this once per
/// step of up to W elements, which is what defines "W elements per cycle"
/// (a functional step may move more; see stream::step_width).
struct NextCycle {
  std::uint64_t left = 0, step = 1;
  TaskPromise* promise = nullptr;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskHandle h) {
    promise = &h.promise();
    if (!promise->sched->cycle_mode()) return false;  // resume immediately
    promise->sched->wait_cycle(promise->module_id, left, step);
    return true;
  }
  std::int64_t await_resume() const noexcept { return promise->grant; }
};

/// `d = co_await next_cycle(left, step);` — end of this module's step for
/// the cycle. Its horizon h = left / step is how many following cycles
/// its body would repeat exactly that step: `left` values remain to move
/// in steps of `step` (no arguments promise nothing). The step after it
/// moves `d` steps' worth of values, d <= h, as the d cycles would.
inline NextCycle next_cycle(std::int64_t left = 0, std::int64_t step = 1) {
  return {static_cast<std::uint64_t>(left), static_cast<std::uint64_t>(step)};
}

/// Awaitable that declares the channels a module reads (`in`) and writes
/// (`out`), and never suspends. A body that states horizons declares its
/// ports first, so a fast-forward window can resume its producers before
/// it; the lists stay the body's own and must outlive its last step.
struct DeclarePorts {
  std::span<const ChannelBase* const> in, out;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskHandle h) const {
    h.promise().sched->declare_ports(h.promise().module_id, in, out);
    return false;
  }
  void await_resume() const noexcept {}
};

inline DeclarePorts declare_ports(std::span<const ChannelBase* const> in,
                                  std::span<const ChannelBase* const> out) {
  return {in, out};
}

}  // namespace fblas::stream
