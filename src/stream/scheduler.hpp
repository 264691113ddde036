// Deterministic cooperative scheduler for streaming module graphs.
//
// Two execution modes mirror the two things the paper measures:
//  * Functional — modules run eagerly; channel backpressure still applies
//    (bounded FIFOs) but no notion of time. Used for numerical validation.
//  * Cycle — a module performs at most one batch of work per simulated
//    clock cycle (it ends each batch with `co_await next_cycle()`), DRAM
//    banks meter bytes per cycle, and the scheduler counts cycles. Used
//    for throughput/backpressure/composition experiments.
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
  void wait_cycle(int id);
  /// Moves a blocked module back to the ready queue (channel wakeups).
  void wake(int id);

  const std::string& module_name(int id) const { return modules_[id].name; }
  std::size_t module_count() const { return modules_.size(); }
  /// Times the module was scheduled (in cycle mode, roughly the number of
  /// cycles it was active — a utilization diagnostic).
  std::uint64_t module_resumes(int id) const { return modules_[id].resumes; }

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
  };

  /// `header`, then every module's state (only the blocked ones with
  /// `blocked_only`) and every channel's.
  std::string diagnose(const std::string& header, bool blocked_only) const;
  [[noreturn]] void throw_timeout(const char* limit, std::uint64_t steps);
  void advance_cycle();

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
};

/// Awaitable that parks the current module until the next simulated clock
/// cycle (no-op in functional mode). Modules call this once per batch of
/// up to W elements, which is what defines "W elements per cycle" (a
/// functional step may move more; see stream::step_width).
struct NextCycle {
  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskHandle h) const {
    TaskPromise& p = h.promise();
    if (!p.sched->cycle_mode()) return false;  // resume immediately
    p.sched->wait_cycle(p.module_id);
    return true;
  }
  void await_resume() const noexcept {}
};

/// `co_await next_cycle();` — end of this module's work for the cycle.
inline NextCycle next_cycle() { return {}; }

}  // namespace fblas::stream
