// Low-overhead tracing and metrics for the host runtime.
//
// The runtime emits one fixed-size Event per interesting moment of a
// command's life — enqueue, deps-ready, placed(device), attempt N,
// verify, retry/backoff, migrate, breaker transition, complete — plus
// engine-side summaries (channel high-water and stall counts, graph
// cycles, per-PE utilization of the systolic grid) and counter samples
// (the adaptive verification rate). Two clocks stamp each span: host
// wall time (steady_clock nanoseconds since the Recorder's epoch) and,
// where it applies, simulated device cycles — see DESIGN.md for the
// two-clock span model.
//
// Storage is one bounded ring (oldest events are overwritten once full;
// the `dropped` counter says how many) beside an exact counter/histogram
// block that never drops, both behind one mutex. Emission is one lock
// plus a struct copy, so the armed cost stays far below the cost of the
// spans being measured (bench/trace_overhead holds it under 1% of
// makespan); disarmed, every instrumentation site is a single
// thread-local or pointer test.
//
// Layering: this library depends only on fblas_common. Engine code
// (stream::Scheduler, systolic::SystolicArray) never links it — the
// host runtime reads engine counters after each graph run and emits the
// summaries itself, through the thread-local sink the executor installs
// around each command body (trace::ThreadScope).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fblas::trace {

enum class EventKind : std::uint8_t {
  Enqueue,      ///< command registered (name = routine label, flags = barrier)
  DepsReady,    ///< last dependency resolved (a = unblocking dep seq)
  Placed,       ///< pool placed an attempt (device, attempt)
  Attempt,      ///< one body run (wall_ns = start, a = wall dur ns,
                ///< b = simulated cycles, flags = AttemptOutcome)
  Retry,        ///< transient failure, re-running (a = backoff delay us)
  Verify,       ///< result check ran (a = wall dur ns, flags = 1 if rejected)
  Fallback,     ///< CPU reference path served the result (Degraded)
  Complete,     ///< terminal state (flags = CommandState, a = start_cycles,
                ///< b = finish_cycles on the simulated clock)
  Migrate,      ///< buffer re-staged (device = to, flags = from, a = bytes)
  BreakerTransition,  ///< breaker moved (a = old BreakerState, flags = new)
  Probe,        ///< Half-Open synthetic probe (flags = 1 if it failed)
  RateSample,   ///< adaptive verification rate (a = bit pattern of double)
  ChannelStats, ///< per-run channel summary (name, a = peak occupancy,
                ///< b = stall events, flags = capacity, clamped to 16 bits)
  GraphStats,   ///< per-run graph summary (a = cycles, b = module-cycles
                ///< spent blocked on channels)
  PeStats,      ///< one systolic PE (attempt = row, flags = col, a = MACs,
                ///< b = faults localized to it)
};
inline constexpr std::size_t kKindCount = 15;
const char* to_string(EventKind kind);

/// Attempt outcome codes carried in Event::flags for EventKind::Attempt.
enum : std::uint16_t {
  kAttemptOk = 0,
  kAttemptError = 1,        ///< the body (or device) threw
  kAttemptVerifyReject = 2  ///< device-Ok but the checker rejected
};

/// One trace record. Fixed 64-byte POD so a ring slot never allocates;
/// the per-kind meaning of `a`, `b` and `flags` is documented on
/// EventKind. `device` is a pool index (-1 = none / host), `worker` is
/// 0 for the calling thread and 1..N for pool workers.
struct Event {
  EventKind kind = EventKind::Enqueue;
  std::uint8_t attempt = 0;
  std::int16_t device = -1;
  std::uint16_t worker = 0;
  std::uint16_t flags = 0;
  std::uint64_t seq = 0;      ///< command sequence number (0 = none)
  std::uint64_t wall_ns = 0;  ///< steady-clock ns since the Recorder epoch
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char name[24] = {};  ///< label / channel name, truncated, NUL-padded

  void set_name(std::string_view s) {
    const std::size_t n = s.size() < sizeof(name) - 1 ? s.size()
                                                      : sizeof(name) - 1;
    std::memcpy(name, s.data(), n);
    name[n] = '\0';
  }
  std::string_view name_view() const {
    return std::string_view(name, std::strlen(name));
  }
};
static_assert(sizeof(Event) == 64, "Event must stay one cache line");

/// Tracing knobs, fixed at arming time (Context::tracing).
struct Options {
  /// Ring capacity in events (at least 64). Once the ring is full its
  /// oldest events are overwritten (counters stay exact);
  /// MetricsSnapshot::dropped reports the overwrites.
  std::size_t ring_capacity = 1u << 16;
};

/// Log2-bucketed histogram: bucket i counts values v with
/// bit_width(v) == i, i.e. bucket 0 holds v == 0 and bucket i >= 1
/// holds v in [2^(i-1), 2^i).
struct Histogram {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  void add(std::uint64_t v);
};

/// Per-device slice of the aggregate counters (indexed by pool device).
struct DeviceMetrics {
  int device = -1;
  std::uint64_t placed = 0;           ///< attempts placed on this device
  std::uint64_t verify_checks = 0;
  std::uint64_t verify_rejects = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrated_bytes_in = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_readmissions = 0;
  std::uint64_t probes = 0;
};

/// Exact counters/histograms. Unlike the event ring these never drop, so
/// they reconcile against ExecStats even when the ring wrapped.
struct MetricsSnapshot {
  std::uint64_t recorded = 0;  ///< events emitted (ring + overwritten)
  std::uint64_t dropped = 0;   ///< ring overwrites (counters stay exact)
  std::array<std::uint64_t, kKindCount> by_kind{};

  // Command lifecycle (mirror the ExecStats fields they reconcile with).
  std::uint64_t enqueued = 0;
  std::uint64_t completes = 0;   ///< == ExecStats::executed
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;    ///< == ExecStats::degraded
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;     ///< == ExecStats::retries
  std::uint64_t verify_checks = 0;   ///< == ExecStats::verified
  std::uint64_t verify_rejects = 0;  ///< == ExecStats::verify_failures
  std::uint64_t fallbacks = 0;
  std::uint64_t migrations = 0;      ///< == ExecStats::migrations
  std::uint64_t migrated_bytes = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_readmissions = 0;
  std::uint64_t probes = 0;

  Histogram attempt_wall_ns;   ///< wall duration of each attempt
  Histogram command_cycles;    ///< simulated cycles per completed command

  std::vector<DeviceMetrics> per_device;

  std::uint64_t kind(EventKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
};

/// The bounded event recorder. Thread-safe; one per Context (shared_ptr
/// so in-flight commands outlive a re-arm).
class Recorder {
 public:
  explicit Recorder(const Options& opts = {});

  /// Nanoseconds since this recorder's epoch (construction time).
  std::uint64_t now_ns() const;

  /// Records one event. Stamps `wall_ns` with now_ns() when the caller
  /// left it zero (span starts pre-stamp it to their start time).
  void emit(Event e);

  /// Exact counter/histogram view (never affected by ring overwrites).
  MetricsSnapshot metrics() const;

  /// Copy of the ring, ordered by wall_ns. Oldest events may be missing
  /// once the ring wrapped — check metrics().dropped.
  std::vector<Event> events() const;

  /// Calls `f` once with the whole ring in events() order, as pointers
  /// into the ring rather than a copy of it, so every pass `f` makes sees
  /// the same events. Holds the recorder's lock while `f` runs: an emit()
  /// from any thread waits until `f` returns, and `f` must not emit.
  void visit(
      const std::function<void(std::span<const Event* const>)>& f) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t next_ = 0;     // ring write cursor
  MetricsSnapshot metrics_;  // `recorded` counts every event ever written
};

// --- thread-local sink --------------------------------------------------
// The executor installs the recorder on the worker thread for the span
// of one command (ThreadScope), so deep call sites — pool placement,
// breaker transitions, migrations, graph summaries — can emit without
// plumbing a recorder pointer through every layer. sink() is null
// whenever tracing is off: instrumentation sites test it and bail.

/// The recorder armed on this thread, or nullptr.
Recorder* sink();

/// Emits through the thread-local sink; no-op when tracing is off.
void emit(const Event& e);

/// RAII installer for the thread-local sink (nests: restores the
/// previous sink on destruction).
class ThreadScope {
 public:
  explicit ThreadScope(Recorder* rec);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  Recorder* prev_;
};

}  // namespace fblas::trace
