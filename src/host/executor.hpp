// Out-of-order command executor for the host runtime.
//
// Commands arrive with the dependency edges the DepGraph derived from
// their read/write sets. Two execution policies share this engine:
//
//   workers == 0  (serial)      commands stay queued and are executed in
//                               program order on the waiting thread —
//                               the paper's lazy in-order queue.
//   workers  > 0  (concurrent)  a pool of worker threads eagerly runs
//                               every command whose hazards are resolved,
//                               so independent commands overlap while
//                               conflicting ones retain program order.
//
// Fault tolerance: a command may carry hooks — snapshot/rollback of its
// declared write-set, an optional CPU fallback and the RetryPolicy
// captured when it was enqueued. Under that policy, a transient failure
// (DeviceError / TimeoutError) rolls the write-set back and re-runs the
// command with bounded exponential backoff; when retries are exhausted
// the CPU fallback (if any) produces the result and the command is
// marked Degraded. A command that ultimately fails
// poisons its dependents: they complete immediately with a deterministic
// "dependency failed" error instead of running on stale inputs — and
// waiters never hang.
//
// Attempts: every run of a command body is one attempt, and everything
// that attempt owns — its number, the device it was placed on, the cycles
// it burned, the fault drawn for it and its taint provenance — lives in
// one Attempt record that run_command creates and Attempt::current()
// exposes to the attempt's thread. A command body never runs another
// command: a library call made from inside one is refused.
//
// Cycle accounting: each command's simulated device cycles (credited to
// its attempt records by Context::run_graph) feed a critical-path model —
// a command starts at the latest finish time of its dependencies — and
// the longest finish time is the makespan: the device time an
// out-of-order schedule needs, next to the serial sum total_cycles().
// Failed attempts still burn device cycles, like real hardware.
//
// History: issuing a command costs the same whether it is the 10th or the
// 30,000th. The serial drain resumes at a cursor instead of rescanning
// from the first seq, and a completed command's node (closures,
// successor list) is erased; what dependents and status() still need —
// finish time, state, verify rejections, last device — stays in a 16-byte
// per-seq record, with messages and unconsumed errors in sparse maps
// that hold non-Ok commands only.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "host/health.hpp"
#include "host/status.hpp"
#include "stream/scheduler.hpp"

namespace fblas::trace {
class Recorder;
}

namespace fblas::host {

struct ExecStats {
  std::uint64_t executed = 0;      ///< commands run to completion
  int max_concurrent = 0;          ///< high-water mark of commands in flight
  std::uint64_t makespan_cycles = 0;  ///< critical-path device cycles
  std::uint64_t retries = 0;          ///< re-run attempts after faults
  std::uint64_t faults_injected = 0;  ///< faults the injector handed out
  std::uint64_t degraded = 0;         ///< commands served by CPU fallback
  std::uint64_t verified = 0;         ///< result-verification checks run
  std::uint64_t verify_failures = 0;  ///< checks that rejected the result
  /// Silent-data-corruption events caught: verify rejections of attempts
  /// the device reported successful. Today every rejection is one (the
  /// checker only runs after a device-Ok attempt), but the counter keeps
  /// its meaning if checkers ever audit fallback results too.
  std::uint64_t sdc_caught = 0;
  /// In-grid ABFT (systolic engine): faults the checksum rank pinned to a
  /// specific PE, and the subset corrected in place — the recovery rung
  /// below rollback/retry, so a corrected fault never shows in retries.
  std::uint64_t pe_faults_localized = 0;
  std::uint64_t faults_corrected = 0;
  /// Live Sampled-mode rate under verify::Options::adaptive(): raised by
  /// rejections, decayed by clean checks. 0 when adaptive sampling has
  /// never engaged (filled by Context::exec_stats, not the Executor).
  double adaptive_sample_rate = 0.0;
  // --- Device-fleet health (filled by Context::exec_stats from the
  // DevicePool; the Executor itself is device-agnostic) -----------------
  std::uint64_t migrations = 0;      ///< buffers re-staged across devices
  std::uint64_t migrated_bytes = 0;  ///< bytes those re-stagings moved
  std::uint64_t breaker_opens = 0;   ///< circuit-breaker Closed/HalfOpen->Open
  std::uint64_t breaker_readmissions = 0;  ///< probes that re-closed one
  /// Per-device breakdown (one entry per pool device; a single-device
  /// Context is a pool of one). Event counters reconcile with the
  /// globals: sum(faults) == faults_injected, sum(verify_rejects) ==
  /// verify_failures, sum(executed) == executed - degraded - failed -
  /// barrier commands, sum(failed_attempts + verify_rejects) == retries
  /// + terminal transient failures.
  std::vector<PerDeviceStats> per_device;
};

/// Retry behavior for transient failures (DeviceError / TimeoutError).
/// Non-transient exceptions always fail the command immediately.
struct RetryPolicy {
  int max_retries = 0;  ///< re-runs after the first attempt; 0 disables
  std::chrono::microseconds backoff{50};      ///< first retry delay
  double backoff_multiplier = 2.0;            ///< exponential growth
  std::chrono::microseconds max_backoff{2000};  ///< delay ceiling
  bool cpu_fallback = false;  ///< after retries: run the command's CPU
                              ///< reference path and mark it Degraded
  /// Deterministic full-jitter: each retry sleeps a uniform fraction of
  /// the current exponential delay, hashed from (jitter_seed, seq,
  /// attempt) exactly like the fault injector's draws — so workers
  /// retrying after a correlated fault spread out instead of hammering
  /// the device in lockstep, yet the delays replay identically across
  /// runs. Off (the default) keeps the exact legacy delays; jitter only
  /// changes *when* a retry runs, never its result.
  bool full_jitter = false;
  std::uint64_t jitter_seed = 0;
};

/// The full-jitter delay for retry `attempt` of command `seq`: a
/// deterministic uniform draw in [0, cap]. Exposed for tests; the
/// executor calls it with the current exponential backoff as the cap.
std::chrono::microseconds jittered_backoff(std::uint64_t seed,
                                           std::uint64_t seq, int attempt,
                                           std::chrono::microseconds cap);

/// One attempt of the command running on this thread: what the layers
/// under the command body read and write while it runs. The executor
/// creates it per attempt and fills number/seq; Context::wrap_work places
/// the attempt (`device`) and arms the drawn fault; graph launches and the
/// systolic engine consume the fault, record taint and credit cycles; the
/// result check reads the device and the taint provenance.
struct Attempt {
  std::uint64_t seq = 0;  ///< the command
  int number = 0;         ///< zero-based retry attempt
  int device = -1;        ///< pool index it was placed on; -1 = unplaced
  std::uint64_t cycles = 0;        ///< simulated device cycles burned
  std::uint64_t pe_localized = 0;  ///< in-grid ABFT: faults pinned to a PE
  std::uint64_t pe_corrected = 0;  ///< ... and corrected in place
  // What the drawn fault still has pending. The watchdog (captured at
  // enqueue) bounds every graph launch; `wedge` wedges the first one;
  // `corrupt_k` flips the k-th floating-point value pushed across the
  // attempt's launches and stays armed until it fires; `pe_fault` waits
  // for a systolic multiply to plan and fire it. Each is cleared when its
  // fault fires, so one still set after the body damaged nothing.
  stream::Watchdog watchdog;
  bool wedge = false;
  std::uint64_t corrupt_k = 0;
  bool pe_fault = false;
  // Non-finite taint tracking: screen pushes (`taint_record`), throw on
  // the spot (`taint_trap`), and the first taint seen across launches.
  bool taint_record = false;
  bool taint_trap = false;
  stream::Taint taint;

  /// The attempt running on this thread, or nullptr outside a command.
  static Attempt* current();
};

/// Throws Error when called from inside a command body (an attempt is
/// current): each library call is one command, and a command body runs no
/// other command, whose hazards, verification and fallback it would
/// bypass. Context::enqueue and the synchronous ROTG/ROTMG call it first.
void refuse_inside_command_body();

/// Fault-tolerance hooks attached to a command by the Context.
struct CommandHooks {
  std::function<void()> snapshot;  ///< capture declared write-set bytes
  std::function<void()> rollback;  ///< restore the snapshot
  std::function<void()> fallback;  ///< CPU reference re-execution
  /// Result verification (ABFT): `checker` runs once, after the
  /// snapshot and before the first attempt, capturing input checksums,
  /// and returns the check. The check runs after every attempt that
  /// reports success and throws VerificationError on mismatch. The
  /// executor treats that rejection exactly like a detected transient
  /// fault: rollback, retry under the RetryPolicy, CPU fallback once
  /// retries are exhausted.
  std::function<std::function<void()>()> checker;
  /// The retry policy captured at enqueue. The default (no retries, no
  /// fallback) never recovers, which is what a command without hooks
  /// gets.
  RetryPolicy policy;
};

class Executor {
 public:
  explicit Executor(int workers);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int workers() const { return workers_; }

  /// Arms (or with nullptr disarms) lifecycle tracing: every subsequent
  /// command emits DepsReady / Attempt / Retry / Verify / Fallback /
  /// Complete events into the recorder, and the recorder is installed
  /// as the thread-local trace sink for the span of each command body
  /// so deeper layers (pool placement, engine summaries) emit too.
  /// Shared ownership: commands already in flight keep their recorder.
  void set_trace(std::shared_ptr<trace::Recorder> rec);

  /// Registers command `seq` with its unresolved-dependency list (seqs
  /// from DepGraph::add; already-completed deps are fine). In concurrent
  /// mode a hazard-free command starts immediately.
  void submit(std::uint64_t seq, std::function<void()> work,
              const std::vector<std::uint64_t>& deps,
              CommandHooks hooks = {});

  /// Blocks until `seq` has executed. Serial mode runs commands in
  /// program order on the calling thread up to and including `seq`,
  /// resuming after the last command an earlier wait ran. Rethrows the
  /// command's exception, if it threw (once; the recorded status() stays
  /// queryable afterwards).
  void wait(std::uint64_t seq);
  /// Waits for every submitted command. Concurrent mode then rethrows the
  /// lowest-seq error no wait has rethrown yet.
  void wait_all();

  /// DepGraph's fold: drops the retired commands from `seqs` except the
  /// latest-finishing one and the lowest-seq Failed one, which carry all
  /// a later dependent reads of them (start time and poisoning).
  void fold_retired(std::vector<std::uint64_t>& seqs) const;

  bool done(std::uint64_t seq) const;
  bool idle() const;
  ExecStats stats() const;
  /// Outcome of command `seq`. Seqs are dense and start at 1. Retired
  /// seqs report their recorded outcome; unknown seqs report Ok.
  CommandStatus status(std::uint64_t seq) const;

 private:
  // A command still pending or running. Its node (closures, successor
  // list) is erased on completion, so memory does not grow with history.
  struct Node {
    std::function<void()> work;
    CommandHooks hooks;
    std::vector<std::uint64_t> succs;
    std::size_t unresolved = 0;      // incomplete dependencies
    std::uint64_t start_cycles = 0;  // max finish over dependencies
    std::uint64_t poisoned_by = 0;  // lowest-seq failed dependency, or 0
    CommandState state = CommandState::Pending;
  };
  // What a completed command leaves behind: the fields later dependents
  // (finish time, Failed poisoning) and status() read. Messages and
  // errors of non-Ok commands live in the sparse maps below.
  struct Record {
    std::uint64_t finish_cycles = 0;
    std::uint32_t verify_rejections = 0;  // ABFT rejections across attempts
    std::int16_t device = -1;  // pool index of the last attempt, or -1
    CommandState state = CommandState::Ok;
  };
  static_assert(sizeof(Record) <= 16, "one compact record per command");

  void worker_loop();
  /// Runs one command (including its retry/fallback loop). Called with
  /// the lock held; releases it around the command body and reacquires
  /// it to publish completion.
  void run_command(std::unique_lock<std::mutex>& lk, std::uint64_t seq);
  /// Publishes `seq`'s outcome (finish time = start + `cycles`), releases
  /// its dependents and retires its node.
  void complete(std::uint64_t seq, std::uint64_t cycles, Record outcome,
                std::exception_ptr error, std::string message);
  /// Serial policy: runs pending commands up to and including `last` in
  /// program order, resuming at the drain cursor.
  void drain(std::unique_lock<std::mutex>& lk, std::uint64_t last);
  /// The error of `seq` not yet rethrown (removed), or null.
  std::exception_ptr take_error(std::uint64_t seq);

  const int workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: ready commands / shutdown
  std::condition_variable done_cv_;  // waiters: command completions
  std::unordered_map<std::uint64_t, Node> nodes_;  // incomplete commands
  std::vector<Record> records_;  // index seq - 1; read once retired
  std::unordered_map<std::uint64_t, std::string> messages_;  // non-Ok only
  std::map<std::uint64_t, std::exception_ptr> errors_;  // not yet rethrown
  std::deque<std::uint64_t> ready_;
  std::vector<std::thread> threads_;
  std::shared_ptr<trace::Recorder> trace_;  // null = tracing off
  std::uint64_t submitted_ = 0;  // highest submitted seq
  std::uint64_t drained_ = 0;  // serial: every seq <= drained_ has run
  int active_ = 0;
  bool stop_ = false;
  ExecStats stats_;
};

}  // namespace fblas::host
