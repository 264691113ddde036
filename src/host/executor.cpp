#include "host/executor.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/mix64.hpp"
#include "trace/trace.hpp"

namespace fblas::host {
namespace {

// The attempt running on this thread (null outside a command).
thread_local Attempt* tl_current = nullptr;
// Trace row of this thread: 0 = the caller (serial policy), 1..N = pool
// worker threads (assigned once in the worker's entry lambda).
thread_local std::uint16_t tl_worker = 0;

bool is_transient(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const DeviceError&) {
    return true;
  } catch (const TimeoutError&) {
    return true;
  } catch (const VerificationError&) {
    // A checker rejecting a device-Ok result is the signature of silent
    // data corruption — recoverable exactly like a detected transient
    // fault: rollback, retry, CPU fallback.
    return true;
  } catch (...) {
    return false;
  }
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

std::chrono::microseconds jittered_backoff(std::uint64_t seed,
                                           std::uint64_t seq, int attempt,
                                           std::chrono::microseconds cap) {
  if (cap.count() <= 0) return std::chrono::microseconds{0};
  std::uint64_t h = mix64(seed ^ 0x6a09e667f3bcc909ULL);
  h = mix64(h ^ seq);
  h = mix64(h ^ (static_cast<std::uint64_t>(attempt) + 1));
  // The draw is uniform in [0, cap]. `cap + 1` as the modulus would wrap
  // to zero (UB) if cap ever held the full uint64 range; clamping at the
  // boundary keeps microseconds::max() a legal, if absurd, cap — the
  // draw then spans [0, max - 1], indistinguishable in practice.
  const std::uint64_t cap_us = static_cast<std::uint64_t>(cap.count());
  const std::uint64_t mod =
      cap_us == std::numeric_limits<std::uint64_t>::max() ? cap_us
                                                          : cap_us + 1;
  return std::chrono::microseconds(static_cast<std::int64_t>(h % mod));
}

Attempt* Attempt::current() { return tl_current; }

void refuse_inside_command_body() {
  if (tl_current != nullptr) {
    throw Error(
        "host API call made from inside a command body: a command cannot "
        "enqueue or run another command");
  }
}

Executor::Executor(int workers) : workers_(workers < 0 ? 0 : workers) {
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this, i] {
      tl_worker = static_cast<std::uint16_t>(i + 1);
      worker_loop();
    });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::set_trace(std::shared_ptr<trace::Recorder> rec) {
  std::lock_guard<std::mutex> lk(mu_);
  trace_ = std::move(rec);
}

void Executor::submit(std::uint64_t seq, std::function<void()> work,
                      const std::vector<std::uint64_t>& deps,
                      CommandHooks hooks) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Node& node = nodes_[seq];
    node.work = std::move(work);
    node.hooks = std::move(hooks);
    for (std::uint64_t dep : deps) {
      auto it = nodes_.find(dep);
      if (it != nodes_.end()) {
        it->second.succs.push_back(seq);
        ++node.unresolved;
        continue;
      }
      // Already retired: its finish time still matters, and so does a
      // failure — dependents of a failed command must not run.
      if (dep == 0 || dep > records_.size()) continue;
      const Record& done = records_[dep - 1];
      node.start_cycles = std::max(node.start_cycles, done.finish_cycles);
      if (done.state == CommandState::Failed &&
          (node.poisoned_by == 0 || dep < node.poisoned_by)) {
        node.poisoned_by = dep;
      }
    }
    if (seq > records_.size()) records_.resize(seq);
    submitted_ = std::max(submitted_, seq);
    if (trace_ && node.unresolved == 0) {
      trace::Event te;
      te.kind = trace::EventKind::DepsReady;
      te.seq = seq;
      te.worker = tl_worker;
      trace_->emit(te);
    }
    if (workers_ > 0 && node.unresolved == 0) ready_.push_back(seq);
  }
  if (workers_ > 0) work_cv_.notify_one();
}

void Executor::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || !ready_.empty(); });
    if (stop_) return;
    const std::uint64_t seq = ready_.front();
    ready_.pop_front();
    run_command(lk, seq);
  }
}

void Executor::run_command(std::unique_lock<std::mutex>& lk,
                           std::uint64_t seq) {
  Node& node = nodes_.at(seq);
  node.state = CommandState::Running;
  ++active_;
  stats_.max_concurrent = std::max(stats_.max_concurrent, active_);
  std::function<void()> work = std::move(node.work);
  CommandHooks hooks = std::move(node.hooks);
  const RetryPolicy& policy = hooks.policy;
  const std::uint64_t poisoned_by = node.poisoned_by;
  std::string poison_cause;
  if (poisoned_by != 0) {
    // The failed dependency has retired; its message is in messages_.
    auto it = messages_.find(poisoned_by);
    if (it != messages_.end()) poison_cause = it->second;
  }
  const std::shared_ptr<trace::Recorder> rec = trace_;
  lk.unlock();

  // Install the recorder as this thread's trace sink for the span of the
  // command: pool placement, breaker transitions, migrations and engine
  // summaries all emit through it from inside the body.
  trace::ThreadScope trace_scope(rec.get());

  std::uint64_t cycles = 0;
  std::exception_ptr error;
  CommandState final_state = CommandState::Ok;
  std::string message;
  std::uint64_t retries_done = 0;
  std::uint64_t verified_runs = 0;
  std::uint64_t verify_rejects = 0;
  std::uint64_t pe_localized = 0;
  std::uint64_t pe_corrected = 0;
  bool degraded = false;
  // The current (after the loop: the last) attempt; barriers and
  // poisoned commands are never placed, so their device stays -1.
  Attempt at;

  // Lifecycle events of this command on this thread's trace row, on the
  // attempt's device; per-attempt events (`numbered`) also carry its
  // number.
  auto now = [&rec]() -> std::uint64_t { return rec ? rec->now_ns() : 0; };
  auto emit = [&](trace::EventKind kind, bool numbered, std::uint64_t a = 0,
                  std::uint64_t b = 0, std::uint16_t flags = 0,
                  std::uint64_t wall_ns = 0) {
    if (!rec) return;
    trace::Event te;
    te.kind = kind;
    te.seq = seq;
    te.worker = tl_worker;
    te.device = static_cast<std::int16_t>(at.device);
    if (numbered) {
      te.attempt = static_cast<std::uint8_t>(std::min(at.number, 255));
    }
    te.wall_ns = wall_ns;
    te.a = a;
    te.b = b;
    te.flags = flags;
    rec->emit(te);
  };

  if (poisoned_by != 0) {
    // A dependency failed: skip the body entirely (its inputs are
    // unreliable) and fail with a deterministic, structural error — the
    // lowest-seq failed dependency, independent of worker interleaving.
    std::ostringstream os;
    os << "command " << seq << " skipped: dependency command "
       << poisoned_by << " failed";
    if (!poison_cause.empty()) os << " (" << poison_cause << ")";
    message = os.str();
    error = std::make_exception_ptr(Error(message));
    final_state = CommandState::Failed;
  } else {
    const bool may_recover = policy.max_retries > 0 || policy.cpu_fallback;
    // Snapshot whenever a rollback might be needed: for the retry loop,
    // but also so a verify rejection without any retry budget still
    // leaves the write-set transactionally untouched.
    if ((may_recover || hooks.checker) && hooks.snapshot) {
      hooks.snapshot();
    }
    std::function<void()> check;  // what the checker prepared
    auto backoff = policy.backoff;
    for (int attempt = 0;; ++attempt) {
      at = Attempt{};
      at.seq = seq;
      at.number = attempt;
      tl_current = &at;
      const std::uint64_t attempt_t0 = now();
      error = nullptr;
      bool verify_rejected = false;
      try {
        if (attempt == 0 && hooks.checker) check = hooks.checker();
        if (work) work();
        if (check) {
          // Only a device-Ok attempt reaches the checker; a rejection
          // here means the device lied — silent data corruption.
          ++verified_runs;
          const std::uint64_t verify_t0 = now();
          try {
            check();
          } catch (const VerificationError&) {
            verify_rejected = true;
            emit(trace::EventKind::Verify, true, now() - verify_t0, 0, 1,
                 verify_t0);
            throw;
          }
          emit(trace::EventKind::Verify, true, now() - verify_t0, 0, 0,
               verify_t0);
        }
      } catch (...) {
        error = std::current_exception();
      }
      tl_current = nullptr;
      cycles += at.cycles;  // failed attempts still burned device time
      pe_localized += at.pe_localized;
      pe_corrected += at.pe_corrected;
      if (verify_rejected) ++verify_rejects;
      emit(trace::EventKind::Attempt, true, now() - attempt_t0, at.cycles,
           !error ? trace::kAttemptOk
                  : (verify_rejected ? trace::kAttemptVerifyReject
                                     : trace::kAttemptError),
           attempt_t0);
      if (!error) break;
      const bool transient = is_transient(error);
      if (transient && may_recover && attempt < policy.max_retries) {
        if (hooks.rollback) hooks.rollback();
        ++retries_done;
        const auto delay =
            policy.full_jitter
                ? jittered_backoff(policy.jitter_seed, seq, attempt, backoff)
                : backoff;
        emit(trace::EventKind::Retry, true,
             static_cast<std::uint64_t>(delay.count()));
        if (delay.count() > 0) std::this_thread::sleep_for(delay);
        // Grow in double and pick the cap *before* casting back: the old
        // int64 cast of the grown product was UB once it exceeded the
        // int64 range (a max_backoff near microseconds::max() gets there
        // in a few doublings).
        const double grown = static_cast<double>(backoff.count()) *
                             policy.backoff_multiplier;
        backoff =
            grown >= static_cast<double>(policy.max_backoff.count())
                ? policy.max_backoff
                : std::chrono::microseconds(static_cast<std::int64_t>(grown));
        continue;
      }
      // Terminal transient failure (retries exhausted or no retry
      // budget): roll the write-set back so the command leaves its
      // outputs exactly as they were (transactional), then degrade to
      // the CPU reference path if allowed.
      if (transient && hooks.rollback) hooks.rollback();
      if (transient && may_recover && policy.cpu_fallback &&
          hooks.fallback) {
        try {
          hooks.fallback();
          message = "degraded to CPU fallback after: " + describe(error);
          error = nullptr;
          degraded = true;
          emit(trace::EventKind::Fallback, false);
        } catch (...) {
          error = std::current_exception();
        }
      }
      break;
    }
    if (error) {
      final_state = CommandState::Failed;
      message = describe(error);
    } else {
      final_state = degraded ? CommandState::Degraded : CommandState::Ok;
    }
  }

  Record outcome;
  outcome.state = final_state;
  outcome.verify_rejections = static_cast<std::uint32_t>(verify_rejects);
  outcome.device = static_cast<std::int16_t>(at.device);

  lk.lock();
  --active_;
  stats_.retries += retries_done;
  if (degraded) ++stats_.degraded;
  stats_.verified += verified_runs;
  stats_.verify_failures += verify_rejects;
  stats_.sdc_caught += verify_rejects;
  stats_.pe_faults_localized += pe_localized;
  stats_.faults_corrected += pe_corrected;
  const std::uint64_t start_cycles = nodes_.at(seq).start_cycles;
  complete(seq, cycles, outcome, error, std::move(message));
  emit(trace::EventKind::Complete, false, start_cycles, start_cycles + cycles,
       static_cast<std::uint16_t>(final_state));
}

void Executor::complete(std::uint64_t seq, std::uint64_t cycles,
                        Record outcome, std::exception_ptr error,
                        std::string message) {
  auto node_it = nodes_.find(seq);
  Node& node = node_it->second;
  outcome.finish_cycles = node.start_cycles + cycles;
  records_[seq - 1] = outcome;
  if (outcome.state != CommandState::Ok) messages_[seq] = std::move(message);
  if (error) errors_[seq] = std::move(error);
  stats_.makespan_cycles =
      std::max(stats_.makespan_cycles, outcome.finish_cycles);
  ++stats_.executed;
  bool woke_ready = false;
  for (std::uint64_t succ_seq : node.succs) {
    Node& succ = nodes_.at(succ_seq);
    succ.start_cycles = std::max(succ.start_cycles, outcome.finish_cycles);
    if (outcome.state == CommandState::Failed &&
        (succ.poisoned_by == 0 || seq < succ.poisoned_by)) {
      succ.poisoned_by = seq;
    }
    if (--succ.unresolved == 0) {
      if (trace_) {
        trace::Event te;
        te.kind = trace::EventKind::DepsReady;
        te.seq = succ_seq;
        te.worker = tl_worker;
        te.a = seq;  // the dependency whose completion freed it
        trace_->emit(te);
      }
      if (workers_ > 0) {
        ready_.push_back(succ_seq);
        woke_ready = true;
      }
    }
  }
  nodes_.erase(node_it);
  if (woke_ready) work_cv_.notify_all();
  done_cv_.notify_all();
}

std::exception_ptr Executor::take_error(std::uint64_t seq) {
  auto it = errors_.find(seq);
  if (it == errors_.end()) return nullptr;
  std::exception_ptr error = std::move(it->second);
  errors_.erase(it);
  return error;
}

void Executor::drain(std::unique_lock<std::mutex>& lk, std::uint64_t last) {
  // Dependencies always point backwards, so running in program order
  // satisfies them by construction. The cursor makes a wait cost only
  // the commands it runs, however long the history; after a throw the
  // next wait resumes past the failed command.
  last = std::min(last, submitted_);
  while (drained_ < last) {
    const std::uint64_t s = drained_ + 1;
    if (nodes_.count(s) != 0) run_command(lk, s);
    drained_ = s;
    if (std::exception_ptr error = take_error(s)) {
      std::rethrow_exception(error);
    }
  }
}

void Executor::wait(std::uint64_t seq) {
  std::unique_lock<std::mutex> lk(mu_);
  if (workers_ == 0) {
    drain(lk, seq);
    return;
  }
  done_cv_.wait(lk, [&] { return nodes_.count(seq) == 0; });
  if (std::exception_ptr error = take_error(seq)) {
    std::rethrow_exception(error);
  }
}

void Executor::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  if (workers_ == 0) {
    drain(lk, submitted_);
    return;
  }
  done_cv_.wait(lk, [this] { return nodes_.empty(); });
  if (!errors_.empty()) {
    std::rethrow_exception(take_error(errors_.begin()->first));
  }
}

bool Executor::done(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_.count(seq) == 0;
}

bool Executor::idle() const {
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_.empty();
}

ExecStats Executor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Executor::fold_retired(std::vector<std::uint64_t>& seqs) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t latest = 0, failed = 0;
  std::size_t kept = 0;
  for (const std::uint64_t seq : seqs) {
    if (nodes_.count(seq) != 0 || seq == 0 || seq > records_.size()) {
      seqs[kept++] = seq;  // pending, running or not yet submitted
      continue;
    }
    const Record& r = records_[seq - 1];
    if (latest == 0 || r.finish_cycles > records_[latest - 1].finish_cycles) {
      latest = seq;
    }
    if (r.state == CommandState::Failed && (failed == 0 || seq < failed)) {
      failed = seq;
    }
  }
  seqs.resize(kept);
  if (latest != 0) seqs.push_back(latest);
  if (failed != 0 && failed != latest) seqs.push_back(failed);
}

CommandStatus Executor::status(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = nodes_.find(seq); it != nodes_.end()) {
    return CommandStatus{it->second.state, {}, 0, -1};
  }
  if (seq == 0 || seq > records_.size()) return CommandStatus{};
  const Record& r = records_[seq - 1];
  CommandStatus st{r.state, {}, r.verify_rejections, r.device};
  if (auto it = messages_.find(seq); it != messages_.end()) {
    st.message = it->second;
  }
  return st;
}

}  // namespace fblas::host
