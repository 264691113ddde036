#include "host/context.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <sstream>
#include <utility>

namespace fblas::host {
namespace {

void validate_knob(bool ok, const char* knob, std::int64_t got) {
  if (ok) return;
  std::ostringstream os;
  os << "RoutineConfig." << knob << " must be > 0 (got " << got << ")";
  throw ConfigError(os.str());
}

}  // namespace

void RoutineConfig::validate() const {
  validate_knob(width > 0, "width", width);
  validate_knob(tile_rows > 0, "tile_rows", tile_rows);
  validate_knob(tile_cols > 0, "tile_cols", tile_cols);
  validate_knob(pe_rows > 0, "pe_rows", pe_rows);
  validate_knob(pe_cols > 0, "pe_cols", pe_cols);
  validate_knob(gemm_tile_rows > 0, "gemm_tile_rows", gemm_tile_rows);
  validate_knob(gemm_tile_cols > 0, "gemm_tile_cols", gemm_tile_cols);
  verification.validate();
}

Context::Context(Device& dev, stream::Mode mode, int workers)
    : mode_(mode),
      deps_([this](auto& seqs) { exec_->fold_retired(seqs); }),
      exec_(std::make_unique<Executor>(workers)) {
  Device* devp = &dev;
  pool_owned_ =
      std::make_unique<DevicePool>(std::span<Device* const>(&devp, 1));
  pool_ = pool_owned_.get();
  dev_ = &dev;
}

Context::Context(DevicePool& pool, stream::Mode mode, int workers)
    : pool_(&pool),
      dev_(&pool.device(0)),
      mode_(mode),
      deps_([this](auto& seqs) { exec_->fold_retired(seqs); }),
      exec_(std::make_unique<Executor>(workers)) {}

std::function<void()> Context::wrap_work(
    std::uint64_t seq, std::function<void()> work,
    std::vector<const void*> reads, std::vector<const void*> writes,
    bool verify_armed, bool taint_record, bool taint_trap,
    std::function<std::uint64_t(std::uint64_t, std::uint64_t)> steer) {
  return [this, seq, inner = std::move(work), reads = std::move(reads),
          writes = std::move(writes), wd = watchdog_, verify_armed,
          taint_record, taint_trap, steer = std::move(steer)] {
    Attempt& at = *Attempt::current();
    const int attempt = at.number;
    // Fault-aware placement, per attempt: the pool advances the breaker
    // clocks, probes Half-Open devices, and stages the command's buffers
    // onto the chosen device — so a retry after the victim's breaker
    // opened transparently lands (write-set already rolled back) on a
    // healthy sibling.
    const int placed = pool_->place(seq, reads, writes);
    Device& dev = pool_->device(placed);
    at.device = placed;
    if (trace::Recorder* tr = trace::sink()) {
      trace::Event te;
      te.kind = trace::EventKind::Placed;
      te.seq = seq;
      te.attempt = static_cast<std::uint8_t>(std::min(attempt, 255));
      te.device = static_cast<std::int16_t>(placed);
      tr->emit(te);
    }
    FaultInjector& faults = dev.faults();
    const FaultKind fault = faults.enabled()
                                ? faults.decide(seq, attempt)
                                : FaultKind::None;
    try {
      if (fault == FaultKind::LaunchFail) {
        std::ostringstream os;
        os << "injected kernel launch failure (command " << seq
           << ", attempt " << attempt << ")";
        throw DeviceError(os.str());
      }
      // Arm the attempt record for this command's graph launches.
      at.watchdog = wd;
      at.wedge = fault == FaultKind::Wedge;
      at.taint_record = taint_record;
      at.taint_trap = taint_trap;
      if (fault == FaultKind::ChannelCorrupt) {
        // Corrupt the k-th floating-point value pushed across this
        // command's graph launches, k in [1, 1024] — deep enough to land
        // mid-pipeline on realistic sizes, small enough to fire on any
        // graph streaming more than 1024 values.
        at.corrupt_k = 1 + faults.corrupt_offset(seq, attempt, 1024);
      }
      at.pe_fault = fault == FaultKind::PeFault;
      if (inner) inner();
      if (at.corrupt_k != 0 || at.pe_fault) {
        // The drawn fault never fired — no graph reached the k-th push,
        // or no systolic multiply produced the planned flip: nothing was
        // damaged, so un-count it.
        faults.retract();
      }
      if (fault == FaultKind::CorruptTransfer) {
        // Model a detected bad write-back (ECC/CRC): the data really is
        // mangled in device memory AND the error is reported, so the
        // retry machinery must restore the snapshot before re-running.
        for (const void* key : writes) {
          std::span<std::byte> bytes = pool_->buffer_bytes(key);
          if (bytes.empty()) continue;
          const std::uint64_t off =
              faults.corrupt_offset(seq, attempt, bytes.size());
          bytes[static_cast<std::size_t>(off)] ^= std::byte{0x5a};
          break;
        }
        std::ostringstream os;
        os << "injected transfer corruption detected (command " << seq
           << ", attempt " << attempt << ")";
        throw DeviceError(os.str());
      }
      if (fault == FaultKind::SilentCorrupt) {
        // Model an undetected bad write-back: the data is mangled but NO
        // error is raised — the command completes Ok with a wrong
        // result. Only result verification can catch this. The offset is
        // forced onto a sign/exponent byte (the last byte of a 4- or
        // 8-byte element) so the damage always dwarfs the checker
        // tolerance.
        bool mangled = false;
        for (const void* key : writes) {
          std::span<std::byte> bytes = pool_->buffer_bytes(key);
          if (bytes.empty()) continue;
          std::uint64_t off =
              faults.corrupt_offset(seq, attempt, bytes.size());
          if (steer) {
            // The routine steers the fault onto bytes it semantically
            // owns (e.g. SYRK's written triangle), returning the final
            // offset.
            off = steer(off, bytes.size());
          } else {
            off |= 7;
          }
          if (off >= bytes.size()) off = bytes.size() - 1;
          bytes[static_cast<std::size_t>(off)] ^= std::byte{0x5a};
          mangled = true;
          break;
        }
        // A write set with no registered device bytes (e.g. a host
        // scalar result) cannot be silently corrupted through the buffer
        // registry: un-count the fault so injected() only counts faults
        // that actually damaged something.
        if (!mangled) faults.retract();
      }
    } catch (const DeviceError&) {
      pool_->note_attempt_failed(placed,
                                 fault == FaultKind::CorruptTransfer
                                     ? HealthEvent::TransferCorrupt
                                     : HealthEvent::LaunchFail);
      throw;
    } catch (const TimeoutError&) {
      pool_->note_attempt_failed(placed, HealthEvent::Timeout);
      throw;
    }
    // Health accounting for a device-Ok attempt: report now unless an
    // armed checker still gets a vote (wrap_verify reports the verdict,
    // so per-device `executed` counts accepted completions exactly once).
    if (!verify_armed) pool_->note_attempt_ok(placed);
  };
}

CommandHooks Context::make_hooks(const Command& cmd) {
  CommandHooks hooks;
  hooks.policy = retry_;
  // Snapshot state shared between the snapshot and rollback closures.
  // Only write-set keys that resolve to registered device buffers are
  // captured; host scalar result keys are recomputed by the re-run.
  using Snap = std::vector<std::pair<std::span<std::byte>,
                                     std::vector<std::byte>>>;
  auto snaps = std::make_shared<Snap>();
  // Lookups go through the pool: the buffer may migrate between the
  // snapshot and a rollback, but the captured spans stay valid either
  // way — migration moves registry records and bank accounting, never
  // the host-resident bytes.
  DevicePool* pool = pool_;
  hooks.snapshot = [pool, writes = cmd.writes, snaps] {
    snaps->clear();
    for (const void* key : writes) {
      std::span<std::byte> bytes = pool->buffer_bytes(key);
      if (bytes.empty()) continue;
      snaps->emplace_back(bytes,
                          std::vector<std::byte>(bytes.begin(), bytes.end()));
    }
  };
  hooks.rollback = [snaps] {
    for (auto& [bytes, saved] : *snaps) {
      std::copy(saved.begin(), saved.end(), bytes.begin());
    }
  };
  hooks.fallback = cmd.fallback;
  return hooks;
}

double Context::effective_sample_rate(const verify::Options& vo) const {
  if (!vo.adaptive()) return vo.sample_rate();
  const double live = adaptive_rate_.load(std::memory_order_relaxed);
  return live < 0.0 ? vo.sample_rate() : live;
}

std::function<std::function<void()>()> Context::wrap_verify(
    std::function<ResultCheck()> checker, double tol_scale, bool adaptive,
    bool feed_breaker) {
  // Adaptive controller bounds, frozen at enqueue like every other knob:
  // a rejection quadruples the live rate (towards 1), a clean check
  // decays it by 2% towards a floor a quarter of the configured base.
  const double base = cfg_.verification.sample_rate();
  const double floor = std::max(0.01, base / 4.0);
  auto feed = [this, adaptive, base, floor](bool rejected) {
    if (!adaptive) return;
    const double live = adaptive_rate_.load(std::memory_order_relaxed);
    const double cur = live < 0.0 ? base : live;
    const double next = rejected ? std::min(1.0, std::max(cur, floor) * 4.0)
                                 : std::max(floor, cur * 0.98);
    // Plain store: concurrent verifiers may overwrite each other's
    // update, which only costs one controller step of a heuristic.
    adaptive_rate_.store(next, std::memory_order_relaxed);
    if (trace::Recorder* tr = trace::sink()) {
      trace::Event te;
      te.kind = trace::EventKind::RateSample;
      te.a = std::bit_cast<std::uint64_t>(next);
      tr->emit(te);
    }
  };
  return [this, checker = std::move(checker), feed = std::move(feed),
          tol_scale, feed_breaker]() -> std::function<void()> {
    return [this, check = checker(), feed, tol_scale, feed_breaker] {
      const Attempt& at = *Attempt::current();
      try {
        check(tol_scale);
        feed(false);
        // The checker accepted this device-Ok attempt: the command is
        // complete, and the placed device earns its success sample.
        if (at.device >= 0) pool_->note_verify(at.device, true, feed_breaker);
      } catch (const VerificationError& e) {
        feed(true);
        if (at.device >= 0) pool_->note_verify(at.device, false, feed_breaker);
        // A checksum mismatch on NaN/Inf-poisoned data is a numerical
        // symptom, not necessarily hardware corruption — attach the taint
        // provenance recorded during the run so the two are separable.
        if (at.taint.tainted) {
          std::ostringstream os;
          os << e.what() << " [non-finite taint: module '" << at.taint.module
             << "' first pushed " << at.taint.value << " into channel '"
             << at.taint.channel << "' at cycle " << at.taint.cycle << "]";
          throw VerificationError(os.str());
        }
        throw;
      }
    };
  };
}

Event Context::enqueue(Command cmd) {
  refuse_inside_command_body();
  // Routine commands validate the captured configuration up front, so a
  // bad knob fails at the call site naming the knob instead of as
  // undefined behavior inside a lowering.
  if (!cmd.barrier) cfg_.validate();

  const std::uint64_t seq = ++enqueued_;
  std::vector<std::uint64_t> deps =
      deps_.add(seq, cmd.reads, cmd.writes, cmd.barrier);
  for (const Event& e : cmd.after) {
    if (e.ctx_ == this && e.seq_ != 0) deps.push_back(e.seq_);
  }

  if (trace_) {
    // The Enqueue event opens the command's async span and carries its
    // routine label — the export joins every later event to it by seq.
    trace::Event te;
    te.kind = trace::EventKind::Enqueue;
    te.seq = seq;
    te.flags = cmd.barrier ? 1 : 0;
    te.set_name(!cmd.label.empty() ? std::string_view(cmd.label)
                : cmd.barrier     ? std::string_view("barrier")
                                  : std::string_view("cmd"));
    trace_->emit(te);
  }

  std::function<void()> work = std::move(cmd.work);
  CommandHooks hooks;
  if (!cmd.barrier) {
    // Verification arms per command, per the captured config: Always
    // verifies every checkable routine; Sampled draws a pure hash of
    // (seed, seq) so the choice is deterministic and identical across
    // executor policies — except under adaptive sampling, where the live
    // rate (raised by rejections, decayed by clean checks) replaces the
    // configured base. Read through a const ref: on a mutable Options the
    // no-arg accessor spellings resolve to the fluent setters.
    const verify::Options& vo = cfg_.verification;
    const bool verify_armed =
        static_cast<bool>(cmd.checker) &&
        (vo.policy() == verify::VerifyPolicy::Always ||
         (vo.policy() == verify::VerifyPolicy::Sampled &&
          verify::sampled(vo.seed(), seq, effective_sample_rate(vo))));
    // Every routine command is wrapped: placement and per-device health
    // accounting always run, on top of fault injection / watchdog /
    // taint tracking when those are armed.
    work = wrap_work(seq, std::move(work), cmd.reads, cmd.writes,
                     verify_armed, verify_armed || vo.trap_nonfinite(),
                     vo.trap_nonfinite(), std::move(cmd.corrupt_steer));
    if (retry_.max_retries > 0 || retry_.cpu_fallback || verify_armed) {
      hooks = make_hooks(cmd);
    }
    if (verify_armed) {
      hooks.checker =
          wrap_verify(std::move(cmd.checker), vo.tolerance_scale(),
                      vo.adaptive(), vo.breaker_feedback());
    }
  }
  exec_->submit(seq, std::move(work), deps, std::move(hooks));
  return Event(this, seq);
}

Event Context::enqueue(std::function<void()> work) {
  Command cmd;
  cmd.work = std::move(work);
  cmd.barrier = true;  // undeclared effects: order against everything
  return enqueue(std::move(cmd));
}

Event Context::enqueue(std::function<void()> work,
                       std::span<const Event> after) {
  Command cmd;
  cmd.work = std::move(work);
  cmd.barrier = true;
  cmd.after.assign(after.begin(), after.end());
  return enqueue(std::move(cmd));
}

void Context::finish() { exec_->wait_all(); }

void Context::wait_seq(std::uint64_t seq) { exec_->wait(seq); }

bool Context::done_seq(std::uint64_t seq) const { return exec_->done(seq); }

CommandStatus Context::status_seq(std::uint64_t seq) const {
  return exec_->status(seq);
}

ExecStats Context::exec_stats() const {
  ExecStats stats = exec_->stats();
  stats.faults_injected = pool_->faults_injected();
  const double live = adaptive_rate_.load(std::memory_order_relaxed);
  stats.adaptive_sample_rate = live < 0.0 ? 0.0 : live;
  stats.per_device = pool_->per_device_stats();
  for (const PerDeviceStats& d : stats.per_device) {
    // One migration moves one buffer out of one device into another, so
    // the in-side alone is the fleet-wide total.
    stats.migrations += d.migrations_in;
    stats.migrated_bytes += d.migrated_bytes_in;
    stats.breaker_opens += d.breaker_opens;
    stats.breaker_readmissions += d.breaker_readmissions;
  }
  return stats;
}

void Context::run_graph(stream::Graph& g) {
  // Inside a command, the attempt record supplies the watchdog and the
  // pending fault, and collects taint, ground truth and cycles.
  Attempt* at = Attempt::current();
  stream::Scheduler& sched = g.scheduler();
  if (at != nullptr) {
    if (at->wedge) {
      // Wedge this command's first graph launch a few module resumes in
      // — mid-stream, after real progress has been made.
      at->wedge = false;
      sched.wedge_after(16);
    }
    if (at->taint_record) sched.enable_taint(at->taint_trap);
    if (at->corrupt_k != 0) sched.corrupt_push(at->corrupt_k);
  }
  g.run(at != nullptr ? at->watchdog : stream::Watchdog{});
  if (at != nullptr) {
    if (at->taint_record && sched.taint().tainted && !at->taint.tainted) {
      at->taint = sched.taint();
    }
    if (at->corrupt_k != 0 && sched.corruption_fired()) {
      at->corrupt_k = 0;
      // Ground truth goes to the injector that drew the fault: the device
      // this attempt was placed on.
      pool_->device(at->device).faults().record_victim(
          sched.corrupted_channel());
    }
  }
  const std::uint64_t cycles = g.cycles();
  if (trace::Recorder* tr = trace::sink()) {
    // Engine summaries, emitted host-side after the run so the stream
    // layer never links the trace library: per-channel high-water and
    // stall counts, plus the graph's cycle/stall totals.
    const auto device = static_cast<std::int16_t>(at ? at->device : -1);
    for (const auto& ch : g.channels()) {
      trace::Event te;
      te.kind = trace::EventKind::ChannelStats;
      te.set_name(ch->name());
      te.device = device;
      te.a = ch->peak_occupancy();
      te.b = ch->stall_events();
      te.flags = static_cast<std::uint16_t>(
          std::min<std::size_t>(ch->capacity(), 0xffff));
      tr->emit(te);
    }
    trace::Event te;
    te.kind = trace::EventKind::GraphStats;
    te.device = device;
    te.a = cycles;
    te.b = sched.stall_module_cycles();
    tr->emit(te);
  }
  credit_cycles(cycles);
}

void Context::credit_cycles(std::uint64_t cycles) {
  if (Attempt* at = Attempt::current()) at->cycles += cycles;
  last_cycles_.store(cycles);
  total_cycles_.fetch_add(cycles);
}

std::shared_ptr<trace::Recorder> Context::tracing(const trace::Options& opts) {
  trace_ = std::make_shared<trace::Recorder>(opts);
  exec_->set_trace(trace_);
  return trace_;
}

void Context::stop_tracing() {
  trace_.reset();
  exec_->set_trace(nullptr);
}

void Context::store_grid_report(const systolic::AbftReport& report) {
  std::lock_guard<std::mutex> lk(grid_mu_);
  last_grid_report_ = report;
}

systolic::AbftReport Context::last_grid_report() const {
  std::lock_guard<std::mutex> lk(grid_mu_);
  return last_grid_report_;
}

}  // namespace fblas::host
