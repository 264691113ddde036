#include "stream/scheduler.hpp"

#include <sstream>

#include "stream/channel.hpp"
#include "stream/dram.hpp"

namespace fblas::stream {

int Scheduler::add_module(TaskHandle handle, std::string name) {
  FBLAS_REQUIRE(!ran_, "cannot add modules after run()");
  const int id = static_cast<int>(modules_.size());
  handle.promise().sched = this;
  handle.promise().module_id = id;
  modules_.push_back(ModuleEntry{handle, std::move(name)});
  ready_.push_back(id);
  ++live_;
  return id;
}

void Scheduler::block_on_pop(int id, ChannelBase& ch) {
  modules_[id].state = ModuleState::BlockedPop;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  ch.note_stall();
}

void Scheduler::block_on_push(int id, ChannelBase& ch) {
  modules_[id].state = ModuleState::BlockedPush;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  ch.note_stall();
}

void Scheduler::wait_cycle(int id) {
  modules_[id].state = ModuleState::WaitCycle;
  cycle_waiters_.push_back(id);
}

void Scheduler::wake(int id) {
  ModuleEntry& m = modules_[id];
  if (m.state == ModuleState::BlockedPop || m.state == ModuleState::BlockedPush) {
    m.state = ModuleState::Ready;
    m.blocked_on = nullptr;
    --blocked_modules_;
    ready_.push_back(id);
  }
}

void Scheduler::note_nonfinite(const ChannelBase& ch, double value) {
  if (!taint_.tainted) {
    taint_.tainted = true;
    taint_.module = current_ >= 0 ? modules_[current_].name : "host";
    taint_.channel = ch.name();
    taint_.value = value;
    taint_.cycle = cycle_;
  }
  if (taint_trap_) {
    std::ostringstream os;
    os << "non-finite value " << value << " pushed into channel '"
       << ch.name() << "' by module '"
       << (current_ >= 0 ? modules_[current_].name : "host")
       << "' at cycle " << cycle_;
    throw TaintError(os.str());
  }
}

bool Scheduler::corrupt_hits(const ChannelBase& ch) {
  if (++corrupt_seen_ != corrupt_target_) return false;
  corrupt_fired_ = true;
  corrupt_channel_ = ch.name();
  return true;
}

void Scheduler::advance_cycle() {
  if (trace_occupancy_) {
    occupancy_samples_.resize(channels_.size());
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      occupancy_samples_[c].push_back(
          static_cast<std::uint32_t>(channels_[c]->size()));
    }
  }
  // Stall accounting: every module still parked on a channel at a cycle
  // boundary burned this cycle waiting — the per-graph backpressure
  // total the tracing layer exports next to the cycle count.
  stall_module_cycles_ += static_cast<std::uint64_t>(blocked_modules_);
  ++cycle_;
  for (DramBank* bank : banks_) bank->reset_cycle();
  for (const int id : cycle_waiters_) {
    modules_[id].state = ModuleState::Ready;
    ready_.push_back(id);
  }
  cycle_waiters_.clear();
}

void Scheduler::run(const Watchdog& watchdog) {
  FBLAS_REQUIRE(!ran_, "a Scheduler can only run once");
  ran_ = true;
  const bool has_deadline = watchdog.wall_deadline.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        watchdog.wall_deadline;
  std::uint64_t steps = 0;
  while (live_ > 0) {
    // A live module needs at least one more resume, so a run that has
    // spent its step budget cannot finish within it.
    if (watchdog.max_steps != 0 && steps >= watchdog.max_steps) {
      throw_timeout("step budget", steps);
    }
    if (watchdog.max_cycles != 0 && cycle_ > watchdog.max_cycles) {
      throw_timeout("cycle budget", steps);
    }
    // The wall clock is polled sparsely on the happy path (a syscall per
    // step would dominate small graphs) but every iteration once wedged,
    // so a hung run ends promptly at the deadline.
    if (has_deadline && (wedged_ || (steps & 2047u) == 0) &&
        std::chrono::steady_clock::now() >= deadline) {
      throw_timeout("wall-clock deadline", steps);
    }
    if (wedged_) {
      // Injected hang: cycles tick but no module is ever resumed again,
      // modeling a kernel wedged mid-stream. Only a watchdog limit ends
      // this loop — without one it spins, like the real stalled board.
      ++cycle_;
      ++steps;
      continue;
    }
    if (!ready_.empty()) {
      const int id = ready_.front();
      ready_.pop_front();
      ModuleEntry& m = modules_[id];
      if (m.state != ModuleState::Ready) continue;  // stale queue entry
      m.state = ModuleState::Running;
      ++m.resumes;
      ++steps;
      if (wedge_after_steps_ != 0 && steps >= wedge_after_steps_) {
        wedged_ = true;
      }
      current_ = id;
      m.handle.resume();
      current_ = -1;
      if (m.handle.done()) {
        m.state = ModuleState::Done;
        --live_;
        if (m.handle.promise().exception) {
          std::rethrow_exception(m.handle.promise().exception);
        }
      } else if (m.state == ModuleState::Running) {
        // The module suspended without recording a reason — this would be a
        // runtime bug, not a user error.
        throw Error("module '" + m.name + "' suspended with unknown reason");
      }
      continue;
    }
    if (!cycle_waiters_.empty()) {
      advance_cycle();
      continue;
    }
    throw DeadlockError(
        diagnose("streaming graph stalled forever (invalid composition or "
                 "undersized channel). ",
                 true));
  }
}

namespace {

const char* state_name(ModuleState s) {
  switch (s) {
    case ModuleState::Ready: return "ready";
    case ModuleState::Running: return "running";
    case ModuleState::BlockedPop: return "blocked popping";
    case ModuleState::BlockedPush: return "blocked pushing";
    case ModuleState::WaitCycle: return "waiting for next cycle";
    case ModuleState::Done: return "done";
  }
  return "?";
}

}  // namespace

std::string Scheduler::diagnose(const std::string& header,
                                bool blocked_only) const {
  std::ostringstream os;
  os << header << (blocked_only ? "Blocked modules:\n" : "Module states:\n");
  for (const ModuleEntry& m : modules_) {
    const bool blocked = m.state == ModuleState::BlockedPop ||
                         m.state == ModuleState::BlockedPush;
    if (blocked_only && !blocked) continue;
    os << "  module '" << m.name << (blocked_only ? "' " : "': ")
       << state_name(m.state);
    if (m.blocked_on != nullptr) {
      os << " channel '" << m.blocked_on->name() << "' (occupancy "
         << m.blocked_on->size() << "/" << m.blocked_on->capacity() << ")";
    }
    if (!blocked_only) os << ", " << m.resumes << " resumes";
    os << "\n";
  }
  os << "Channel states:\n";
  for (const ChannelBase* ch : channels_) {
    os << "  '" << ch->name() << "': " << ch->size() << "/" << ch->capacity()
       << " buffered, " << ch->total_pushed() << " pushed, "
       << ch->total_popped() << " popped\n";
  }
  return os.str();
}

const std::vector<std::uint32_t>& Scheduler::occupancy_trace(
    std::size_t chan) const {
  if (!trace_occupancy_) {
    throw ConfigError(
        "Scheduler::occupancy_trace: occupancy sampling was never enabled "
        "— call enable_occupancy_trace() before run() (and note it only "
        "records in cycle mode)");
  }
  if (chan >= channels_.size()) {
    std::ostringstream os;
    os << "Scheduler::occupancy_trace: channel index " << chan
       << " out of range (" << channels_.size() << " channels registered)";
    throw ConfigError(os.str());
  }
  if (chan >= occupancy_samples_.size()) {
    // Enabled, but the clock never advanced (functional mode, or the
    // graph drained within cycle 0): defined-empty instead of indexing
    // a vector advance_cycle never grew.
    static const std::vector<std::uint32_t> kEmpty;
    return kEmpty;
  }
  return occupancy_samples_[chan];
}

void Scheduler::throw_timeout(const char* limit, std::uint64_t steps) {
  std::ostringstream os;
  os << "watchdog expired (" << limit << ") after " << cycle_
     << " simulated cycles and " << steps << " scheduler steps; the graph "
     << (wedged_ ? "is wedged (injected hang)"
                 : "is live-locked or pathologically slow")
     << ".\n";
  throw TimeoutError(diagnose(os.str(), false));
}

}  // namespace fblas::stream
