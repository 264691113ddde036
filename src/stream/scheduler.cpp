#include "stream/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "stream/channel.hpp"
#include "stream/dram.hpp"

namespace fblas::stream {

namespace {

/// Values a fast-forward window moves through one port at most: the
/// functional FIFO depth, so a ring grows no further than a functional
/// routine's.
constexpr std::uint64_t kWindowValues = 4096;

}  // namespace

int Scheduler::add_module(TaskHandle handle, std::string name) {
  FBLAS_REQUIRE(!ran_, "cannot add modules after run()");
  const int id = static_cast<int>(modules_.size());
  handle.promise().sched = this;
  handle.promise().module_id = id;
  modules_.emplace_back();
  modules_.back().handle = handle;
  modules_.back().name = std::move(name);
  ready_.push_back(id);
  ++live_;
  return id;
}

void Scheduler::block_on_pop(int id, ChannelBase& ch) {
  if (window_ > 1) {
    throw Error("module '" + modules_[id].name +
                "' blocked popping inside a fast-forward window");
  }
  modules_[id].state = ModuleState::BlockedPop;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  steady_ = false;
  ch.note_stall();
}

void Scheduler::block_on_push(int id, ChannelBase& ch) {
  if (window_ > 1) {
    throw Error("module '" + modules_[id].name +
                "' blocked pushing inside a fast-forward window");
  }
  modules_[id].state = ModuleState::BlockedPush;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  steady_ = false;
  ch.note_stall();
}

void Scheduler::wait_cycle(int id, std::uint64_t left, std::uint64_t step) {
  ModuleEntry& m = modules_[id];
  m.state = ModuleState::WaitCycle;
  m.left = left;
  m.step = step;
  cycle_waiters_.push_back(id);
  steady_ = steady_ && left >= step;
}

void Scheduler::wake(int id) {
  ModuleEntry& m = modules_[id];
  if (m.state == ModuleState::BlockedPop || m.state == ModuleState::BlockedPush) {
    if (window_ > 1) {
      throw Error("module '" + m.name +
                  "' was woken inside a fast-forward window");
    }
    m.state = ModuleState::Ready;
    m.blocked_on = nullptr;
    --blocked_modules_;
    steady_ = false;
    ready_.push_back(id);
  }
}

void Scheduler::declare_ports(int id, std::span<const ChannelBase* const> in,
                              std::span<const ChannelBase* const> out) {
  modules_[id].ins = in;
  modules_[id].outs = out;
}

void Scheduler::note_nonfinite(const ChannelBase& ch, double value) {
  if (window_ > 1) {
    // Stepping would have pushed this value in the cycle its place among
    // the window's pushes into `ch` falls in. Of the values found in a
    // window, the earliest by (cycle, stepped module order) is the one
    // stepping records; within a module the first found is the earliest.
    // (An armed trap keeps windows closed.)
    if (taint_.tainted) return;
    const auto at = std::find(channels_.begin(), channels_.end(), &ch);
    const ChannelTrack& t =
        tracks_[static_cast<std::size_t>(at - channels_.begin())];
    const std::uint64_t cycle =
        cycle_ + (ch.total_pushed() - t.pushed) / std::max<std::uint64_t>(
                                                      t.in, 1);
    const int slot = modules_[current_].slot;
    WindowTaint& w = window_taint_;
    if (!w.found || cycle < w.cycle || (cycle == w.cycle && slot < w.slot)) {
      w = {true, cycle, slot,
           Taint{true, modules_[current_].name, ch.name(), value, cycle}};
    }
    return;
  }
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

bool Scheduler::advance_cycle() {
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
  bool banks_repeat = true;
  for (DramBank* bank : banks_) banks_repeat &= bank->reset_cycle();
  if (last_span_ > 1 && !banks_repeat) {
    throw Error("a bank did not repeat its cycle in a fast-forward window");
  }
  // While a bank falls short or its budget moves, no cycle is steady;
  // the channels are not booked then, and their tracks go stale.
  bool steady = false;
  if (banks_repeat) {
    steady = track_cycle() && steady_;
  } else {
    tracked_ = 0;
    last_span_ = 1;
  }
  steady_ = true;
  for (const int id : cycle_waiters_) {
    modules_[id].state = ModuleState::Ready;
    ready_.push_back(id);
  }
  cycle_waiters_.clear();
  return steady && !corrupt_armed() && !(taint_enabled_ && taint_trap_);
}

bool Scheduler::track_cycle() {
  const std::uint64_t span = std::exchange(last_span_, 1);
  // The deltas compare once the two boundaries before this one were
  // booked too (the run's start counts as one).
  bool same = tracked_ >= 2;
  ++tracked_;
  tracks_.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelBase& ch = *channels_[c];
    ChannelTrack& t = tracks_[c];
    const std::uint64_t pushed = ch.total_pushed();
    const std::uint64_t popped = ch.total_popped();
    const std::uint64_t in = (pushed - t.pushed) / span;
    const std::uint64_t out = (popped - t.popped) / span;
    const auto delta =
        static_cast<std::int64_t>(in) - static_cast<std::int64_t>(out);
    const std::size_t peak = ch.peak_occupancy();
    // A growing channel's peak is the last cycle's own only if it rose.
    same = same && delta == t.delta && (delta <= 0 || peak > t.peak);
    t = {pushed, popped, ch.size(), peak, delta, in, out};
  }
  return same;
}

std::uint64_t Scheduler::window_length(const Watchdog& watchdog,
                                       std::uint64_t steps,
                                       std::uint64_t next_poll) const {
  // The horizons, divided only here, where a span may be granted.
  std::uint64_t d = kWindowValues;
  for (const int id : ready_) {
    d = std::min(d, modules_[id].left / modules_[id].step);
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelTrack& t = tracks_[c];
    const std::uint64_t cap = channels_[c]->capacity();
    if (t.delta > 0) {
      // The last cycle peaked at t.peak; each repeat peaks delta higher.
      d = std::min(d, (cap - t.peak) / static_cast<std::uint64_t>(t.delta));
    } else if (t.delta < 0) {
      // The last cycle never fell below its start less its pops; each
      // repeat starts delta lower.
      const std::int64_t low = static_cast<std::int64_t>(t.size) - t.delta -
                               static_cast<std::int64_t>(t.out);
      d = low <= 0 ? 0
                   : std::min(d, static_cast<std::uint64_t>(low / -t.delta));
    }
    const std::uint64_t most = std::max(t.in, t.out);
    if (most > 0) d = std::min(d, kWindowValues / most);
    if (t.in > 0) {
      d = std::min(d, (std::max(cap, kWindowValues) - t.size) / t.in);
    }
  }
  // Limits strike at the step or cycle they would when stepping: the
  // window ends before any check inside it would fire.
  const auto k = static_cast<std::uint64_t>(ready_.size());
  const auto below = [&](std::uint64_t limit) {
    return limit > steps ? (limit - steps) / k : 0;
  };
  if (watchdog.max_cycles != 0) {
    d = std::min(d, watchdog.max_cycles + 1 > cycle_
                        ? watchdog.max_cycles + 1 - cycle_
                        : 0);
  }
  if (watchdog.max_steps != 0) d = std::min(d, below(watchdog.max_steps - 1));
  if (wedge_after_steps_ != 0) d = std::min(d, below(wedge_after_steps_ - 1));
  if (watchdog.wall_deadline.count() > 0) d = std::min(d, below(next_poll));
  return d;
}

bool Scheduler::rank_modules() {
  for (std::size_t round = 0; round <= modules_.size(); ++round) {
    bool changed = false;
    for (ModuleEntry& m : modules_) {
      for (const ChannelBase* c : m.ins) {
        for (const ModuleEntry& p : modules_) {
          if (p.rank + 1 > m.rank &&
              std::find(p.outs.begin(), p.outs.end(), c) != p.outs.end()) {
            m.rank = p.rank + 1;
            changed = true;
          }
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

void Scheduler::open_window(std::uint64_t d) {
  window_ = static_cast<std::int64_t>(d);
  // The ready queue holds the waiters in the stepped order.
  int slot = 0;
  for (const int id : ready_) modules_[id].slot = slot++;
  window_modules_.assign(ready_.begin(), ready_.end());
  std::stable_sort(window_modules_.begin(), window_modules_.end(),
                   [this](int a, int b) {
                     return modules_[a].rank < modules_[b].rank;
                   });
  ready_.assign(window_modules_.begin(), window_modules_.end());
  for (const int id : window_modules_) {
    modules_[id].handle.promise().grant = window_;
  }
  window_capacity_.resize(channels_.size());
  window_peak_.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    ChannelBase& ch = *channels_[c];
    window_capacity_[c] = ch.capacity();
    window_peak_[c] = ch.peak_occupancy();
    const std::size_t need = tracks_[c].size + d * tracks_[c].in;
    if (need > ch.capacity()) ch.widen(need);
  }
  window_taint_ = {};
}

void Scheduler::close_window() {
  const auto d = static_cast<std::uint64_t>(window_);
  window_ = 1;
  for (const int id : window_modules_) {
    ModuleEntry& m = modules_[id];
    m.handle.promise().grant = 1;
    if (m.state != ModuleState::WaitCycle) {
      throw Error("module '" + m.name +
                  "' did not end its steps in a fast-forward window");
    }
  }
  // The next cycle resumes them in the stepped order, as stepping would.
  std::sort(cycle_waiters_.begin(), cycle_waiters_.end(), [this](int a, int b) {
    return modules_[a].slot < modules_[b].slot;
  });
  // The d - 1 cycle boundaries inside the window, as stepping books them;
  // advance_cycle books the last one.
  if (trace_occupancy_) occupancy_samples_.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelTrack& t = tracks_[c];
    for (std::uint64_t j = 1; trace_occupancy_ && j < d; ++j) {
      occupancy_samples_[c].push_back(static_cast<std::uint32_t>(
          static_cast<std::int64_t>(t.size) +
          static_cast<std::int64_t>(j) * t.delta));
    }
    const std::size_t peak =
        t.delta > 0 ? window_peak_[c] + d * static_cast<std::uint64_t>(t.delta)
                    : window_peak_[c];
    channels_[c]->narrow(window_capacity_[c], peak);
  }
  stall_module_cycles_ +=
      (d - 1) * static_cast<std::uint64_t>(blocked_modules_);
  cycle_ += d - 1;
  ff_cycles_ += d;
  last_span_ = d;
  if (window_taint_.found && !taint_.tainted) taint_ = window_taint_.taint;
}

void Scheduler::run(const Watchdog& watchdog) {
  FBLAS_REQUIRE(!ran_, "a Scheduler can only run once");
  ran_ = true;
  const bool has_deadline = watchdog.wall_deadline.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        watchdog.wall_deadline;
  std::uint64_t steps = 0;
  // The wall clock is polled at steps 0, 2048, 4096, ...: sparsely on
  // the happy path (a syscall per step would dominate small graphs), at
  // each of those marks however the steps are booked, and every
  // iteration once wedged, so a hung run ends promptly at the deadline.
  std::uint64_t next_poll = 0;
  steady_ = true;
  tracked_ = 1;
  while (live_ > 0) {
    // A live module needs at least one more resume, so a run that has
    // spent its step budget cannot finish within it.
    if (watchdog.max_steps != 0 && steps >= watchdog.max_steps) {
      throw_timeout("step budget", steps);
    }
    if (watchdog.max_cycles != 0 && cycle_ > watchdog.max_cycles) {
      throw_timeout("cycle budget", steps);
    }
    if (has_deadline && (wedged_ || steps >= next_poll)) {
      next_poll = (steps / 2048 + 1) * 2048;
      if (std::chrono::steady_clock::now() >= deadline) {
        throw_timeout("wall-clock deadline", steps);
      }
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
      // A resume in a window runs `grant` steps; each is booked.
      const auto booked = static_cast<std::uint64_t>(m.handle.promise().grant);
      m.resumes += booked;
      steps += booked;
      if (wedge_after_steps_ != 0 && steps >= wedge_after_steps_) {
        wedged_ = true;
      }
      current_ = id;
      m.handle.resume();
      current_ = -1;
      if (m.handle.done()) {
        m.state = ModuleState::Done;
        m.ins = m.outs = {};
        --live_;
        steady_ = false;
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
      if (window_ > 1) close_window();
      if (advance_cycle() && !wedged_) {
        if (ranked_ == 0) ranked_ = rank_modules() ? 1 : -1;
        const std::uint64_t d =
            ranked_ > 0 ? window_length(watchdog, steps, next_poll) : 0;
        if (d >= 2) open_window(d);
      }
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
