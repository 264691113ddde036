// Graph: owner/facade tying together a scheduler, channels, DRAM banks and
// module coroutines. This is the object users (and the host API) build a
// streaming design in:
//
//   Graph g(Mode::Cycle);
//   auto& x   = g.channel<float>("x", 32);
//   auto& out = g.channel<float>("out", 32);
//   g.spawn("read_x", read_vector<float>(xview, 1, W, x, &bank));
//   g.spawn("scal",   fblas::scal(cfg, alpha, n, x, out));
//   ...
//   g.run();
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/scheduler.hpp"
#include "stream/task.hpp"

namespace fblas::stream {

class Graph {
 public:
  explicit Graph(Mode mode = Mode::Functional) : sched_(mode) {}

  Scheduler& scheduler() { return sched_; }
  Mode mode() const { return sched_.mode(); }
  std::uint64_t cycles() const { return sched_.cycle(); }

  /// Creates a typed channel owned by this graph.
  template <typename T>
  Channel<T>& channel(std::string name, std::size_t capacity) {
    auto ch = std::make_unique<Channel<T>>(&sched_, std::move(name), capacity);
    Channel<T>& ref = *ch;
    channels_.push_back(std::move(ch));
    return ref;
  }

  /// Creates a DRAM bank with the given per-cycle byte budget.
  DramBank& bank(std::string name, double bytes_per_cycle) {
    banks_.push_back(
        std::make_unique<DramBank>(&sched_, std::move(name), bytes_per_cycle));
    return *banks_.back();
  }

  /// Registers a module coroutine under `name`; returns its module id.
  int spawn(std::string name, Task task) {
    const int id = sched_.add_module(task.handle(), std::move(name));
    tasks_.push_back(std::move(task));
    return id;
  }

  /// Runs the design to completion (throws DeadlockError on stall and
  /// TimeoutError when a watchdog limit expires first). Per-run channel
  /// statistics (push/pop totals, peak occupancy, stall events) are
  /// reset at entry so they describe this run alone — host-side
  /// pre-loading (put_some before the run) no longer inflates peaks.
  /// Armed checksum taps are untouched (they are armed pre-run).
  void run(const Watchdog& watchdog = {}) {
    for (const auto& ch : channels_) ch->reset_run_stats();
    sched_.run(watchdog);
  }

  const std::vector<std::unique_ptr<ChannelBase>>& channels() const {
    return channels_;
  }

 private:
  Scheduler sched_;
  std::vector<std::unique_ptr<DramBank>> banks_;
  std::vector<std::unique_ptr<ChannelBase>> channels_;
  std::vector<Task> tasks_;  // destroyed before channels_ (reverse order)
};

}  // namespace fblas::stream
