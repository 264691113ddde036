// Off-chip memory bank model. A bank has a fixed byte budget per clock
// cycle shared by every interface module (reader/writer helper kernel)
// attached to it. This reproduces both the bandwidth ceiling that
// dimensions the optimal vectorization width (Sec. IV-B) and the
// same-bank read/write contention that makes the non-streamed AXPYDOT
// slower than expected (Sec. VI-C).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace fblas::stream {

class Scheduler;

class DramBank {
 public:
  /// `bytes_per_cycle` is the bank bandwidth divided by the design clock;
  /// in functional mode the budget is ignored.
  DramBank(Scheduler* sched, std::string name, double bytes_per_cycle);

  const std::string& name() const { return name_; }
  double bytes_per_cycle() const { return bytes_per_cycle_; }

  /// Grants up to `want` elements of `elem_bytes` each against this
  /// cycle's remaining budget; returns the granted element count (possibly
  /// zero). Unmetered (functional mode) grants return `want`. A mover
  /// granted `steps` cycles at once by a fast-forward window asks once
  /// for one cycle's `want`: the budget repeats every cycle there, so
  /// each cycle grants the same, and the bytes of all `steps` are booked.
  /// A grant short of `want` marks the cycle as not steady.
  std::int64_t grant_elems(std::int64_t want, std::size_t elem_bytes,
                           std::int64_t steps = 1);

  /// Called by the scheduler when the clock advances. Unused budget
  /// accumulates up to one burst so that banks narrower than a single
  /// element still make progress (a fractional budget must be able to
  /// add up to one grant) without allowing unbounded bursts. Returns
  /// whether the cycle that ended granted in full and the new one starts
  /// with the budget it did: whether the bank repeats its cycle.
  bool reset_cycle() {
    const double burst = std::max(bytes_per_cycle_, 64.0);
    available_ = std::min(available_ + bytes_per_cycle_, burst);
    const bool repeats = !short_ && available_ == last_start_;
    short_ = false;
    last_start_ = available_;
    return repeats;
  }

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  Scheduler* sched_;
  std::string name_;
  double bytes_per_cycle_;
  double available_;
  double last_start_ = -1.0;  // the budget the current cycle started with
  bool short_ = false;        // a grant this cycle fell short
  std::uint64_t total_bytes_ = 0;
};

}  // namespace fblas::stream
