// Bounded single-producer/single-consumer typed FIFO channels — the
// software equivalent of the HLS `channel`/`pipe` abstraction the paper's
// modules communicate through. push/pop are awaitable: a full push or
// empty pop suspends the module until its peer makes progress.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "stream/scheduler.hpp"
#include "stream/task.hpp"

namespace fblas::stream {

/// Type-erased channel state: identity, occupancy and waiter bookkeeping
/// shared by the scheduler's diagnostics, plus the checksum tap the
/// streaming-ABFT layer arms per run.
class ChannelBase {
 public:
  ChannelBase(Scheduler* sched, std::string name, std::size_t capacity);
  virtual ~ChannelBase() = default;
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity_; }

  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t total_popped() const { return total_popped_; }
  std::size_t peak_occupancy() const { return peak_; }
  /// Times a module suspended on this channel (full push / empty pop) —
  /// the per-channel backpressure split of
  /// Scheduler::stall_module_cycles(). Bumped by the scheduler when a
  /// module blocks here.
  std::uint64_t stall_events() const { return stalls_; }
  void note_stall() { ++stalls_; }

  /// Clears the per-run statistics (push/pop totals, peak occupancy,
  /// stall events) without touching an armed checksum tap — the
  /// GraphChecker arms taps *before* Graph::run, which calls this at
  /// entry. Peak restarts at the current fill: values already buffered
  /// genuinely occupy the FIFO.
  void reset_run_stats() {
    total_pushed_ = 0;
    total_popped_ = 0;
    stalls_ = 0;
    peak_ = size();
  }

  // --- checksum tap (streaming ABFT) ------------------------------------
  /// Arms a running checksum over every floating-point value pushed into
  /// this channel: sum, magnitude (sum of absolute values) and element
  /// count — what verify::GraphChecker compares against the host replay's
  /// prediction for the edge. Costs nothing unless armed.
  void arm_tap() {
    tap_armed_ = true;
    tap_sum_ = tap_mag_ = 0.0;
    tap_count_ = 0;
  }
  bool tap_armed() const { return tap_armed_; }
  double tap_sum() const { return tap_sum_; }
  double tap_mag() const { return tap_mag_; }
  std::uint64_t tap_count() const { return tap_count_; }

 protected:
  void on_push();
  void on_pop();
  void tap_accumulate(double value) {
    tap_sum_ += value;
    tap_mag_ += value < 0 ? -value : value;
    ++tap_count_;
  }

  Scheduler* sched_;
  std::string name_;
  std::size_t capacity_;
  int waiting_consumer_ = -1;
  int waiting_producer_ = -1;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_popped_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t stalls_ = 0;
  bool tap_armed_ = false;
  double tap_sum_ = 0.0;
  double tap_mag_ = 0.0;
  std::uint64_t tap_count_ = 0;

  template <typename T>
  friend struct PopAwaiter;
  template <typename T>
  friend struct PushAwaiter;
};

template <typename T>
struct PopAwaiter;
template <typename T>
struct PushAwaiter;

/// Typed bounded FIFO. Storage is a ring buffer of fixed capacity.
template <typename T>
class Channel : public ChannelBase {
 public:
  Channel(Scheduler* sched, std::string name, std::size_t capacity)
      : ChannelBase(sched, std::move(name), capacity), buf_(capacity) {}

  std::size_t size() const override { return count_; }

  /// Awaitable pop: `T v = co_await ch.pop();`
  PopAwaiter<T> pop() { return PopAwaiter<T>{*this}; }
  /// Awaitable push: `co_await ch.push(v);`
  PushAwaiter<T> push(T value) { return PushAwaiter<T>{*this, std::move(value)}; }

  // Non-awaitable access used by awaiters and by unit tests.
  bool try_put(T value) {
    if (full()) return false;
    if constexpr (std::is_floating_point_v<T>) {
      // Injected in-flight corruption: when the scheduler's counter says
      // this is the targeted push, flip the value's top byte (sign /
      // exponent bits) as it enters the channel — silent damage to an
      // intermediate stream that no write-set snapshot ever sees.
      if (sched_ != nullptr && sched_->corrupt_armed() &&
          sched_->corrupt_hits(*this)) {
        auto bits = std::bit_cast<BitsOf>(value);
        bits ^= BitsOf{0x5a} << (8 * (sizeof(T) - 1));
        value = std::bit_cast<T>(bits);
      }
      // Taint screening at the module boundary: every floating-point value
      // crossing a channel is checked, so the first NaN/Inf is attributed
      // to the module that produced it (and, in trap mode, stops the run
      // deterministically before the poison spreads downstream).
      if (sched_ != nullptr && sched_->taint_enabled() &&
          !std::isfinite(static_cast<double>(value))) {
        sched_->note_nonfinite(*this, static_cast<double>(value));
      }
      // Checksum tap: accumulate after corruption so the tap observes
      // what actually crossed the module boundary.
      if (tap_armed_) tap_accumulate(static_cast<double>(value));
    }
    buf_[(head_ + count_) % capacity_] = std::move(value);
    ++count_;
    on_push();
    return true;
  }
  bool try_take(T& out) {
    if (count_ == 0) return false;
    out = std::move(buf_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    on_pop();
    return true;
  }

 private:
  // Unsigned integer of T's width, for bit-level corruption injection.
  using BitsOf =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

template <typename T>
struct PopAwaiter {
  Channel<T>& ch;

  bool await_ready() const noexcept { return !ch.empty(); }
  void await_suspend(TaskHandle h) const {
    TaskPromise& p = h.promise();
    ch.waiting_consumer_ = p.module_id;
    p.sched->block_on_pop(p.module_id, ch);
  }
  T await_resume() const {
    T v{};
    const bool ok = ch.try_take(v);
    FBLAS_REQUIRE(ok, "pop resumed on empty channel '" + ch.name() + "'");
    return v;
  }
};

template <typename T>
struct PushAwaiter {
  Channel<T>& ch;
  T value;

  bool await_ready() const noexcept { return !ch.full(); }
  void await_suspend(TaskHandle h) {
    TaskPromise& p = h.promise();
    ch.waiting_producer_ = p.module_id;
    p.sched->block_on_push(p.module_id, ch);
  }
  void await_resume() {
    const bool ok = ch.try_put(std::move(value));
    FBLAS_REQUIRE(ok, "push resumed on full channel '" + ch.name() + "'");
  }
};

}  // namespace fblas::stream
