// Bounded single-producer/single-consumer typed FIFO channels — the
// software equivalent of the HLS `channel`/`pipe` abstraction the paper's
// modules communicate through. The unit of transfer is a batch of up to
// W values, the W lanes a module moves per clock cycle (Sec. III-A):
// `push_some`/`pop_some` move as many values as fit and suspend the module
// only when none can move; `push`/`pop` are the one-value case of the
// same transfer.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
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
  std::size_t size() const { return count_; }
  /// Free slots: how many values a push can move right now.
  std::size_t space() const { return capacity_ - count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }

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
  /// composition runtime arms taps *before* Graph::run, which calls this
  /// at entry. Peak restarts at the current fill: values already buffered
  /// genuinely occupy the FIFO.
  void reset_run_stats() {
    total_pushed_ = 0;
    total_popped_ = 0;
    stalls_ = 0;
    peak_ = count_;
  }

  // --- checksum tap (streaming ABFT) ------------------------------------
  /// Arms a running checksum over every floating-point value pushed into
  /// this channel: sum, magnitude (sum of absolute values) and element
  /// count — what the composition runtime compares against the host
  /// replay's prediction for the edge. Costs nothing unless armed.
  void arm_tap() {
    tap_armed_ = true;
    tap_sum_ = tap_mag_ = 0.0;
    tap_count_ = 0;
  }
  double tap_sum() const { return tap_sum_; }
  double tap_mag() const { return tap_mag_; }
  std::uint64_t tap_count() const { return tap_count_; }

  /// True while the scheduler screens every floating-point push one value
  /// at a time (taint tracking or an armed corruption): the global push
  /// order across channels is then observable.
  bool screened() const {
    return sched_->taint_enabled() || sched_->corrupt_armed();
  }

 protected:
  /// `k` >= 1 values entered: totals, peak, and the waiting consumer.
  void pushed(std::size_t k) {
    count_ += k;
    total_pushed_ += k;
    peak_ = std::max(peak_, count_);
    if (waiting_consumer_ >= 0) {
      sched_->wake(std::exchange(waiting_consumer_, -1));
    }
  }
  /// `k` >= 1 values left: totals and the waiting producer.
  void popped(std::size_t k) {
    count_ -= k;
    total_popped_ += k;
    if (waiting_producer_ >= 0) {
      sched_->wake(std::exchange(waiting_producer_, -1));
    }
  }
  void wait_for_data(TaskHandle h) {
    waiting_consumer_ = h.promise().module_id;
    h.promise().sched->block_on_pop(waiting_consumer_, *this);
  }
  void wait_for_space(TaskHandle h) {
    waiting_producer_ = h.promise().module_id;
    h.promise().sched->block_on_push(waiting_producer_, *this);
  }
  Scheduler* sched_;
  std::string name_;
  std::size_t capacity_;
  std::size_t count_ = 0;
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
  friend struct PopSome;
  template <typename T>
  friend struct PushSome;
  template <typename T>
  friend struct PopAwaiter;
  template <typename T>
  friend struct PushAwaiter;
};

template <typename T>
struct PopAwaiter;
template <typename T>
struct PushAwaiter;
template <typename T>
struct PopSome;
template <typename T>
struct PushSome;

/// Typed bounded FIFO. Storage is a ring of bit_ceil(capacity) slots
/// indexed through a mask; at most `capacity` of them are ever occupied.
template <typename T>
class Channel : public ChannelBase {
 public:
  Channel(Scheduler* sched, std::string name, std::size_t capacity)
      : ChannelBase(sched, std::move(name), capacity),
        buf_(std::bit_ceil(capacity)),
        mask_(buf_.size() - 1) {}

  /// Awaitable pop: `T v = co_await ch.pop();`
  PopAwaiter<T> pop() { return PopAwaiter<T>{*this}; }
  /// Awaitable push: `co_await ch.push(v);`
  PushAwaiter<T> push(T value) { return PushAwaiter<T>{*this, std::move(value)}; }
  /// Awaitable batch pop: `n = co_await ch.pop_some(dst, k);` moves up to
  /// `k` values, suspending only while the channel is empty.
  PopSome<T> pop_some(T* dst, std::size_t k) { return {*this, dst, k}; }
  /// Awaitable batch push: `n = co_await ch.push_some(src, k);` moves up
  /// to `k` values, suspending only while the channel is full.
  PushSome<T> push_some(const T* src, std::size_t k) { return {*this, src, k}; }

  /// Moves min(k, space()) values from `src` into the channel and returns
  /// how many moved. Never suspends.
  std::size_t put_some(const T* src, std::size_t k) {
    k = std::min(k, space());
    if (k == 0) return 0;
    const std::size_t tail = head_ + count_;
    if constexpr (std::is_floating_point_v<T>) {
      if (tap_armed_ || screened()) return put_instrumented(src, k, tail);
    }
    const std::size_t at = tail & mask_;
    const std::size_t first = std::min(k, buf_.size() - at);
    std::copy(src, src + first, buf_.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(src + first, src + k, buf_.begin());
    pushed(k);
    return k;
  }

  /// Moves min(k, size()) values out of the channel into `dst` and returns
  /// how many moved. Never suspends.
  std::size_t take_some(T* dst, std::size_t k) {
    k = std::min(k, count_);
    if (k == 0) return 0;
    const std::size_t first = std::min(k, buf_.size() - head_);
    const auto from = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::copy(from, from + static_cast<std::ptrdiff_t>(first), dst);
    std::copy(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(k - first),
              dst + first);
    head_ = (head_ + k) & mask_;
    popped(k);
    return k;
  }

 private:
  // Unsigned integer of T's width, for bit-level corruption injection.
  using BitsOf =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

  /// put_some with the per-value instrumentation, in push order: injected
  /// corruption, then taint screening, then the checksum tap.
  std::size_t put_instrumented(const T* src, std::size_t k, std::size_t tail) {
    bool corrupt = sched_->corrupt_armed();
    const bool taint = sched_->taint_enabled();
    const bool tap = tap_armed_;
    double sum = tap_sum_, mag = tap_mag_;
    std::uint64_t tapped = tap_count_;
    auto settle_tap = [&] {
      tap_sum_ = sum;
      tap_mag_ = mag;
      tap_count_ = tapped;
    };
    std::size_t committed = 0;
    for (std::size_t i = 0; i < k; ++i) {
      T value = src[i];
      // Injected in-flight corruption: when the scheduler's counter says
      // this is the targeted push, flip the value's top byte (sign /
      // exponent bits) as it enters the channel — silent damage to an
      // intermediate stream that no write-set snapshot ever sees.
      if (corrupt && sched_->corrupt_hits(*this)) {
        corrupt = false;
        auto bits = std::bit_cast<BitsOf>(value);
        bits ^= BitsOf{0x5a} << (8 * (sizeof(T) - 1));
        value = std::bit_cast<T>(bits);
      }
      // Taint screening at the module boundary: every floating-point value
      // crossing a channel is checked, so the first NaN/Inf is attributed
      // to the module that produced it. In trap mode the report throws:
      // the values before it are in the channel (and the tap), the bad
      // one is not.
      if (taint && !std::isfinite(static_cast<double>(value))) {
        if (i > committed) pushed(i - committed);
        committed = i;
        settle_tap();
        sched_->note_nonfinite(*this, static_cast<double>(value));
      }
      // Checksum tap: accumulate after corruption so the tap observes
      // what actually crossed the module boundary.
      if (tap) {
        const auto v = static_cast<double>(value);
        sum += v;
        mag += v < 0 ? -v : v;
        ++tapped;
      }
      buf_[(tail + i) & mask_] = value;
    }
    if (k > committed) pushed(k - committed);
    settle_tap();
    return k;
  }

  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
};

template <typename T>
struct PopSome {
  Channel<T>& ch;
  T* dst;
  std::size_t k;

  bool await_ready() const noexcept { return k == 0 || !ch.empty(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_data(h); }
  std::size_t await_resume() const { return ch.take_some(dst, k); }
};

template <typename T>
struct PushSome {
  Channel<T>& ch;
  const T* src;
  std::size_t k;

  bool await_ready() const noexcept { return k == 0 || !ch.full(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_space(h); }
  std::size_t await_resume() const { return ch.put_some(src, k); }
};

template <typename T>
struct PopAwaiter {
  Channel<T>& ch;

  bool await_ready() const noexcept { return !ch.empty(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_data(h); }
  T await_resume() const {
    T v{};
    FBLAS_REQUIRE(ch.take_some(&v, 1) == 1,
                  "pop resumed on empty channel '" + ch.name() + "'");
    return v;
  }
};

template <typename T>
struct PushAwaiter {
  Channel<T>& ch;
  T value;

  bool await_ready() const noexcept { return !ch.full(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_space(h); }
  void await_resume() const {
    FBLAS_REQUIRE(ch.put_some(&value, 1) == 1,
                  "push resumed on full channel '" + ch.name() + "'");
  }
};

/// The lockstep rule for a module whose per-element body pops every
/// channel of `in` and pushes every channel of `out`: how many elements,
/// up to `want`, it moves through all of them at once. That is as many as
/// every port can take without suspending, so the run interleaves, wakes
/// and peaks exactly as element-by-element transfers would. When that is
/// none, or when a screened run must keep several outputs' pushes in
/// element order, the answer is 1: one element step, whose awaits
/// suspend where a per-element loop would.
inline std::size_t lockstep(std::size_t want,
                            std::span<const ChannelBase* const> in,
                            std::span<const ChannelBase* const> out) {
  if (out.size() > 1 && out.front()->screened()) return 1;
  for (const ChannelBase* c : in) want = std::min(want, c->size());
  for (const ChannelBase* c : out) want = std::min(want, c->space());
  return std::max<std::size_t>(want, 1);
}

}  // namespace fblas::stream
