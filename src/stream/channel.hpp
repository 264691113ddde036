// Bounded single-producer/single-consumer typed FIFO channels — the
// software equivalent of the HLS `channel`/`pipe` abstraction the paper's
// modules communicate through. The unit of transfer is a batch of up to
// W values, the W lanes a module moves per clock cycle (Sec. III-A).
// A module reads and writes the ring in place through windows: `front`
// shows buffered values from the head and `drop` pops them; `back` shows
// free slots from the tail and `commit` pushes what was written there.
// `commit` is the one path a value written into the ring takes, so it
// applies the armed instrumentation (corruption, taint, the checksum
// tap). An empty channel can also be lent a run of memory (`lend`): its
// values are pushed without being copied, the front windows show them
// where they lie, and they are read when the consumer reads them. So a
// value is copied at most once per stream, and not at all when it is
// lent. The copying transfers are built on the windows:
// `push_some`/`pop_some` move as many values as fit and suspend the
// module only when none can move; `push`/`pop` are the one-value case of
// the same transfer. `front_some`/`back_some` wait for data or room and
// return the window, and `drained` waits until the channel is empty: a
// functional bulk reader waits for room before its bank grant and gathers
// straight into the back window, or, over one contiguous run, waits for
// the channel to drain and lends the run (stream::read_bulk).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "stream/scheduler.hpp"
#include "stream/task.hpp"

namespace fblas::stream {

struct Drained;

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
  /// The scheduler running the modules on either end.
  const Scheduler& scheduler() const { return *sched_; }
  /// Free slots: how many values a push can move right now.
  std::size_t space() const { return capacity_ - count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }
  /// Awaitable: `co_await ch.drained();` suspends until the channel is
  /// empty.
  Drained drained();

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

  // --- fast-forward windows (the scheduler) -----------------------------
  /// Lets the channel buffer `cap` values for a window, growing its ring
  /// if it must: a window's producers run before its consumers.
  virtual void widen(std::size_t cap) = 0;
  /// Ends a window: the capacity is `cap` again and the peak `peak`, the
  /// one the stepped cycles would have reached.
  void narrow(std::size_t cap, std::size_t peak) {
    capacity_ = cap;
    peak_ = peak;
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
  /// `k` >= 1 values left: totals and the waiting producer (one waiting
  /// for the channel to drain only once it has).
  void popped(std::size_t k) {
    count_ -= k;
    total_popped_ += k;
    if (waiting_producer_ >= 0 && (count_ == 0 || !drain_wait_)) {
      drain_wait_ = false;
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
  void wait_for_drain(TaskHandle h) {
    drain_wait_ = true;
    wait_for_space(h);
  }
  Scheduler* sched_;
  std::string name_;
  std::size_t capacity_;
  std::size_t count_ = 0;
  int waiting_consumer_ = -1;
  int waiting_producer_ = -1;
  bool drain_wait_ = false;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_popped_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t stalls_ = 0;
  bool tap_armed_ = false;
  double tap_sum_ = 0.0;
  double tap_mag_ = 0.0;
  std::uint64_t tap_count_ = 0;

  template <typename T>
  friend struct FrontSome;
  template <typename T>
  friend struct BackSome;
  template <typename T>
  friend struct PopSome;
  template <typename T>
  friend struct PushSome;
  template <typename T>
  friend struct PopAwaiter;
  template <typename T>
  friend struct PushAwaiter;
  friend struct Drained;
};

/// Awaitable that suspends the producer until `ch` is empty.
struct Drained {
  ChannelBase& ch;

  bool await_ready() const noexcept { return ch.empty(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_drain(h); }
  void await_resume() const noexcept {}
};

inline Drained ChannelBase::drained() { return Drained{*this}; }

/// Unsigned integer of T's width, for bit-level tests and corruption.
template <typename T>
using BitsOf =
    std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

/// True when none of src[0..k) is NaN or ±Inf (always for non-floating
/// T). Tests every value with integer ANDs, adds and ORs, no branch or
/// compare per value, so the loop vectorizes: adding the exponent's
/// lowest bit to |v|'s bits carries into the sign bit exactly when the
/// exponent is all ones.
template <typename T>
bool all_finite(const T* src, std::size_t k) {
  if constexpr (std::is_floating_point_v<T>) {
    using U = BitsOf<T>;
    constexpr U sign = U{1} << (8 * sizeof(T) - 1);
    constexpr U exp_lsb = std::bit_cast<U>(std::numeric_limits<T>::min());
    U carried = 0;
    for (std::size_t i = 0; i < k; ++i) {
      carried |= (std::bit_cast<U>(src[i]) & ~sign) + exp_lsb;
    }
    return (carried & sign) == 0;
  } else {
    return true;
  }
}

template <typename T>
struct PopAwaiter;
template <typename T>
struct PushAwaiter;
template <typename T>
struct FrontSome;
template <typename T>
struct BackSome;
template <typename T>
struct PopSome;
template <typename T>
struct PushSome;

/// Typed bounded FIFO. Storage is a ring of bit_ceil(capacity) slots
/// indexed through a mask; at most `capacity` of them are ever occupied.
/// The buffered values are the rest of a lent run, if any, then the
/// values in the ring.
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
  /// Awaitable front window: `w = co_await ch.front_some(k);` is front(k),
  /// suspending only while the channel is empty.
  FrontSome<T> front_some(std::size_t k) { return {*this, k}; }
  /// Awaitable back window: `w = co_await ch.back_some(k);` is back(k),
  /// suspending only while the channel is full.
  BackSome<T> back_some(std::size_t k) { return {*this, k}; }

  /// Up to `k` buffered values, contiguous from the head: min(k, size())
  /// of them, cut short where a lent run or the ring ends. drop() pops
  /// them.
  std::span<const T> front(std::size_t k) const {
    if (lent_n_ > 0) return {lent_, std::min(k, lent_n_)};
    return {buf_.data() + head_, std::min({k, count_, buf_.size() - head_})};
  }
  /// Pops the first `k` values of the channel.
  void drop(std::size_t k) {
    if (k == 0) return;
    const std::size_t l = std::min(k, lent_n_);
    lent_ += l;
    lent_n_ -= l;
    head_ = (head_ + k - l) & mask_;
    popped(k);
  }
  /// Up to `k` free slots, contiguous from the tail: min(k, space()) of
  /// them, cut short where the ring ends. commit() pushes what was
  /// written there.
  std::span<T> back(std::size_t k) {
    const std::size_t at = tail();
    return {buf_.data() + at, std::min({k, space(), buf_.size() - at})};
  }

  void widen(std::size_t cap) override {
    if (cap > buf_.size()) {
      // Cycle mode never lends, so the values are the ring's.
      std::vector<T> grown(std::bit_ceil(cap));
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = buf_[(head_ + i) & mask_];
      }
      buf_ = std::move(grown);
      mask_ = buf_.size() - 1;
      head_ = 0;
    }
    capacity_ = cap;
  }

  /// Lends the empty channel the `k` values at `src`, at most its
  /// capacity: pushes them without copying them, and the front windows
  /// show them at `src` until they are dropped. `src` must hold them
  /// unchanged until then. The values enter by commit's rules; when one
  /// of them would have to be handled on its own (an armed corruption,
  /// or NaN/Inf under taint or a tap) nothing is lent and the answer is
  /// false, so the caller writes them into the ring instead.
  bool lend(const T* src, std::size_t k) {
    FBLAS_REQUIRE(count_ == 0 && k <= capacity_,
                  "lend to a non-empty channel '" + name_ + "'");
    if (k == 0) return true;
    if (!enters_whole(src, k)) return false;
    lent_ = src;
    lent_n_ = k;
    pushed(k);
    return true;
  }
  /// Pushes the first `k` slots of the back window, each as its value
  /// enters. Floating-point values commit whole, tapped in push order,
  /// unless one must be handled on its own: an armed corruption counts
  /// every push, and under taint or a tap a batch holding NaN/Inf takes
  /// the per-value path, which reports the first one at its element. A
  /// tapped batch is scanned once: the tap's sums are its NaN/Inf screen
  /// (see tap_batch).
  void commit(std::size_t k) {
    if (k == 0) return;
    const std::size_t at = tail();
    FBLAS_REQUIRE(k <= space() && k <= buf_.size() - at,
                  "commit past the back window of channel '" + name_ + "'");
    T* slot = buf_.data() + at;
    if (!enters_whole(slot, k)) {
      commit_instrumented(slot, k);
      return;
    }
    pushed(k);
  }

  /// Moves min(k, space()) values from `src` into the channel, through
  /// its back windows, and returns how many moved. Never suspends.
  std::size_t put_some(const T* src, std::size_t k) {
    k = std::min(k, space());
    for (std::size_t t = 0; t < k;) {
      const std::span<T> w = back(k - t);
      std::copy_n(src + t, w.size(), w.data());
      commit(w.size());
      t += w.size();
    }
    return k;
  }

  /// Moves min(k, size()) values out of the channel into `dst`, through
  /// its front windows, and returns how many moved. Never suspends.
  std::size_t take_some(T* dst, std::size_t k) {
    k = std::min(k, count_);
    for (std::size_t t = 0; t < k;) {
      const std::span<const T> w = front(k - t);
      std::copy_n(w.data(), w.size(), dst + t);
      drop(w.size());
      t += w.size();
    }
    return k;
  }

 private:
  /// The ring slot after the last buffered value.
  std::size_t tail() const { return (head_ + count_ - lent_n_) & mask_; }

  /// Whether the `k` values at `src` can enter whole (always for
  /// non-floating T): no corruption is armed, and under a tap or taint
  /// none is NaN/Inf. A tapped batch that can is tapped here.
  bool enters_whole(const T* src, std::size_t k) {
    if constexpr (std::is_floating_point_v<T>) {
      return !sched_->corrupt_armed() &&
             (tap_armed_ ? tap_batch(src, k)
                         : !sched_->taint_enabled() || all_finite(src, k));
    } else {
      return true;
    }
  }

  /// Taps a batch in push order when every value is finite, and returns
  /// whether it did; otherwise the tap is left untouched for
  /// commit_instrumented. The magnitude is the screen: a NaN or ±Inf
  /// value makes it non-finite, and a finite one means every value was
  /// finite (a float batch cannot overflow a double; a double batch that
  /// does takes commit_instrumented, which sums the same). Over finite
  /// values the sums equal commit_instrumented's bit for bit, the
  /// magnitude branch-free (it is never −0.0). A tap already made
  /// non-finite by an earlier value screens its later batches with
  /// all_finite.
  bool tap_batch(const T* src, std::size_t k) {
    double sum = tap_sum_, mag = tap_mag_;
    for (std::size_t i = 0; i < k; ++i) {
      const auto v = static_cast<double>(src[i]);
      sum += v;
      mag += std::fabs(v);
    }
    if (!std::isfinite(mag) &&
        (std::isfinite(tap_mag_) || !all_finite(src, k))) {
      return false;
    }
    tap_sum_ = sum;
    tap_mag_ = mag;
    tap_count_ += k;
    return true;
  }

  /// commit with the per-value instrumentation of the `k` values at
  /// `slot`, in push order and in place: injected corruption, then taint
  /// screening, then the checksum tap.
  void commit_instrumented(T* slot, std::size_t k) {
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
      T& value = slot[i];
      // Injected in-flight corruption: when the scheduler's counter says
      // this is the targeted push, flip the value's top byte (sign /
      // exponent bits) as it enters the channel — silent damage to an
      // intermediate stream that no write-set snapshot ever sees.
      if (corrupt && sched_->corrupt_hits(*this)) {
        corrupt = false;
        auto bits = std::bit_cast<BitsOf<T>>(value);
        bits ^= BitsOf<T>{0x5a} << (8 * (sizeof(T) - 1));
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
    }
    if (k > committed) pushed(k - committed);
    settle_tap();
  }

  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  const T* lent_ = nullptr;  ///< the rest of a lent run
  std::size_t lent_n_ = 0;
};

template <typename T>
struct FrontSome {
  Channel<T>& ch;
  std::size_t k;

  bool await_ready() const noexcept { return k == 0 || !ch.empty(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_data(h); }
  std::span<const T> await_resume() const { return ch.front(k); }
};

template <typename T>
struct BackSome {
  Channel<T>& ch;
  std::size_t k;

  bool await_ready() const noexcept { return k == 0 || !ch.full(); }
  void await_suspend(TaskHandle h) const { ch.wait_for_space(h); }
  std::span<T> await_resume() const { return ch.back(k); }
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
/// none, or while an armed corruption counts the pushes of several
/// outputs in element order, the answer is 1: one element step, whose
/// awaits suspend where a per-element loop would. Taint alone keeps the
/// batch; a module whose batch holds a non-finite output pushes it one
/// element at a time into the space reserved here (see elementwise).
inline std::size_t lockstep(std::size_t want,
                            std::span<const ChannelBase* const> in,
                            std::span<const ChannelBase* const> out) {
  if (out.size() > 1 && out.front()->scheduler().corrupt_armed()) return 1;
  for (const ChannelBase* c : in) want = std::min(want, c->size());
  for (const ChannelBase* c : out) want = std::min(want, c->space());
  return std::max<std::size_t>(want, 1);
}

/// The step width of a module that moves `width` values per cycle through
/// `ports`: how many values one step of its body moves at most. In cycle
/// mode that is `width`, the W lanes per cycle that set the timing. In
/// functional mode, which keeps no time, it is as many as the smallest of
/// `ports` holds, and never less than `width`: a step moves a channel's
/// worth. Each channel still sees its values in the same order.
inline std::int64_t step_width(std::int64_t width,
                               std::span<const ChannelBase* const> ports) {
  if (ports.empty() || ports.front()->scheduler().cycle_mode()) return width;
  std::size_t cap = ports.front()->capacity();
  for (const ChannelBase* c : ports) cap = std::min(cap, c->capacity());
  return std::max(width, static_cast<std::int64_t>(cap));
}

}  // namespace fblas::stream
