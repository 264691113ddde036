#include "trace/trace.hpp"

#include <algorithm>
#include <bit>

namespace fblas::trace {
namespace {

thread_local Recorder* tl_sink = nullptr;

// Breaker state codes, mirroring host::BreakerState's declaration order
// (this library cannot include host headers).
constexpr std::uint64_t kBreakerClosed = 0;
constexpr std::uint64_t kBreakerOpen = 1;
constexpr std::uint64_t kBreakerHalfOpen = 2;

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Enqueue: return "enqueue";
    case EventKind::DepsReady: return "deps_ready";
    case EventKind::Placed: return "placed";
    case EventKind::Attempt: return "attempt";
    case EventKind::Retry: return "retry";
    case EventKind::Verify: return "verify";
    case EventKind::Fallback: return "fallback";
    case EventKind::Complete: return "complete";
    case EventKind::Migrate: return "migrate";
    case EventKind::BreakerTransition: return "breaker";
    case EventKind::Probe: return "probe";
    case EventKind::RateSample: return "rate_sample";
    case EventKind::ChannelStats: return "channel_stats";
    case EventKind::GraphStats: return "graph_stats";
    case EventKind::PeStats: return "pe_stats";
  }
  return "?";
}

void Histogram::add(std::uint64_t v) {
  ++buckets[static_cast<std::size_t>(std::bit_width(v))];
  ++count;
  sum += v;
  max = std::max(max, v);
}

namespace {

/// Counts one event into the exact counters.
void apply(MetricsSnapshot& m, const Event& e) {
  ++m.recorded;
  ++m.by_kind[static_cast<std::size_t>(e.kind)];
  // Every slot up to `d` names its device, even one with no events yet.
  auto dev = [&m](int d) -> DeviceMetrics& {
    while (m.per_device.size() <= static_cast<std::size_t>(d)) {
      m.per_device.push_back({});
      m.per_device.back().device = static_cast<int>(m.per_device.size()) - 1;
    }
    return m.per_device[static_cast<std::size_t>(d)];
  };
  switch (e.kind) {
    case EventKind::Enqueue:
      ++m.enqueued;
      break;
    case EventKind::DepsReady:
      break;
    case EventKind::Placed:
      if (e.device >= 0) ++dev(e.device).placed;
      break;
    case EventKind::Attempt:
      ++m.attempts;
      m.attempt_wall_ns.add(e.a);
      break;
    case EventKind::Retry:
      ++m.retries;
      break;
    case EventKind::Verify:
      ++m.verify_checks;
      if (e.flags != 0) ++m.verify_rejects;
      if (e.device >= 0) {
        DeviceMetrics& d = dev(e.device);
        ++d.verify_checks;
        if (e.flags != 0) ++d.verify_rejects;
      }
      break;
    case EventKind::Fallback:
      ++m.fallbacks;
      break;
    case EventKind::Complete: {
      ++m.completes;
      // flags carries host::CommandState: 2 = Ok, 3 = Failed,
      // 4 = Degraded (Pending/Running never complete).
      if (e.flags == 2) ++m.ok;
      if (e.flags == 3) ++m.failed;
      if (e.flags == 4) ++m.degraded;
      m.command_cycles.add(e.b - e.a);
      break;
    }
    case EventKind::Migrate:
      ++m.migrations;
      m.migrated_bytes += e.a;
      if (e.device >= 0) {
        DeviceMetrics& d = dev(e.device);
        ++d.migrations_in;
        d.migrated_bytes_in += e.a;
      }
      break;
    case EventKind::BreakerTransition:
      if (e.flags == kBreakerOpen) {
        ++m.breaker_opens;
        if (e.device >= 0) ++dev(e.device).breaker_opens;
      }
      if (e.a == kBreakerHalfOpen && e.flags == kBreakerClosed) {
        ++m.breaker_readmissions;
        if (e.device >= 0) ++dev(e.device).breaker_readmissions;
      }
      break;
    case EventKind::Probe:
      ++m.probes;
      if (e.device >= 0) ++dev(e.device).probes;
      break;
    case EventKind::RateSample:
    case EventKind::ChannelStats:
    case EventKind::GraphStats:
    case EventKind::PeStats:
      break;
  }
}

}  // namespace

Recorder::Recorder(const Options& opts)
    : epoch_(std::chrono::steady_clock::now()),
      ring_(std::max<std::size_t>(64, opts.ring_capacity)) {}

std::uint64_t Recorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Recorder::emit(Event e) {
  if (e.wall_ns == 0) e.wall_ns = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  ring_[next_] = e;
  next_ = (next_ + 1) % ring_.size();
  apply(metrics_, e);
}

MetricsSnapshot Recorder::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot out = metrics_;
  if (out.recorded > ring_.size()) out.dropped = out.recorded - ring_.size();
  return out;
}

std::vector<Event> Recorder::events() const {
  std::vector<Event> out;
  visit([&out](std::span<const Event* const> ring) {
    out.reserve(ring.size());
    for (const Event* e : ring) out.push_back(*e);
  });
  return out;
}

void Recorder::visit(
    const std::function<void(std::span<const Event* const>)>& f) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(metrics_.recorded, ring_.size()));
  // Oldest-first: once the ring wrapped, the write cursor points at the
  // oldest surviving slot.
  const std::size_t start = metrics_.recorded > ring_.size() ? next_ : 0;
  std::vector<const Event*> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = &ring_[(start + i) % ring_.size()];
  }
  // Span starts are pre-stamped, so emission order is not wall order.
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* x, const Event* y) {
                     return x->wall_ns < y->wall_ns;
                   });
  f(order);
}

Recorder* sink() { return tl_sink; }

void emit(const Event& e) {
  if (tl_sink != nullptr) tl_sink->emit(e);
}

ThreadScope::ThreadScope(Recorder* rec) : prev_(tl_sink) { tl_sink = rec; }

ThreadScope::~ThreadScope() { tl_sink = prev_; }

}  // namespace fblas::trace
