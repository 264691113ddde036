#include "trace/trace.hpp"

#include <algorithm>
#include <bit>

namespace fblas::trace {
namespace {

thread_local Recorder* tl_sink = nullptr;
// Round-robin shard token: consecutive emissions from one thread rotate
// across shards, so a burst never serializes on a single mutex even
// when only one thread is emitting.
thread_local std::uint64_t tl_shard_token = 0;

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

Histogram& Histogram::operator+=(const Histogram& o) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum += o.sum;
  max = std::max(max, o.max);
  return *this;
}

void Recorder::Counters::apply(const Event& e) {
  ++recorded;
  ++by_kind[static_cast<std::size_t>(e.kind)];
  auto& m = agg;
  auto dev = [&m](int d) -> DeviceMetrics& {
    const std::size_t i = static_cast<std::size_t>(d);
    if (m.per_device.size() <= i) m.per_device.resize(i + 1);
    m.per_device[i].device = d;
    return m.per_device[i];
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

Recorder::Recorder(const Options& opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  opts_.shards = std::clamp<std::size_t>(opts_.shards, 1, 64);
  const std::size_t per_shard =
      std::max<std::size_t>(64, opts_.ring_capacity / opts_.shards);
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(per_shard);
    shards_.push_back(std::move(shard));
  }
}

std::uint64_t Recorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Recorder::emit(Event e) {
  if (e.wall_ns == 0) e.wall_ns = now_ns();
  Shard& shard = *shards_[tl_shard_token++ % shards_.size()];
  std::lock_guard<std::mutex> lk(shard.mu);
  shard.ring[shard.next] = e;
  shard.next = (shard.next + 1) % shard.ring.size();
  ++shard.total;
  shard.counters.apply(e);
}

MetricsSnapshot Recorder::metrics() const {
  MetricsSnapshot out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    const Counters& c = shard->counters;
    out.recorded += c.recorded;
    if (shard->total > shard->ring.size()) {
      out.dropped += shard->total - shard->ring.size();
    }
    for (std::size_t k = 0; k < kKindCount; ++k) out.by_kind[k] += c.by_kind[k];
    const MetricsSnapshot& m = c.agg;
    out.enqueued += m.enqueued;
    out.completes += m.completes;
    out.ok += m.ok;
    out.degraded += m.degraded;
    out.failed += m.failed;
    out.attempts += m.attempts;
    out.retries += m.retries;
    out.verify_checks += m.verify_checks;
    out.verify_rejects += m.verify_rejects;
    out.fallbacks += m.fallbacks;
    out.migrations += m.migrations;
    out.migrated_bytes += m.migrated_bytes;
    out.breaker_opens += m.breaker_opens;
    out.breaker_readmissions += m.breaker_readmissions;
    out.probes += m.probes;
    out.attempt_wall_ns += m.attempt_wall_ns;
    out.command_cycles += m.command_cycles;
    if (out.per_device.size() < m.per_device.size()) {
      out.per_device.resize(m.per_device.size());
    }
    for (std::size_t i = 0; i < m.per_device.size(); ++i) {
      DeviceMetrics& d = out.per_device[i];
      const DeviceMetrics& s = m.per_device[i];
      d.device = static_cast<int>(i);
      d.placed += s.placed;
      d.verify_checks += s.verify_checks;
      d.verify_rejects += s.verify_rejects;
      d.migrations_in += s.migrations_in;
      d.migrated_bytes_in += s.migrated_bytes_in;
      d.breaker_opens += s.breaker_opens;
      d.breaker_readmissions += s.breaker_readmissions;
      d.probes += s.probes;
    }
  }
  return out;
}

std::vector<Event> Recorder::events() const {
  std::vector<Event> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            shard->total, shard->ring.size()));
    // Oldest-first: when the shard wrapped, the write cursor points at
    // the oldest surviving slot.
    const std::size_t start =
        shard->total > shard->ring.size() ? shard->next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(shard->ring[(start + i) % shard->ring.size()]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.wall_ns < y.wall_ns;
                   });
  return out;
}

Recorder* sink() { return tl_sink; }

void emit(const Event& e) {
  if (tl_sink != nullptr) tl_sink->emit(e);
}

ThreadScope::ThreadScope(Recorder* rec) : prev_(tl_sink) { tl_sink = rec; }

ThreadScope::~ThreadScope() { tl_sink = prev_; }

}  // namespace fblas::trace
