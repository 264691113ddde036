#include "host/device_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace fblas::host {
namespace {

// Emits a breaker state change through the thread-local trace sink
// (installed by the executor for the span of the running command;
// no-op when tracing is off). The event carries the raw enum codes —
// the trace library cannot see BreakerState, but the declaration order
// (Closed, Open, HalfOpen) is the shared contract.
void trace_breaker(int dev, BreakerState before, BreakerState after) {
  if (before == after) return;
  trace::Event te;
  te.kind = trace::EventKind::BreakerTransition;
  te.device = static_cast<std::int16_t>(dev);
  te.a = static_cast<std::uint64_t>(before);
  te.flags = static_cast<std::uint16_t>(after);
  trace::emit(te);
}

}  // namespace

DevicePool::DevicePool(int devices, sim::DeviceId id,
                       const HealthConfig& health)
    : health_(health) {
  FBLAS_REQUIRE(devices > 0, "device pool needs at least one device");
  slots_.reserve(static_cast<std::size_t>(devices));
  for (int i = 0; i < devices; ++i) {
    owned_.push_back(std::make_unique<Device>(id));
    Slot slot;
    slot.dev = owned_.back().get();
    slot.health = HealthTracker(health_);
    slots_.push_back(std::move(slot));
  }
}

DevicePool::DevicePool(std::span<Device* const> devices,
                       const HealthConfig& health)
    : health_(health) {
  FBLAS_REQUIRE(!devices.empty(), "device pool needs at least one device");
  slots_.reserve(devices.size());
  for (Device* dev : devices) {
    FBLAS_REQUIRE(dev != nullptr, "device pool: null device");
    Slot slot;
    slot.dev = dev;
    slot.health = HealthTracker(health_);
    slots_.push_back(std::move(slot));
  }
}

void DevicePool::inject_faults(const FaultConfig& cfg) {
  cfg.validate();
  for (int i = 0; i < size(); ++i) {
    FaultConfig per = cfg;
    // Only the victim keeps the sick window; every other device runs the
    // identical base configuration so fault draws stay placement-
    // independent (the determinism the chaos tests rely on).
    if (per.device_fault_window.device != i) {
      per.device_fault_window = DeviceFaultWindow{};
    }
    device(i).inject_faults(per);
  }
}

int DevicePool::pick_locked(std::uint64_t seq,
                            const std::vector<const void*>& keys) const {
  std::vector<int> healthy;
  for (int i = 0; i < size(); ++i) {
    if (slots_[static_cast<std::size_t>(i)].health.state() ==
        BreakerState::Closed) {
      healthy.push_back(i);
    }
  }
  if (healthy.empty()) {
    // Whole pool unhealthy: least-bad device takes the command, which
    // then burns its retry budget toward the CPU fallback — the last
    // rung, exactly as in the single-device runtime.
    int best = 0;
    for (int i = 1; i < size(); ++i) {
      if (slots_[static_cast<std::size_t>(i)].health.ewma() <
          slots_[static_cast<std::size_t>(best)].health.ewma()) {
        best = i;
      }
    }
    return best;
  }
  // Residency-weighted score: bytes of the command's operands already on
  // the candidate. The winner keeps hazard chains co-located (their
  // shared buffers pull successors to the same device) and avoids
  // re-staging; zero-residency commands rotate by seq so independent
  // work spreads across the fleet for overlap.
  std::vector<std::uint64_t> score(healthy.size(), 0);
  for (const void* key : keys) {
    for (std::size_t h = 0; h < healthy.size(); ++h) {
      const Device& dev = device(healthy[h]);
      if (dev.has_buffer(key)) {
        score[h] += dev.buffer_bytes(key).size();
        break;
      }
    }
  }
  const std::uint64_t top = *std::max_element(score.begin(), score.end());
  std::vector<int> tied;
  for (std::size_t h = 0; h < healthy.size(); ++h) {
    if (score[h] == top) tied.push_back(healthy[h]);
  }
  return tied[static_cast<std::size_t>(seq % tied.size())];
}

void DevicePool::migrate_locked(const void* key, int from, int to) {
  Device& src = device(from);
  Device& dst = device(to);
  Device::BufferRecord rec;
  if (!src.take_buffer(key, &rec)) return;
  const std::uint64_t bytes = rec.bytes.size();
  src.note_free(rec.bank, bytes);
  // Re-stage bank-by-bank: the home bank first (keeps the owner's bank
  // choice stable), then any bank with room.
  int bank = -1;
  for (int cand = -1; cand < dst.bank_count(); ++cand) {
    const int b = cand < 0 ? rec.bank : cand;
    if (cand >= 0 && b == rec.bank) continue;
    try {
      dst.note_alloc(b, bytes);
      bank = b;
      break;
    } catch (const FitError&) {
    }
  }
  if (bank < 0) {
    // Destination full: leave the buffer where it was (correctness is
    // unaffected — device data is host-resident — the command just
    // keeps a remote operand).
    src.note_alloc(rec.bank, bytes);  // cannot throw: just freed
    src.install_buffer(key, std::move(rec));
    return;
  }
  Slot& out = slots_[static_cast<std::size_t>(from)];
  Slot& in = slots_[static_cast<std::size_t>(to)];
  ++out.stats.migrations_out;
  out.stats.migrated_bytes_out += bytes;
  ++in.stats.migrations_in;
  in.stats.migrated_bytes_in += bytes;
  if (trace::sink() != nullptr) {
    trace::Event te;
    te.kind = trace::EventKind::Migrate;
    te.device = static_cast<std::int16_t>(to);
    te.flags = static_cast<std::uint16_t>(from);
    te.a = bytes;
    trace::emit(te);
  }
  auto rehome = rec.rehome;
  rec.bank = bank;
  dst.install_buffer(key, std::move(rec));
  if (rehome) rehome(dst, bank);
}

int DevicePool::place(std::uint64_t seq,
                      std::span<const void* const> reads,
                      std::span<const void* const> writes) {
  std::vector<const void*> keys;
  keys.reserve(reads.size() + writes.size());
  for (const void* key : reads) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  for (const void* key : writes) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  // One placement tick: cool-downs advance, then Half-Open devices get
  // their synthetic probe *before* candidate selection, so a re-admitted
  // device can take this very placement.
  for (int i = 0; i < size(); ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    const BreakerState before = slot.health.state();
    slot.health.tick();
    trace_breaker(i, before, slot.health.state());
  }
  for (int i = 0; i < size(); ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (slot.health.state() != BreakerState::HalfOpen) continue;
    ++slot.stats.probes;
    const FaultKind hit = slot.dev->faults().probe(seq);
    if (hit != FaultKind::None) ++slot.stats.probe_failures;
    const BreakerState before = slot.health.state();
    slot.health.probe_result(hit == FaultKind::None);
    if (trace::sink() != nullptr) {
      trace::Event te;
      te.kind = trace::EventKind::Probe;
      te.seq = seq;
      te.device = static_cast<std::int16_t>(i);
      te.flags = hit != FaultKind::None ? 1 : 0;
      trace::emit(te);
    }
    trace_breaker(i, before, slot.health.state());
  }

  const int best = pick_locked(seq, keys);
  for (const void* key : keys) {
    for (int i = 0; i < size(); ++i) {
      if (i == best || !device(i).has_buffer(key)) continue;
      migrate_locked(key, i, best);
      break;
    }
  }
  ++slots_[static_cast<std::size_t>(best)].stats.attempts;
  return best;
}

void DevicePool::note_attempt_failed(int dev, HealthEvent ev) {
  std::lock_guard<std::mutex> lk(mu_);
  Slot& slot = slots_[static_cast<std::size_t>(dev)];
  ++slot.stats.failed_attempts;
  (void)ev;  // all kinds are failure samples; the split is for stats only
  const BreakerState before = slot.health.state();
  slot.health.record_failure();
  trace_breaker(dev, before, slot.health.state());
}

void DevicePool::note_attempt_ok(int dev) {
  std::lock_guard<std::mutex> lk(mu_);
  Slot& slot = slots_[static_cast<std::size_t>(dev)];
  ++slot.stats.executed;
  slot.health.record_success();
}

void DevicePool::note_verify(int dev, bool ok, bool feed_breaker) {
  std::lock_guard<std::mutex> lk(mu_);
  Slot& slot = slots_[static_cast<std::size_t>(dev)];
  const BreakerState before = slot.health.state();
  if (ok) {
    ++slot.stats.executed;
    if (feed_breaker) slot.health.record_success();
  } else {
    ++slot.stats.verify_rejects;
    if (feed_breaker) slot.health.record_failure();
  }
  trace_breaker(dev, before, slot.health.state());
}

std::span<std::byte> DevicePool::buffer_bytes(const void* key) const {
  for (const Slot& slot : slots_) {
    if (slot.dev->has_buffer(key)) return slot.dev->buffer_bytes(key);
  }
  return {};
}

int DevicePool::resident_device(const void* key) const {
  for (int i = 0; i < size(); ++i) {
    if (device(i).has_buffer(key)) return i;
  }
  return -1;
}

BreakerState DevicePool::breaker(int dev) const {
  std::lock_guard<std::mutex> lk(mu_);
  return slots_[static_cast<std::size_t>(dev)].health.state();
}

std::vector<PerDeviceStats> DevicePool::per_device_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PerDeviceStats> out;
  out.reserve(slots_.size());
  for (int i = 0; i < size(); ++i) {
    const Slot& slot = slots_[static_cast<std::size_t>(i)];
    PerDeviceStats s = slot.stats;
    s.device = i;
    s.breaker = slot.health.state();
    s.health_ewma = slot.health.ewma();
    s.breaker_opens = slot.health.opens();
    s.breaker_half_opens = slot.health.half_opens();
    s.breaker_readmissions = slot.health.readmissions();
    s.faults = slot.dev->faults().injected();
    out.push_back(s);
  }
  return out;
}

std::uint64_t DevicePool::faults_injected() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.dev->faults().injected();
  return total;
}

}  // namespace fblas::host
