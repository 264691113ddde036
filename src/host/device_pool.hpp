// Device fleet for the host runtime: N simulated boards behind one
// placement policy, with per-device health tracking and transparent
// failover.
//
// The pool owns (or borrows) the devices and makes every placement
// decision the executor needs:
//
//   - health-weighted scoring: among devices whose breaker is Closed,
//     prefer the one already holding the command's buffers (hazard
//     chains stay co-located, no re-staging); ties rotate by command
//     seq so independent commands spread across the fleet.
//   - quarantine: a device whose breaker opened receives no placements;
//     its buffers are migrated bank-by-bank onto the chosen healthy
//     device through the Device buffer registry (pure bookkeeping —
//     simulated device data lives in host memory).
//   - re-admission: an Open breaker cools down into HalfOpen on the
//     placement-tick clock; the next placement runs a synthetic probe
//     (FaultInjector::probe — budget-free, damage-free) and either
//     closes the breaker or starts another quarantine round.
//   - last resort: when *no* breaker is Closed, the least-bad device
//     (lowest EWMA) takes the placement — the command then burns its
//     retry budget and falls onto the CPU fallback, so the whole-pool-
//     sick case degrades exactly like the single-device runtime did.
//
// Determinism: placement runs under one mutex on the placement-tick
// clock, all decisions are pure functions of (health counters, command
// seq), and every pool device shares the injector seed/config (only the
// sick-device window differs), so fault draws are placement-independent
// and results stay bit-identical across executor policies.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "host/device.hpp"
#include "host/health.hpp"

namespace fblas::host {

class DevicePool {
 public:
  /// Owns `devices` freshly constructed boards of the given model.
  explicit DevicePool(int devices,
                      sim::DeviceId id = sim::DeviceId::Stratix10,
                      const HealthConfig& health = {});
  /// Borrows externally owned devices (they must outlive the pool).
  /// This is how a single-device Context becomes a pool of one.
  explicit DevicePool(std::span<Device* const> devices,
                      const HealthConfig& health = {});
  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  int size() const { return static_cast<int>(slots_.size()); }
  Device& device(int i) { return *slots_[static_cast<std::size_t>(i)].dev; }
  const Device& device(int i) const {
    return *slots_[static_cast<std::size_t>(i)].dev;
  }

  /// Arms every device's injector with `cfg` (validated once): same
  /// seed, same rates — so fault draws are identical regardless of
  /// placement — except the sick-device window, which is kept only on
  /// its victim (cfg.device_fault_window.device) and stripped elsewhere.
  void inject_faults(const FaultConfig& cfg);

  /// Places attempt of command `seq` touching the given read/write keys:
  /// advances the breaker clocks, probes Half-Open devices, scores the
  /// healthy candidates, migrates the command's buffers onto the winner
  /// when they live elsewhere, and returns the winner's index.
  int place(std::uint64_t seq, std::span<const void* const> reads,
            std::span<const void* const> writes);

  /// Health/stats reporting from the runtime (wrap_work / wrap_verify).
  void note_attempt_failed(int dev, HealthEvent ev);
  void note_attempt_ok(int dev);
  /// Verdict of an armed checker on a device-Ok attempt. Always counted
  /// in per-device stats; fed to the breaker only when `feed_breaker`
  /// (verify::Options::breaker_feedback) — so numerically marginal ABFT
  /// rejections can be kept out of quarantine decisions.
  void note_verify(int dev, bool ok, bool feed_breaker);

  /// Registry lookups across the fleet: the raw bytes of `key` on
  /// whichever device currently holds it, and that device's index (-1
  /// when unregistered, e.g. host scalar result keys).
  std::span<std::byte> buffer_bytes(const void* key) const;
  int resident_device(const void* key) const;

  BreakerState breaker(int dev) const;

  /// Per-device counters, breaker states, and injector ground truth.
  std::vector<PerDeviceStats> per_device_stats() const;
  /// Sum of every device injector's injected() — the fleet-wide fault
  /// ground truth Context::exec_stats reports.
  std::uint64_t faults_injected() const;

 private:
  struct Slot {
    Device* dev = nullptr;
    HealthTracker health;
    PerDeviceStats stats;
  };

  int pick_locked(std::uint64_t seq,
                  const std::vector<const void*>& keys) const;
  void migrate_locked(const void* key, int from, int to);

  HealthConfig health_;
  std::vector<std::unique_ptr<Device>> owned_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

}  // namespace fblas::host
