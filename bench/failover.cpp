// Device-fleet failover benchmark. Three questions:
//
//   1. Breaker latency: when one board in a 3-device pool goes sick,
//      how many failed attempts does the fleet burn before the circuit
//      breaker quarantines it? (Criterion: exactly the configured
//      consecutive-failure threshold — losses stop at the knob.)
//   2. Failover cost: with the sick board quarantined and its buffers
//      migrated, how much does the makespan grow versus a healthy
//      fleet? (Criterion: <= 2x — the survivors absorb the work.)
//   3. Counterfactual: the same sick board *without* a pool keeps
//      burning its retry budget on every command. (Criterion: its
//      makespan exceeds the failed-over pool's — failover pays.)
//
// The workload is 4 chains of 3 dependent GEMVs (the output vector of
// each level feeds the next), spread across the fleet, so a wrong or
// lost intermediate anywhere would surface in the final bytes.
//
// Criteria 1 and 2 come from serial runs, whose attempts are placed in
// command order: with 4 workers, dev0's failed-attempt count and the
// placements depend on which attempts are in flight when the breaker
// opens. The 4-worker runs check that failover under concurrency still
// gives bit-identical results.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/device_pool.hpp"
#include "host/health.hpp"

namespace {

using namespace fblas;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kN = 256;  // square GEMVs so chains compose
constexpr int kChains = 4;
constexpr int kLevels = 3;
constexpr int kWorkers = 4;
constexpr int kOpenAfter = 2;  // consecutive failures before quarantine

enum class Setup { HealthyPool, SickPool, SickSolo };

struct RunResult {
  double wall_ms = 0;
  std::uint64_t makespan_cycles = 0;
  host::ExecStats stats;
  std::vector<std::vector<float>> outs;  // final vector of each chain
};

host::FaultConfig sick_config() {
  host::FaultConfig faults;
  faults.seed = 5;
  faults.corrupt_rate = 0.02;
  // Device 0 runs sick for the whole run: x35 lifts the detected-
  // corruption rate to 0.7, so most attempts placed there burn a full
  // execution before rollback. The pool caps the damage at the breaker
  // threshold; the solo board pays on every single command.
  faults.device_fault_window.device = 0;
  faults.device_fault_window.begin = 0;
  faults.device_fault_window.end = kChains * kLevels;
  faults.device_fault_window.multiplier = 35.0;
  return faults;
}

RunResult run_chains(Setup setup, int workers) {
  host::HealthConfig health;
  health.open_consecutive_failures = kOpenAfter;
  health.cooldown_ticks = 64;  // no re-admission within this short run

  host::Device solo;
  auto pool = (setup == Setup::SickSolo)
                  ? nullptr
                  : std::make_unique<host::DevicePool>(
                        3, sim::DeviceId::Stratix10, health);
  auto ctx = pool ? std::make_unique<host::Context>(*pool, stream::Mode::Cycle,
                                                    workers)
                  : std::make_unique<host::Context>(solo, stream::Mode::Cycle,
                                                    workers);
  host::RetryPolicy policy;
  policy.max_retries = 12;
  policy.backoff = std::chrono::microseconds(0);
  ctx->set_retry_policy(policy);
  if (setup == Setup::SickPool) pool->inject_faults(sick_config());
  if (setup == Setup::SickSolo) solo.inject_faults(sick_config());

  Workload wl(31);
  const auto ha = wl.matrix<float>(kN, kN);
  const auto dev_of = [&](int chain) -> host::Device& {
    return pool ? pool->device(chain % pool->size()) : solo;
  };
  std::vector<host::Buffer<float>> as;
  std::vector<std::vector<host::Buffer<float>>> vs(kChains);
  for (int c = 0; c < kChains; ++c) {
    as.emplace_back(dev_of(c), kN * kN, 0);
    as.back().write(ha);
    for (int l = 0; l <= kLevels; ++l) {
      vs[c].emplace_back(dev_of(c), kN, 1 + l % 3);
      vs[c].back().write(l == 0 ? wl.vector<float>(kN)
                                : std::vector<float>(kN, 0.0f));
    }
  }

  const auto t0 = Clock::now();
  for (int c = 0; c < kChains; ++c) {
    for (int l = 0; l < kLevels; ++l) {
      ctx->gemv_async<float>(Transpose::None, kN, kN, 1.0f, as[c], vs[c][l],
                             1, 0.0f, vs[c][l + 1], 1);
    }
  }
  ctx->finish();
  const auto t1 = Clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.makespan_cycles = ctx->makespan_cycles();
  r.stats = ctx->exec_stats();
  for (int c = 0; c < kChains; ++c) r.outs.push_back(vs[c].back().to_host());
  return r;
}

}  // namespace

int main() {
  std::printf("Device-fleet failover: %d chains of %d dependent %lldx%lld "
              "GEMVs, serial and %d workers\n\n",
              kChains, kLevels, static_cast<long long>(kN),
              static_cast<long long>(kN), kWorkers);

  const RunResult healthy = run_chains(Setup::HealthyPool, 0);
  const RunResult sick = run_chains(Setup::SickPool, 0);
  const RunResult sick_workers = run_chains(Setup::SickPool, kWorkers);
  const RunResult solo = run_chains(Setup::SickSolo, kWorkers);

  const auto ratio = [](const RunResult& a, const RunResult& b) {
    return static_cast<double>(a.makespan_cycles) /
           static_cast<double>(b.makespan_cycles);
  };
  const host::PerDeviceStats& sick0 = sick.stats.per_device[0];

  std::printf("healthy pool (3 devices) : %8.1f ms wall, %10llu makespan "
              "cycles\n",
              healthy.wall_ms,
              static_cast<unsigned long long>(healthy.makespan_cycles));
  std::printf("sick pool (dev0 sick)    : %8.1f ms wall, %10llu makespan "
              "cycles (%.2fx healthy)\n",
              sick.wall_ms,
              static_cast<unsigned long long>(sick.makespan_cycles),
              ratio(sick, healthy));
  std::printf("  breaker-open latency   : %llu failed attempts on dev0 "
              "(threshold %d), %llu opens\n",
              static_cast<unsigned long long>(sick0.failed_attempts),
              kOpenAfter,
              static_cast<unsigned long long>(sick.stats.breaker_opens));
  std::printf("  quarantine migration   : %llu buffers, %llu bytes "
              "re-staged\n",
              static_cast<unsigned long long>(sick.stats.migrations),
              static_cast<unsigned long long>(sick.stats.migrated_bytes));
  std::printf("sick pool, %d workers     : %8.1f ms wall, %10llu makespan "
              "cycles (varies with worker timing)\n",
              kWorkers, sick_workers.wall_ms,
              static_cast<unsigned long long>(sick_workers.makespan_cycles));
  std::printf("sick solo (no pool)      : %8.1f ms wall, %10llu makespan "
              "cycles (%.2fx sick pool), %llu faults, %llu retries\n",
              solo.wall_ms,
              static_cast<unsigned long long>(solo.makespan_cycles),
              ratio(solo, sick),
              static_cast<unsigned long long>(solo.stats.faults_injected),
              static_cast<unsigned long long>(solo.stats.retries));

  const bool sick_identical =
      sick.outs == healthy.outs && sick_workers.outs == healthy.outs;
  const bool solo_identical = solo.outs == healthy.outs;
  const bool quarantined =
      sick.stats.breaker_opens >= 1 && sick.stats.migrations >= 1;
  // The serial run has one attempt in flight at a time, so no attempt is
  // placed on dev0 between its last failure and the breaker opening.
  const bool latency_bounded =
      sick0.failed_attempts == static_cast<std::uint64_t>(kOpenAfter);
  const bool failover_cheap = ratio(sick, healthy) <= 2.0;
  const bool failover_pays = solo.makespan_cycles > sick.makespan_cycles;
  const bool nothing_degraded = sick.stats.degraded == 0 &&
                                sick_workers.stats.degraded == 0 &&
                                solo.stats.degraded == 0;

  std::printf("\nsick-pool outputs bit-identical      : %s\n",
              sick_identical ? "yes" : "NO");
  std::printf("sick-solo outputs bit-identical      : %s\n",
              solo_identical ? "yes" : "NO");
  std::printf("breaker opened at the threshold      : %s\n",
              latency_bounded ? "yes" : "NO");
  std::printf("quarantine + migration happened      : %s\n",
              quarantined ? "yes" : "NO");
  std::printf("failed-over makespan <= 2x healthy   : %s\n",
              failover_cheap ? "yes" : "NO");
  std::printf("no-pool makespan exceeds failed-over : %s\n",
              failover_pays ? "yes" : "NO");

  const bool pass = sick_identical && solo_identical && quarantined &&
                    latency_bounded && failover_cheap && failover_pays &&
                    nothing_degraded;
  std::printf("\n%s (criteria: bit-identical results, breaker opens at the "
              "threshold, failover <= 2x healthy makespan, and beats "
              "riding out the sick board)\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
