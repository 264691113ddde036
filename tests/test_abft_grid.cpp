// In-grid ABFT end-to-end: PE-targeted fault injection against the
// systolic GEMM engine through the host runtime. The checksum rank must
// localize every injected single fault to its exact victim PE (matching
// the injector's ground truth) and correct it in place — zero retries,
// bit-identical results — while double faults degrade gracefully through
// the rollback -> retry -> CPU-fallback ladder.
//
// Fault decisions hash (seed, command seq, attempt), so every test here
// is deterministic under both executor policies.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "refblas/level3.hpp"
#include "verify/options.hpp"

namespace fblas {
namespace {

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);
  p.max_backoff = std::chrono::microseconds(0);
  p.cpu_fallback = cpu_fallback;
  return p;
}

template <typename T>
std::vector<T> gemm_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(1),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(c.data(), m, n));
  return c;
}

// --- Acceptance: single faults corrected in place, zero retries -----------

TEST(AbftGrid, SingleFaultsCorrectedInPlaceBitIdentical) {
  const std::int64_t m = 12, n = 10, k = 16;
  const int rounds = 8;
  Workload wl(501);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto expect = gemm_ref<float>(m, n, k, ha, hb);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 11;
  fc.pe_fault_rate = 1.0;
  fc.max_faults = rounds;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(3, true));
  ctx.config().verification = verify::Options::always().in_grid();

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  for (int round = 0; round < rounds; ++round) {
    c.write(std::vector<float>(static_cast<std::size_t>(m * n), -1.0f));
    ctx.gemm_systolic<float>(m, n, k, a, b, c);
    // Corrected in place: bit-identical to the fault-free reference.
    EXPECT_EQ(c.to_host(), expect) << "round " << round;
  }
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.faults_injected, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(stats.pe_faults_localized, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(stats.faults_corrected, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(stats.retries, 0u);        // cheaper rung than rollback/retry
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.verified, static_cast<std::uint64_t>(rounds));
}

// --- Fuzz: localization matches the injector's ground truth ---------------
// >= 200 multiplies across varying (ragged) shapes; for every fault that
// materializes, the engine's diagnosis must name the exact victim PE the
// injector planned — under the serial and the worker-pool executors.

void fuzz_localization(int workers) {
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  host::FaultConfig fc;
  fc.seed = 12 + static_cast<std::uint64_t>(workers);
  fc.pe_fault_rate = 1.0;  // every command draws a PE fault
  dev.inject_faults(fc);
  ctx.config().verification = verify::Options::always().in_grid();

  Workload wl(502);
  std::uint64_t checked = 0;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t m = 3 + (i * 7) % 14;
    const std::int64_t n = 2 + (i * 5) % 12;
    const std::int64_t k = 1 + (i * 3) % 10;
    const auto ha = wl.matrix<float>(m, k);
    const auto hb = wl.matrix<float>(k, n);
    host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
    a.write(ha);
    b.write(hb);
    c.write(std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
    ctx.gemm_systolic<float>(m, n, k, a, b, c);

    const auto victim = dev.faults().last_pe_victim();
    const auto report = ctx.last_grid_report();
    if (!victim.valid) continue;  // the planned product never went nonzero
    ASSERT_EQ(report.faults.size(), 1u) << "iteration " << i;
    EXPECT_EQ(report.faults[0].tile_row, victim.tile_row) << "iter " << i;
    EXPECT_EQ(report.faults[0].tile_col, victim.tile_col) << "iter " << i;
    EXPECT_EQ(report.faults[0].r, victim.r) << "iter " << i;
    EXPECT_EQ(report.faults[0].c, victim.c) << "iter " << i;
    EXPECT_TRUE(report.faults[0].corrected) << "iter " << i;
    EXPECT_EQ(c.to_host(), gemm_ref<float>(m, n, k, ha, hb))
        << "iter " << i;
    ++checked;
  }
  // The [-1, 1] workload makes a zero product vanishingly rare: the fault
  // must have materialized (and been verified) in essentially every run.
  EXPECT_GE(checked, 195u);
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.pe_faults_localized, checked);
  EXPECT_EQ(stats.faults_corrected, checked);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(AbftGrid, FuzzLocalizationMatchesGroundTruthSerial) {
  fuzz_localization(0);
}

TEST(AbftGrid, FuzzLocalizationMatchesGroundTruthWorkerPool) {
  fuzz_localization(4);
}

// --- Double faults: refuse to correct, degrade to the retry ladder --------

TEST(AbftGrid, DoubleFaultRejectsAndRecoversThroughRetry) {
  const std::int64_t m = 12, n = 10, k = 16;
  Workload wl(503);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 13;
  fc.pe_fault_rate = 1.0;
  fc.pe_fault_pairs = true;  // two flips, distinct PEs, same tile
  fc.max_faults = 1;         // the retry runs clean
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(3));
  ctx.config().verification = verify::Options::always().in_grid();

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  c.write(std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
  ctx.gemm_systolic<float>(m, n, k, a, b, c);

  EXPECT_EQ(c.to_host(), gemm_ref<float>(m, n, k, ha, hb));
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.retries, 1u);       // rejected, rolled back, re-run clean
  EXPECT_EQ(stats.sdc_caught, 1u);
  EXPECT_EQ(stats.faults_corrected, 0u);  // never corrects a 2-fault tile
  EXPECT_EQ(stats.degraded, 0u);
  const auto report = ctx.last_grid_report();
  EXPECT_EQ(report.uncorrectable_tiles, 0u);  // the clean retry's report
}

TEST(AbftGrid, PersistentDoubleFaultsDegradeToCpuFallback) {
  const std::int64_t m = 12, n = 10, k = 16;
  Workload wl(504);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 14;
  fc.pe_fault_rate = 1.0;
  fc.pe_fault_pairs = true;  // every attempt double-faults
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
  ctx.config().verification = verify::Options::always().in_grid();

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  c.write(std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
  host::Event e = ctx.gemm_systolic_async<float>(m, n, k, a, b, c);
  e.wait();

  EXPECT_EQ(c.to_host(), gemm_ref<float>(m, n, k, ha, hb));
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.retries, 2u);   // exhausted the budget...
  EXPECT_EQ(stats.degraded, 1u);  // ...then the CPU reference served it
  EXPECT_EQ(stats.faults_corrected, 0u);
  EXPECT_EQ(stats.sdc_caught, 3u);  // every attempt was caught
}

// --- Detect-only policy: localization without correction ------------------

TEST(AbftGrid, DetectOnlyRejectsInsteadOfCorrecting) {
  const std::int64_t m = 12, n = 10, k = 16;
  Workload wl(505);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 15;
  fc.pe_fault_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(3));
  ctx.config().verification =
      verify::Options::always().in_grid().correct_single_faults(false);

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  c.write(std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
  ctx.gemm_systolic<float>(m, n, k, a, b, c);

  EXPECT_EQ(c.to_host(), gemm_ref<float>(m, n, k, ha, hb));
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.pe_faults_localized, 1u);
  EXPECT_EQ(stats.faults_corrected, 0u);  // policy forbids the cheap rung
  EXPECT_EQ(stats.retries, 1u);           // so the ladder pays a retry
  EXPECT_EQ(stats.sdc_caught, 1u);
}

// --- Contrast: without in-grid ABFT the fault lands silently --------------

TEST(AbftGrid, UnverifiedBaselineMissesThePeFault) {
  const std::int64_t m = 12, n = 10, k = 16;
  Workload wl(506);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 16;
  fc.pe_fault_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  // Verification off entirely: the flip reaches DRAM unchallenged.
  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  c.write(std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
  ctx.gemm_systolic<float>(m, n, k, a, b, c);

  EXPECT_NE(c.to_host(), gemm_ref<float>(m, n, k, ha, hb));
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.verified, 0u);
  EXPECT_EQ(stats.pe_faults_localized, 0u);
  EXPECT_EQ(stats.faults_corrected, 0u);
}

// --- Concurrency: a faulted batch on the worker pool ----------------------

TEST(AbftGrid, ConcurrentFaultedBatchAllCorrected) {
  const std::int64_t m = 8, n = 8, k = 12;
  const int batch = 16;
  Workload wl(507);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto expect = gemm_ref<float>(m, n, k, ha, hb);

  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 4);
  host::FaultConfig fc;
  fc.seed = 17;
  fc.pe_fault_rate = 1.0;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(3, true));
  ctx.config().verification = verify::Options::always().in_grid();

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1);
  a.write(ha);
  b.write(hb);
  std::vector<std::unique_ptr<host::Buffer<float>>> outs;
  for (int i = 0; i < batch; ++i) {
    outs.push_back(std::make_unique<host::Buffer<float>>(
        dev, m * n, i % dev.bank_count()));
    outs.back()->write(
        std::vector<float>(static_cast<std::size_t>(m * n), 0.0f));
    ctx.gemm_systolic_async<float>(m, n, k, a, b, *outs.back());
  }
  ctx.finish();
  for (int i = 0; i < batch; ++i) {
    EXPECT_EQ(outs[static_cast<std::size_t>(i)]->to_host(), expect)
        << "command " << i;
  }
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.faults_corrected, static_cast<std::uint64_t>(batch));
  EXPECT_EQ(stats.pe_faults_localized, static_cast<std::uint64_t>(batch));
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded, 0u);
}

// --- The write-back the grid never sees -----------------------------------
// In-grid ABFT checks every tile as it drains, but a silent fault on the
// C write-back happens after the grid: the host-side checker must still
// catch it, so no corrupted C completes Ok.

void silent_write_back_caught(int workers) {
  const std::int64_t m = 32, n = 32, k = 32;
  const int commands = 20;
  Workload wl(508);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto expect = gemm_ref<float>(m, n, k, ha, hb);

  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  host::FaultConfig fc;
  fc.seed = 19;
  fc.silent_corrupt_rate = 0.5;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(3, true));
  ctx.config().verification = verify::Options::always().in_grid();

  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1);
  a.write(ha);
  b.write(hb);
  std::vector<std::unique_ptr<host::Buffer<float>>> outs;
  for (int i = 0; i < commands; ++i) {
    outs.push_back(std::make_unique<host::Buffer<float>>(
        dev, m * n, i % dev.bank_count()));
    ctx.gemm_systolic_async<float>(m, n, k, a, b, *outs.back());
  }
  ctx.finish();
  int wrong = 0;
  for (const auto& c : outs) wrong += c->to_host() != expect ? 1 : 0;
  EXPECT_EQ(wrong, 0);
  const auto stats = ctx.exec_stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_EQ(stats.sdc_caught, stats.faults_injected);
}

TEST(AbftGrid, SilentWriteBackCorruptionCaughtSerial) {
  silent_write_back_caught(0);
}

TEST(AbftGrid, SilentWriteBackCorruptionCaughtWorkerPool) {
  silent_write_back_caught(4);
}

}  // namespace
}  // namespace fblas
