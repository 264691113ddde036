// Failure injection: wrong element counts, starved channels, throttled
// banks, exceptions thrown mid-pipeline, misused buffers. The simulator
// must fail loudly and precisely (the right exception, the right module
// named) — silent wrong answers or hangs would invalidate every other
// experiment built on it.
#include <gtest/gtest.h>

#include <chrono>

#include "apps/atax.hpp"
#include "common/workload.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas {
namespace {

using stream::Graph;
using stream::Mode;

TEST(FailureInjection, ProducerShortfallNamesTheStarvedModule) {
  // The DOT module expects 100 elements; the feeders provide 90.
  Graph g;
  auto& cx = g.channel<float>("x", 16);
  auto& cy = g.channel<float>("y", 16);
  auto& res = g.channel<float>("res", 2);
  std::vector<float> out;
  Workload wl(1);
  g.spawn("feed_x", stream::feed(wl.vector<float>(90), cx));
  g.spawn("feed_y", stream::feed(wl.vector<float>(100), cy));
  g.spawn("dot", core::dot<float>({8}, 100, cx, cy, res));
  g.spawn("collect", stream::collect<float>(1, res, out));
  try {
    g.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'dot'"), std::string::npos);
    EXPECT_NE(msg.find("popping"), std::string::npos);
    EXPECT_NE(msg.find("'x'"), std::string::npos);
  }
}

TEST(FailureInjection, ConsumerShortfallNamesTheBlockedProducer) {
  // The collector wants fewer elements than produced: the producer ends
  // up blocked pushing into a full channel.
  Graph g;
  auto& ch = g.channel<float>("out", 4);
  std::vector<float> out;
  Workload wl(2);
  g.spawn("feed", stream::feed(wl.vector<float>(100), ch));
  g.spawn("collect", stream::collect<float>(10, ch, out));
  try {
    g.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'feed'"), std::string::npos);
    EXPECT_NE(msg.find("pushing"), std::string::npos);
  }
}

TEST(FailureInjection, WrongGemvReplayCountDeadlocks) {
  // Feeding x without the required replay starves the tiled GEMV —
  // exactly the condition (1) violation of Sec. V.
  Workload wl(3);
  const std::int64_t n = 16;
  auto a = wl.matrix<float>(n, n);
  auto x = wl.vector<float>(n);
  auto y = wl.vector<float>(n);
  core::GemvConfig cfg{Transpose::None, core::MatrixTiling::TilesByRows, 4,
                       4, 4};
  Graph g;
  auto& ca = g.channel<float>("A", 64);
  auto& cx = g.channel<float>("x", 64);
  auto& cy = g.channel<float>("y", 64);
  auto& out = g.channel<float>("o", 64);
  std::vector<float> got;
  g.spawn("read_A",
          stream::read_matrix<float>(MatrixView<const float>(a.data(), n, n),
                                     core::gemv_a_schedule(cfg), 1, 4, ca));
  // BUG UNDER TEST: repeat should be gemv_x_repeat() = 4, we send 1.
  g.spawn("read_x", stream::read_vector<float>(
                        VectorView<const float>(x.data(), n), 1, 4, cx));
  g.spawn("read_y", stream::read_vector<float>(
                        VectorView<const float>(y.data(), n), 1, 4, cy));
  g.spawn("gemv",
          core::gemv<float>(cfg, n, n, 1.0f, 0.0f, ca, cx, cy, out));
  g.spawn("collect", stream::collect<float>(n, out, got));
  EXPECT_THROW(g.run(), DeadlockError);
}

TEST(FailureInjection, ThrottledBankIsSlowButLive) {
  // A bank granting one float every few cycles must not deadlock — only
  // stretch the run.
  Workload wl(4);
  const std::int64_t n = 256;
  auto x = wl.vector<float>(n);
  Graph g(Mode::Cycle);
  auto& bank = g.bank("ddr", 2.0);  // half a float per cycle
  auto& ch = g.channel<float>("x", 8);
  g.spawn("read", stream::read_vector<float>(
                      VectorView<const float>(x.data(), n), 1, 16, ch,
                      &bank));
  g.spawn("sink", stream::sink<float>(n, 16, ch));
  g.run();
  // 0.5 elements/cycle -> at least 2 cycles per element.
  EXPECT_GE(g.cycles(), static_cast<std::uint64_t>(2 * n - 8));
  EXPECT_EQ(bank.total_bytes(), static_cast<std::uint64_t>(n) * 4);
}

TEST(FailureInjection, ExceptionInMidPipelineModulePropagates) {
  struct Maker {
    static stream::Task faulty(std::int64_t n, stream::Channel<float>& in,
                               stream::Channel<float>& out) {
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = co_await in.pop();
        if (i == n / 2) throw std::domain_error("injected fault");
        co_await out.push(v);
      }
    }
  };
  Workload wl(5);
  Graph g;
  auto& a = g.channel<float>("a", 8);
  auto& b = g.channel<float>("b", 8);
  std::vector<float> out;
  g.spawn("feed", stream::feed(wl.vector<float>(64), a));
  g.spawn("faulty", Maker::faulty(64, a, b));
  g.spawn("collect", stream::collect<float>(64, b, out));
  EXPECT_THROW(g.run(), std::domain_error);
}

TEST(FailureInjection, SchedulerRefusesDoubleRun) {
  Graph g;
  auto& ch = g.channel<int>("c", 2);
  std::vector<int> out;
  g.spawn("feed", stream::feed(std::vector<int>{1}, ch));
  g.spawn("collect", stream::collect<int>(1, ch, out));
  g.run();
  EXPECT_THROW(g.run(), ConfigError);
}

TEST(FailureInjection, BufferViewBoundsChecked) {
  host::Device dev;
  host::Buffer<float> b(dev, 16, 0);
  EXPECT_THROW(b.vec(17), ConfigError);
  EXPECT_THROW(b.vec(9, 2), ConfigError);
  EXPECT_NO_THROW(b.vec(8, 2));
  EXPECT_THROW(b.mat(4, 5), ConfigError);
  EXPECT_NO_THROW(b.mat(4, 4));
}

TEST(FailureInjection, HostTransferSizeChecked) {
  host::Device dev;
  host::Buffer<float> b(dev, 8, 0);
  std::vector<float> wrong(7);
  EXPECT_THROW(b.write(wrong), ConfigError);
  std::vector<float> dst(9);
  EXPECT_THROW(b.read(std::span<float>(dst)), ConfigError);
}

TEST(FailureInjection, CycleModeDeadlockAlsoDetected) {
  // Deadlock detection must work when modules are parked on next_cycle
  // as well: cycle waiters drain first, then the stall is diagnosed.
  Workload wl(6);
  Graph g(Mode::Cycle);
  auto& cx = g.channel<float>("x", 8);
  auto& res = g.channel<float>("r", 2);
  std::vector<float> out;
  g.spawn("feed", stream::feed(wl.vector<float>(10), cx));
  g.spawn("asum", core::asum<float>({4}, 20, cx, res));  // wants 20, gets 10
  g.spawn("collect", stream::collect<float>(1, res, out));
  EXPECT_THROW(g.run(), DeadlockError);
}

TEST(FailureInjection, DiagnosticListsChannelOccupancy) {
  Graph g;
  auto& ch = g.channel<int>("lonely", 4);
  std::vector<int> out;
  g.spawn("collect", stream::collect<int>(1, ch, out));
  try {
    g.run();
    FAIL();
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'lonely': 0/4 buffered"), std::string::npos);
    EXPECT_NE(msg.find("0 pushed"), std::string::npos);
  }
}

// --- Fault tolerance: injected device faults, watchdog, retry/rollback,
// CPU fallback. The injector's decisions are a pure hash of (seed,
// command seq, attempt), so every test here is deterministic.

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);  // keep tests fast
  p.cpu_fallback = cpu_fallback;
  return p;
}

TEST(FaultTolerance, ConfigValidatedAtEnqueueNamingTheKnob) {
  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<float> x(dev, 16, 0);
  x.write(std::vector<float>(16, 1.0f));

  host::RoutineConfig bad = ctx.config();
  bad.width = 0;
  try {
    ctx.with(bad)->scal<float>(16, 2.0f, x);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("RoutineConfig.width"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(got 0)"), std::string::npos);
  }

  bad = ctx.config();
  bad.pe_rows = -2;
  try {
    ctx.with(bad)->scal<float>(16, 2.0f, x);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("RoutineConfig.pe_rows"),
              std::string::npos);
  }

  bad = ctx.config();
  bad.tile_cols = 0;
  EXPECT_THROW(ctx.with(bad)->scal<float>(16, 2.0f, x), ConfigError);

  // A composed app validates before its compiler sizes FIFOs by width.
  bad = ctx.config();
  bad.width = 0;
  host::Buffer<float> a(dev, 16 * 12, 0), ax(dev, 12, 1), ay(dev, 12, 2);
  try {
    apps::atax_composed_async<float>(ctx.with(bad).context(), 16, 12, a, ax,
                                     ay);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("RoutineConfig.width"),
              std::string::npos);
  }

  // A valid config still goes through, and the guard restored the knobs.
  EXPECT_NO_THROW(ctx.scal<float>(16, 2.0f, x));
}

TEST(FaultTolerance, WatchdogCycleBudgetRaisesTimeoutOnLiveGraph) {
  // A live but slow graph (throttled bank) overruns a tiny cycle budget:
  // TimeoutError, with the same module/channel diagnostics as deadlocks.
  Workload wl(40);
  const std::int64_t n = 4096;
  auto x = wl.vector<float>(n);
  Graph g(Mode::Cycle);
  auto& bank = g.bank("ddr", 16.0);  // 1 float every 4 cycles
  auto& ch = g.channel<float>("x", 8);
  g.spawn("read", stream::read_vector<float>(
                      VectorView<const float>(x.data(), n), 1, 16, ch,
                      &bank));
  g.spawn("sink", stream::sink<float>(n, 16, ch));
  stream::Watchdog wd;
  wd.max_cycles = 64;  // far below the ~4n cycles this graph needs
  try {
    g.run(wd);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog expired (cycle budget)"), std::string::npos);
    EXPECT_NE(msg.find("live-locked or pathologically slow"),
              std::string::npos);
    EXPECT_NE(msg.find("module 'read'"), std::string::npos);
    EXPECT_NE(msg.find("'x':"), std::string::npos);
  }
}

TEST(FaultTolerance, WedgedGraphRaisesTimeoutWithinDeadlineNotHang) {
  // An injected wedge stops all module progress mid-stream; only the
  // watchdog ends the run, well within a couple of seconds.
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Cycle);
  host::FaultConfig faults;
  faults.seed = 7;
  faults.wedge_rate = 1.0;
  dev.inject_faults(faults);
  stream::Watchdog wd;
  wd.wall_deadline = std::chrono::milliseconds(100);
  ctx.set_watchdog(wd);

  host::Buffer<float> x(dev, 256, 0);
  x.write(Workload(41).vector<float>(256));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ctx.scal<float>(256, 2.0f, x);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("wedged (injected hang)"),
              std::string::npos);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(ctx.exec_stats().faults_injected, 1u);
}

TEST(FaultTolerance, WedgeRecoversViaRetry) {
  // One wedge (budgeted), watchdog + retry: the first attempt times out,
  // the write-set rolls back, and the clean re-run completes the command.
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Cycle);
  host::FaultConfig faults;
  faults.seed = 7;
  faults.wedge_rate = 1.0;
  faults.max_faults = 1;
  dev.inject_faults(faults);
  stream::Watchdog wd;
  wd.max_cycles = 1u << 20;
  ctx.set_watchdog(wd);
  ctx.set_retry_policy(fast_retry(2));

  const std::int64_t n = 256;
  auto hx = Workload(42).vector<float>(n);
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  ctx.scal<float>(n, 3.0f, x);

  for (float& v : hx) v *= 3.0f;
  EXPECT_EQ(x.to_host(), hx);
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(FaultTolerance, CorruptedGemmRollsBackAndRetriesBitIdentical) {
  // Two detected transfer corruptions actually mangle C's bytes; each
  // retry must restore the snapshot or beta*C would compound the damage.
  const std::int64_t m = 24, n = 20, k = 16;
  Workload wl(43);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto hc = wl.matrix<float>(m, n);

  auto run = [&](bool with_faults) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig faults;
      faults.seed = 11;
      faults.corrupt_rate = 1.0;
      faults.max_faults = 2;
      dev.inject_faults(faults);
      ctx.set_retry_policy(fast_retry(3));
    }
    host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
    a.write(ha);
    b.write(hb);
    c.write(hc);
    ctx.gemm<float>(Transpose::None, Transpose::None, m, n, k, 1.5f, a, b,
                    0.5f, c);
    return std::make_pair(c.to_host(), ctx.exec_stats());
  };

  const auto [clean, clean_stats] = run(false);
  const auto [faulty, faulty_stats] = run(true);
  EXPECT_EQ(clean, faulty);  // bit-identical despite two corrupted attempts
  EXPECT_EQ(clean_stats.retries, 0u);
  EXPECT_EQ(faulty_stats.retries, 2u);
  EXPECT_EQ(faulty_stats.faults_injected, 2u);
  EXPECT_EQ(faulty_stats.degraded, 0u);
  // A single-device Context is a pool of one: the per-device breakdown
  // has exactly one entry and it reconciles with the globals.
  ASSERT_EQ(faulty_stats.per_device.size(), 1u);
  EXPECT_EQ(faulty_stats.per_device[0].faults,
            faulty_stats.faults_injected);
  EXPECT_EQ(faulty_stats.per_device[0].failed_attempts,
            faulty_stats.retries);
  EXPECT_EQ(faulty_stats.per_device[0].executed, faulty_stats.executed);
}

TEST(FaultTolerance, SeededFaultsDeterministicAcrossExecutorPolicies) {
  // The same seed must produce the same faults — and after retries the
  // same bits — whether commands run serially or on a 4-worker pool,
  // because decisions hash (seed, seq, attempt), not a shared RNG stream.
  const std::int64_t n = 512;
  auto run = [&](int workers) {
    host::Device dev;
    host::Context ctx(dev, stream::Mode::Functional, workers);
    host::FaultConfig faults;
    faults.seed = 99;
    faults.launch_fail_rate = 0.25;
    faults.corrupt_rate = 0.25;
    dev.inject_faults(faults);
    ctx.set_retry_policy(fast_retry(8));
    Workload wl(44);
    std::vector<host::Buffer<float>> bufs;
    for (int i = 0; i < 4; ++i) {
      bufs.emplace_back(dev, n, i % dev.bank_count());
      bufs.back().write(wl.vector<float>(n));
    }
    for (int round = 0; round < 8; ++round) {
      ctx.scal_async<float>(n, 1.01f, bufs[0], 1);
      ctx.axpy_async<float>(n, 0.5f, bufs[0], 1, bufs[1], 1);
      ctx.copy_async<float>(n, bufs[1], 1, bufs[2], 1);
      ctx.axpy_async<float>(n, -0.25f, bufs[2], 1, bufs[3], 1);
    }
    ctx.finish();
    std::vector<std::vector<float>> out;
    for (auto& b : bufs) out.push_back(b.to_host());
    return std::make_pair(out, ctx.exec_stats());
  };

  const auto [serial, serial_stats] = run(0);
  const auto [pooled, pooled_stats] = run(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(serial_stats.faults_injected, pooled_stats.faults_injected);
  EXPECT_EQ(serial_stats.retries, pooled_stats.retries);
  EXPECT_GT(serial_stats.retries, 0u);
  // Per-device sums reconcile under both executor policies.
  for (const host::ExecStats& stats : {serial_stats, pooled_stats}) {
    std::uint64_t faults = 0, executed = 0, failed = 0;
    for (const host::PerDeviceStats& d : stats.per_device) {
      faults += d.faults;
      executed += d.executed;
      failed += d.failed_attempts;
    }
    EXPECT_EQ(faults, stats.faults_injected);
    EXPECT_EQ(executed, stats.executed);
    EXPECT_EQ(failed, stats.retries);
  }
}

TEST(FaultTolerance, CpuFallbackDegradesLevel1) {
  // Every launch fails: retries exhaust, the refblas fallback serves the
  // result, and the command reports Degraded instead of Failed.
  const std::int64_t n = 128;
  Workload wl(45);
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig faults;
  faults.seed = 5;
  faults.launch_fail_rate = 1.0;
  dev.inject_faults(faults);
  ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
  host::Buffer<float> x(dev, n, 0), y(dev, n, 1);
  x.write(hx);
  y.write(hy);
  host::Event e = ctx.axpy_async<float>(n, 2.0f, x, 1, y, 1);
  EXPECT_NO_THROW(e.wait());

  ref::axpy(2.0f, VectorView<const float>(hx.data(), n),
            VectorView<float>(hy.data(), n));
  EXPECT_EQ(y.to_host(), hy);
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.degraded());
  EXPECT_NE(st.message.find("degraded to CPU fallback"), std::string::npos);
  EXPECT_NE(st.message.find("injected kernel launch failure"),
            std::string::npos);
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(FaultTolerance, CpuFallbackDegradesLevel2) {
  const std::int64_t rows = 32, cols = 24;
  Workload wl(46);
  auto ha = wl.matrix<float>(rows, cols);
  auto hx = wl.vector<float>(cols);
  auto hy = wl.vector<float>(rows);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig faults;
  faults.seed = 5;
  faults.launch_fail_rate = 1.0;
  dev.inject_faults(faults);
  ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
  host::Buffer<float> a(dev, rows * cols, 0), x(dev, cols, 1), y(dev, rows, 2);
  a.write(ha);
  x.write(hx);
  y.write(hy);
  host::Event e =
      ctx.gemv_async<float>(Transpose::None, rows, cols, 1.25f, a, x, 1,
                            0.75f, y, 1);
  EXPECT_NO_THROW(e.wait());

  ref::gemv(Transpose::None, 1.25f,
            MatrixView<const float>(ha.data(), rows, cols),
            VectorView<const float>(hx.data(), cols), 0.75f,
            VectorView<float>(hy.data(), rows));
  EXPECT_EQ(y.to_host(), hy);
  EXPECT_TRUE(e.status().degraded());

  // SYMV and TRMV degrade through their own fallback: expand the stored
  // triangle, then the reference GEMV (TRMV copies the product back).
  const std::int64_t n = cols;
  std::vector<float> sym(static_cast<std::size_t>(n * n));
  std::vector<float> tri(static_cast<std::size_t>(n * n), 0.0f);
  MatrixView<const float> A(ha.data(), rows, cols);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      sym[static_cast<std::size_t>(i * n + j)] = j <= i ? A(i, j) : A(j, i);
      if (j >= i) tri[static_cast<std::size_t>(i * n + j)] = A(i, j);
    }
  }
  std::vector<float> sy = y.to_host();
  host::Event es = ctx.symv_async<float>(Uplo::Lower, n, 0.5f, a, x, 1, 2.0f,
                                         y, 1);
  EXPECT_NO_THROW(es.wait());
  ref::gemv(Transpose::None, 0.5f, MatrixView<const float>(sym.data(), n, n),
            VectorView<const float>(hx.data(), n), 2.0f,
            VectorView<float>(sy.data(), n));
  EXPECT_EQ(y.to_host(), sy);
  EXPECT_TRUE(es.status().degraded());

  std::vector<float> tx(static_cast<std::size_t>(n), 0.0f);
  host::Event et = ctx.trmv_async<float>(Uplo::Upper, Transpose::Trans,
                                         Diag::NonUnit, n, a, x, 1);
  EXPECT_NO_THROW(et.wait());
  ref::gemv(Transpose::Trans, 1.0f, MatrixView<const float>(tri.data(), n, n),
            VectorView<const float>(hx.data(), n), 0.0f,
            VectorView<float>(tx.data(), n));
  EXPECT_EQ(x.to_host(), tx);
  EXPECT_TRUE(et.status().degraded());
}

TEST(FaultTolerance, CpuFallbackDegradesLevel3) {
  const std::int64_t m = 16, n = 12, k = 20;
  Workload wl(47);
  auto ha = wl.matrix<float>(m, k);
  auto hb = wl.matrix<float>(k, n);
  auto hc = wl.matrix<float>(m, n);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig faults;
  faults.seed = 5;
  faults.launch_fail_rate = 1.0;
  dev.inject_faults(faults);
  ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  a.write(ha);
  b.write(hb);
  c.write(hc);
  host::Event e = ctx.gemm_async<float>(Transpose::None, Transpose::None, m,
                                        n, k, 2.0f, a, b, 0.5f, c);
  EXPECT_NO_THROW(e.wait());

  ref::gemm(Transpose::None, Transpose::None, 2.0f,
            MatrixView<const float>(ha.data(), m, k),
            MatrixView<const float>(hb.data(), k, n), 0.5f,
            MatrixView<float>(hc.data(), m, n));
  EXPECT_EQ(c.to_host(), hc);
  EXPECT_TRUE(e.status().degraded());
}

TEST(FaultTolerance, ExhaustedRetriesWithoutFallbackFailTransactionally) {
  // No fallback: after retries the command fails — but its write-set was
  // rolled back, so the buffer still holds the pre-command bytes, and
  // Event::status() reports the failure without wait() being the only
  // channel.
  const std::int64_t n = 64;
  auto hx = Workload(48).vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig faults;
  faults.seed = 3;
  faults.corrupt_rate = 1.0;
  dev.inject_faults(faults);
  ctx.set_retry_policy(fast_retry(2));
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
  EXPECT_THROW(e.wait(), DeviceError);
  EXPECT_EQ(x.to_host(), hx);  // rolled back, not half-scaled or corrupted
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.failed());
  EXPECT_NE(st.message.find("injected transfer corruption"),
            std::string::npos);
  EXPECT_EQ(ctx.exec_stats().retries, 2u);
}

TEST(FaultTolerance, RetryPolicyCapturedAtEnqueue) {
  // A command keeps the retry policy it was enqueued under, like its
  // RoutineConfig and watchdog. On a serial context the command runs at
  // the wait, after the policy has changed; one injected launch failure
  // shows which policy it ran under.
  const std::int64_t n = 64;
  const auto run = [&](int enqueue_retries, int wait_retries) {
    host::Device dev;
    host::Context ctx(dev);
    host::FaultConfig faults;
    faults.seed = 4;
    faults.launch_fail_rate = 1.0;
    faults.max_faults = 1;
    dev.inject_faults(faults);
    auto hx = Workload(49).vector<float>(n);
    host::Buffer<float> x(dev, n, 0);
    x.write(hx);
    ctx.set_retry_policy(fast_retry(enqueue_retries));
    host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
    ctx.set_retry_policy(fast_retry(wait_retries));
    bool threw = false;
    try {
      e.wait();
    } catch (const DeviceError&) {
      threw = true;
    }
    if (!threw) {
      for (float& v : hx) v *= 2.0f;
    }
    EXPECT_EQ(x.to_host(), hx);
    return std::pair{threw, ctx.exec_stats().retries};
  };
  // Enqueued under three retries, waited on after the policy was cleared:
  // the failure is retried once and the command completes.
  EXPECT_EQ(run(3, 0), (std::pair{false, std::uint64_t{1}}));
  // Enqueued under no policy: a policy set before the wait does not apply.
  EXPECT_EQ(run(0, 3), (std::pair{true, std::uint64_t{0}}));
}

TEST(FaultTolerance, EightGemvOverlapSurvivesFivePercentLaunchFaults) {
  // Acceptance workload: 8 independent GEMVs on the 4-worker executor
  // with a 5% launch-failure rate complete bit-identically to a clean
  // run, with at least one retry actually exercised.
  const std::int64_t rows = 96, cols = 96;
  const int batch = 8;
  auto run = [&](std::uint64_t seed, bool with_faults) {
    host::Device dev;
    host::Context ctx(dev, stream::Mode::Cycle, 4);
    if (with_faults) {
      host::FaultConfig faults;
      faults.seed = seed;
      faults.launch_fail_rate = 0.05;
      dev.inject_faults(faults);
      ctx.set_retry_policy(fast_retry(4));
    }
    Workload wl(49);
    const auto ha = wl.matrix<float>(rows, cols);
    host::Buffer<float> a(dev, rows * cols, 0);
    a.write(ha);
    std::vector<host::Buffer<float>> xs, ys;
    for (int i = 0; i < batch; ++i) {
      xs.emplace_back(dev, cols, 1);
      ys.emplace_back(dev, rows, 2);
      xs.back().write(wl.vector<float>(cols));
      ys.back().write(std::vector<float>(rows, 0.0f));
    }
    for (int i = 0; i < batch; ++i) {
      ctx.gemv_async<float>(Transpose::None, rows, cols, 1.0f, a, xs[i], 1,
                            0.0f, ys[i], 1);
    }
    ctx.finish();
    std::vector<std::vector<float>> out;
    for (auto& y : ys) out.push_back(y.to_host());
    return std::make_pair(out, ctx.exec_stats());
  };

  const auto [clean, clean_stats] = run(0, false);
  // Seed chosen so that the 5% rate actually draws >= 1 fault across the
  // 8 launches (deterministic: decisions hash seed/seq/attempt).
  const auto [faulty, faulty_stats] = run(4, true);
  EXPECT_EQ(clean, faulty);
  EXPECT_GT(faulty_stats.retries, 0u);
  EXPECT_GT(faulty_stats.faults_injected, 0u);
  EXPECT_EQ(faulty_stats.degraded, 0u);
  EXPECT_EQ(clean_stats.retries, 0u);
}

}  // namespace
}  // namespace fblas
