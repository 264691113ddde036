// Unit tests for the streaming runtime: channels, scheduler modes,
// deadlock detection, DRAM bank metering, tile walker, streamers.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/workload.hpp"
#include "fblas/batched.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "host/detail.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::stream {
namespace {

// A trivial pass-through module used by several tests.
template <typename T>
Task passthrough(std::int64_t n, int width, Channel<T>& in, Channel<T>& out) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) {
      T v = co_await in.pop();
      co_await out.push(std::move(v));
    }
    idx += batch;
    co_await next_cycle();
  }
}

TEST(Channel, FifoOrderAndStats) {
  Graph g;
  auto& ch = g.channel<int>("c", 4);
  const int one = 1, two = 2;
  EXPECT_EQ(ch.put_some(&one, 1), 1u);
  EXPECT_EQ(ch.put_some(&two, 1), 1u);
  int v = 0;
  EXPECT_EQ(ch.take_some(&v, 1), 1u);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.take_some(&v, 1), 1u);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.take_some(&v, 1), 0u);
  EXPECT_EQ(ch.total_pushed(), 2u);
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_EQ(ch.peak_occupancy(), 2u);

  // The same traffic as batches and as one value at a time: identical
  // order, totals and peak.
  const std::vector<int> src{10, 11, 12, 13, 14, 15, 16};
  Graph gb, g1;
  auto& batch = gb.channel<int>("b", 5);
  auto& single = g1.channel<int>("s", 5);
  std::vector<int> got_batch(src.size()), got_single(src.size());
  EXPECT_EQ(batch.put_some(src.data(), 3), 3u);
  EXPECT_EQ(batch.take_some(got_batch.data(), 2), 2u);
  EXPECT_EQ(batch.put_some(src.data() + 3, 4), 4u);
  EXPECT_EQ(batch.take_some(got_batch.data() + 2, 9), 5u);
  for (std::size_t i = 0; i < 3; ++i) single.put_some(&src[i], 1);
  for (std::size_t i = 0; i < 2; ++i) single.take_some(&got_single[i], 1);
  for (std::size_t i = 3; i < 7; ++i) single.put_some(&src[i], 1);
  for (std::size_t i = 2; i < 7; ++i) single.take_some(&got_single[i], 1);
  EXPECT_EQ(got_batch, src);
  EXPECT_EQ(got_single, src);
  EXPECT_EQ(batch.total_pushed(), single.total_pushed());
  EXPECT_EQ(batch.total_popped(), single.total_popped());
  EXPECT_EQ(batch.peak_occupancy(), single.peak_occupancy());
  EXPECT_EQ(batch.peak_occupancy(), 5u);
}

TEST(Channel, CapacityIsBounded) {
  for (const std::size_t cap : {2u, 3u, 767u}) {
    SCOPED_TRACE(cap);
    Graph g;
    auto& ch = g.channel<int>("c", cap);
    std::vector<int> src(cap + 5);
    std::iota(src.begin(), src.end(), 1);
    // A batch larger than the free space moves only what fits.
    EXPECT_EQ(ch.put_some(src.data(), cap - 1), cap - 1);
    EXPECT_EQ(ch.put_some(src.data(), src.size()), 1u);
    EXPECT_EQ(ch.put_some(src.data(), 1), 0u);
    EXPECT_TRUE(ch.full());
    EXPECT_EQ(ch.space(), 0u);
    EXPECT_EQ(ch.size(), cap);
    EXPECT_EQ(ch.peak_occupancy(), cap);
  }
}

TEST(Channel, RingWrapAround) {
  // Non-power-of-two capacities live in a power-of-two ring; partial
  // batches walk the head and tail across the mask boundary.
  for (const std::size_t cap : {3u, 767u}) {
    SCOPED_TRACE(cap);
    Graph g;
    auto& ch = g.channel<int>("c", cap);
    int v;
    for (int round = 0; round < 10; ++round) {
      EXPECT_EQ(ch.put_some(&round, 1), 1u);
      EXPECT_EQ(ch.take_some(&v, 1), 1u);
      EXPECT_EQ(v, round);
    }
    std::vector<int> src(2 * cap + 7);
    std::iota(src.begin(), src.end(), 100);
    std::vector<int> got;
    std::vector<int> dst(cap);
    std::size_t sent = 0;
    const std::size_t step = cap / 2 + 1;
    while (got.size() < src.size()) {
      sent += ch.put_some(src.data() + sent,
                          std::min(step, src.size() - sent));
      const std::size_t n = ch.take_some(dst.data(), step - 1 + (sent & 1));
      got.insert(got.end(), dst.begin(),
                 dst.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_LE(ch.size(), cap);
    }
    EXPECT_EQ(got, src);
    EXPECT_TRUE(ch.empty());
  }
}

TEST(Channel, RejectsZeroCapacity) {
  Graph g;
  EXPECT_THROW(g.channel<int>("bad", 0), ConfigError);
}

TEST(Graph, RunResetsPreRunChannelStats) {
  // Regression: host-side traffic staged through a channel *before* the
  // run (pre-loads, test setup) used to leak into the run's statistics —
  // an inflated peak that made backpressure readings meaningless. run()
  // now resets per-run stats at entry.
  Graph g;
  auto& ch = g.channel<float>("c", 8);
  float v = 0;
  const std::vector<float> burst{0, 1, 2, 3, 4};
  ASSERT_EQ(ch.put_some(burst.data(), 5), 5u);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(ch.take_some(&v, 1), 1u);
  ASSERT_EQ(ch.peak_occupancy(), 5u);  // the pre-run burst
  std::vector<float> in{1, 2}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(2, ch, out));
  g.run();
  EXPECT_EQ(out, in);
  // Fresh per-run stats: the 5-deep pre-run burst must not survive.
  EXPECT_EQ(ch.total_pushed(), 2u);
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_LE(ch.peak_occupancy(), 2u);
}

TEST(Graph, RunPeakRestartsAtBufferedFill) {
  // Values pre-loaded and NOT drained genuinely occupy the FIFO when the
  // run starts: peak restarts at the current fill, not at zero.
  Graph g;
  auto& ch = g.channel<int>("c", 8);
  const int preload[] = {41, 42};
  ASSERT_EQ(ch.put_some(preload, 2), 2u);
  std::vector<int> out;
  g.spawn("collect", collect<int>(2, ch, out));
  g.run();
  EXPECT_EQ(out, (std::vector<int>{41, 42}));
  EXPECT_EQ(ch.total_pushed(), 0u);  // pre-run pushes are not run traffic
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_EQ(ch.peak_occupancy(), 2u);
}

TEST(Scheduler, OccupancyTraceThrowsWhenNeverEnabled) {
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  // Regression: this used to silently index an empty sample table (UB on
  // some inputs, silent empties on others). Now it names the misuse.
  try {
    g.scheduler().occupancy_trace(0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("never enabled"), std::string::npos);
  }
}

TEST(Scheduler, OccupancyTraceThrowsOnBadChannelIndex) {
  Graph g(Mode::Cycle);
  g.scheduler().enable_occupancy_trace();
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  EXPECT_NO_THROW(g.scheduler().occupancy_trace(0));
  try {
    g.scheduler().occupancy_trace(7);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Scheduler, OccupancyTraceEmptyInFunctionalMode) {
  // Enabled but the clock never advances (functional mode): defined-empty
  // samples, not a throw and not an out-of-bounds read.
  Graph g;  // Mode::Functional
  g.scheduler().enable_occupancy_trace();
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  EXPECT_TRUE(g.scheduler().occupancy_trace(0).empty());
}

TEST(Scheduler, StallAccountingCountsBlockedModules) {
  // A wide producer forced through a capacity-1 channel spends cycles
  // blocked pushing; both the per-channel stall events and the graph's
  // blocked-module-cycle total must see it.
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c", 1);
  std::vector<float> out;
  g.spawn("gen", generate<float>(256, 1.0f, 8, ch));
  g.spawn("collect", collect<float>(256, ch, out));
  g.run();
  EXPECT_EQ(out.size(), 256u);
  EXPECT_GT(ch.stall_events(), 0u);
  EXPECT_GT(g.scheduler().stall_module_cycles(), 0u);
}

// A generate -> sink graph in cycle mode and the resumes and cycles it
// needs, for the watchdog budget boundaries.
struct BudgetGraph {
  Graph g{Mode::Cycle};
  BudgetGraph() {
    auto& ch = g.channel<float>("c", 4);
    g.spawn("gen", generate<float>(64, 1.0f, 4, ch));
    g.spawn("sink", sink<float>(64, 4, ch));
  }
  std::uint64_t resumes() {
    const Scheduler& s = g.scheduler();
    return s.module_resumes(0) + s.module_resumes(1);
  }
};

TEST(Watchdog, StepBudgetAdmitsExactlyItsResumes) {
  BudgetGraph probe;
  probe.g.run();
  const std::uint64_t need = probe.resumes();
  ASSERT_GT(need, 1u);
  BudgetGraph exact;
  EXPECT_NO_THROW(exact.g.run(Watchdog{.max_steps = need}));
  EXPECT_EQ(exact.resumes(), need);
  BudgetGraph short_one;
  EXPECT_THROW(short_one.g.run(Watchdog{.max_steps = need - 1}), TimeoutError);
  EXPECT_EQ(short_one.resumes(), need - 1);
}

TEST(Watchdog, CycleBudgetAdmitsExactlyItsCycles) {
  BudgetGraph probe;
  probe.g.run();
  const std::uint64_t need = probe.g.cycles();
  ASSERT_GT(need, 1u);
  BudgetGraph exact;
  EXPECT_NO_THROW(exact.g.run(Watchdog{.max_cycles = need}));
  BudgetGraph short_one;
  EXPECT_THROW(short_one.g.run(Watchdog{.max_cycles = need - 1}),
               TimeoutError);
}

TEST(Graph, FeedCollectRoundTrip) {
  Graph g;
  auto& ch = g.channel<float>("c", 8);
  std::vector<float> in{1, 2, 3, 4, 5}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(5, ch, out));
  g.run();
  EXPECT_EQ(out, in);
}

TEST(Graph, BackpressureThroughTinyChannel) {
  // 1000 elements through a capacity-1 channel must still complete.
  Graph g;
  auto& a = g.channel<int>("a", 1);
  auto& b = g.channel<int>("b", 1);
  std::vector<int> in(1000), out;
  std::iota(in.begin(), in.end(), 0);
  g.spawn("feed", feed(in, a));
  g.spawn("pass", passthrough<int>(1000, 4, a, b));
  g.spawn("collect", collect<int>(1000, b, out));
  g.run();
  EXPECT_EQ(out, in);
}

TEST(Graph, DeadlockDetectedWhenConsumerWantsTooMuch) {
  Graph g;
  auto& ch = g.channel<int>("c", 4);
  std::vector<int> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<int>(5, ch, out));  // wants 5, only 3 produced
  try {
    g.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collect"), std::string::npos);
    EXPECT_NE(msg.find("'c'"), std::string::npos);
  }
}

TEST(Graph, DeadlockDetectedWhenChannelTooSmallForCycle) {
  // A module that needs to push all n before popping any: requires
  // capacity >= n on its loopback, else stalls — the paper's channel
  // sizing rule for non-multitree MDAGs.
  struct Maker {
    static Task loop_module(std::int64_t n, Channel<int>& loop) {
      for (int i = 0; i < n; ++i) co_await loop.push(i);
      for (int i = 0; i < n; ++i) (void)co_await loop.pop();
    }
  };
  {
    Graph g;
    auto& loop = g.channel<int>("loop", 4);
    g.spawn("m", Maker::loop_module(8, loop));
    EXPECT_THROW(g.run(), DeadlockError);
  }
  {
    Graph g;
    auto& loop = g.channel<int>("loop", 8);  // properly sized
    g.spawn("m", Maker::loop_module(8, loop));
    EXPECT_NO_THROW(g.run());
  }
}

TEST(Graph, ModuleExceptionPropagates) {
  struct Maker {
    static Task thrower(Channel<int>& ch) {
      (void)co_await ch.pop();
      throw std::logic_error("module blew up");
    }
  };
  Graph g;
  auto& ch = g.channel<int>("c", 2);
  std::vector<int> in{1};
  g.spawn("feed", feed(in, ch));
  g.spawn("boom", Maker::thrower(ch));
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST(CycleMode, CountsCyclesForWidthBatches) {
  // 64 elements at W=8: producer emits one batch per cycle => ~8 cycles.
  Graph g(Mode::Cycle);
  auto& a = g.channel<float>("a", 16);
  std::vector<float> out;
  g.spawn("gen", generate<float>(64, 1.0f, 8, a));
  g.spawn("sink", collect<float>(64, a, out));
  g.run();
  EXPECT_EQ(out.size(), 64u);
  EXPECT_GE(g.cycles(), 8u);
  EXPECT_LE(g.cycles(), 12u);  // small scheduling slack allowed
}

TEST(CycleMode, WiderIsProportionallyFaster) {
  auto run_width = [](int w) {
    Graph g(Mode::Cycle);
    auto& a = g.channel<float>("a", 512);
    auto& b = g.channel<float>("b", 512);
    g.spawn("gen", generate<float>(4096, 1.0f, w, a));
    g.spawn("pass", passthrough<float>(4096, w, a, b));
    g.spawn("sink", sink<float>(4096, w, b));
    g.run();
    return g.cycles();
  };
  const auto c16 = run_width(16);
  const auto c64 = run_width(64);
  EXPECT_NEAR(static_cast<double>(c16) / static_cast<double>(c64), 4.0, 0.5);
}

TEST(DramBank, MetersBandwidthInCycleMode) {
  // Bank allows 32 bytes/cycle = 8 floats; reader wants W=16 floats/cycle,
  // so it should take ~twice as long as unmetered.
  std::vector<float> data(1024, 2.0f);
  auto run = [&](bool metered) {
    Graph g(Mode::Cycle);
    auto& ch = g.channel<float>("x", 64);
    DramBank* bank = metered ? &g.bank("ddr", 32.0) : nullptr;
    g.spawn("read", read_vector<float>(
                        VectorView<const float>(data.data(), 1024), 1, 16, ch,
                        bank));
    g.spawn("sink", sink<float>(1024, 16, ch));
    g.run();
    return g.cycles();
  };
  const auto fast = run(false);
  const auto slow = run(true);
  EXPECT_NEAR(static_cast<double>(slow) / static_cast<double>(fast), 2.0, 0.4);
}

TEST(DramBank, SharedBudgetCausesContention) {
  // Two readers on one bank each get half the bandwidth.
  std::vector<float> data(1024, 1.0f);
  auto run = [&](int nreaders) {
    Graph g(Mode::Cycle);
    auto& bank = g.bank("ddr", 64.0);  // 16 floats/cycle total
    std::vector<Channel<float>*> chans;
    for (int r = 0; r < nreaders; ++r) {
      auto& ch = g.channel<float>("x" + std::to_string(r), 64);
      chans.push_back(&ch);
      g.spawn("read" + std::to_string(r),
              read_vector<float>(VectorView<const float>(data.data(), 1024),
                                 1, 16, ch, &bank));
      g.spawn("sink" + std::to_string(r), sink<float>(1024, 16, ch));
    }
    g.run();
    return g.cycles();
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_NEAR(static_cast<double>(two) / static_cast<double>(one), 2.0, 0.4);
}

TEST(DramBank, UploWriterChargesEveryKeptElement) {
  // The triangular store SYRK/SYR2K use: on a bank narrower than the
  // stream, every kept element waits for its grant and is charged to the
  // bank, so the store takes at least kept * sizeof(T) / bandwidth cycles.
  const std::int64_t n = 16;
  const double bytes_per_cycle = 4.0;
  const TileSchedule sched{Order::RowMajor, Order::RowMajor, 4, 4};
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    SCOPED_TRACE(uplo == Uplo::Lower ? "lower" : "upper");
    std::vector<float> src(static_cast<std::size_t>(n * n));
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<float>(i + 1);
    }
    std::vector<float> dst(src.size(), 0.0f);
    Graph g(Mode::Cycle);
    auto& ch = g.channel<float>("C", 64);
    auto& bank = g.bank("ddr", bytes_per_cycle);
    g.spawn("feed", feed<float>(src, ch));
    g.spawn("store", write_matrix_uplo<float>(
                         MatrixView<float>(dst.data(), n, n), sched, uplo, 4,
                         ch, &bank));
    g.run();
    const std::uint64_t kept = static_cast<std::uint64_t>(n * (n + 1) / 2);
    EXPECT_EQ(bank.total_bytes(), kept * sizeof(float));
    EXPECT_GE(static_cast<double>(g.cycles()),
              static_cast<double>(kept * sizeof(float)) / bytes_per_cycle);
    // Exactly the `uplo` triangle was stored, each element from its slot
    // in the tile-ordered stream.
    TileWalker walk(n, n, sched);
    for (std::size_t k = 0; k < src.size(); ++k) {
      std::int64_t i = 0, j = 0;
      walk.next(i, j);
      const bool keep = uplo == Uplo::Lower ? j <= i : j >= i;
      EXPECT_EQ(dst[static_cast<std::size_t>(i * n + j)], keep ? src[k] : 0.0f)
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(DramBank, FunctionalModeUnmetered) {
  Graph g(Mode::Functional);
  auto& bank = g.bank("ddr", 1.0);  // 1 byte/cycle would be glacial
  EXPECT_EQ(bank.grant_elems(100, 8), 100);
  EXPECT_EQ(bank.total_bytes(), 800u);
}

TEST(CycleMode, ModuleResumeStatistics) {
  // In cycle mode a balanced producer/consumer pair is scheduled about
  // once per cycle — the utilization diagnostic the scheduler exposes.
  Graph g(Mode::Cycle);
  auto& a = g.channel<float>("a", 32);
  std::vector<float> out;
  const int gen_id = g.spawn("gen", generate<float>(1024, 1.0f, 16, a));
  const int col_id = g.spawn("collect", collect<float>(1024, a, out));
  g.run();
  const auto cycles = g.cycles();
  EXPECT_GE(g.scheduler().module_resumes(gen_id), cycles - 2);
  EXPECT_GE(g.scheduler().module_resumes(col_id), 1u);
}

TEST(CycleMode, OccupancyTraceRecordsBackpressure) {
  // A fast producer against a slow consumer fills the channel; the trace
  // shows the fill level saturating at the capacity.
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("hot", 16);
  std::vector<float> out;
  g.scheduler().enable_occupancy_trace();
  g.spawn("gen", generate<float>(512, 1.0f, 32, ch));   // 32/cycle offered
  g.spawn("slow", collect<float>(512, ch, out));        // unbounded pops but
  g.run();                                              // capacity limits
  ASSERT_EQ(g.scheduler().channel_count(), 1u);
  const auto& trace = g.scheduler().occupancy_trace(0);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.size(), g.cycles());
  std::uint32_t peak = 0;
  for (const auto v : trace) peak = std::max(peak, v);
  EXPECT_LE(peak, 16u);
}

// ---- Pinned schedules -----------------------------------------------------
//
// Cycle-mode AXPY, DOT, SCAL, COPY, SWAP, ROT, the four GEMV variants, GER,
// SYR2 (with an upper-triangle store), GEMM with beta != 0 and beta == 0
// and SYR2K (GEMM panel readers, lower-triangle store), TRSV and TRSM
// (triangular and solve-order row readers and writer), batched TRSM (its
// triangle reader) and fanout2, with x and y sharing one narrow bank (5
// floats per cycle for two W=4 readers) and every channel at capacity 3,
// 64 or 767. The bulk movers get graphs of their own: a strided x read
// replayed 3 times, zero-length vectors replayed twice, generate into
// sink, a store by ragged column-major tiles, and batched GEMM, whose
// 9-element problems meet banks of 5 and 6 floats per cycle. For each graph and capacity the record holds: cycles and
// stall module-cycles; every channel's peak, stall events and tap
// sum/magnitude bits; every module's resumes; every bank's bytes; for
// corrupt_push(k), k = 1..40, the victim channel and the first output
// index that changed; the Taint record of a NaN at x[6] (mid-batch), and
// how many x values a trapping run enqueued before it.
// Any change to how values move through channels — batch sizes, wake
// order, per-value instrumentation — shows up here. A mismatch prints the
// observed record.

constexpr int kPinW = 4;
constexpr std::int64_t kPinN = 37;
constexpr std::int64_t kPinRows = 10, kPinCols = 9;

struct PinData {
  std::vector<float> x, y, a, tri;
};

PinData pin_data(bool nan_in_x) {
  Workload wl(41);
  PinData d{wl.vector<float>(kPinN), wl.vector<float>(kPinN),
            wl.matrix<float>(kPinRows, kPinCols), {}};
  d.tri = wl.triangular<float>(kPinCols, Uplo::Lower, Diag::NonUnit);
  if (nan_in_x) d.x[6] = std::numeric_limits<float>::quiet_NaN();
  return d;
}

core::GemvConfig pin_gemv(Transpose trans, core::MatrixTiling tiling,
                          Order elems) {
  return {trans, tiling, kPinW, 4, 4, elems};
}

/// Builds graph `kind` into `g`; its outputs land in `out`. Returns the
/// x/y bank and the bank of A and the outputs.
std::pair<DramBank*, DramBank*> build_pinned(const std::string& kind, Graph& g, std::size_t cap,
                  const PinData& d, std::vector<float>& out) {
  DramBank& xy = g.bank("xy", 20.0);
  DramBank& mem = g.bank("mem", 24.0);
  auto vec = [](const std::vector<float>& v, std::int64_t n) {
    return VectorView<const float>(v.data(), n);
  };
  auto& cx = g.channel<float>("x", cap);
  auto& cout = g.channel<float>("out", cap);
  const core::Level1Config l1{kPinW};
  if (kind == "axpy" || kind == "dot" || kind == "sdsdot") {
    auto& cy = g.channel<float>("y", cap);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, kPinN), 1, kPinW, cy, &xy));
    const std::int64_t len = kind == "axpy" ? kPinN : 1;
    out.assign(static_cast<std::size_t>(len), 0.0f);
    if (kind == "axpy") {
      g.spawn("axpy", core::axpy<float>(l1, kPinN, 1.5f, cx, cy, cout));
    } else if (kind == "dot") {
      g.spawn("dot", core::dot<float>(l1, kPinN, cx, cy, cout));
    } else {
      g.spawn("sdsdot", core::sdsdot(l1, kPinN, 0.5f, cx, cy, cout));
    }
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), len), 1,
                                         kPinW, cout, &mem));
  } else if (kind == "scal") {
    out.assign(static_cast<std::size_t>(kPinN), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("scal", core::scal<float>(l1, kPinN, -0.75f, cx, cout));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), kPinN),
                                         1, kPinW, cout, &mem));
  } else if (kind.starts_with("gemv")) {
    const bool trans = kind.starts_with("gemv_t");
    const bool rows = kind.ends_with("rows");
    const core::GemvConfig cfg = pin_gemv(
        trans ? Transpose::Trans : Transpose::None,
        rows ? core::MatrixTiling::TilesByRows : core::MatrixTiling::TilesByCols,
        trans == rows ? Order::ColMajor : Order::RowMajor);
    const std::int64_t xlen = trans ? kPinRows : kPinCols;
    const std::int64_t ylen = trans ? kPinCols : kPinRows;
    auto& ca = g.channel<float>("A", cap);
    auto& cy = g.channel<float>("y", cap);
    out.assign(static_cast<std::size_t>(ylen), 0.0f);
    g.spawn("read_A",
            read_matrix<float>(
                MatrixView<const float>(d.a.data(), kPinRows, kPinCols),
                core::gemv_a_schedule(cfg), 1, kPinW, ca, &mem));
    g.spawn("read_x",
            read_vector<float>(vec(d.x, xlen),
                               core::gemv_x_repeat(cfg, kPinRows, kPinCols),
                               kPinW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, ylen), 1, kPinW, cy, &xy));
    g.spawn("gemv", core::gemv<float>(cfg, kPinRows, kPinCols, 1.25f, 0.5f, ca,
                                      cx, cy, cout));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), ylen),
                                         1, kPinW, cout, &mem));
  } else if (kind == "ger") {
    const core::GerConfig cfg{core::MatrixTiling::TilesByRows, kPinW, 4, 4,
                              Order::RowMajor};
    const TileSchedule sched = core::ger_a_schedule(cfg);
    auto& ca = g.channel<float>("A", cap);
    auto& cy = g.channel<float>("y", cap);
    out.assign(static_cast<std::size_t>(kPinRows * kPinCols), 0.0f);
    g.spawn("read_A",
            read_matrix<float>(
                MatrixView<const float>(d.a.data(), kPinRows, kPinCols), sched,
                1, kPinW, ca, &mem));
    g.spawn("read_x",
            read_vector<float>(vec(d.x, kPinRows),
                               core::ger_x_repeat(cfg, kPinRows, kPinCols),
                               kPinW, cx, &xy));
    g.spawn("read_y",
            read_vector<float>(vec(d.y, kPinCols),
                               core::ger_y_repeat(cfg, kPinRows, kPinCols),
                               kPinW, cy, &xy));
    g.spawn("ger", core::ger<float>(cfg, kPinRows, kPinCols, 0.5f, ca, cx, cy,
                                    cout));
    g.spawn("write",
            write_matrix<float>(MatrixView<float>(out.data(), kPinRows, kPinCols),
                                sched, kPinW, cout, &mem));
  } else if (kind == "copy") {
    out.assign(static_cast<std::size_t>(kPinN), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("copy", core::copy<float>(l1, kPinN, cx, cout));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), kPinN),
                                         1, kPinW, cout, &mem));
  } else if (kind == "swap" || kind == "rot") {
    auto& cy = g.channel<float>("y", cap);
    auto& coy = g.channel<float>("out_y", cap);
    out.assign(static_cast<std::size_t>(2 * kPinN), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, kPinN), 1, kPinW, cy, &xy));
    if (kind == "swap") {
      g.spawn("swap", core::swap<float>(l1, kPinN, cx, cy, cout, coy));
    } else {
      g.spawn("rot",
              core::rot<float>(l1, kPinN, 0.6f, 0.8f, cx, cy, cout, coy));
    }
    g.spawn("write_x", write_vector<float>(
                           VectorView<float>(out.data(), kPinN), 1, kPinW,
                           cout, &mem));
    g.spawn("write_y", write_vector<float>(
                           VectorView<float>(out.data() + kPinN, kPinN), 1,
                           kPinW, coy, &xy));
  } else if (kind == "syr2") {
    const std::int64_t n = kPinCols;
    const core::GerConfig cfg{core::MatrixTiling::TilesByCols, kPinW, 4, 4,
                              Order::ColMajor};
    const TileSchedule sched = core::ger_a_schedule(cfg);
    const std::int64_t row_rep = core::ger_x_repeat(cfg, n, n);
    const std::int64_t col_rep = core::ger_y_repeat(cfg, n, n);
    auto& cxc = g.channel<float>("x_col", cap);
    auto& cyr = g.channel<float>("y_row", cap);
    auto& cyc = g.channel<float>("y_col", cap);
    auto& ca = g.channel<float>("A", cap);
    out.assign(static_cast<std::size_t>(n * n), 0.0f);
    g.spawn("read_A", read_matrix<float>(
                          MatrixView<const float>(d.a.data(), n, n), sched, 1,
                          kPinW, ca, &mem));
    g.spawn("read_x_row",
            read_vector<float>(vec(d.x, n), row_rep, kPinW, cx, &xy));
    g.spawn("read_x_col",
            read_vector<float>(vec(d.x, n), col_rep, kPinW, cxc, &xy));
    g.spawn("read_y_row",
            read_vector<float>(vec(d.y, n), row_rep, kPinW, cyr, &xy));
    g.spawn("read_y_col",
            read_vector<float>(vec(d.y, n), col_rep, kPinW, cyc, &xy));
    g.spawn("syr2", core::syr2<float>(cfg, n, -0.25f, ca, cx, cxc, cyr, cyc,
                                      cout));
    g.spawn("write", write_matrix_uplo<float>(
                         MatrixView<float>(out.data(), n, n), sched,
                         Uplo::Upper, kPinW, cout, &mem));
  } else if (kind == "gemm" || kind == "gemm_b0") {
    // C (5 x 7) = 1.5 op(A) B + beta C, op(A) from x, B from A's data, C
    // from y; beta == 0 streams A transposed and never reads C.
    const std::int64_t m = 5, n = 7, k = 6;
    const bool b0 = kind == "gemm_b0";
    const Transpose ta = b0 ? Transpose::Trans : Transpose::None;
    const core::GemmConfig cfg{2, 2, 4, 4};
    const TileSchedule c_sched = core::gemm_c_schedule(cfg);
    auto& cb = g.channel<float>("B", cap);
    auto& cc = g.channel<float>("Cin", cap);
    out.assign(static_cast<std::size_t>(m * n), 0.0f);
    g.spawn("read_A", core::read_a_gemm<float>(
                          MatrixView<const float>(d.x.data(), b0 ? k : m,
                                                  b0 ? m : k),
                          cfg, n, cx, &xy, ta));
    g.spawn("read_B", core::read_b_gemm<float>(
                          MatrixView<const float>(d.a.data(), k, n), cfg, m,
                          cb, &xy));
    if (!b0) {
      g.spawn("read_C", read_matrix<float>(
                            MatrixView<const float>(d.y.data(), m, n), c_sched,
                            1, cfg.pe_cols, cc, &mem));
    }
    g.spawn("gemm", core::gemm<float>(cfg, m, n, k, 1.5f, b0 ? 0.0f : 0.5f,
                                      cx, cb, cc, cout));
    g.spawn("store_C",
            write_matrix<float>(MatrixView<float>(out.data(), m, n), c_sched,
                                cfg.pe_cols, cout, &mem));
  } else if (kind == "syr2k") {
    // C (7 x 7, lower) = -1 (A B^T + B A^T) + 0.5 C, A from x, B from y.
    const std::int64_t n = 7, k = 5;
    const core::GemmConfig cfg{2, 2, 4, 4};
    const TileSchedule c_sched = core::gemm_c_schedule(cfg);
    const MatrixView<const float> a(d.x.data(), n, k), b(d.y.data(), n, k);
    auto& cbc = g.channel<float>("Bcol", cap);
    auto& cat = g.channel<float>("Atrow", cap);
    auto& cbt = g.channel<float>("Btrow", cap);
    auto& cc = g.channel<float>("Cin", cap);
    out.assign(static_cast<std::size_t>(n * n), 0.0f);
    g.spawn("read_A", core::read_a_gemm<float>(a, cfg, n, cx, &xy));
    g.spawn("read_B", core::read_a_gemm<float>(b, cfg, n, cbc, &xy));
    g.spawn("read_At", core::read_b_gemm<float>(a, cfg, n, cat, &xy,
                                                Transpose::Trans));
    g.spawn("read_Bt", core::read_b_gemm<float>(b, cfg, n, cbt, &xy,
                                                Transpose::Trans));
    g.spawn("read_C", read_matrix<float>(
                          MatrixView<const float>(d.a.data(), n, n), c_sched,
                          1, cfg.pe_cols, cc, &mem));
    g.spawn("syr2k", core::syr2k<float>(cfg, n, k, -1.0f, 0.5f, cx, cbc, cat,
                                        cbt, cc, cout));
    g.spawn("store_C", write_matrix_uplo<float>(
                           MatrixView<float>(out.data(), n, n), c_sched,
                           Uplo::Lower, cfg.pe_cols, cout, &mem));
  } else if (kind == "trsv") {
    // A^T x = b with the stored lower triangle: an upper solve, its rows
    // read transposed and in reverse.
    const std::int64_t n = kPinCols;
    auto& ca = g.channel<float>("A", cap);
    out.assign(static_cast<std::size_t>(n), 0.0f);
    g.spawn("read_A", core::read_triangular<float>(
                          MatrixView<const float>(d.tri.data(), n, n),
                          Uplo::Upper, kPinW, ca, &mem, Transpose::Trans));
    g.spawn("read_b", host::detail::read_rows_solve_order<float>(
                          host::detail::as_column(vec(d.x, n)), Uplo::Upper,
                          kPinW, cx, &xy));
    g.spawn("trsv", core::trsv<float>({Uplo::Upper, Diag::NonUnit, kPinW}, n,
                                      ca, cx, cout));
    g.spawn("write_x", host::detail::write_rows_solve_order<float>(
                           host::detail::as_column(
                               VectorView<float>(out.data(), n)),
                           Uplo::Upper, kPinW, cout, &mem));
  } else if (kind == "trsm") {
    // A X = 2 B, A the leading 6 x 6 lower triangle, B (6 x 5) from x.
    const std::int64_t m = 6, n = 5;
    auto& ca = g.channel<float>("A", cap);
    out.assign(static_cast<std::size_t>(m * n), 0.0f);
    g.spawn("read_A", core::read_triangular<float>(
                          MatrixView<const float>(d.tri.data(), m, m, kPinCols),
                          Uplo::Lower, kPinW, ca, &mem));
    g.spawn("read_B", host::detail::read_rows_solve_order<float>(
                          MatrixView<const float>(d.x.data(), m, n),
                          Uplo::Lower, kPinW, cx, &xy));
    g.spawn("trsm", core::trsm<float>({Uplo::Lower, Diag::NonUnit, kPinW}, m,
                                      n, 2.0f, ca, cx, cout));
    g.spawn("write_X", host::detail::write_rows_solve_order<float>(
                           MatrixView<float>(out.data(), m, n), Uplo::Lower,
                           kPinW, cout, &mem));
  } else if (kind == "trsm_batched") {
    // Three 3 x 3 problems: lower triangles from A's data, B from x.
    const std::int64_t s = 3, batch = 3;
    auto& ca = g.channel<float>("A", cap);
    out.assign(static_cast<std::size_t>(batch * s * s), 0.0f);
    g.spawn("read_A", core::read_batched_triangles<float>(d.a.data(), s,
                                                          batch, ca, &mem));
    g.spawn("read_B", core::read_batched<float>(d.x.data(), s * s, batch, cx,
                                                &xy));
    g.spawn("trsm_batched", core::trsm_batched_unrolled<float>(
                                {s}, batch, 1.0f, ca, cx, cout));
    g.spawn("store_X", core::write_batched<float>(out.data(), s * s, batch,
                                                  cout, &mem));
  } else if (kind == "read_strided") {
    // Every third x (11 of them, not a multiple of W) replayed 3 times;
    // the writer's 3 passes overwrite, so the last persists.
    const std::int64_t n = 11;
    out.assign(static_cast<std::size_t>(n), 0.0f);
    g.spawn("read_x", read_vector<float>(
                          VectorView<const float>(d.x.data(), n, 3), 3,
                          kPinW, cx, &xy));
    g.spawn("copy", core::copy<float>(l1, 3 * n, cx, cout));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), n), 3,
                                         kPinW, cout, &mem));
  } else if (kind == "empty_vectors") {
    // Zero-length readers and writers replayed twice beside one copy.
    auto& cy = g.channel<float>("y", cap);
    out.assign(static_cast<std::size_t>(kPinN), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, 0), 2, kPinW, cy, &xy));
    g.spawn("write_y", write_vector<float>(VectorView<float>(out.data(), 0),
                                           2, kPinW, cy, &mem));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), kPinN),
                                         1, kPinW, cx, &mem));
  } else if (kind == "generate_sink") {
    // x[6]'s value, W per cycle, drained 3 per cycle: the poisoned runs
    // generate NaN.
    g.spawn("gen", generate<float>(kPinN, d.x[6], kPinW, cx));
    g.spawn("sink", sink<float>(kPinN, 3, cx));
  } else if (kind == "write_matrix_cm") {
    // 35 x values stored into 7 x 5 by column-major 4 x 4 tiles, column-
    // major within each: ragged in both directions.
    const std::int64_t m = 7, n = 5;
    const TileSchedule sched{Order::ColMajor, Order::ColMajor, 4, 4};
    out.assign(static_cast<std::size_t>(m * n), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, m * n), 1, kPinW, cx, &xy));
    g.spawn("write", write_matrix<float>(MatrixView<float>(out.data(), m, n),
                                         sched, kPinW, cx, &mem));
  } else if (kind == "gemm_batched") {
    // Four 3 x 3 problems, A from x and B from A's data; 9 elements per
    // problem against banks of 5 and 6 floats per cycle.
    const std::int64_t s = 3, batch = 4;
    auto& cb = g.channel<float>("B", cap);
    out.assign(static_cast<std::size_t>(batch * s * s), 0.0f);
    g.spawn("read_A", core::read_batched<float>(d.x.data(), s * s, batch, cx,
                                                &xy));
    g.spawn("read_B", core::read_batched<float>(d.a.data(), s * s, batch, cb,
                                                &mem));
    g.spawn("gemm_batched", core::gemm_batched_unrolled<float>(
                                {s}, batch, 0.5f, cx, cb, cout));
    g.spawn("store_C", core::write_batched<float>(out.data(), s * s, batch,
                                                  cout, &mem));
  } else {  // fanout2
    auto& cb = g.channel<float>("b", cap);
    out.assign(static_cast<std::size_t>(2 * kPinN), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, kPinN), 1, kPinW, cx, &xy));
    g.spawn("fanout", fanout2<float>(kPinN, kPinW, cx, cout, cb));
    g.spawn("write_a", write_vector<float>(
                           VectorView<float>(out.data(), kPinN), 1, kPinW,
                           cout, &mem));
    g.spawn("write_b", write_vector<float>(
                           VectorView<float>(out.data() + kPinN, kPinN), 1,
                           kPinW, cb, &xy));
  }
  return {&xy, &mem};
}

// Long steady states: the same routines at n = 4,096 (GEMV and GER at
// 64 x 64 in 32 x 32 tiles), W = 16, on banks wide enough never to
// throttle (256 bytes per cycle each), so most of each run repeats one
// step per cycle. `long_axpy_bank` reads x from a 50-byte bank: its
// grants alternate 12 and 13 floats, a pattern of period 2. The poisoned
// data puts a NaN late in x and in A (GEMV and GER read only 64 x
// values), at kLongNan.
constexpr int kLongW = 16;
constexpr std::int64_t kLongN = 4096;
constexpr std::int64_t kLongDim = 64, kLongTile = 32;
constexpr std::size_t kLongNan = 3001;

PinData long_data(bool nan_in_x) {
  Workload wl(43);
  PinData d{wl.vector<float>(kLongN), wl.vector<float>(kLongN),
            wl.matrix<float>(kLongDim, kLongDim), {}};
  if (nan_in_x) {
    d.x[kLongNan] = std::numeric_limits<float>::quiet_NaN();
    d.a[kLongNan] = std::numeric_limits<float>::quiet_NaN();
  }
  return d;
}

std::pair<DramBank*, DramBank*> build_long(const std::string& kind, Graph& g,
                                           std::size_t cap, const PinData& d,
                                           std::vector<float>& out) {
  DramBank& xy = g.bank("xy", kind == "long_axpy_bank" ? 50.0 : 256.0);
  DramBank& mem = g.bank("mem", 256.0);
  auto vec = [](const std::vector<float>& v, std::int64_t n) {
    return VectorView<const float>(v.data(), n);
  };
  auto& cx = g.channel<float>("x", cap);
  auto& cout = g.channel<float>("out", cap);
  const core::Level1Config l1{kLongW};
  const std::int64_t n = kLongN, dim = kLongDim;
  if (kind == "long_axpy" || kind == "long_axpy_bank" || kind == "long_dot") {
    auto& cy = g.channel<float>("y", cap);
    g.spawn("read_x", read_vector<float>(vec(d.x, n), 1, kLongW, cx, &xy));
    DramBank* const y_bank = kind == "long_axpy_bank" ? &mem : &xy;
    g.spawn("read_y",
            read_vector<float>(vec(d.y, n), 1, kLongW, cy, y_bank));
    const std::int64_t len = kind == "long_dot" ? 1 : n;
    out.assign(static_cast<std::size_t>(len), 0.0f);
    if (kind == "long_dot") {
      g.spawn("dot", core::dot<float>(l1, n, cx, cy, cout));
    } else {
      g.spawn("axpy", core::axpy<float>(l1, n, 1.5f, cx, cy, cout));
    }
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), len), 1,
                                         kLongW, cout, &mem));
  } else if (kind == "long_fanout2") {
    auto& cb = g.channel<float>("b", cap);
    out.assign(static_cast<std::size_t>(2 * n), 0.0f);
    g.spawn("read_x", read_vector<float>(vec(d.x, n), 1, kLongW, cx, &xy));
    g.spawn("fanout", fanout2<float>(n, kLongW, cx, cout, cb));
    g.spawn("write_a", write_vector<float>(VectorView<float>(out.data(), n), 1,
                                           kLongW, cout, &mem));
    g.spawn("write_b", write_vector<float>(
                           VectorView<float>(out.data() + n, n), 1, kLongW,
                           cb, &xy));
  } else if (kind == "long_gemv_rows" || kind == "long_gemv_t_cols") {
    const bool trans = kind == "long_gemv_t_cols";
    const core::GemvConfig cfg{
        trans ? Transpose::Trans : Transpose::None,
        trans ? core::MatrixTiling::TilesByCols
              : core::MatrixTiling::TilesByRows,
        kLongW, kLongTile, kLongTile, Order::RowMajor};
    auto& ca = g.channel<float>("A", cap);
    auto& cy = g.channel<float>("y", cap);
    out.assign(static_cast<std::size_t>(dim), 0.0f);
    g.spawn("read_A", read_matrix<float>(
                          MatrixView<const float>(d.a.data(), dim, dim),
                          core::gemv_a_schedule(cfg), 1, kLongW, ca, &mem));
    g.spawn("read_x", read_vector<float>(vec(d.x, dim),
                                         core::gemv_x_repeat(cfg, dim, dim),
                                         kLongW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, dim), 1, kLongW, cy, &xy));
    g.spawn("gemv", core::gemv<float>(cfg, dim, dim, 1.25f, 0.5f, ca, cx, cy,
                                      cout));
    g.spawn("write", write_vector<float>(VectorView<float>(out.data(), dim), 1,
                                         kLongW, cout, &mem));
  } else {  // long_ger
    const core::GerConfig cfg{core::MatrixTiling::TilesByRows, kLongW,
                              kLongTile, kLongTile, Order::RowMajor};
    const TileSchedule sched = core::ger_a_schedule(cfg);
    auto& ca = g.channel<float>("A", cap);
    auto& cy = g.channel<float>("y", cap);
    out.assign(static_cast<std::size_t>(dim * dim), 0.0f);
    g.spawn("read_A", read_matrix<float>(
                          MatrixView<const float>(d.a.data(), dim, dim), sched,
                          1, kLongW, ca, &mem));
    g.spawn("read_x", read_vector<float>(vec(d.x, dim),
                                         core::ger_x_repeat(cfg, dim, dim),
                                         kLongW, cx, &xy));
    g.spawn("read_y", read_vector<float>(vec(d.y, dim),
                                         core::ger_y_repeat(cfg, dim, dim),
                                         kLongW, cy, &xy));
    g.spawn("ger", core::ger<float>(cfg, dim, dim, 0.5f, ca, cx, cy, cout));
    g.spawn("write",
            write_matrix<float>(MatrixView<float>(out.data(), dim, dim), sched,
                                kLongW, cout, &mem));
  }
  return {&xy, &mem};
}

/// The pin data of graph `kind`, with a NaN in x when `poisoned`.
PinData data_for(const std::string& kind, bool poisoned) {
  return kind.starts_with("long_") ? long_data(poisoned) : pin_data(poisoned);
}

/// Builds any pinned graph: the long kinds or the short ones.
std::pair<DramBank*, DramBank*> build_any(const std::string& kind, Graph& g,
                                          std::size_t cap, const PinData& d,
                                          std::vector<float>& out) {
  return kind.starts_with("long_") ? build_long(kind, g, cap, d, out)
                                   : build_pinned(kind, g, cap, d, out);
}

std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// The clean run's part of the pinned record of graph `kind` at channel
/// capacity `cap`, every tap armed; its outputs land in `want`.
/// `screened` records taint too, which must not change a clean run.
std::string clean_record(const std::string& kind, std::size_t cap,
                         bool screened, std::vector<float>& want) {
  std::ostringstream os;
  const PinData clean = data_for(kind, false);
  Graph g(Mode::Cycle);
  const auto [xy, mem] = build_any(kind, g, cap, clean, want);
  for (const auto& ch : g.channels()) ch->arm_tap();
  if (screened) g.scheduler().enable_taint(false);
  g.run();
  const Scheduler& s = g.scheduler();
  os << "cap " << cap << ": cycles " << g.cycles() << " stall "
     << s.stall_module_cycles() << "\n";
  for (const auto& ch : g.channels()) {
    os << "  ch " << ch->name() << " peak " << ch->peak_occupancy()
       << " stalls " << ch->stall_events() << " tap "
       << hex_bits(ch->tap_sum()) << "/" << hex_bits(ch->tap_mag()) << "\n";
  }
  os << "  resumes";
  for (std::size_t m = 0; m < s.module_count(); ++m) {
    os << " " << s.module_name(static_cast<int>(m)) << "="
       << s.module_resumes(static_cast<int>(m));
  }
  os << "\n  bytes " << xy->total_bytes() << " " << mem->total_bytes()
     << "\n";
  return os.str();
}

/// The pinned record of graph `kind` at channel capacity `cap`.
std::string pinned_record(const std::string& kind, std::size_t cap) {
  std::ostringstream os;
  const PinData clean = data_for(kind, false);
  std::vector<float> want;
  os << clean_record(kind, cap, false, want);
  os << "  corrupt";
  for (std::uint64_t k = 1; k <= 40; ++k) {
    Graph g(Mode::Cycle);
    std::vector<float> out;
    build_any(kind, g, cap, clean, out);
    g.scheduler().corrupt_push(k);
    g.run();
    std::ptrdiff_t changed = -1;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(out[i]) !=
          std::bit_cast<std::uint32_t>(want[i])) {
        changed = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    os << " " << (g.scheduler().corruption_fired()
                      ? g.scheduler().corrupted_channel()
                      : std::string("-"))
       << ":" << changed;
  }
  os << "\n";
  const PinData poisoned = data_for(kind, true);
  {
    Graph g(Mode::Cycle);
    std::vector<float> out;
    build_any(kind, g, cap, poisoned, out);
    g.scheduler().enable_taint(false);
    g.run();
    const Taint& t = g.scheduler().taint();
    os << "  taint " << t.tainted << " " << t.module << " " << t.channel << " "
       << t.cycle << "\n";
  }
  {
    Graph g(Mode::Cycle);
    std::vector<float> out;
    build_any(kind, g, cap, poisoned, out);
    g.scheduler().enable_taint(true);
    EXPECT_THROW(g.run(), TaintError);
    os << "  trap x pushed " << g.channels()[0]->total_pushed() << "\n";
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(BatchTransfer, SchedulesPinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> pins = {
      {"axpy", 7548757519685597270ULL},
      {"dot", 16924138386007026711ULL},
      {"scal", 17539529693807194399ULL},
      {"gemv_rows", 5326376617395091344ULL},
      {"gemv_cols", 979974414704482164ULL},
      {"gemv_t_rows", 1726583026839226534ULL},
      {"gemv_t_cols", 5407613611507398529ULL},
      {"ger", 10280983138535434323ULL},
      {"fanout2", 3475259776429209920ULL},
      {"copy", 13506272377375743937ULL},
      {"swap", 6488864500650553245ULL},
      {"rot", 13970610741144600065ULL},
      {"syr2", 15653632259002580348ULL},
      {"gemm", 12846644531286731083ULL},
      {"gemm_b0", 11741168110245985664ULL},
      {"syr2k", 15948238062567554125ULL},
      {"trsv", 2054899175701680032ULL},
      {"trsm", 5235597401413074039ULL},
      {"trsm_batched", 6307145519531422874ULL},
      {"read_strided", 654386030581180958ULL},
      {"empty_vectors", 1372783144155407901ULL},
      {"generate_sink", 13975276301391623699ULL},
      {"write_matrix_cm", 4397481694182410251ULL},
      {"gemm_batched", 7577257555990280391ULL},
      {"long_axpy", 759856197896815034ULL},
      {"long_dot", 16479902223821955689ULL},
      {"long_fanout2", 15892105801802157012ULL},
      {"long_gemv_rows", 9355316682354602ULL},
      {"long_gemv_t_cols", 2039787764802817598ULL},
      {"long_ger", 46834535890385055ULL},
      {"long_axpy_bank", 11452701970746605915ULL},
  };
  for (const auto& [kind, hash] : pins) {
    std::string record;
    for (const std::size_t cap : {3u, 64u, 767u}) {
      record += pinned_record(kind, cap);
    }
    EXPECT_EQ(fnv1a(record), hash)
        << kind << " record:\n" << record;
  }
}

// Fast-forward engages where a run repeats one step and nowhere else: at
// capacity 64 at least 90% of the cycles of the long AXPY and GEMV runs
// are fast-forwarded, and none of the bank-bound AXPY's, whose grants
// alternate. Functional mode keeps no cycles and never fast-forwards.
TEST(FastForward, EngagesOnSteadySpansOnly) {
  const PinData d = long_data(false);
  const auto share = [&d](const std::string& kind, Mode mode) {
    Graph g(mode);
    std::vector<float> out;
    build_long(kind, g, 64, d, out);
    g.run();
    const auto ff = static_cast<double>(g.scheduler().fast_forwarded_cycles());
    return mode == Mode::Cycle ? ff / static_cast<double>(g.cycles()) : ff;
  };
  for (const char* kind : {"long_axpy", "long_gemv_rows", "long_gemv_t_cols"}) {
    EXPECT_GE(share(kind, Mode::Cycle), 0.9) << kind;
    EXPECT_EQ(share(kind, Mode::Functional), 0.0) << kind;
  }
  EXPECT_EQ(share("long_axpy_bank", Mode::Cycle), 0.0);
}

// Fast-forward books exactly what stepping books, on seeded random
// graphs of the opted-in bodies: AXPY, SCAL, DOT, the four GEMV variants
// and GER at random lengths, shapes, tiles, widths, capacities and bank
// rates, each run twice. An armed corrupt_push that never fires turns
// fast-forward off and changes nothing else for single-output modules,
// so the second run steps every cycle. Cycles, stalls, every channel's
// peak, stall events, totals and tap bits, every module's resumes, bank
// bytes, the occupancy trace and the output bits must agree.
TEST(FastForward, MatchesSteppedRunsOnRandomGraphs) {
  Workload rng(4242);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(rng.next_u64() % span);
  };
  std::uint64_t fast_forwarded = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const int kind = static_cast<int>(pick(0, 4));
    const int w = std::array<int, 3>{1, 4, 16}[pick(0, 2)];
    const std::size_t cap = static_cast<std::size_t>(
        pick(0, 1) ? pick(w, 3 * w)
                   : std::array<std::int64_t, 2>{64, 767}[pick(0, 1)]);
    const double xy_rate = static_cast<double>(pick(4, 160)) * 4;
    const double mem_rate = static_cast<double>(pick(4, 160)) * 4;
    const std::int64_t n = pick(1, 3000);
    const std::int64_t rows = pick(1, 70), cols = pick(1, 70);
    const std::int64_t tr = pick(1, 40), tc = pick(1, 40);
    const auto trans = pick(0, 1) ? Transpose::Trans : Transpose::None;
    const auto tiling = pick(0, 1) ? core::MatrixTiling::TilesByRows
                                   : core::MatrixTiling::TilesByCols;
    const auto elems = pick(0, 1) ? Order::RowMajor : Order::ColMajor;
    const std::vector<float> x = rng.vector<float>(std::max(n, rows + cols));
    const std::vector<float> y = rng.vector<float>(std::max(n, rows + cols));
    const std::vector<float> a = rng.matrix<float>(rows, cols);
    auto run = [&](bool stepped) {
      Graph g(Mode::Cycle);
      DramBank& xy = g.bank("xy", xy_rate);
      DramBank& mem = g.bank("mem", mem_rate);
      auto& cx = g.channel<float>("x", cap);
      auto& cy = g.channel<float>("y", cap);
      auto& cout = g.channel<float>("out", cap);
      std::vector<float> out;
      const core::Level1Config l1{w};
      const auto vec = [](const std::vector<float>& v, std::int64_t len) {
        return VectorView<const float>(v.data(), len);
      };
      if (kind <= 2) {
        out.assign(static_cast<std::size_t>(kind == 2 ? 1 : n), 0.0f);
        g.spawn("read_x", read_vector<float>(vec(x, n), 1, w, cx, &xy));
        if (kind != 1) {
          g.spawn("read_y", read_vector<float>(vec(y, n), 1, w, cy, &xy));
        }
        if (kind == 0) {
          g.spawn("axpy", core::axpy<float>(l1, n, 1.5f, cx, cy, cout));
        } else if (kind == 1) {
          g.spawn("scal", core::scal<float>(l1, n, -0.5f, cx, cout));
        } else {
          g.spawn("dot", core::dot<float>(l1, n, cx, cy, cout));
        }
        const auto len = static_cast<std::int64_t>(out.size());
        g.spawn("write",
                write_vector<float>(VectorView<float>(out.data(), len), 1, w,
                                    cout, &mem));
      } else if (kind == 3) {
        const core::GemvConfig cfg{trans, tiling, w, tr, tc, elems};
        const bool none = trans == Transpose::None;
        const std::int64_t xlen = none ? cols : rows, ylen = none ? rows : cols;
        auto& ca = g.channel<float>("A", cap);
        out.assign(static_cast<std::size_t>(ylen), 0.0f);
        g.spawn("read_A", read_matrix<float>(
                              MatrixView<const float>(a.data(), rows, cols),
                              core::gemv_a_schedule(cfg), 1, w, ca, &mem));
        g.spawn("read_x", read_vector<float>(
                              vec(x, xlen), core::gemv_x_repeat(cfg, rows, cols),
                              w, cx, &xy));
        g.spawn("read_y", read_vector<float>(vec(y, ylen), 1, w, cy, &xy));
        g.spawn("gemv", core::gemv<float>(cfg, rows, cols, 1.25f, 0.5f, ca, cx,
                                          cy, cout));
        g.spawn("write", write_vector<float>(VectorView<float>(out.data(), ylen),
                                             1, w, cout, &mem));
      } else {
        const core::GerConfig cfg{tiling, w, tr, tc, elems};
        const TileSchedule sched = core::ger_a_schedule(cfg);
        auto& ca = g.channel<float>("A", cap);
        out.assign(static_cast<std::size_t>(rows * cols), 0.0f);
        g.spawn("read_A", read_matrix<float>(
                              MatrixView<const float>(a.data(), rows, cols),
                              sched, 1, w, ca, &mem));
        g.spawn("read_x", read_vector<float>(
                              vec(x, rows), core::ger_x_repeat(cfg, rows, cols),
                              w, cx, &xy));
        g.spawn("read_y", read_vector<float>(
                              vec(y, cols), core::ger_y_repeat(cfg, rows, cols),
                              w, cy, &xy));
        g.spawn("ger", core::ger<float>(cfg, rows, cols, 0.5f, ca, cx, cy, cout));
        g.spawn("write", write_matrix<float>(
                             MatrixView<float>(out.data(), rows, cols), sched, w,
                             cout, &mem));
      }
      for (const auto& ch : g.channels()) ch->arm_tap();
      Scheduler& s = g.scheduler();
      s.enable_occupancy_trace();
      if (stepped) s.corrupt_push(std::numeric_limits<std::uint64_t>::max());
      g.run();
      std::ostringstream os;
      os << "cycles " << g.cycles() << " stall " << s.stall_module_cycles()
         << " bytes " << xy.total_bytes() << " " << mem.total_bytes() << "\n";
      for (std::size_t c = 0; c < s.channel_count(); ++c) {
        const auto& ch = *g.channels()[c];
        os << ch.name() << " peak " << ch.peak_occupancy() << " stalls "
           << ch.stall_events() << " moved " << ch.total_pushed() << "/"
           << ch.total_popped() << " tap " << hex_bits(ch.tap_sum()) << "/"
           << hex_bits(ch.tap_mag()) << " trace";
        for (const std::uint32_t v : s.occupancy_trace(c)) os << " " << v;
        os << "\n";
      }
      for (std::size_t m = 0; m < s.module_count(); ++m) {
        os << s.module_name(static_cast<int>(m)) << "="
           << s.module_resumes(static_cast<int>(m)) << " ";
      }
      for (const float v : out) os << " " << std::bit_cast<std::uint32_t>(v);
      if (!stepped) fast_forwarded += s.fast_forwarded_cycles();
      return os.str();
    };
    const std::string stepped = run(true);
    EXPECT_EQ(run(false), stepped)
        << "trial " << trial << " kind " << kind << " W " << w << " cap " << cap
        << " n " << n << " " << rows << "x" << cols << " tiles " << tr << "x"
        << tc;
  }
  EXPECT_GT(fast_forwarded, 0u);
}

// Watchdog limits that fall in the middle of the long AXPY's steady span
// (cycles 3..256 of 260, at capacity 64): each throws TimeoutError at the
// cycle and step counts of a run that steps every cycle, with the same
// module and channel states in its diagnostic. The wedged case wedges
// at step 601 and then ticks cycles until its cycle budget runs out.
TEST(Watchdog, LimitsInsideSteadySpanPinned) {
  struct Case {
    Watchdog wd;
    std::uint64_t wedge;
    const char* first_line;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {Watchdog{.max_cycles = 150}, 0,
       "watchdog expired (cycle budget) after 151 simulated cycles and 604 "
       "scheduler steps; the graph is live-locked or pathologically slow.",
       7280647936958510758ULL},
      {Watchdog{.max_steps = 500}, 0,
       "watchdog expired (step budget) after 124 simulated cycles and 500 "
       "scheduler steps; the graph is live-locked or pathologically slow.",
       3154051252180443923ULL},
      {Watchdog{.max_cycles = 400}, 601,
       "watchdog expired (cycle budget) after 401 simulated cycles and 852 "
       "scheduler steps; the graph is wedged (injected hang).",
       13435721929144896404ULL},
  };
  const PinData d = long_data(false);
  for (const Case& c : cases) {
    Graph g(Mode::Cycle);
    std::vector<float> out;
    build_long("long_axpy", g, 64, d, out);
    if (c.wedge != 0) g.scheduler().wedge_after(c.wedge);
    std::string msg;
    try {
      g.run(c.wd);
    } catch (const TimeoutError& e) {
      msg = e.what();
    }
    EXPECT_EQ(msg.substr(0, msg.find('\n')), c.first_line);
    EXPECT_EQ(fnv1a(msg), c.hash) << msg;
  }
}

// The wall-clock deadline is polled every 2,048 booked steps however the
// steps are booked: a source that sleeps past the deadline in its first
// step is stopped at step 2,048, inside a steady span.
TEST(Watchdog, DeadlinePolledEvery2048Steps) {
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c", 64);
  const std::int64_t n = std::int64_t{1} << 20;
  bool slept = false;
  g.spawn("gen", read_bulk<float>(
                     1, n, 16,
                     [&slept](std::int64_t, std::int64_t, float* dst,
                              std::int64_t m) {
                       if (!slept) {
                         slept = true;
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(20));
                       }
                       std::fill_n(dst, m, 1.0f);
                     },
                     ch, nullptr));
  g.spawn("sink", sink<float>(n, 16, ch));
  std::string msg;
  try {
    g.run(Watchdog{.wall_deadline = std::chrono::milliseconds(5)});
  } catch (const TimeoutError& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("(wall-clock deadline) after"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find(" and 2048 scheduler steps"), std::string::npos) << msg;
}

// The reductions step by one rule (core::reduce), the one
// stream::elementwise steps by: each step pops as many elements as every
// input holds, from each input in port order. So DOT and SDSDOT on the
// same inputs and banks run the same schedule: cycles, stalls, peaks,
// resumes and bank bytes all agree, and only the result (and so the
// taps) differs.
TEST(BatchTransfer, ReductionsShareOneElementStep) {
  auto schedule = [](const std::string& kind, std::size_t cap) {
    const PinData d = pin_data(false);
    Graph g(Mode::Cycle);
    std::vector<float> out;
    const auto [xy, mem] = build_pinned(kind, g, cap, d, out);
    g.run();
    const Scheduler& s = g.scheduler();
    std::ostringstream os;
    os << "cycles " << g.cycles() << " stall " << s.stall_module_cycles()
       << "\n";
    for (const auto& ch : g.channels()) {
      os << "  ch " << ch->name() << " peak " << ch->peak_occupancy()
         << " stalls " << ch->stall_events() << "\n";
    }
    os << "  resumes";
    for (std::size_t m = 0; m < s.module_count(); ++m) {
      os << " " << s.module_resumes(static_cast<int>(m));
    }
    os << "\n  bytes " << xy->total_bytes() << " " << mem->total_bytes();
    return os.str();
  };
  for (const std::size_t cap : {3u, 64u, 767u}) {
    EXPECT_EQ(schedule("sdsdot", cap), schedule("dot", cap))
        << "capacity " << cap;
  }
}

// Taint recording moves nothing: with it on, a clean run of every pinned
// graph matches the unscreened run bit for bit.
TEST(BatchTransfer, ScreenedRunsMatchUnscreened) {
  for (const char* kind :
       {"axpy", "dot", "scal", "gemv_rows", "gemv_cols", "gemv_t_rows",
        "gemv_t_cols", "ger", "fanout2", "copy", "swap", "rot", "syr2",
        "gemm", "gemm_b0", "syr2k", "trsv", "trsm", "trsm_batched",
        "read_strided", "empty_vectors", "generate_sink", "write_matrix_cm",
        "gemm_batched", "long_axpy", "long_dot", "long_fanout2",
        "long_gemv_rows", "long_gemv_t_cols", "long_ger", "long_axpy_bank"}) {
    for (const std::size_t cap : {3u, 64u, 767u}) {
      std::vector<float> plain, screened;
      EXPECT_EQ(clean_record(kind, cap, true, screened),
                clean_record(kind, cap, false, plain))
          << kind << " at capacity " << cap;
      EXPECT_EQ(screened, plain) << kind << " at capacity " << cap;
    }
  }
}

// The multi-output element-wise modules under taint: the Taint record of
// a recording run (module, channel, value bits, cycle) and every
// channel's push count when a trapping run stops. With NaN at x[6] and
// Inf at y[3] the readers see them first. Fed without a bank, ROT takes
// elements 4..7 in one step; its finite inputs there overflow out_y at
// element 5 and out at element 6, and only pushes in element order
// report out_y.
TEST(BatchTransfer, TaintOrderPinned) {
  PinData poisoned = pin_data(true);
  poisoned.y[3] = std::numeric_limits<float>::infinity();
  PinData overflow = pin_data(false);
  overflow.x[5] = -3e38f;
  overflow.y[5] = overflow.x[6] = overflow.y[6] = 3e38f;
  const auto build = [&](const std::string& kind, Graph& g, std::size_t cap,
                         std::vector<float>& out) {
    if (kind != "rot_fed") {
      build_pinned(kind, g, cap, poisoned, out);
      return;
    }
    auto& cx = g.channel<float>("x", cap);
    auto& cy = g.channel<float>("y", cap);
    auto& cout = g.channel<float>("out", cap);
    auto& coy = g.channel<float>("out_y", cap);
    g.spawn("feed_x", feed(overflow.x, cx));
    g.spawn("feed_y", feed(overflow.y, cy));
    g.spawn("rot", core::rot<float>({kPinW}, kPinN, 0.6f, 0.8f, cx, cy, cout,
                                    coy));
    g.spawn("sink_x", sink<float>(kPinN, kPinW, cout));
    g.spawn("sink_y", sink<float>(kPinN, kPinW, coy));
  };
  std::ostringstream os;
  for (const std::string kind : {"swap", "rot", "fanout2", "rot_fed"}) {
    for (const std::size_t cap : {3u, 64u, 767u}) {
      std::vector<float> out;
      {
        Graph g(Mode::Cycle);
        build(kind, g, cap, out);
        g.scheduler().enable_taint(false);
        g.run();
        const Taint& t = g.scheduler().taint();
        os << kind << " cap " << cap << ": taint " << t.tainted << " "
           << t.module << " " << t.channel << " " << hex_bits(t.value) << " "
           << t.cycle << "\n  trap pushed";
      }
      Graph g(Mode::Cycle);
      build(kind, g, cap, out);
      g.scheduler().enable_taint(true);
      EXPECT_THROW(g.run(), TaintError);
      for (const auto& ch : g.channels()) {
        os << " " << ch->name() << "=" << ch->total_pushed();
      }
      os << "\n";
    }
  }
  EXPECT_EQ(fnv1a(os.str()), 12914976203323169953ULL)
      << "record:\n" << os.str();
}

// A tapped channel fed batch by batch through put_some, against the
// per-value rule: taint screens each value in push order (a trap stops
// before the bad one), then the tap adds it to its sum and magnitude.
// `trap` < 0 runs without taint. The batches hold each special value at
// each position, between clean batches; re-arming the tap per case lets
// both a clean and an already non-finite tap meet every special. A
// double batch of ±max overflows the magnitude with finite values only,
// so a trapping tap is non-finite before its special arrives. Sums compare
// bit for bit, except that once a NaN meets a NaN sum only NaN-ness is
// compared: which operand's payload survives is the compiler's choice.
template <typename T>
void tap_screen_matches_per_value(int trap) {
  using Lim = std::numeric_limits<T>;
  const T nan = Lim::quiet_NaN();
  const std::vector<T> specials = {
      nan,        -nan,         Lim::infinity(),    -Lim::infinity(),
      T(-0.0),    T(0.0),       Lim::denorm_min(),  -Lim::min() / T(3),
      Lim::max(), -Lim::max()};
  Workload w(0x7a9 + sizeof(T) + static_cast<std::uint64_t>(trap + 1));
  Graph g;
  auto& ch = g.channel<T>("c", 16);
  if (trap >= 0) g.scheduler().enable_taint(trap != 0);
  double sum = 0.0, mag = 0.0;
  bool sum_nan_met_nan = false, mag_nan_met_nan = false;
  std::uint64_t count = 0, pushed = 0;
  Taint want;
  const auto arm = [&] {
    ch.arm_tap();
    sum = mag = 0.0;
    sum_nan_met_nan = mag_nan_met_nan = false;
    count = 0;
  };
  const auto same = [](double got, double want, bool nan_met_nan) {
    return nan_met_nan ? std::isnan(got) && std::isnan(want)
                       : hex_bits(got) == hex_bits(want);
  };
  const auto feed = [&](const std::vector<T>& batch, const std::string& what) {
    std::size_t moved = 0;
    bool trapped = false;
    for (const T value : batch) {
      const auto v = static_cast<double>(value);
      if (trap >= 0 && !std::isfinite(v)) {
        if (!want.tainted) {
          want = {true, "host", "c", v, 0};
        }
        if (trap != 0) {
          trapped = true;
          break;
        }
      }
      sum_nan_met_nan |= std::isnan(sum) && std::isnan(v);
      mag_nan_met_nan |= std::isnan(mag) && std::isnan(v);
      sum += v;
      mag += v < 0 ? -v : v;
      ++count;
      ++moved;
    }
    pushed += moved;
    bool threw = false;
    try {
      EXPECT_EQ(ch.put_some(batch.data(), batch.size()), batch.size()) << what;
    } catch (const TaintError&) {
      threw = true;
    }
    EXPECT_EQ(threw, trapped) << what;
    std::vector<T> out(16);
    ASSERT_EQ(ch.take_some(out.data(), out.size()), moved) << what;
    for (std::size_t i = 0; i < moved; ++i) {
      EXPECT_EQ(std::bit_cast<BitsOf<T>>(out[i]),
                std::bit_cast<BitsOf<T>>(batch[i]))
          << what << " value " << i;
    }
    EXPECT_TRUE(same(ch.tap_sum(), sum, sum_nan_met_nan))
        << what << ": sum " << hex_bits(ch.tap_sum()) << ", want "
        << hex_bits(sum);
    EXPECT_TRUE(same(ch.tap_mag(), mag, mag_nan_met_nan))
        << what << ": mag " << hex_bits(ch.tap_mag()) << ", want "
        << hex_bits(mag);
    EXPECT_EQ(ch.tap_count(), count) << what;
    EXPECT_EQ(ch.total_pushed(), pushed) << what;
    const Taint& got = g.scheduler().taint();
    EXPECT_EQ(got.tainted, want.tainted) << what;
    EXPECT_EQ(got.module, want.module) << what;
    EXPECT_EQ(got.channel, want.channel) << what;
    EXPECT_EQ(hex_bits(got.value), hex_bits(want.value)) << what;
    EXPECT_EQ(got.cycle, want.cycle) << what;
  };
  const auto clean = [&](std::size_t k) {
    std::vector<T> b(k);
    for (T& v : b) {
      const int e = static_cast<int>(w.next_u64() % 41) - 20;
      v = static_cast<T>(std::ldexp(w.uniform(-1.0, 1.0), e));
    }
    return b;
  };
  const auto with = [&](std::size_t k, std::size_t pos, T special) {
    std::vector<T> b = clean(k);
    b[pos] = special;
    return b;
  };
  for (std::size_t k = 1; k <= 16; ++k) {
    const std::string at_k = "k " + std::to_string(k);
    for (std::size_t pos = 0; pos < k; ++pos) {
      for (std::size_t s = 0; s < specials.size(); ++s) {
        for (std::size_t s2 = 0; s2 < specials.size(); ++s2) {
          const std::string what = at_k + " pos " + std::to_string(pos) +
                                   " specials " + std::to_string(s) + "," +
                                   std::to_string(s2);
          arm();
          feed(clean(k), what + " (clean before)");
          feed(with(k, pos, specials[s]), what);
          feed(clean(k), what + " (clean after)");
          feed(with(k, k - 1 - pos, specials[s2]), what + " (second)");
        }
      }
    }
    std::vector<T> big(k);
    for (std::size_t i = 0; i < k; ++i) {
      big[i] = i % 3 == 2 ? -Lim::max() : Lim::max();
    }
    for (std::size_t s = 0; s < specials.size(); ++s) {
      const std::string what = at_k + " ±max, special " + std::to_string(s);
      arm();
      feed(big, what);
      feed(clean(k), what + " (clean after)");
      feed(with(k, k / 2, specials[s]), what + " (special after)");
    }
  }
}

TEST(BatchTransfer, TapScreenMatchesPerValue) {
  for (const int trap : {-1, 0, 1}) {
    tap_screen_matches_per_value<float>(trap);
    tap_screen_matches_per_value<double>(trap);
  }
}

// all_finite over every value class at every position of batches of 0 to
// 40 values (the vectorized body and its remainder), in float and double.
template <typename T>
void all_finite_table() {
  using Bits = BitsOf<T>;
  using Lim = std::numeric_limits<T>;
  constexpr int kMant = Lim::digits - 1;
  const Bits exp_all = std::bit_cast<Bits>(Lim::infinity());
  const Bits sign = Bits{1} << (8 * sizeof(T) - 1);
  const std::vector<std::pair<T, bool>> classes = {
      {T(0.0), true},
      {T(-0.0), true},
      {Lim::denorm_min(), true},
      {-Lim::denorm_min(), true},
      {std::bit_cast<T>((Bits{1} << kMant) - 1), true},  // largest denormal
      {Lim::min(), true},
      {-Lim::min(), true},
      {T(1.0), true},
      {T(-1.5), true},
      {Lim::max(), true},
      {-Lim::max(), true},
      // The top finite exponent with an empty mantissa.
      {std::bit_cast<T>(exp_all - std::bit_cast<Bits>(Lim::min())), true},
      {Lim::infinity(), false},
      {-Lim::infinity(), false},
      {Lim::quiet_NaN(), false},
      {-Lim::quiet_NaN(), false},
      {Lim::signaling_NaN(), false},
      {std::bit_cast<T>(exp_all | 1), false},  // smallest payload
      {std::bit_cast<T>(~Bits{0} & ~sign), false},  // largest payload
      {std::bit_cast<T>(~Bits{0}), false},
  };
  Workload w(0xf1 + sizeof(T));
  for (std::size_t k = 0; k <= 40; ++k) {
    std::vector<T> b(k);
    for (T& v : b) v = static_cast<T>(w.uniform(-4.0, 4.0));
    EXPECT_TRUE(all_finite(b.data(), k)) << "clean, k " << k;
    for (std::size_t pos = 0; pos < k; ++pos) {
      for (std::size_t c = 0; c < classes.size(); ++c) {
        const T keep = b[pos];
        b[pos] = classes[c].first;
        EXPECT_EQ(all_finite(b.data(), k), classes[c].second)
            << "class " << c << " at " << pos << " of " << k;
        b[pos] = keep;
      }
    }
  }
}

TEST(BatchTransfer, AllFiniteEveryClassAndPosition) {
  all_finite_table<float>();
  all_finite_table<double>();
}

// The windows against the copying transfers: two graphs, each with
// channels "a" and "b" of one capacity, run one seeded sequence of pushes
// and pops of 1..cap+2 values, some of them NaN or ±Inf. One graph moves
// them with put_some/take_some; the other writes back() windows and
// commits them, and reads front() windows and drops them, both in random
// pieces. Plain, with taps armed, with taint recording or trapping (taps
// armed too) and with corrupt_push(k), k = 1..40, every step must move
// the same values and leave the same totals, peaks, tap bits and counts,
// Taint record and corrupted channel.
template <typename T>
void windows_match_batch_transfers(std::size_t cap, int mode) {
  const std::string what =
      "cap " + std::to_string(cap) + " mode " + std::to_string(mode);
  // mode: 0 plain, 1 tap, 2 taint recording, 3 taint trapping, 3 + k
  // corrupt_push(k).
  Graph batch_g, window_g;
  for (Graph* g : {&batch_g, &window_g}) {
    auto& a = g->channel<T>("a", cap);
    auto& b = g->channel<T>("b", cap);
    if (mode >= 1 && mode <= 3) {
      a.arm_tap();
      b.arm_tap();
    }
    if (mode == 2 || mode == 3) g->scheduler().enable_taint(mode == 3);
    if (mode > 3) {
      g->scheduler().corrupt_push(static_cast<std::uint64_t>(mode - 3));
    }
  }
  const auto chan = [](Graph& g, std::size_t c) {
    return static_cast<Channel<T>*>(g.channels()[c].get());
  };
  Workload w(0x3b1 + cap * 7 + static_cast<std::uint64_t>(mode));
  Workload pieces(0x77 + cap);
  const auto piece = [&](std::size_t left) {
    return 1 + static_cast<std::size_t>(pieces.next_u64() % left);
  };
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()};
  for (int op = 0; op < 400; ++op) {
    const std::size_t c = w.next_u64() % 2;
    const bool push = w.next_u64() % 2 == 0;
    const std::size_t k = 1 + w.next_u64() % (cap + 2);
    Channel<T>& bc = *chan(batch_g, c);
    Channel<T>& wc = *chan(window_g, c);
    const std::string at = what + " op " + std::to_string(op);
    if (push) {
      std::vector<T> src(k);
      for (T& v : src) {
        v = w.next_u64() % 40 == 0 ? specials[w.next_u64() % 3]
                                   : static_cast<T>(w.uniform(-2.0, 2.0));
      }
      bool batch_threw = false, window_threw = false;
      try {
        bc.put_some(src.data(), k);
      } catch (const TaintError&) {
        batch_threw = true;
      }
      try {
        const std::size_t want = std::min(k, wc.space());
        for (std::size_t t = 0; t < want;) {
          const std::span<T> win = wc.back(want - t);
          std::copy_n(src.data() + t, win.size(), win.data());
          for (std::size_t u = 0; u < win.size();) {
            const std::size_t p = piece(win.size() - u);
            wc.commit(p);
            u += p;
          }
          t += win.size();
        }
      } catch (const TaintError&) {
        window_threw = true;
      }
      EXPECT_EQ(window_threw, batch_threw) << at;
    } else {
      std::vector<T> got_b(k), got_w(k);
      const std::size_t moved = bc.take_some(got_b.data(), k);
      const std::size_t want = std::min(k, wc.size());
      for (std::size_t t = 0; t < want;) {
        const std::span<const T> win = wc.front(want - t);
        std::copy_n(win.data(), win.size(), got_w.data() + t);
        for (std::size_t u = 0; u < win.size();) {
          const std::size_t p = piece(win.size() - u);
          wc.drop(p);
          u += p;
        }
        t += win.size();
      }
      ASSERT_EQ(want, moved) << at;
      for (std::size_t i = 0; i < moved; ++i) {
        ASSERT_EQ(std::bit_cast<BitsOf<T>>(got_w[i]),
                  std::bit_cast<BitsOf<T>>(got_b[i]))
            << at << " value " << i;
      }
    }
    for (std::size_t ch = 0; ch < 2; ++ch) {
      const Channel<T>& x = *chan(batch_g, ch);
      const Channel<T>& y = *chan(window_g, ch);
      ASSERT_EQ(y.size(), x.size()) << at;
      ASSERT_EQ(y.total_pushed(), x.total_pushed()) << at;
      ASSERT_EQ(y.total_popped(), x.total_popped()) << at;
      ASSERT_EQ(y.peak_occupancy(), x.peak_occupancy()) << at;
      ASSERT_EQ(hex_bits(y.tap_sum()), hex_bits(x.tap_sum())) << at;
      ASSERT_EQ(hex_bits(y.tap_mag()), hex_bits(x.tap_mag())) << at;
      ASSERT_EQ(y.tap_count(), x.tap_count()) << at;
    }
  }
  const Scheduler& x = batch_g.scheduler();
  const Scheduler& y = window_g.scheduler();
  EXPECT_EQ(y.taint().tainted, x.taint().tainted) << what;
  EXPECT_EQ(y.taint().channel, x.taint().channel) << what;
  EXPECT_EQ(hex_bits(y.taint().value), hex_bits(x.taint().value)) << what;
  EXPECT_EQ(y.corruption_fired(), x.corruption_fired()) << what;
  EXPECT_EQ(y.corrupted_channel(), x.corrupted_channel()) << what;
  EXPECT_EQ(x.corruption_fired(), mode > 3) << what;
  EXPECT_EQ(x.taint().tainted, mode == 2 || mode == 3) << what;
}

TEST(BatchTransfer, WindowsMatchBatchTransfers) {
  for (const std::size_t cap : {1u, 3u, 7u, 64u, 767u}) {
    for (int mode = 0; mode <= 3 + 40; ++mode) {
      windows_match_batch_transfers<float>(cap, mode);
      windows_match_batch_transfers<double>(cap, mode);
    }
  }
}

// Functional runs move what cycle runs move: every pinned graph at
// capacities 3, 64 and 767, taps armed, has the same output bits,
// per-channel tap bits and bank bytes in both modes. A functional reader
// waits for room and grants only what fits, so its grants differ from
// the cycle run's but must add up to the same bytes.
std::string moved_record(const std::string& kind, std::size_t cap, Mode mode) {
  const PinData d = pin_data(false);
  Graph g(mode);
  std::vector<float> out;
  const auto [xy, mem] = build_pinned(kind, g, cap, d, out);
  for (const auto& ch : g.channels()) ch->arm_tap();
  g.run();
  std::ostringstream os;
  os << "out";
  for (const float v : out) os << " " << std::bit_cast<std::uint32_t>(v);
  for (const auto& ch : g.channels()) {
    os << "\n  ch " << ch->name() << " pushed " << ch->total_pushed() << " tap "
       << hex_bits(ch->tap_sum()) << "/" << hex_bits(ch->tap_mag()) << " "
       << ch->tap_count();
  }
  os << "\n  bytes " << xy->total_bytes() << " " << mem->total_bytes();
  return os.str();
}

TEST(BatchTransfer, FunctionalRunsMatchCycleRecords) {
  for (const char* kind :
       {"axpy", "dot", "sdsdot", "scal", "gemv_rows", "gemv_cols",
        "gemv_t_rows", "gemv_t_cols", "ger", "fanout2", "copy", "swap", "rot",
        "syr2", "gemm", "gemm_b0", "syr2k", "trsv", "trsm", "trsm_batched",
        "read_strided", "empty_vectors", "generate_sink", "write_matrix_cm",
        "gemm_batched"}) {
    for (const std::size_t cap : {3u, 64u, 767u}) {
      EXPECT_EQ(moved_record(kind, cap, Mode::Functional),
                moved_record(kind, cap, Mode::Cycle))
          << kind << " at capacity " << cap;
    }
  }
}

// Lent reads: read_vector -> a consumer that pops through front windows
// in seeded pieces, recording every value and whether each window lay in
// the source vector or in the channel's ring. mode: 0 plain, 1 tap,
// 2 taint recording (tap armed too), 3 taint trapping (tap armed too),
// 4 + i corrupt_push of the i-th of {1, 2, cap, cap + 1, n}.
struct LentRun {
  std::vector<std::uint64_t> bits;  // popped values
  std::vector<bool> in_source;      // per popped value: window in `src`
  bool threw = false;
  std::uint64_t pushed = 0, popped = 0;
  std::string tap;
  Taint taint;
  bool fired = false;
  std::string corrupted;
};

template <typename T>
Task window_consumer(std::int64_t n, Channel<T>& in, const T* lo,
                     const T* hi, LentRun& out) {
  Workload pieces(0x51 + in.capacity());
  for (std::int64_t k = 0; k < n;) {
    const auto want = 1 + pieces.next_u64() % (2 * in.capacity() + 1);
    const std::span<const T> w = co_await in.front_some(
        std::min<std::size_t>(want, static_cast<std::size_t>(n - k)));
    const std::less<const T*> before;  // a total order on any pointers
    const bool src = !before(w.data(), lo) && before(w.data(), hi);
    for (const T v : w) {
      out.bits.push_back(std::bit_cast<BitsOf<T>>(v));
      out.in_source.push_back(src);
    }
    in.drop(w.size());
    k += static_cast<std::int64_t>(w.size());
    co_await next_cycle();
  }
}

template <typename T>
LentRun lent_run(const std::vector<T>& src, std::int64_t inc, std::size_t cap,
                 int mode, Mode m) {
  const auto n = static_cast<std::int64_t>(src.size()) / inc;
  const std::uint64_t targets[] = {1, 2, cap, cap + 1,
                                   static_cast<std::uint64_t>(n)};
  LentRun r;
  Graph g(m);
  auto& ch = g.channel<T>("x", cap);
  if (mode >= 1 && mode <= 3) ch.arm_tap();
  if (mode == 2 || mode == 3) g.scheduler().enable_taint(mode == 3);
  if (mode >= 4) g.scheduler().corrupt_push(targets[mode - 4]);
  g.spawn("read_x", read_vector<T>(VectorView<const T>(src.data(), n, inc), 1,
                                   16, ch));
  g.spawn("consume", window_consumer<T>(n, ch, src.data(),
                                        src.data() + src.size(), r));
  try {
    g.run();
  } catch (const TaintError&) {
    r.threw = true;
  }
  r.pushed = ch.total_pushed();
  r.popped = ch.total_popped();
  r.tap = hex_bits(ch.tap_sum()) + "/" + hex_bits(ch.tap_mag()) + " " +
          std::to_string(ch.tap_count());
  r.taint = g.scheduler().taint();
  r.fired = g.scheduler().corruption_fired();
  r.corrupted = g.scheduler().corrupted_channel();
  return r;
}

template <typename T>
void lent_reads_match_cycle_reads(std::size_t cap, std::int64_t inc,
                                  int mode) {
  const std::string what = "cap " + std::to_string(cap) + " inc " +
                           std::to_string(inc) + " mode " +
                           std::to_string(mode);
  const std::int64_t n = std::max<std::int64_t>(40, 2 * cap + 7);
  Workload w(0x1e4d + cap * 5 + static_cast<std::uint64_t>(inc * 3 + mode));
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()};
  std::vector<T> src(static_cast<std::size_t>(n * inc));
  std::vector<bool> special(static_cast<std::size_t>(n), false);
  for (std::int64_t k = 0; k < n; ++k) {
    T& v = src[static_cast<std::size_t>(k * inc)];
    v = static_cast<T>(w.uniform(-2.0, 2.0));
    if (mode != 0 && mode <= 3 && w.next_u64() % 60 == 0) {
      v = specials[w.next_u64() % 3];
      special[static_cast<std::size_t>(k)] = true;
    }
  }
  const std::vector<T> before = src;
  const LentRun f = lent_run(src, inc, cap, mode, Mode::Functional);
  const LentRun c = lent_run(src, inc, cap, mode, Mode::Cycle);
  // A trapping run stops at the first non-finite value; the modes
  // interleave differently, so each pops a prefix of the stream.
  EXPECT_EQ(f.threw, c.threw) << what;
  if (f.threw) {
    for (const LentRun* r : {&f, &c}) {
      ASSERT_LE(r->bits.size(), c.pushed) << what;
      for (std::size_t k = 0; k < r->bits.size(); ++k) {
        ASSERT_EQ(r->bits[k], std::bit_cast<BitsOf<T>>(
                                  before[k * static_cast<std::size_t>(inc)]))
            << what << " value " << k;
      }
    }
  } else {
    ASSERT_EQ(f.bits, c.bits) << what;
    EXPECT_EQ(f.popped, c.popped) << what;
  }
  EXPECT_EQ(f.pushed, c.pushed) << what;
  EXPECT_EQ(f.tap, c.tap) << what;
  EXPECT_EQ(f.taint.tainted, c.taint.tainted) << what;
  EXPECT_EQ(f.taint.module, c.taint.module) << what;
  EXPECT_EQ(f.taint.channel, c.taint.channel) << what;
  EXPECT_EQ(hex_bits(f.taint.value), hex_bits(c.taint.value)) << what;
  EXPECT_EQ(f.fired, c.fired) << what;
  EXPECT_EQ(f.corrupted, c.corrupted) << what;
  EXPECT_EQ(f.fired, mode >= 4) << what;
  // Corruption damages the value in the channel, never the source.
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(std::bit_cast<BitsOf<T>>(src[i]),
              std::bit_cast<BitsOf<T>>(before[i]))
        << what << " source " << i;
  }
  // Where each value was read: never in memory in cycle mode or at a
  // stride. In functional mode at unit stride from memory, but in the ring
  // while a corruption is armed (every value before the target) and for a
  // non-finite value under taint or a tap. A step moves at most `cap`
  // values, so a value `cap` or more after the target and every
  // non-finite value is lent.
  const std::uint64_t target =
      mode >= 4 ? std::array<std::uint64_t, 5>{1, 2, cap, cap + 1,
                                               static_cast<std::uint64_t>(n)}
                      [static_cast<std::size_t>(mode - 4)]
                : 0;
  const auto near_special = [&](std::size_t k) {
    if (mode == 0 || mode >= 4) return false;
    for (std::size_t s = k >= cap ? k - cap + 1 : 0;
         s < std::min(special.size(), k + cap); ++s) {
      if (special[s]) return true;
    }
    return false;
  };
  for (std::size_t k = 0; k < c.in_source.size(); ++k) {
    ASSERT_FALSE(c.in_source[k]) << what << " cycle value " << k;
  }
  for (std::size_t k = 0; k < f.in_source.size(); ++k) {
    if (inc != 1 || k < target || (mode >= 1 && mode <= 3 && special[k])) {
      ASSERT_FALSE(f.in_source[k]) << what << " value " << k;
    } else if ((target == 0 || k + 1 >= target + cap) && !near_special(k)) {
      ASSERT_TRUE(f.in_source[k]) << what << " value " << k;
    }
  }
}

TEST(BatchTransfer, LentReadsMatchCycleReads) {
  for (const std::size_t cap : {1u, 3u, 7u, 64u, 767u, 4096u}) {
    for (const std::int64_t inc : {1, 3}) {
      for (int mode = 0; mode <= 8; ++mode) {
        lent_reads_match_cycle_reads<float>(cap, inc, mode);
        lent_reads_match_cycle_reads<double>(cap, inc, mode);
      }
    }
  }
}

// ---- TileWalker -----------------------------------------------------------

std::vector<std::pair<std::int64_t, std::int64_t>> walk_all(
    std::int64_t rows, std::int64_t cols, TileSchedule s) {
  TileWalker w(rows, cols, s);
  std::vector<std::pair<std::int64_t, std::int64_t>> seq;
  std::int64_t i, j;
  while (w.next(i, j)) seq.emplace_back(i, j);
  return seq;
}

TEST(TileWalker, RowMajorTilesRowMajorElems) {
  // 4x4 matrix, 2x2 tiles: tile (0,0) row-major, then tile (0,1), ...
  auto seq = walk_all(4, 4, {Order::RowMajor, Order::RowMajor, 2, 2});
  ASSERT_EQ(seq.size(), 16u);
  std::vector<std::pair<std::int64_t, std::int64_t>> expect{
      {0, 0}, {0, 1}, {1, 0}, {1, 1},  // tile (0,0)
      {0, 2}, {0, 3}, {1, 2}, {1, 3},  // tile (0,1)
      {2, 0}, {2, 1}, {3, 0}, {3, 1},  // tile (1,0)
      {2, 2}, {2, 3}, {3, 2}, {3, 3},  // tile (1,1)
  };
  EXPECT_EQ(seq, expect);
}

TEST(TileWalker, ColMajorTilesColMajorElems) {
  auto seq = walk_all(4, 4, {Order::ColMajor, Order::ColMajor, 2, 2});
  ASSERT_EQ(seq.size(), 16u);
  std::vector<std::pair<std::int64_t, std::int64_t>> expect{
      {0, 0}, {1, 0}, {0, 1}, {1, 1},  // tile (0,0) col-major elems
      {2, 0}, {3, 0}, {2, 1}, {3, 1},  // tile (1,0)
      {0, 2}, {1, 2}, {0, 3}, {1, 3},  // tile (0,1)
      {2, 2}, {3, 2}, {2, 3}, {3, 3},  // tile (1,1)
  };
  EXPECT_EQ(seq, expect);
}

TEST(TileWalker, VisitsEveryCellExactlyOnce) {
  for (Order to : {Order::RowMajor, Order::ColMajor}) {
    for (Order eo : {Order::RowMajor, Order::ColMajor}) {
      auto seq = walk_all(5, 7, {to, eo, 2, 3});  // non-divisible edges
      EXPECT_EQ(seq.size(), 35u);
      std::set<std::pair<std::int64_t, std::int64_t>> uniq(seq.begin(),
                                                           seq.end());
      EXPECT_EQ(uniq.size(), 35u);
      for (auto [i, j] : seq) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, 5);
        EXPECT_GE(j, 0);
        EXPECT_LT(j, 7);
      }
    }
  }
}

TEST(TileWalker, SingleTileCoversWholeMatrix) {
  auto seq = walk_all(3, 3, {Order::RowMajor, Order::RowMajor, 8, 8});
  ASSERT_EQ(seq.size(), 9u);
  EXPECT_EQ(seq.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(seq.back(), (std::pair<std::int64_t, std::int64_t>{2, 2}));
}

TEST(TileWalker, EmptyMatrix) {
  auto seq = walk_all(0, 5, {Order::RowMajor, Order::RowMajor, 2, 2});
  EXPECT_TRUE(seq.empty());
}

// ---- Streamers -------------------------------------------------------------

TEST(Streamers, MatrixRoundTripAllSchedules) {
  Workload wl(3);
  const std::int64_t N = 6, M = 9;
  auto a = wl.matrix<double>(N, M);
  for (Order to : {Order::RowMajor, Order::ColMajor}) {
    for (Order eo : {Order::RowMajor, Order::ColMajor}) {
      TileSchedule s{to, eo, 4, 3};
      std::vector<double> b(N * M, 0.0);
      Graph g;
      auto& ch = g.channel<double>("m", 16);
      g.spawn("read", read_matrix<double>(
                          MatrixView<const double>(a.data(), N, M), s, 1, 8,
                          ch));
      g.spawn("write", write_matrix<double>(MatrixView<double>(b.data(), N, M),
                                            s, 8, ch));
      g.run();
      EXPECT_EQ(a, b) << "schedule tiles=" << to_string(to)
                      << " elems=" << to_string(eo);
    }
  }
}

TEST(Streamers, VectorReplayStreamsRepeatTimes) {
  std::vector<float> v{1, 2, 3};
  Graph g;
  auto& ch = g.channel<float>("v", 4);
  std::vector<float> out;
  g.spawn("read", read_vector<float>(VectorView<const float>(v.data(), 3), 3,
                                     2, ch));
  g.spawn("collect", collect<float>(9, ch, out));
  g.run();
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
}

TEST(Streamers, WriteVectorLastPassPersists) {
  std::vector<float> target(3, 0.0f);
  std::vector<float> stream{1, 2, 3, 10, 20, 30};
  Graph g;
  auto& ch = g.channel<float>("v", 8);
  g.spawn("feed", feed(stream, ch));
  g.spawn("write", write_vector<float>(VectorView<float>(target.data(), 3), 2,
                                       4, ch));
  g.run();
  EXPECT_EQ(target, (std::vector<float>{10, 20, 30}));
}

TEST(Streamers, Fanout2DuplicatesStream) {
  std::vector<int> in{5, 6, 7, 8};
  Graph g;
  auto& a = g.channel<int>("a", 8);
  auto& b = g.channel<int>("b", 8);
  auto& c = g.channel<int>("c", 8);
  std::vector<int> ob, oc;
  g.spawn("feed", feed(in, a));
  g.spawn("fan", fanout2<int>(4, 2, a, b, c));
  g.spawn("cb", collect<int>(4, b, ob));
  g.spawn("cc", collect<int>(4, c, oc));
  g.run();
  EXPECT_EQ(ob, in);
  EXPECT_EQ(oc, in);
}

TEST(Streamers, GenerateAndSinkBalance) {
  Graph g(Mode::Cycle);
  auto& ch = g.channel<double>("g", 32);
  g.spawn("gen", generate<double>(256, 3.5, 16, ch));
  g.spawn("sink", sink<double>(256, 16, ch));
  g.run();
  EXPECT_EQ(ch.total_pushed(), 256u);
  EXPECT_EQ(ch.total_popped(), 256u);
}

}  // namespace
}  // namespace fblas::stream
