// Out-of-order host runtime tests: observable overlap of independent
// commands, RAW/WAR/WAW hazard ordering, bit-identical results between
// the serial and concurrent policies (including a randomized hazard
// fuzz), makespan accounting, event chaining, ConfigGuard capture, the
// serial drain cursor and retirement of completed commands.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <latch>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "refblas/level2.hpp"

namespace fblas::host {
namespace {

template <typename T>
Buffer<T> make_buffer(Device& dev, const std::vector<T>& host, int bank = 0) {
  Buffer<T> b(dev, static_cast<std::int64_t>(host.size()), bank);
  b.write(host);
  return b;
}

// --- Dependency tracking unit tests ------------------------------------

TEST(DepGraphHazards, DisjointSetsGetNoEdges) {
  DepGraph g;
  int a = 0, b = 0;
  const void* ra[] = {&a};
  const void* rb[] = {&b};
  EXPECT_TRUE(g.add(1, ra, ra).empty());
  EXPECT_TRUE(g.add(2, rb, rb).empty());
}

TEST(DepGraphHazards, DerivesRawWarWaw) {
  DepGraph g;
  int x = 0;
  const void* rx[] = {&x};
  std::span<const void* const> none;
  EXPECT_TRUE(g.add(1, none, rx).empty());           // write x
  EXPECT_EQ(g.add(2, rx, none),                      // read x: RAW on 1
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(g.add(3, none, rx),                      // write x: WAW 1, WAR 2
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(g.add(4, rx, none),                      // read x: RAW on 3
            (std::vector<std::uint64_t>{3}));
}

TEST(DepGraphHazards, BarrierOrdersAgainstEverything) {
  DepGraph g;
  int a = 0, b = 0;
  const void* ra[] = {&a};
  const void* rb[] = {&b};
  std::span<const void* const> none;
  g.add(1, ra, ra);
  g.add(2, rb, rb);
  // The barrier must wait for both earlier commands...
  EXPECT_EQ(g.add(3, none, none, /*barrier=*/true),
            (std::vector<std::uint64_t>{1, 2}));
  // ...and later commands must wait for the barrier.
  const auto deps = g.add(4, ra, ra);
  EXPECT_NE(std::find(deps.begin(), deps.end(), 3u), deps.end());
}

TEST(DepGraphHazards, RetiredReadersFoldAwayButStillPoison) {
  // 100,000 retired readers of one buffer: the next writer (and the next
  // barrier) waits on a bounded handful of them, not on every one, and a
  // failed retired reader among them still poisons the writer.
  Executor ex(0);
  DepGraph g([&ex](std::vector<std::uint64_t>& seqs) {
    ex.fold_retired(seqs);
  });
  int x = 0;
  const void* rx[] = {&x};
  std::span<const void* const> none;
  constexpr std::uint64_t kReaders = 100000;
  ex.submit(1, [] { throw std::runtime_error("bad read"); },
            g.add(1, rx, none));
  EXPECT_THROW(ex.wait(1), std::runtime_error);
  for (std::uint64_t seq = 2; seq <= kReaders; ++seq) {
    ex.submit(seq, [] {}, g.add(seq, rx, none));
    ex.wait(seq);
  }

  const std::uint64_t writer = kReaders + 1;
  const auto deps = g.add(writer, none, rx);
  EXPECT_LE(deps.size(), 16u);
  ASSERT_FALSE(deps.empty());
  EXPECT_EQ(deps.front(), 1u);  // the failed reader is kept
  bool ran = false;
  ex.submit(writer, [&ran] { ran = true; }, deps);
  EXPECT_THROW(ex.wait(writer), Error);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(ex.status(writer).failed());
  EXPECT_LE(g.add(writer + 1, none, none, /*barrier=*/true).size(), 17u);
}

// --- Observable concurrency --------------------------------------------

TEST(ConcurrentExec, IndependentCommandsOverlap) {
  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
  // Two commands on disjoint resources rendezvous on a latch: the test
  // only completes if both are in flight at once.
  int a = 0, b = 0;
  std::latch both{2};
  auto body = [&both] {
    both.count_down();
    both.wait();
  };
  Command ca;
  ca.reads = {&a};
  ca.writes = {&a};
  ca.work = body;
  Command cb;
  cb.reads = {&b};
  cb.writes = {&b};
  cb.work = body;
  ctx.enqueue(std::move(ca));
  ctx.enqueue(std::move(cb));
  ctx.finish();
  EXPECT_GE(ctx.exec_stats().max_concurrent, 2);
  EXPECT_EQ(ctx.exec_stats().executed, 2u);
}

TEST(ConcurrentExec, ConflictingCommandsNeverOverlap) {
  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
  int x = 0;
  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < 8; ++i) {
    Command c;
    c.reads = {&x};
    c.writes = {&x};
    c.work = [&] {
      if (in_flight.fetch_add(1) != 0) overlapped = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      in_flight.fetch_sub(1);
    };
    ctx.enqueue(std::move(c));
  }
  ctx.finish();
  EXPECT_FALSE(overlapped.load());
}

TEST(ConcurrentExec, SerialPolicyStillDefersUntilWaited) {
  Device dev;
  Context ctx(dev);  // workers = 0: the paper's lazy in-order queue
  EXPECT_EQ(ctx.workers(), 0);
  Workload wl(71);
  auto x = make_buffer(dev, wl.vector<float>(64));
  Event e = ctx.scal_async<float>(64, 2.0f, x, 1);
  EXPECT_FALSE(e.done());
  e.wait();
  EXPECT_TRUE(e.done());
  EXPECT_TRUE(ctx.idle());
}

// --- Hazard chains are bit-identical to the serial schedule -------------

TEST(HazardOrdering, RawChainSeesWriterResult) {
  Device dev;
  for (int round = 0; round < 10; ++round) {
    Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
    Workload wl(100 + round);
    const auto hx = wl.vector<float>(256);
    auto x = make_buffer(dev, hx, 0);
    auto y = make_buffer(dev, std::vector<float>(256, 0.0f), 1);
    ctx.scal_async<float>(256, 2.0f, x, 1);
    ctx.copy_async<float>(256, x, 1, y, 1);  // RAW on x
    ctx.finish();
    const auto out = y.to_host();
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 2.0f * hx[i]) << "round " << round << " i " << i;
    }
  }
}

TEST(HazardOrdering, WarReaderSeesOldContents) {
  Device dev;
  for (int round = 0; round < 10; ++round) {
    Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
    Workload wl(200 + round);
    const auto hx = wl.vector<float>(256);
    const auto hy = wl.vector<float>(256);
    auto x = make_buffer(dev, hx, 0);
    auto y = make_buffer(dev, hy, 1);
    float expected = 0;
    for (int i = 0; i < 256; ++i) expected += hx[i] * hy[i];
    float r = -1;
    ctx.dot_async<float>(256, x, 1, y, 1, &r);
    ctx.scal_async<float>(256, 3.0f, x, 1);  // WAR on x
    ctx.finish();
    ASSERT_NEAR(r, expected, 1e-2f) << "round " << round;
  }
}

TEST(HazardOrdering, WawKeepsProgramOrder) {
  Device dev;
  for (int round = 0; round < 10; ++round) {
    Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
    Workload wl(300 + round);
    const auto ha = wl.vector<float>(256);
    const auto hb = wl.vector<float>(256);
    auto a = make_buffer(dev, ha, 0);
    auto b = make_buffer(dev, hb, 1);
    auto c = make_buffer(dev, std::vector<float>(256, 0.0f), 2);
    ctx.copy_async<float>(256, a, 1, c, 1);
    ctx.copy_async<float>(256, b, 1, c, 1);  // WAW on c
    ctx.finish();
    ASSERT_EQ(c.to_host(), hb) << "round " << round;
  }
}

// Randomized hazard fuzz: a long stream of commands with overlapping
// read/write sets must produce bit-identical state under the serial and
// concurrent policies. Besides the single-output vector routines, the
// stream mixes multi-output (SWAP, ROT) and matrix routines (GER and
// SYR2 updating the first kM x kM elements of a buffer, TRSV solving
// against a shared read-only triangle), so every shape of derived
// read/write set is exercised.
TEST(HazardOrdering, RandomizedFuzzMatchesSerial) {
  constexpr int kBuffers = 6;
  constexpr int kCommands = 200;
  constexpr std::int64_t kN = 64;
  constexpr std::int64_t kM = 8;  // kM * kM == kN

  struct Op {
    int kind;  // 0 scal, 1 axpy, 2 copy, 3 dot, 4 swap, 5 rot, 6 ger,
               // 7 syr2, 8 trsv
    int src;
    int dst;
    int aux;
    float alpha;
  };
  std::vector<Op> ops;
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> kind(0, 8);
  std::uniform_int_distribution<int> buf(0, kBuffers - 1);
  std::uniform_real_distribution<float> scale(0.5f, 1.5f);
  for (int i = 0; i < kCommands; ++i) {
    const int k = kind(rng), src = buf(rng), dst = buf(rng), aux = buf(rng);
    ops.push_back({k, src, dst, aux, scale(rng)});
  }

  auto run = [&](int workers, std::vector<std::vector<float>>& out,
                 std::vector<float>& dots) {
    Device dev;
    Context ctx(dev, stream::Mode::Functional, workers);
    Workload wl(424242);
    std::vector<Buffer<float>> bufs;
    for (int i = 0; i < kBuffers; ++i) {
      bufs.push_back(make_buffer(dev, wl.vector<float>(kN), i % 4));
    }
    // TRSV's A: well conditioned and never written, so solves stay finite.
    auto tri = make_buffer(dev, wl.triangular<float>(kM, Uplo::Lower,
                                                     Diag::NonUnit), 1);
    dots.assign(ops.size(), 0.0f);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      Buffer<float>& x = bufs[op.src];
      Buffer<float>& y = bufs[op.dst];
      Buffer<float>& a = bufs[op.aux];
      const bool two = op.src != op.dst;
      const bool three = two && op.aux != op.src && op.aux != op.dst;
      switch (op.kind) {
        case 0:
          ctx.scal_async<float>(kN, op.alpha, y, 1);
          break;
        case 1:
          if (two) ctx.axpy_async<float>(kN, op.alpha, x, 1, y, 1);
          break;
        case 2:
          if (two) ctx.copy_async<float>(kN, x, 1, y, 1);
          break;
        case 3:
          ctx.dot_async<float>(kN, x, 1, y, 1, &dots[i]);
          break;
        case 4:
          if (two) ctx.swap_async<float>(kN, x, 1, y, 1);
          break;
        case 5:
          if (two) ctx.rot_async<float>(kN, x, 1, y, 1, 0.6f, 0.8f);
          break;
        case 6:
          if (three) {
            ctx.ger_async<float>(kM, kM, 0.01f * op.alpha, x, 1, y, 1, a);
          }
          break;
        case 7:
          if (three) {
            ctx.syr2_async<float>(Uplo::Lower, kM, 0.01f * op.alpha, x, 1, y,
                                  1, a);
          }
          break;
        case 8:
          ctx.trsv_async<float>(Uplo::Lower, Transpose::None, Diag::NonUnit,
                                kM, tri, y, 1);
          break;
      }
    }
    ctx.finish();
    out.clear();
    for (auto& b : bufs) out.push_back(b.to_host());
  };

  std::vector<std::vector<float>> serial_state, conc_state;
  std::vector<float> serial_dots, conc_dots;
  run(0, serial_state, serial_dots);
  run(4, conc_state, conc_dots);
  // Conflicting commands retain program order, so results must be
  // bit-identical, not merely close.
  EXPECT_EQ(serial_state, conc_state);
  EXPECT_EQ(serial_dots, conc_dots);
  // Growth is bounded, so a misordered command cannot hide behind Inf.
  for (const auto& v : serial_state) {
    for (float f : v) ASSERT_TRUE(std::isfinite(f));
  }
}

// --- Cycle accounting ---------------------------------------------------

TEST(Makespan, IndependentCommandsOverlapInDeviceTime) {
  Device dev;
  Context ctx(dev, stream::Mode::Cycle, /*workers=*/4);
  Workload wl(55);
  const std::int64_t rows = 64, cols = 64;
  auto a = make_buffer(dev, wl.matrix<float>(rows, cols), 0);
  std::vector<Buffer<float>> xs, ys;
  for (int i = 0; i < 4; ++i) {
    xs.push_back(make_buffer(dev, wl.vector<float>(cols), 1));
    ys.push_back(make_buffer(dev, std::vector<float>(rows, 0.0f), 2));
  }
  for (int i = 0; i < 4; ++i) {
    ctx.gemv_async<float>(Transpose::None, rows, cols, 1.0f, a, xs[i], 1,
                          0.0f, ys[i], 1);
  }
  ctx.finish();
  EXPECT_GT(ctx.makespan_cycles(), 0u);
  EXPECT_LT(ctx.makespan_cycles(), ctx.total_cycles());
  // Four equal-size independent GEMVs: the critical path is one GEMV.
  EXPECT_NEAR(static_cast<double>(ctx.makespan_cycles()),
              static_cast<double>(ctx.total_cycles()) / 4.0,
              0.05 * static_cast<double>(ctx.total_cycles()));
}

TEST(Makespan, DependentChainMatchesTotal) {
  Device dev;
  Context ctx(dev, stream::Mode::Cycle, /*workers=*/4);
  Workload wl(56);
  auto x = make_buffer(dev, wl.vector<float>(4096), 0);
  for (int i = 0; i < 4; ++i) {
    ctx.scal_async<float>(4096, 1.001f, x, 1);  // WAW/RAW chain on x
  }
  ctx.finish();
  EXPECT_EQ(ctx.makespan_cycles(), ctx.total_cycles());
}

// --- Event API ----------------------------------------------------------

TEST(EventApi, DefaultConstructedIsCompletedNoOp) {
  Event e;
  EXPECT_TRUE(e.done());
  e.wait();  // must not crash
}

TEST(EventApi, WaitAllDrainsMixedEvents) {
  Device dev;
  Context ctx(dev);
  Workload wl(57);
  auto x = make_buffer(dev, wl.vector<float>(64), 0);
  auto y = make_buffer(dev, wl.vector<float>(64), 1);
  std::vector<Event> events;
  events.push_back(ctx.scal_async<float>(64, 2.0f, x, 1));
  events.push_back(Event());  // default events are fine in the batch
  events.push_back(ctx.scal_async<float>(64, 2.0f, y, 1));
  Event::wait_all(events);
  for (Event& e : events) EXPECT_TRUE(e.done());
  EXPECT_TRUE(ctx.idle());
}

TEST(EventApi, EnqueueAfterChainsExplicitly) {
  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
  std::atomic<bool> first_done{false};
  int a = 0, b = 0;
  Command ca;
  ca.reads = {&a};
  ca.writes = {&a};
  ca.work = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    first_done = true;
  };
  Event ea = ctx.enqueue(std::move(ca));
  // Disjoint resources: only the explicit `after` edge orders them.
  bool saw_first = false;
  Command cb;
  cb.reads = {&b};
  cb.writes = {&b};
  cb.after = {ea};
  cb.work = [&] { saw_first = first_done.load(); };
  ctx.enqueue(std::move(cb)).wait();
  EXPECT_TRUE(saw_first);
}

TEST(EventApi, UntypedEnqueueAfterOverloadRuns) {
  Device dev;
  Context ctx(dev);
  int order = 0;
  Event a = ctx.enqueue([&] { order = order * 10 + 1; });
  std::vector<Event> after{a};
  Event b = ctx.enqueue([&] { order = order * 10 + 2; },
                        std::span<const Event>(after));
  b.wait();
  EXPECT_EQ(order, 12);
}

// --- Exceptions ---------------------------------------------------------

TEST(ExceptionPropagation, ConcurrentWaitRethrows) {
  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/2);
  Workload wl(58);
  auto a = make_buffer(dev, wl.vector<float>(16), 0);
  auto b = make_buffer(dev, wl.vector<float>(16), 1);
  auto c = make_buffer(dev, wl.vector<float>(16), 2);
  // Batch of 4x4 problems needs 4*16 elements; 16 is too small.
  Event e = ctx.gemm_batched_async<float>(4, 4, 1.0f, a, b, c);
  EXPECT_THROW(e.wait(), Error);
  ctx.finish();  // error already consumed; finish is clean
}

TEST(ExceptionPropagation, SerialWaitRethrows) {
  Device dev;
  Context ctx(dev);
  Workload wl(59);
  auto a = make_buffer(dev, wl.vector<float>(16), 0);
  auto b = make_buffer(dev, wl.vector<float>(16), 1);
  auto c = make_buffer(dev, wl.vector<float>(16), 2);
  EXPECT_THROW(ctx.gemm_batched<float>(4, 4, 1.0f, a, b, c), Error);
}

// --- Config capture and ConfigGuard -------------------------------------

TEST(ConfigCapture, CommandsUseConfigFromEnqueueTime) {
  // Two serial cycle-mode contexts: one enqueues under a width-4 guard and
  // mutates the config before the lazy execution happens; the other just
  // runs with width 4. Cycle counts must match: the command captured the
  // knobs when it was enqueued, not when it ran.
  Workload wl(60);
  const auto hx = wl.vector<float>(4096);

  Device dev_a;
  Context guarded(dev_a, stream::Mode::Cycle);
  auto xa = make_buffer(dev_a, hx, 0);
  Event e;
  {
    RoutineConfig narrow = guarded.config();
    narrow.width = 4;
    ConfigGuard g = guarded.with(narrow);
    e = guarded.scal_async<float>(4096, 2.0f, xa, 1);
  }
  guarded.config().width = 64;  // must not affect the enqueued command
  e.wait();

  Device dev_b;
  Context reference(dev_b, stream::Mode::Cycle);
  auto xb = make_buffer(dev_b, hx, 0);
  reference.config().width = 4;
  reference.scal<float>(4096, 2.0f, xb);

  EXPECT_EQ(guarded.last_cycles(), reference.last_cycles());
  EXPECT_EQ(xa.to_host(), xb.to_host());

  // SYMV lowers onto the GEMV graph: it too runs with the width and
  // tiles captured at enqueue, not the ones set before it ran.
  const std::int64_t n = 96;
  const auto ha = wl.matrix<float>(n, n);
  const auto hv = wl.vector<float>(n);
  auto symv_cycles = [&](Context& ctx, Device& dev, bool widen_after) {
    auto a = make_buffer(dev, ha, 0);
    auto x = make_buffer(dev, hv, 1);
    auto y = make_buffer(dev, hv, 2);
    ctx.config().width = 4;
    ctx.config().tile_rows = ctx.config().tile_cols = 8;
    Event ev = ctx.symv_async<float>(Uplo::Upper, n, 1.5f, a, x, 1, 0.5f, y, 1);
    if (widen_after) {
      ctx.config().width = 32;
      ctx.config().tile_rows = ctx.config().tile_cols = 64;
    }
    ev.wait();
    return std::make_pair(ctx.last_cycles(), y.to_host());
  };
  const auto [late_cycles, late_y] = symv_cycles(guarded, dev_a, true);
  const auto [ref_cycles, ref_y] = symv_cycles(reference, dev_b, false);
  EXPECT_EQ(late_cycles, ref_cycles);
  EXPECT_EQ(late_y, ref_y);
}

TEST(ConfigCapture, GuardRestoresOnScopeExit) {
  Device dev;
  Context ctx(dev);
  const int before = ctx.config().width;
  {
    RoutineConfig cfg = ctx.config();
    cfg.width = 2;
    ConfigGuard g = ctx.with(cfg);
    EXPECT_EQ(ctx.config().width, 2);
  }
  EXPECT_EQ(ctx.config().width, before);
}

TEST(ConfigCapture, InlineWithOverride) {
  Device dev;
  Context ctx(dev, stream::Mode::Cycle);
  Workload wl(61);
  auto x = make_buffer(dev, wl.vector<float>(4096), 0);
  const int before = ctx.config().width;
  RoutineConfig wide = ctx.config();
  wide.width = 32;
  ctx.with(wide)->scal<float>(4096, 2.0f, x);
  const std::uint64_t wide_cycles = ctx.last_cycles();
  EXPECT_EQ(ctx.config().width, before);
  RoutineConfig narrow = ctx.config();
  narrow.width = 4;
  ctx.with(narrow)->scal<float>(4096, 2.0f, x);
  EXPECT_GT(ctx.last_cycles(), wide_cycles);
}

// --- SYMV under the concurrent policy -----------------------------------

// Sixteen SYMVs in flight on four workers while the caller changes the
// width between enqueues: each command runs with the width it was
// enqueued under (bit-identical to a serial run at that width), and the
// workers never read the live RoutineConfig.
TEST(SpecializedUnderWorkers, SymvUsesEnqueueTimeConfig) {
  constexpr int kCalls = 16;
  const std::int64_t n = 32;
  Workload wl(62);
  const auto ha = wl.matrix<float>(n, n);
  const auto hx = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  auto width_of = [](int i) { return 1 << (i % 5); };

  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
  auto a = make_buffer(dev, ha, 0);
  auto x = make_buffer(dev, hx, 1);
  std::vector<Buffer<float>> ys;
  ys.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) ys.push_back(make_buffer(dev, hy, 2));
  for (int i = 0; i < kCalls; ++i) {
    ctx.config().width = width_of(i);
    ctx.symv_async<float>(i % 2 ? Uplo::Upper : Uplo::Lower, n, 1.5f, a, x, 1,
                          0.5f, ys[static_cast<std::size_t>(i)], 1);
  }
  ctx.config().width = 64;
  ctx.finish();
  EXPECT_TRUE(ctx.idle());

  for (int i = 0; i < kCalls; ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    Device sdev;
    Context serial(sdev);
    serial.config().width = width_of(i);
    auto sa = make_buffer(sdev, ha, 0);
    auto sx = make_buffer(sdev, hx, 1);
    auto sy = make_buffer(sdev, hy, 2);
    serial.symv<float>(i % 2 ? Uplo::Upper : Uplo::Lower, n, 1.5f, sa, sx,
                       1, 0.5f, sy, 1);
    EXPECT_EQ(ys[static_cast<std::size_t>(i)].to_host(), sy.to_host());
  }
}

// A library call issued from inside a running command body is refused
// with an error that names the problem; the enclosing command fails.
// ROTG and ROTMG, which run their setup graph synchronously without
// enqueueing a command, are refused the same way.
TEST(SpecializedUnderWorkers, LibraryCallInsideCommandBodyIsRefused) {
  float a = 3.0f, b = 4.0f, d1 = 1.0f, d2 = 1.0f, x1 = 2.0f;
  const std::pair<const char*,
                  std::function<void(Context&, Buffer<float>&)>>
      calls[] = {
          {"scal",
           [](Context& ctx, Buffer<float>& x) { ctx.scal<float>(16, 2.0f, x); }},
          {"rotg", [&](Context& ctx, Buffer<float>&) { ctx.rotg(a, b); }},
          {"rotmg", [&](Context& ctx, Buffer<float>&) {
             ctx.rotmg(d1, d2, x1, 3.0f);
           }}};
  for (int workers : {0, 2}) {
    for (const auto& [name, call] : calls) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " " + name);
      // One context per call: a barrier after a failed one would fail as
      // its dependent whatever its own body did.
      Device dev;
      Context ctx(dev, stream::Mode::Functional, workers);
      Workload wl(63);
      auto x = make_buffer(dev, wl.vector<float>(16), 0);
      Event e = ctx.enqueue([&] { call(ctx, x); });
      try {
        e.wait();
        ADD_FAILURE() << "nested library call was not refused";
      } catch (const Error& err) {
        EXPECT_NE(std::string(err.what()).find("inside a command body"),
                  std::string::npos)
            << err.what();
      }
      EXPECT_TRUE(e.status().failed());
    }
  }
  // The refused setups changed none of their scalars.
  EXPECT_EQ(a, 3.0f);
  EXPECT_EQ(d1, 1.0f);
}

// --- Worker-pool exception robustness -----------------------------------

TEST(ExceptionStress, RandomThrowsIn200CommandDagFailDeterministically) {
  // ~10% of a 200-command hazard-laden DAG throw mid-body. Requirements:
  // the drain loop terminates (wait_all never hangs on a failed graph),
  // dependents of a failed command are skipped with a deterministic
  // "dependency failed" error, and the full per-command outcome vector is
  // identical across the serial policy and repeated worker-pool runs.
  constexpr int kCommands = 200;
  constexpr int kResources = 12;

  struct Outcome {
    std::vector<std::string> failures;  // "seq: message" for failed cmds
    int bodies_entered = 0;
    std::uint64_t executed = 0;
  };
  auto run = [&](int workers) {
    Device dev;
    Context ctx(dev, stream::Mode::Functional, workers);
    std::array<int, kResources> res{};
    std::mt19937 rng(1234);  // same seed -> same DAG and same throw set
    std::atomic<int> bodies{0};
    std::vector<Event> events;
    events.reserve(kCommands);
    for (int i = 0; i < kCommands; ++i) {
      Command c;
      c.reads = {&res[rng() % kResources], &res[rng() % kResources]};
      c.writes = {&res[rng() % kResources]};
      const bool throws = rng() % 10 == 0;
      c.work = [&bodies, throws, i] {
        bodies.fetch_add(1);
        if (throws) {
          throw std::runtime_error("injected throw in command body " +
                                   std::to_string(i));
        }
      };
      events.push_back(ctx.enqueue(std::move(c)));
    }
    // Drain: wait_all rethrows one recorded error per call (consuming
    // it); with every command completed -- failed or not -- this loop is
    // bounded and must terminate instead of hanging.
    int caught = 0;
    for (;;) {
      try {
        ctx.finish();
        break;
      } catch (const std::exception&) {
        if (++caught > kCommands) {
          ADD_FAILURE() << "drain loop did not converge";
          break;
        }
      }
    }
    EXPECT_TRUE(ctx.idle());
    Outcome out;
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].wait();  // must be a no-op now, never a hang
      const CommandStatus st = events[i].status();
      if (st.failed()) {
        out.failures.push_back(std::to_string(i) + ": " + st.message);
      } else {
        EXPECT_TRUE(st.ok());
      }
    }
    out.bodies_entered = bodies.load();
    out.executed = ctx.exec_stats().executed;
    return out;
  };

  const Outcome serial = run(0);
  const Outcome pool_a = run(4);
  const Outcome pool_b = run(4);
  EXPECT_EQ(serial.executed, static_cast<std::uint64_t>(kCommands));
  EXPECT_EQ(pool_a.executed, static_cast<std::uint64_t>(kCommands));
  EXPECT_FALSE(serial.failures.empty());
  // Throwers fail with their own message; poisoned dependents are skipped
  // deterministically (lowest-seq failed dependency), so the outcome
  // vectors match exactly across policies and across pool runs.
  EXPECT_EQ(serial.failures, pool_a.failures);
  EXPECT_EQ(pool_a.failures, pool_b.failures);
  EXPECT_EQ(serial.bodies_entered, pool_a.bodies_entered);
  bool saw_skip = false;
  for (const std::string& f : serial.failures) {
    if (f.find("skipped: dependency command") != std::string::npos) {
      saw_skip = true;
      EXPECT_NE(f.find("failed"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_skip);
}

// --- Serial drain cursor ------------------------------------------------

// A command on its own resource (no hazards, so a failure poisons
// nothing) that logs its index and throws when `throws`.
Command logged(std::vector<int>& ran, int* res, int i, bool throws) {
  Command c;
  c.reads = {res};
  c.writes = {res};
  c.work = [&ran, i, throws] {
    ran.push_back(i);
    if (throws) throw std::runtime_error("throw in " + std::to_string(i));
  };
  return c;
}

std::vector<int> iota_to(int last) {
  std::vector<int> v;
  for (int i = 0; i <= last; ++i) v.push_back(i);
  return v;
}

TEST(SerialDrain, PartialWaitsThrowsAndWaitAllRunEachCommandOnce) {
  Device dev;
  Context ctx(dev);
  constexpr int kCommands = 20;
  std::array<int, kCommands> res{};
  std::vector<int> ran;
  std::vector<Event> ev;
  for (int i = 0; i < kCommands; ++i) {
    ev.push_back(ctx.enqueue(logged(ran, &res[i], i, i == 7 || i == 13)));
  }
  EXPECT_TRUE(ran.empty());  // lazy until waited

  ev[3].wait();
  EXPECT_EQ(ran, iota_to(3));
  ev[2].wait();  // already drained: no-op
  EXPECT_EQ(ran, iota_to(3));

  // The drain towards 10 stops at the throw in 7...
  EXPECT_THROW(ev[10].wait(), std::runtime_error);
  EXPECT_EQ(ran, iota_to(7));
  EXPECT_TRUE(ev[7].done());
  EXPECT_FALSE(ev[8].done());
  // ...and the next wait resumes after it, not at it.
  ev[10].wait();
  EXPECT_EQ(ran, iota_to(10));

  EXPECT_THROW(ctx.finish(), std::runtime_error);  // throw in 13
  EXPECT_EQ(ran, iota_to(13));
  ctx.finish();
  EXPECT_EQ(ran, iota_to(kCommands - 1));
  EXPECT_TRUE(ctx.idle());

  // Waiting again on a failed command neither reruns nor rethrows.
  EXPECT_NO_THROW(ev[7].wait());
  EXPECT_NO_THROW(ev[13].wait());
  EXPECT_NO_THROW(ctx.finish());
  EXPECT_EQ(ran, iota_to(kCommands - 1));
  EXPECT_TRUE(ev[7].status().failed());
  EXPECT_EQ(ev[13].status().message, "throw in 13");
  EXPECT_TRUE(ev[8].status().ok());
}

TEST(ConcurrentDrain, WaitAllRethrowsLowestUnconsumedErrorOnce) {
  Device dev;
  Context ctx(dev, stream::Mode::Functional, /*workers=*/4);
  constexpr int kCommands = 8;
  std::array<int, kCommands> res{};
  std::vector<int> ran;  // in completion order: the bodies overlap
  std::mutex mu;
  std::vector<Event> ev;
  for (int i = 0; i < kCommands; ++i) {
    Command c;
    c.reads = {&res[i]};
    c.writes = {&res[i]};
    const bool throws = i == 2 || i == 4 || i == 5;
    c.work = [&ran, &mu, i, throws] {
      {
        std::lock_guard<std::mutex> lk(mu);
        ran.push_back(i);
      }
      if (throws) throw std::runtime_error("throw in " + std::to_string(i));
    };
    ev.push_back(ctx.enqueue(std::move(c)));
  }
  auto finish_message = [&]() -> std::string {
    try {
      ctx.finish();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_THROW(ev[5].wait(), std::runtime_error);  // consumes 5's error
  EXPECT_EQ(finish_message(), "throw in 2");
  EXPECT_EQ(finish_message(), "throw in 4");
  EXPECT_EQ(finish_message(), "");
  EXPECT_NO_THROW(ev[2].wait());
  EXPECT_EQ(ran.size(), static_cast<std::size_t>(kCommands));
}

// --- Retirement of completed commands -----------------------------------

Command noting(std::vector<const void*> reads, std::vector<const void*> writes,
               std::uint64_t cycles) {
  Command c;
  c.reads = std::move(reads);
  c.writes = std::move(writes);
  c.work = [cycles] { Attempt::current()->cycles += cycles; };
  return c;
}

void expect_same_status(const CommandStatus& got, const CommandStatus& want) {
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.message, want.message);
  EXPECT_EQ(got.verify_rejections, want.verify_rejections);
  EXPECT_EQ(got.device, want.device);
}

// Failed, Degraded and verify-rejected commands run first, then 10K later
// commands run and retire. The early outcomes must read the same, and
// new dependents of retired commands must still see their finish times
// and their failures.
void check_retirement(int workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  constexpr std::uint64_t kAnchorCycles = 1'000'000;
  constexpr std::uint64_t kTailCycles = 5;
  constexpr int kLater = 10'000;

  Device dev;
  Context ctx(dev, stream::Mode::Functional, workers);
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.backoff = std::chrono::microseconds{0};
  policy.cpu_fallback = true;
  ctx.set_retry_policy(policy);
  ctx.config().verification = verify::Options::always();
  int bad = 0, lost = 0, checked = 0, anchor = 0, busy = 0, tail = 0;

  Command fail;  // seq 1
  fail.writes = {&bad};
  fail.work = [] { throw std::runtime_error("early failure"); };
  Event failed = ctx.enqueue(std::move(fail));

  Command degrade;  // seq 2: every device attempt fails transiently
  degrade.writes = {&lost};
  degrade.work = [] { throw DeviceError("device lost"); };
  degrade.fallback = [&lost] { lost = 7; };
  Event degraded = ctx.enqueue(std::move(degrade));

  Command reject;  // seq 3: the first check rejects, the retry passes
  reject.writes = {&checked};
  reject.work = [] {};
  reject.checker = [calls = std::make_shared<int>(0)]() -> ResultCheck {
    return [calls](double) {
      if ((*calls)++ == 0) throw VerificationError("injected rejection");
    };
  };
  Event rejected = ctx.enqueue(std::move(reject));

  ctx.enqueue(noting({}, {&anchor}, kAnchorCycles));  // seq 4

  EXPECT_THROW(failed.wait(), std::runtime_error);
  degraded.wait();
  rejected.wait();
  const CommandStatus failed_st = failed.status();
  const CommandStatus degraded_st = degraded.status();
  const CommandStatus rejected_st = rejected.status();
  EXPECT_TRUE(failed_st.failed());
  EXPECT_EQ(failed_st.message, "early failure");
  EXPECT_EQ(failed_st.device, 0);
  EXPECT_TRUE(degraded_st.degraded());
  EXPECT_EQ(degraded_st.message,
            "degraded to CPU fallback after: device lost");
  EXPECT_EQ(degraded_st.device, 0);  // the device whose failure forced it
  EXPECT_EQ(lost, 7);
  EXPECT_TRUE(rejected_st.ok());
  EXPECT_EQ(rejected_st.verify_rejections, 1u);
  EXPECT_EQ(rejected_st.device, 0);

  for (int i = 0; i < kLater; ++i) {  // seqs 5 .. kLater + 4
    ctx.enqueue(noting({&busy}, {&busy}, 1));
  }
  ctx.finish();  // every error was already rethrown once
  EXPECT_TRUE(ctx.idle());

  expect_same_status(failed.status(), failed_st);
  expect_same_status(degraded.status(), degraded_st);
  expect_same_status(rejected.status(), rejected_st);
  EXPECT_TRUE(failed.done());
  EXPECT_NO_THROW(failed.wait());  // retired and consumed: no rethrow

  // A new reader of the retired Failed command's output is poisoned
  // with the same message as before retirement.
  bool reader_ran = false;
  Command read_bad;
  read_bad.reads = {&bad};
  read_bad.work = [&reader_ran] { reader_ran = true; };
  Event poisoned = ctx.enqueue(std::move(read_bad));
  EXPECT_THROW(poisoned.wait(), Error);
  EXPECT_FALSE(reader_ran);
  const CommandStatus poisoned_st = poisoned.status();
  EXPECT_TRUE(poisoned_st.failed());
  EXPECT_EQ(poisoned_st.message,
            "command " + std::to_string(kLater + 5) +
                " skipped: dependency command 1 failed (early failure)");
  EXPECT_EQ(poisoned_st.device, -1);  // never placed
  EXPECT_NO_THROW(poisoned.wait());

  // A new reader of the retired anchor starts at its recorded finish,
  // exactly as in a history-free chain.
  ctx.enqueue(noting({&anchor}, {&tail}, kTailCycles)).wait();
  Device dev_chain;
  Context chain(dev_chain, stream::Mode::Functional, workers);
  chain.enqueue(noting({}, {&anchor}, kAnchorCycles));
  chain.enqueue(noting({&anchor}, {&tail}, kTailCycles));
  chain.finish();
  EXPECT_EQ(chain.makespan_cycles(), kAnchorCycles + kTailCycles);
  EXPECT_EQ(ctx.makespan_cycles(), chain.makespan_cycles());
  EXPECT_NO_THROW(ctx.finish());
}

TEST(Retirement, OutcomesSurviveTenThousandLaterCommandsSerial) {
  check_retirement(0);
}

TEST(Retirement, OutcomesSurviveTenThousandLaterCommandsWorkers4) {
  check_retirement(4);
}

}  // namespace
}  // namespace fblas::host
