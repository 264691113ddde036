// Tests for the tracing/metrics layer (src/trace): span lifecycle
// reconciliation against ExecStats (serial and 4-worker chaos), the
// bounded ring's drop-oldest behavior with exact counters, engine-side
// summaries, the two-clock span model, and the Chrome trace-event JSON
// schema (parsed back with the repo's own JSON parser, so the export
// provably loads in chrome://tracing).
//
// Labeled `trace` (ctest -L trace); CI runs it under ASan and TSan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/atax.hpp"
#include "apps/gemver.hpp"
#include "common/json.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/device_pool.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"
#include "verify/options.hpp"

namespace fblas {
namespace {

host::RetryPolicy relaxed_retry() {
  host::RetryPolicy p;
  p.max_retries = 8;
  p.backoff = std::chrono::microseconds(0);
  p.full_jitter = true;
  p.jitter_seed = 7;
  return p;
}

const trace::DeviceMetrics& device_metric(const trace::MetricsSnapshot& m,
                                          std::size_t i) {
  static const trace::DeviceMetrics kEmpty;
  return i < m.per_device.size() ? m.per_device[i] : kEmpty;
}

// The chaos mixed workload (mirrors test_chaos.cpp): 5 rounds x 8
// chained commands across L1 / L2 / L3 / systolic / composed MDAG on a
// 3-device pool, optionally with every fault mode armed.
struct TracedRun {
  host::ExecStats stats;
  std::shared_ptr<trace::Recorder> rec;
};

TracedRun run_traced_chaos(int workers, bool with_faults) {
  const std::int64_t vn = 96;
  const std::int64_t gr = 40, gc = vn;
  const std::int64_t m3 = 32, n3 = 28, k3 = 24;
  const std::int64_t ms = 24, ns = 20, ks = 16;
  const std::int64_t an = 24, am = 18;

  host::DevicePool pool(3);
  host::Context ctx(pool, stream::Mode::Cycle, workers);
  ctx.config().verification = verify::Options::always().in_grid();
  stream::Watchdog wd;
  wd.max_cycles = 1u << 20;
  ctx.set_watchdog(wd);
  ctx.set_retry_policy(relaxed_retry());
  TracedRun out;
  out.rec = ctx.tracing();
  if (with_faults) {
    host::FaultConfig faults;
    faults.seed = 23;
    faults.launch_fail_rate = 0.02;
    faults.corrupt_rate = 0.02;
    faults.wedge_rate = 0.004;
    faults.silent_corrupt_rate = 0.02;
    faults.channel_corrupt_rate = 0.01;
    faults.pe_fault_rate = 0.06;
    faults.device_fault_window.device = 1;
    faults.device_fault_window.begin = 8;
    faults.device_fault_window.end = 24;
    faults.device_fault_window.multiplier = 25.0;
    pool.inject_faults(faults);
  }

  Workload wl(60);
  host::Buffer<float> v0(pool.device(0), vn, 0), v1(pool.device(0), vn, 1);
  host::Buffer<float> ga(pool.device(0), gr * gc, 0);
  host::Buffer<float> gy(pool.device(0), gr, 2);
  host::Buffer<float> ma(pool.device(1), m3 * k3, 0);
  host::Buffer<float> mb(pool.device(1), k3 * n3, 1);
  host::Buffer<float> mc(pool.device(1), m3 * n3, 2);
  host::Buffer<float> sa(pool.device(2), ms * ks, 0);
  host::Buffer<float> sb(pool.device(2), ks * ns, 1);
  host::Buffer<float> sc(pool.device(2), ms * ns, 2);
  host::Buffer<float> aa(pool.device(2), an * am, 0);
  host::Buffer<float> ax(pool.device(2), am, 1);
  host::Buffer<float> ay(pool.device(2), am, 2);
  v0.write(wl.vector<float>(vn));
  v1.write(wl.vector<float>(vn));
  ga.write(wl.matrix<float>(gr, gc));
  gy.write(std::vector<float>(static_cast<std::size_t>(gr), 0.0f));
  ma.write(wl.matrix<float>(m3, k3));
  mb.write(wl.matrix<float>(k3, n3));
  mc.write(wl.matrix<float>(m3, n3));
  sa.write(wl.matrix<float>(ms, ks));
  sb.write(wl.matrix<float>(ks, ns));
  sc.write(std::vector<float>(static_cast<std::size_t>(ms * ns), 0.0f));
  aa.write(wl.matrix<float>(an, am));
  ax.write(wl.vector<float>(am));
  ay.write(std::vector<float>(static_cast<std::size_t>(am), 0.0f));

  for (int round = 0; round < 5; ++round) {
    ctx.scal_async<float>(vn, 1.01f, v0, 1);
    ctx.axpy_async<float>(vn, 0.5f, v0, 1, v1, 1);
    ctx.gemv_async<float>(Transpose::None, gr, gc, 1.0f, ga, v1, 1, 0.5f, gy,
                          1);
    ctx.gemm_async<float>(Transpose::None, Transpose::None, m3, n3, k3, 1.0f,
                          ma, mb, 0.5f, mc);
    ctx.gemm_systolic_async<float>(ms, ns, ks, sa, sb, sc);
    apps::atax_composed_async<float>(ctx, an, am, aa, ax, ay);
  }
  ctx.finish();
  out.stats = ctx.exec_stats();
  return out;
}

// The exact reconciliation contract between the trace counters and the
// runtime's own ExecStats / per-device ledgers: every span the runtime
// accounts for must appear in the trace exactly once, and vice versa.
void expect_trace_reconciles(const trace::MetricsSnapshot& m,
                             const host::ExecStats& stats) {
  EXPECT_EQ(m.completes, stats.executed);
  EXPECT_EQ(m.enqueued, stats.executed);  // everything enqueued completed
  EXPECT_EQ(m.degraded, stats.degraded);
  EXPECT_EQ(m.retries, stats.retries);
  EXPECT_EQ(m.verify_checks, stats.verified);
  EXPECT_EQ(m.verify_rejects, stats.verify_failures);
  EXPECT_EQ(m.migrations, stats.migrations);
  EXPECT_EQ(m.migrated_bytes, stats.migrated_bytes);
  EXPECT_EQ(m.breaker_opens, stats.breaker_opens);
  EXPECT_EQ(m.breaker_readmissions, stats.breaker_readmissions);
  // No command failed terminally (so none was poisoned): every complete
  // took exactly 1 + its retries attempts.
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.attempts, m.completes + m.retries);
  EXPECT_EQ(m.ok + m.degraded, m.completes);
  // Exact-counter invariants of the snapshot itself.
  EXPECT_EQ(m.kind(trace::EventKind::Attempt), m.attempts);
  EXPECT_EQ(m.kind(trace::EventKind::Complete), m.completes);
  EXPECT_EQ(m.kind(trace::EventKind::Retry), m.retries);
  EXPECT_EQ(m.attempt_wall_ns.count, m.attempts);
  EXPECT_EQ(m.command_cycles.count, m.completes);
  // Per-device ledgers: placements, verify verdicts, inbound migrations,
  // breaker history and probes, device by device.
  ASSERT_EQ(stats.per_device.size(), 3u);
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < stats.per_device.size(); ++i) {
    const host::PerDeviceStats& d = stats.per_device[i];
    const trace::DeviceMetrics& t = device_metric(m, i);
    EXPECT_EQ(t.placed, d.attempts) << "device " << i;
    EXPECT_EQ(t.verify_rejects, d.verify_rejects) << "device " << i;
    EXPECT_EQ(t.migrations_in, d.migrations_in) << "device " << i;
    EXPECT_EQ(t.migrated_bytes_in, d.migrated_bytes_in) << "device " << i;
    EXPECT_EQ(t.breaker_opens, d.breaker_opens) << "device " << i;
    EXPECT_EQ(t.breaker_readmissions, d.breaker_readmissions)
        << "device " << i;
    EXPECT_EQ(t.probes, d.probes) << "device " << i;
    probes += d.probes;
  }
  EXPECT_EQ(m.probes, probes);
}

TEST(Trace, OffByDefaultAndNearZeroDisarmedCost) {
  host::DevicePool pool(1);
  host::Context ctx(pool, stream::Mode::Cycle, 0);
  EXPECT_EQ(ctx.trace_recorder(), nullptr);
  EXPECT_EQ(trace::sink(), nullptr);
  // Emitting through the thread-local sink with tracing off is a no-op.
  trace::Event e;
  e.kind = trace::EventKind::Attempt;
  trace::emit(e);

  const std::int64_t n = 32;
  Workload wl(3);
  host::Buffer<float> x(pool.device(0), n, 0);
  x.write(wl.vector<float>(n));
  ctx.scal_async<float>(n, 2.0f, x, 1);
  ctx.finish();
  EXPECT_EQ(ctx.exec_stats().executed, 1u);
  EXPECT_EQ(ctx.trace_recorder(), nullptr);
}

TEST(Trace, StopTracingDisarmsNewCommands) {
  host::DevicePool pool(1);
  host::Context ctx(pool, stream::Mode::Cycle, 0);
  auto rec = ctx.tracing();
  const std::int64_t n = 16;
  Workload wl(4);
  host::Buffer<float> x(pool.device(0), n, 0);
  x.write(wl.vector<float>(n));
  ctx.scal_async<float>(n, 2.0f, x, 1);
  ctx.finish();
  const std::uint64_t recorded = rec->metrics().recorded;
  EXPECT_GT(recorded, 0u);
  ctx.stop_tracing();
  EXPECT_EQ(ctx.trace_recorder(), nullptr);
  ctx.scal_async<float>(n, 0.5f, x, 1);
  ctx.finish();
  // The old recorder stays valid but sees nothing new.
  EXPECT_EQ(rec->metrics().recorded, recorded);
}

TEST(Trace, EventNameTruncatesAndRoundTrips) {
  trace::Event e;
  e.set_name("short");
  EXPECT_EQ(e.name_view(), "short");
  e.set_name(std::string(80, 'x'));
  EXPECT_EQ(e.name_view().size(), sizeof(e.name) - 1);
}

TEST(Trace, RingWrapDropsOldestButCountersStayExact) {
  trace::Options opts;
  opts.ring_capacity = 64;
  trace::Recorder rec(opts);
  for (int i = 0; i < 1000; ++i) {
    trace::Event e;
    e.kind = trace::EventKind::Attempt;
    e.seq = static_cast<std::uint64_t>(i);
    e.a = 100;
    rec.emit(e);
  }
  const trace::MetricsSnapshot m = rec.metrics();
  EXPECT_EQ(m.recorded, 1000u);
  EXPECT_EQ(m.dropped, 1000u - 64u);
  EXPECT_EQ(m.attempts, 1000u);  // exact despite the wrap
  EXPECT_EQ(m.attempt_wall_ns.count, 1000u);
  EXPECT_EQ(m.attempt_wall_ns.sum, 100000u);
  const std::vector<trace::Event> events = rec.events();
  ASSERT_EQ(events.size(), 64u);
  // Drop-oldest: the survivors are the newest 64, oldest-first.
  EXPECT_EQ(events.front().seq, 936u);
  EXPECT_EQ(events.back().seq, 999u);
}

TEST(Trace, SerialLifecycleSpansAndTwoClockModel) {
  host::DevicePool pool(1);
  host::Context ctx(pool, stream::Mode::Cycle, 0);
  ctx.config().verification = verify::Options::always();
  auto rec = ctx.tracing();

  const std::int64_t n = 48, gm = 20, gk = 16;
  Workload wl(9);
  host::Buffer<float> x(pool.device(0), n, 0), y(pool.device(0), n, 1);
  host::Buffer<float> a(pool.device(0), gm * gk, 0);
  host::Buffer<float> b(pool.device(0), gk * gm, 1);
  host::Buffer<float> c(pool.device(0), gm * gm, 2);
  x.write(wl.vector<float>(n));
  y.write(wl.vector<float>(n));
  a.write(wl.matrix<float>(gm, gk));
  b.write(wl.matrix<float>(gk, gm));
  c.write(std::vector<float>(static_cast<std::size_t>(gm * gm), 0.0f));

  ctx.scal_async<float>(n, 1.5f, x, 1);
  ctx.axpy_async<float>(n, 2.0f, x, 1, y, 1);
  ctx.gemm_async<float>(Transpose::None, Transpose::None, gm, gm, gk, 1.0f, a,
                        b, 0.0f, c);
  ctx.finish();
  const host::ExecStats stats = ctx.exec_stats();

  const trace::MetricsSnapshot m = rec->metrics();
  EXPECT_EQ(m.enqueued, 3u);
  EXPECT_EQ(m.completes, stats.executed);
  EXPECT_EQ(m.ok, 3u);
  EXPECT_EQ(m.attempts, 3u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.verify_checks, stats.verified);
  EXPECT_GT(m.verify_checks, 0u);
  EXPECT_EQ(m.verify_rejects, 0u);
  EXPECT_EQ(m.kind(trace::EventKind::DepsReady), 3u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(device_metric(m, 0).placed, stats.per_device.at(0).attempts);

  // Event-level span structure: every command shows the full lifecycle,
  // labeled with its routine name, and attempts carry their placement.
  const std::vector<trace::Event> events = rec->events();
  std::set<std::string> labels;
  std::map<std::uint64_t, std::set<trace::EventKind>> kinds_by_seq;
  std::uint64_t max_finish_cycles = 0;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::Enqueue) {
      labels.insert(std::string(e.name_view()));
    }
    if (e.seq != 0) kinds_by_seq[e.seq].insert(e.kind);
    if (e.kind == trace::EventKind::Complete) {
      EXPECT_EQ(e.flags, 2u);  // CommandState::Ok
      EXPECT_GE(e.b, e.a);     // finish_cycles >= start_cycles
      max_finish_cycles = std::max(max_finish_cycles, e.b);
    }
  }
  EXPECT_TRUE(labels.count("scal"));
  EXPECT_TRUE(labels.count("axpy"));
  EXPECT_TRUE(labels.count("gemm"));
  EXPECT_EQ(kinds_by_seq.size(), 3u);
  for (const auto& [seq, kinds] : kinds_by_seq) {
    EXPECT_TRUE(kinds.count(trace::EventKind::Enqueue)) << "seq " << seq;
    EXPECT_TRUE(kinds.count(trace::EventKind::DepsReady)) << "seq " << seq;
    EXPECT_TRUE(kinds.count(trace::EventKind::Placed)) << "seq " << seq;
    EXPECT_TRUE(kinds.count(trace::EventKind::Attempt)) << "seq " << seq;
    EXPECT_TRUE(kinds.count(trace::EventKind::Verify)) << "seq " << seq;
    EXPECT_TRUE(kinds.count(trace::EventKind::Complete)) << "seq " << seq;
  }
  // The two-clock model: the simulated-cycle axis of the Complete spans
  // ends exactly at the executor's critical-path makespan.
  EXPECT_EQ(max_finish_cycles, stats.makespan_cycles);
}

TEST(Trace, ChaosReconciliationSerial) {
  const TracedRun run = run_traced_chaos(0, true);
  EXPECT_GT(run.stats.retries, 0u);       // the soak exercised the ladder
  EXPECT_GE(run.stats.breaker_opens, 1u); // and the breakers
  expect_trace_reconciles(run.rec->metrics(), run.stats);
}

// The engine summaries of a verified cycle-mode composed ATAX (256 x 256)
// and GEMVER (128 x 128) on one serial context: every ChannelStats event
// (channel, peak occupancy, stall events, capacity) and GraphStats event
// (cycles, blocked module-cycles), in emission order.
TEST(Trace, ComposedEngineSummariesPinned) {
  const std::int64_t an = 256, gn = 128;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Cycle);
  ctx.config().verification = verify::Options::always();
  const auto rec = ctx.tracing();
  Workload wl(71);
  host::Buffer<float> aa(dev, an * an, 0), ax(dev, an, 1), ay(dev, an, 2);
  aa.write(wl.matrix<float>(an, an));
  ax.write(wl.vector<float>(an));
  apps::atax_composed<float>(ctx, an, an, aa, ax, ay);
  host::Buffer<float> ga(dev, gn * gn, 0), gb(dev, gn * gn, 2);
  host::Buffer<float> gx(dev, gn, 3), gw(dev, gn, 3);
  std::vector<host::Buffer<float>> vecs;
  vecs.reserve(6);
  for (int i = 0; i < 6; ++i) {
    vecs.emplace_back(dev, gn, 1);
    vecs.back().write(wl.vector<float>(gn));
  }
  ga.write(wl.matrix<float>(gn, gn));
  apps::gemver_composed<float>(ctx, gn, 1.25f, 0.75f, ga, vecs[0], vecs[1],
                               vecs[2], vecs[3], vecs[4], vecs[5], gb, gx, gw);
  ctx.finish();
  std::ostringstream os;
  for (const trace::Event& e : rec->events()) {
    if (e.kind == trace::EventKind::ChannelStats) {
      os << "ch " << e.name_view() << " " << e.a << " " << e.b << " "
         << e.flags << "\n";
    } else if (e.kind == trace::EventKind::GraphStats) {
      os << "graph " << e.a << " " << e.b << "\n";
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : os.str()) h = (h ^ c) * 0x100000001b3ULL;
  EXPECT_EQ(h, 13747312751443309785ULL) << os.str();
}

// Pins the shape of the serial chaos trace — which attempt and device
// every event is attributed to — independent of wall-clock timing. Each
// event is reduced to (kind, seq, attempt, device, worker, flags, a, b,
// name), leaving out wall_ns and the wall duration `a` of Attempt and
// Verify events; the tuples are sorted because events() orders by
// wall_ns, then hashed (FNV-1a).
TEST(Trace, SerialChaosTraceShapePinned) {
  const TracedRun run = run_traced_chaos(0, true);
  using Shape = std::tuple<int, std::uint64_t, int, int, int, int,
                           std::uint64_t, std::uint64_t, std::string>;
  std::vector<Shape> shapes;
  for (const trace::Event& e : run.rec->events()) {
    const bool wall_a = e.kind == trace::EventKind::Attempt ||
                        e.kind == trace::EventKind::Verify;
    shapes.emplace_back(static_cast<int>(e.kind), e.seq, e.attempt, e.device,
                        e.worker, e.flags, wall_a ? 0 : e.a, e.b,
                        std::string(e.name_view()));
  }
  std::sort(shapes.begin(), shapes.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const auto& [kind, seq, attempt, device, worker, flags, a, b, name] :
       shapes) {
    mix(static_cast<std::uint64_t>(kind));
    mix(seq);
    mix(static_cast<std::uint64_t>(attempt));
    mix(static_cast<std::uint64_t>(device));
    mix(static_cast<std::uint64_t>(worker));
    mix(static_cast<std::uint64_t>(flags));
    mix(a);
    mix(b);
    for (char ch : name) mix(static_cast<unsigned char>(ch));
    mix(name.size());
  }
  EXPECT_EQ(shapes.size(), 455u);
  EXPECT_EQ(h, 15242915636898800965ULL);
}

TEST(Trace, ChaosReconciliationConcurrent) {
  const TracedRun run = run_traced_chaos(4, true);
  EXPECT_GT(run.stats.retries, 0u);
  expect_trace_reconciles(run.rec->metrics(), run.stats);
}

TEST(Trace, CleanRunReconcilesToo) {
  const TracedRun run = run_traced_chaos(0, false);
  EXPECT_EQ(run.stats.retries, 0u);
  expect_trace_reconciles(run.rec->metrics(), run.stats);
}

TEST(Trace, EngineEventsRecordChannelGraphAndPeStats) {
  const TracedRun run = run_traced_chaos(0, false);
  const trace::MetricsSnapshot m = run.rec->metrics();
  // 5 composed-MDAG runs and 5 systolic GEMMs ran: channel summaries,
  // graph summaries and per-PE utilization must all be present.
  EXPECT_GT(m.kind(trace::EventKind::ChannelStats), 0u);
  EXPECT_GT(m.kind(trace::EventKind::GraphStats), 0u);
  EXPECT_GT(m.kind(trace::EventKind::PeStats), 0u);
  bool saw_pe_macs = false, saw_channel_peak = false, saw_graph_cycles = false;
  for (const trace::Event& e : run.rec->events()) {
    if (e.kind == trace::EventKind::PeStats && e.a > 0) saw_pe_macs = true;
    if (e.kind == trace::EventKind::ChannelStats) {
      EXPECT_FALSE(e.name_view().empty());
      EXPECT_GT(e.flags, 0u);  // capacity
      if (e.a > 0) saw_channel_peak = true;
    }
    if (e.kind == trace::EventKind::GraphStats && e.a > 0) {
      saw_graph_cycles = true;
    }
  }
  EXPECT_TRUE(saw_pe_macs);
  EXPECT_TRUE(saw_channel_peak);
  EXPECT_TRUE(saw_graph_cycles);
}

TEST(Trace, AdaptiveRateCounterSamples) {
  host::DevicePool pool(1);
  host::Context ctx(pool, stream::Mode::Cycle, 0);
  ctx.config().verification = verify::Options::sampled(1.0).adaptive();
  auto rec = ctx.tracing();
  const std::int64_t n = 32;
  Workload wl(5);
  host::Buffer<float> x(pool.device(0), n, 0);
  x.write(wl.vector<float>(n));
  for (int i = 0; i < 6; ++i) ctx.scal_async<float>(n, 1.01f, x, 1);
  ctx.finish();
  // Every clean check moves (decays) the live rate: one counter sample
  // per verification.
  const trace::MetricsSnapshot m = rec->metrics();
  EXPECT_GT(m.verify_checks, 0u);
  EXPECT_EQ(m.kind(trace::EventKind::RateSample), m.verify_checks);
}

// --- Chrome trace-event export -------------------------------------------

// Validates one exported document against the trace-event schema that
// chrome://tracing / Perfetto actually require: a JSON object with a
// traceEvents array whose entries carry ph/pid(/ts, /dur for X, cat+id
// for async b/e), with async begin/end strictly paired per id.
void expect_chrome_schema(const Json& doc) {
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.contains("traceEvents"));
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  ASSERT_TRUE(doc.contains("otherData"));
  EXPECT_GE(doc.at("otherData").at("recorded").as_number(), 1.0);

  const Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  std::map<std::int64_t, std::int64_t> async_depth;  // id -> b minus e
  std::set<std::string> phases;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    ASSERT_TRUE(e.is_object()) << "entry " << i;
    ASSERT_TRUE(e.contains("ph")) << "entry " << i;
    ASSERT_TRUE(e.contains("pid")) << "entry " << i;
    const std::string& ph = e.at("ph").as_string();
    phases.insert(ph);
    const std::int64_t pid = e.at("pid").as_int();
    EXPECT_TRUE(pid == 1 || pid == 2 || pid == 3) << "entry " << i;
    if (ph != "M") {
      ASSERT_TRUE(e.contains("ts")) << "entry " << i << " ph " << ph;
      ASSERT_TRUE(e.contains("name")) << "entry " << i;
    }
    if (ph == "X") {
      ASSERT_TRUE(e.contains("dur")) << "entry " << i;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
    if (ph == "b" || ph == "e") {
      ASSERT_TRUE(e.contains("cat")) << "entry " << i;
      ASSERT_TRUE(e.contains("id")) << "entry " << i;
      EXPECT_EQ(e.at("cat").as_string(), "command");
      async_depth[e.at("id").as_int()] += ph == "b" ? 1 : -1;
    }
    if (ph == "C") {
      ASSERT_TRUE(e.contains("args")) << "entry " << i;
    }
  }
  // Every async command span opened exactly once and closed exactly once.
  for (const auto& [id, depth] : async_depth) {
    EXPECT_EQ(depth, 0) << "unbalanced async span for command " << id;
  }
  // The tracks the walkthrough documents are all present.
  EXPECT_TRUE(phases.count("M"));
  EXPECT_TRUE(phases.count("b"));
  EXPECT_TRUE(phases.count("e"));
  EXPECT_TRUE(phases.count("X"));
}

TEST(Trace, ChromeJsonSchemaValidates) {
  const TracedRun run = run_traced_chaos(0, true);
  const std::string json = trace::chrome_json(*run.rec);
  const Json doc = Json::parse(json);
  expect_chrome_schema(doc);
  // The chaos run drove breakers and counters: counter tracks appear.
  bool saw_breaker_counter = false;
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() == "C" &&
        e.at("name").as_string().rfind("breaker[", 0) == 0) {
      saw_breaker_counter = true;
    }
  }
  EXPECT_TRUE(saw_breaker_counter);
}

TEST(Trace, ChromeJsonKeepsControlBytesAndRoundTrips) {
  // A label holding a tab and byte 0x01 survives the export, and the
  // parsed document dumps and parses back unchanged.
  trace::Recorder rec;
  const std::string label = "ax\tpy\x01";
  trace::Event enq;
  enq.kind = trace::EventKind::Enqueue;
  enq.seq = 1;
  enq.wall_ns = 1234567891;
  enq.set_name(label);
  rec.emit(enq);
  trace::Event att;
  att.kind = trace::EventKind::Attempt;
  att.seq = 1;
  att.device = 0;
  att.wall_ns = 1234567891;
  att.a = 2500;
  att.b = 77;
  rec.emit(att);
  trace::Event done;
  done.kind = trace::EventKind::Complete;
  done.seq = 1;
  done.device = 0;
  done.flags = static_cast<std::uint16_t>(host::CommandState::Ok);
  done.wall_ns = 1234570391;
  done.b = 77;
  rec.emit(done);

  const Json doc = Json::parse(trace::chrome_json(rec));
  expect_chrome_schema(doc);
  const Json& events = doc.at("traceEvents");
  int begins = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() != "b") continue;
    ++begins;
    EXPECT_EQ(e.at("name").as_string(), label);
    EXPECT_EQ(e.at("ts").as_number(), 1234567.891);
  }
  EXPECT_EQ(begins, 1);
  EXPECT_TRUE(Json::parse(doc.dump()) == doc) << doc.dump();
}

TEST(Trace, ChromeExportKeepsEventOrderOnAWrappedRing) {
  // Pre-stamped span starts that tie and run backwards, on a ring that
  // wrapped: the export lists the events in the order events() gives.
  trace::Options opts;
  opts.ring_capacity = 64;
  trace::Recorder rec(opts);
  const auto stamp = [](std::uint64_t i) -> std::uint64_t {
    return i % 3 == 0 ? 5000 : 9000 - 7 * i;
  };
  for (std::uint64_t i = 0; i < 100; ++i) {
    trace::Event e;
    e.kind = trace::EventKind::DepsReady;
    e.seq = i;
    e.wall_ns = stamp(i);
    rec.emit(e);
  }
  // The newest 64 survive; they sort by start, ties in emission order.
  std::vector<std::uint64_t> want(64);
  std::iota(want.begin(), want.end(), std::uint64_t{36});
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint64_t x, std::uint64_t y) {
                     return stamp(x) < stamp(y);
                   });
  std::vector<std::uint64_t> listed;
  for (const trace::Event& e : rec.events()) listed.push_back(e.seq);
  EXPECT_EQ(listed, want);
  const Json doc = Json::parse(trace::chrome_json(rec));
  const Json& events = doc.at("traceEvents");
  std::vector<std::uint64_t> got;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() != "i") continue;
    got.push_back(static_cast<std::uint64_t>(
        e.at("args").at("seq").as_number()));
  }
  EXPECT_EQ(got, want);
}

TEST(Trace, ChromeExportWhileAnotherThreadEmits) {
  // A second thread keeps emitting into the recorder, each event from a
  // new worker, while it is exported: each export is one snapshot, so
  // every worker row it fills is named by a thread_name entry of that
  // export.
  trace::Options opts;
  opts.ring_capacity = 256;
  trace::Recorder rec(opts);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> emitted{0};
  std::thread emitter([&] {
    for (std::uint64_t i = 0; !stop.load(); ++i) {
      trace::Event e;
      e.kind = trace::EventKind::DepsReady;
      e.seq = i;
      e.worker = static_cast<std::uint16_t>(1 + i % 60000);
      rec.emit(e);
      emitted.store(i + 1);
    }
  });
  while (emitted.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 20; ++round) {
    const Json doc = Json::parse(trace::chrome_json(rec));
    std::set<std::uint64_t> named, filled;
    const Json& events = doc.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json& e = events.at(i);
      if (e.at("pid").as_number() != 1) continue;
      const auto tid = static_cast<std::uint64_t>(e.at("tid").as_number());
      if (e.at("ph").as_string() == "M") {
        if (e.at("name").as_string() == "thread_name") named.insert(tid);
      } else {
        filled.insert(tid);
      }
    }
    EXPECT_FALSE(filled.empty());
    for (const std::uint64_t tid : filled) {
      EXPECT_TRUE(named.count(tid)) << "round " << round << " tid " << tid;
    }
  }
  stop.store(true);
  emitter.join();
  EXPECT_EQ(rec.metrics().recorded, emitted.load());
}

TEST(Trace, ExportChromeWritesLoadableFile) {
  const TracedRun run = run_traced_chaos(0, false);
  const std::string path = testing::TempDir() + "fblas_trace_test.json";
  trace::export_chrome(*run.rec, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const Json doc = Json::parse(ss.str());
  expect_chrome_schema(doc);
  std::remove(path.c_str());
  // Unwritable path: a named error, not silent truncation.
  EXPECT_THROW(trace::export_chrome(*run.rec, "/nonexistent-dir/t.json"),
               Error);
}

}  // namespace
}  // namespace fblas
