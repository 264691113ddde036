// fblas_trace — demo / smoke driver for the tracing layer.
//
// Runs a mixed fault-injected workload (L1 chain, GEMV, GEMM, systolic
// GEMM, composed MDAG on a 3-device pool with verification and retries
// armed) with tracing on, exports the Chrome trace-event JSON, then
// audits its own output: the file is re-parsed with the repo's JSON
// parser, schema-checked (the same invariants chrome://tracing needs),
// and the trace counters are reconciled exactly against the runtime's
// ExecStats. Exits non-zero on any mismatch, so CI runs it as a smoke
// test in every preset.
//
//   fblas_trace [--out trace.json] [--workers N] [--summarize]
//
// Load the exported file at chrome://tracing (or ui.perfetto.dev) to
// browse the spans; see README.md "Observability & tracing".
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/atax.hpp"
#include "common/json.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/device_pool.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"
#include "verify/options.hpp"

namespace {

using namespace fblas;

struct Cli {
  std::string out = "fblas_trace.json";
  int workers = 4;
  bool summarize = false;
};

int fail(const std::string& why) {
  std::fprintf(stderr, "fblas_trace: FAIL: %s\n", why.c_str());
  return EXIT_FAILURE;
}

struct RunOutput {
  host::ExecStats stats;
  std::shared_ptr<trace::Recorder> rec;
};

RunOutput run_workload(int workers) {
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
  host::RetryPolicy retry;
  retry.max_retries = 8;
  retry.backoff = std::chrono::microseconds(0);
  retry.full_jitter = true;
  retry.jitter_seed = 7;
  ctx.set_retry_policy(retry);

  RunOutput out;
  out.rec = ctx.tracing();

  host::FaultConfig faults;
  faults.seed = 23;
  faults.launch_fail_rate = 0.02;
  faults.corrupt_rate = 0.02;
  faults.silent_corrupt_rate = 0.02;
  faults.channel_corrupt_rate = 0.01;
  faults.pe_fault_rate = 0.06;
  faults.device_fault_window.device = 1;
  faults.device_fault_window.begin = 8;
  faults.device_fault_window.end = 24;
  faults.device_fault_window.multiplier = 25.0;
  pool.inject_faults(faults);

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

/// Schema audit of the exported document: the invariants chrome://tracing
/// needs to load it. Returns an error string, empty on success.
std::string check_schema(const Json& doc) {
  if (!doc.is_object() || !doc.contains("traceEvents") ||
      !doc.at("traceEvents").is_array()) {
    return "document is not an object with a traceEvents array";
  }
  const Json& events = doc.at("traceEvents");
  if (events.size() == 0) return "traceEvents is empty";
  std::map<std::int64_t, std::int64_t> async_depth;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (!e.is_object() || !e.contains("ph") || !e.contains("pid")) {
      return "entry " + std::to_string(i) + " lacks ph/pid";
    }
    const std::string& ph = e.at("ph").as_string();
    const std::int64_t pid = e.at("pid").as_int();
    if (pid < 1 || pid > 3) {
      return "entry " + std::to_string(i) + " has unknown pid";
    }
    if (ph != "M" && (!e.contains("ts") || !e.contains("name"))) {
      return "entry " + std::to_string(i) + " (ph " + ph + ") lacks ts/name";
    }
    if (ph == "X" && !e.contains("dur")) {
      return "entry " + std::to_string(i) + " is X without dur";
    }
    if (ph == "b" || ph == "e") {
      if (!e.contains("cat") || !e.contains("id")) {
        return "entry " + std::to_string(i) + " async span lacks cat/id";
      }
      async_depth[e.at("id").as_int()] += ph == "b" ? 1 : -1;
    }
  }
  for (const auto& [id, depth] : async_depth) {
    if (depth != 0) {
      return "unbalanced async span for command " + std::to_string(id);
    }
  }
  return {};
}

/// Exact reconciliation of the trace counters against ExecStats.
/// Returns an error string, empty on success.
std::string check_reconciliation(const trace::MetricsSnapshot& m,
                                 const host::ExecStats& s) {
  auto expect_eq = [](const char* what, std::uint64_t trace_v,
                      std::uint64_t stats_v) -> std::string {
    if (trace_v == stats_v) return {};
    std::ostringstream os;
    os << what << ": trace says " << trace_v << ", ExecStats says " << stats_v;
    return os.str();
  };
  std::string err;
  if (!(err = expect_eq("completes", m.completes, s.executed)).empty())
    return err;
  if (!(err = expect_eq("degraded", m.degraded, s.degraded)).empty())
    return err;
  if (!(err = expect_eq("retries", m.retries, s.retries)).empty()) return err;
  if (!(err = expect_eq("verify checks", m.verify_checks, s.verified)).empty())
    return err;
  if (!(err = expect_eq("verify rejects", m.verify_rejects,
                        s.verify_failures))
           .empty())
    return err;
  if (!(err = expect_eq("migrations", m.migrations, s.migrations)).empty())
    return err;
  if (!(err = expect_eq("migrated bytes", m.migrated_bytes,
                        s.migrated_bytes))
           .empty())
    return err;
  if (!(err = expect_eq("breaker opens", m.breaker_opens, s.breaker_opens))
           .empty())
    return err;
  if (!(err = expect_eq("breaker readmissions", m.breaker_readmissions,
                        s.breaker_readmissions))
           .empty())
    return err;
  for (std::size_t i = 0; i < s.per_device.size(); ++i) {
    const std::uint64_t placed =
        i < m.per_device.size() ? m.per_device[i].placed : 0;
    const std::string what = "device " + std::to_string(i) + " placements";
    if (!(err = expect_eq(what.c_str(), placed, s.per_device[i].attempts))
             .empty())
      return err;
  }
  return {};
}

void print_summary(const trace::MetricsSnapshot& m, const host::ExecStats& s,
                   const std::string& out_path) {
  std::printf("fblas_trace summary\n");
  std::printf("  events recorded   %llu (dropped from ring: %llu)\n",
              static_cast<unsigned long long>(m.recorded),
              static_cast<unsigned long long>(m.dropped));
  std::printf("  commands          %llu (ok %llu, degraded %llu, failed %llu)\n",
              static_cast<unsigned long long>(m.completes),
              static_cast<unsigned long long>(m.ok),
              static_cast<unsigned long long>(m.degraded),
              static_cast<unsigned long long>(m.failed));
  std::printf("  attempts          %llu (retries %llu)\n",
              static_cast<unsigned long long>(m.attempts),
              static_cast<unsigned long long>(m.retries));
  std::printf("  verify            %llu checks, %llu rejects\n",
              static_cast<unsigned long long>(m.verify_checks),
              static_cast<unsigned long long>(m.verify_rejects));
  std::printf("  fleet             %llu migrations (%llu bytes), "
              "%llu breaker opens, %llu readmissions, %llu probes\n",
              static_cast<unsigned long long>(m.migrations),
              static_cast<unsigned long long>(m.migrated_bytes),
              static_cast<unsigned long long>(m.breaker_opens),
              static_cast<unsigned long long>(m.breaker_readmissions),
              static_cast<unsigned long long>(m.probes));
  std::printf("  makespan          %llu simulated cycles\n",
              static_cast<unsigned long long>(s.makespan_cycles));
  for (std::size_t i = 0; i < m.per_device.size(); ++i) {
    const trace::DeviceMetrics& d = m.per_device[i];
    std::printf("  device %zu          %llu placed, %llu verify rejects, "
                "%llu migrations in\n",
                i, static_cast<unsigned long long>(d.placed),
                static_cast<unsigned long long>(d.verify_rejects),
                static_cast<unsigned long long>(d.migrations_in));
  }
  std::printf("  wrote %s — open it at chrome://tracing\n", out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      cli.out = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      cli.workers = std::atoi(argv[++i]);
    } else if (arg == "--summarize") {
      cli.summarize = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fblas_trace [--out trace.json] [--workers N] "
          "[--summarize]\n");
      return EXIT_SUCCESS;
    } else {
      return fail("unknown argument '" + arg + "' (try --help)");
    }
  }
  if (cli.workers < 0) return fail("--workers must be >= 0");

  try {
    const RunOutput run = run_workload(cli.workers);
    trace::export_chrome(*run.rec, cli.out);

    // Audit our own export: re-read, re-parse, schema-check, reconcile.
    std::ifstream in(cli.out, std::ios::binary);
    if (!in) return fail("cannot re-open '" + cli.out + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    const Json doc = Json::parse(ss.str());
    std::string err = check_schema(doc);
    if (!err.empty()) return fail("schema: " + err);
    const trace::MetricsSnapshot m = run.rec->metrics();
    err = check_reconciliation(m, run.stats);
    if (!err.empty()) return fail("reconciliation: " + err);

    if (cli.summarize) print_summary(m, run.stats, cli.out);
    std::printf("fblas_trace: OK (%llu events, schema valid, "
                "reconciled against ExecStats)\n",
                static_cast<unsigned long long>(m.recorded));
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
