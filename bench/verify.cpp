// ABFT result-verification benchmark for the host runtime. Two questions:
//
//   1. Overhead: what do Sampled and Always verification cost? The
//      claim is on device cycles: the composed ATAX and the in-grid ABFT
//      rank must stay under 5%. The routine table reports simulator wall
//      clock per policy for reference only; it carries no criterion,
//      because host-side checksums, snapshots and taint screening scale
//      with the simulator's speed, not the device's.
//   2. Protection: with silent corruption injected at 5%, the unverified
//      run completes "Ok" with wrong bits, while Always catches every
//      SDC and recovers bit-identically through the retry machinery.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/atax.hpp"
#include "common/table_printer.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "verify/options.hpp"
#include "verify/policy.hpp"

namespace {

using namespace fblas;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kDim = 192;    // GEMM/GEMV matrix dimension
constexpr std::int64_t kVec = 1 << 15;  // Level-1 vector length
constexpr int kReps = 9;

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wall-clock medians of `run` (which enqueues commands and waits for
/// them) under each of `policies`, on one warm context: a warm-up pass,
/// then kReps repetitions that each run every policy in turn, so drift
/// in the machine's speed reaches every policy alike. `reset` restores
/// the inputs before each run, untimed; only the commands are timed.
template <typename Reset, typename Run>
std::vector<double> time_policies(
    host::Context& ctx, const std::vector<verify::Options>& policies,
    Reset&& reset, Run&& run) {
  std::vector<std::vector<double>> ms(policies.size());
  for (int rep = -1; rep < kReps; ++rep) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      ctx.config().verification = policies[p];
      reset();
      const auto t0 = Clock::now();
      run();
      if (rep >= 0) ms[p].push_back(ms_since(t0));
    }
  }
  std::vector<double> med;
  for (auto& m : ms) med.push_back(median_ms(std::move(m)));
  return med;
}

std::string pct(double on, double off) {
  return TablePrinter::fmt(100.0 * (on - off) / off, 1) + "%";
}

void overhead_table() {
  std::puts("== ABFT verification overhead (wall clock, functional mode) ==");
  TablePrinter t({"Routine", "Off ms", "Sampled ms", "Always ms",
                  "Always overhead"});
  Workload wl(91);
  const auto ha = wl.matrix<float>(kDim, kDim);
  const auto hb = wl.matrix<float>(kDim, kDim);
  const auto hc = wl.matrix<float>(kDim, kDim);
  const auto hx = wl.vector<float>(kVec);
  const auto hy = wl.vector<float>(kVec);
  const auto hv = wl.vector<float>(kDim);
  const auto hw = wl.vector<float>(kDim);
  const std::vector<verify::Options> policies = {
      verify::Options{}.policy(verify::VerifyPolicy::Off),
      verify::Options{}.policy(verify::VerifyPolicy::Sampled),
      verify::Options{}.policy(verify::VerifyPolicy::Always)};

  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<float> a(dev, kDim * kDim, 0), b(dev, kDim * kDim, 1),
      c(dev, kDim * kDim, 2), v(dev, kDim, 1), w(dev, kDim, 2);
  host::Buffer<float> x(dev, kVec, 0), y(dev, kVec, 1);
  a.write(ha);
  b.write(hb);
  x.write(hx);
  v.write(hv);

  struct Row {
    const char* name;
    std::function<void()> reset, run;
  };
  const std::vector<Row> rows = {
      {"gemm 192^3", [&] { c.write(hc); },
       [&] {
         ctx.gemm<float>(Transpose::None, Transpose::None, kDim, kDim, kDim,
                         1.0f, a, b, 0.5f, c);
       }},
      {"gemv 192^2 x8", [&] { w.write(hw); },
       [&] {
         for (int i = 0; i < 8; ++i) {
           ctx.gemv<float>(Transpose::None, kDim, kDim, 1.0f, a, v, 0.5f, w);
         }
       }},
      {"axpy 32K x8", [&] { y.write(hy); },
       [&] {
         for (int i = 0; i < 8; ++i) ctx.axpy<float>(kVec, 0.5f, x, y);
       }},
      {"dot 32K x8", [&] { y.write(hy); },
       [&] {
         for (int i = 0; i < 8; ++i) (void)ctx.dot<float>(kVec, x, y);
       }},
  };
  for (const auto& row : rows) {
    const auto ms = time_policies(ctx, policies, row.reset, row.run);
    t.add_row({row.name, TablePrinter::fmt(ms[0], 2),
               TablePrinter::fmt(ms[1], 2), TablePrinter::fmt(ms[2], 2),
               pct(ms[2], ms[0])});
  }
  t.print();
  std::printf("No criterion: simulator wall clock (median of %d alternating"
              " repetitions on a\nwarm context, commands only), for"
              " reference. The verification claims are\non device cycles"
              " (the tables below).\n\n",
              kReps);
}

void composition_overhead() {
  // The checksum-carrying composition: Always-on per-edge verification of
  // the composed ATAX command vs the same command unverified.
  //
  // The deployment metric is DEVICE CYCLES (makespan): on the FPGA the
  // checksum taps are adders sitting beside the datapath — they observe
  // every value crossing a channel without ever stalling the stream, so
  // the verified composition must cost the same cycles as the unverified
  // one. The criterion (< 5%) is on that metric. Wall clock in both
  // simulator modes is also reported: its gap is the cost of simulating
  // those adders in software (one double-accumulate per push) plus the
  // O(nm) host-side pullback predictions, which a real deployment
  // overlaps with device execution. The cycle-mode row is what a
  // cycle-accurate run of the command costs the host.
  std::puts("== Composition overhead: composed ATAX, per-edge checksums ==");
  const std::int64_t n = 128, m = 128;
  Workload wl(93);
  const auto ha = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);
  const std::vector<verify::Options> policies = {verify::Options::off(),
                                                 verify::Options::always()};

  // Per policy: median wall-clock ms and the command's device cycles.
  auto run_composed = [&](stream::Mode mode) {
    host::Device dev;
    host::Context ctx(dev, mode);
    host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
    a.write(ha);
    x.write(hx);
    std::uint64_t cycles[2] = {0, 0};
    std::size_t p = 0;
    const auto ms = time_policies(
        ctx, policies,
        [&] { y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f)); },
        [&] {
          const std::uint64_t before = ctx.total_cycles();
          apps::atax_composed<float>(ctx, n, m, a, x, y);
          cycles[p] = ctx.total_cycles() - before;
          p = (p + 1) % policies.size();
        });
    return std::make_tuple(ms[0], ms[1], cycles[0], cycles[1]);
  };

  const auto [cyc_off_ms, cyc_on_ms, cyc_off, cyc_on] =
      run_composed(stream::Mode::Cycle);
  const auto [fun_off_ms, fun_on_ms, fun_off_cycles, fun_on_cycles] =
      run_composed(stream::Mode::Functional);
  (void)fun_off_cycles;
  (void)fun_on_cycles;

  const double cyc_pct = 100.0 *
                         (static_cast<double>(cyc_on) -
                          static_cast<double>(cyc_off)) /
                         static_cast<double>(cyc_off);
  TablePrinter t({"Metric", "Off", "Always", "Always overhead"});
  t.add_row({"device cycles (atax 128x128)",
             TablePrinter::fmt_int(static_cast<std::int64_t>(cyc_off)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(cyc_on)),
             TablePrinter::fmt(cyc_pct, 1) + "%"});
  t.add_row({"functional wall clock ms (atax 128x128)",
             TablePrinter::fmt(fun_off_ms, 2), TablePrinter::fmt(fun_on_ms, 2),
             pct(fun_on_ms, fun_off_ms)});
  t.add_row({"cycle-mode wall clock ms (atax 128x128)",
             TablePrinter::fmt(cyc_off_ms, 2), TablePrinter::fmt(cyc_on_ms, 2),
             pct(cyc_on_ms, cyc_off_ms)});
  t.print();
  std::printf("Criterion: < 5%% in device cycles — %s (%.1f%%). The taps"
              " never stall the\nstream and the predictions are flat host"
              " passes over the DRAM inputs — no\nintermediate is"
              " materialized. The simulator's wall-clock gap prices the"
              "\nper-push software accumulate that hardware gets for"
              " free. Wall clocks are\nmedians of %d alternating repetitions"
              " on a warm context, the command only.\n\n",
              cyc_pct < 5.0 ? "PASS" : "FAIL", cyc_pct, kReps);
}

void protection_demo() {
  std::puts("== Protection: 5% silent corruption, GEMM batch ==");
  const std::int64_t d = 96;
  Workload wl(92);
  const auto ha = wl.matrix<float>(d, d);
  const auto hb = wl.matrix<float>(d, d);
  const auto hc = wl.matrix<float>(d, d);

  auto run = [&](bool faults, verify::VerifyPolicy vp) {
    host::Device dev;
    host::Context ctx(dev);
    if (faults) {
      host::FaultConfig fc;
      fc.seed = 4;
      fc.silent_corrupt_rate = 0.05;
      dev.inject_faults(fc);
    }
    host::RetryPolicy policy;
    policy.max_retries = 4;
    policy.backoff = std::chrono::microseconds(0);
    ctx.set_retry_policy(policy);
    ctx.config().verification.policy(vp);
    host::Buffer<float> a(dev, d * d, 0), b(dev, d * d, 1), c(dev, d * d, 2);
    a.write(ha);
    b.write(hb);
    c.write(hc);
    for (int i = 0; i < 24; ++i) {
      ctx.gemm<float>(Transpose::None, Transpose::None, d, d, d, 1.0f, a, b,
                      0.25f, c);
    }
    return std::make_pair(c.to_host(), ctx.exec_stats());
  };

  // The clean baseline also runs under Always: its stats back the
  // "no false positives" line, and verification never alters results.
  const auto [clean, clean_stats] = run(false, verify::VerifyPolicy::Always);
  const auto [naked, naked_stats] = run(true, verify::VerifyPolicy::Off);
  const auto [guarded, guarded_stats] = run(true, verify::VerifyPolicy::Always);

  TablePrinter t({"Policy", "Faults injected", "SDC caught", "Retries",
                  "Result vs clean"});
  t.add_row({"Off", TablePrinter::fmt_int(static_cast<std::int64_t>(
                        naked_stats.faults_injected)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(
                 naked_stats.sdc_caught)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(
                 naked_stats.retries)),
             naked == clean ? "identical" : "WRONG BITS"});
  t.add_row({"Always", TablePrinter::fmt_int(static_cast<std::int64_t>(
                           guarded_stats.faults_injected)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(
                 guarded_stats.sdc_caught)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(
                 guarded_stats.retries)),
             guarded == clean ? "identical" : "WRONG BITS"});
  t.print();
  std::printf("Clean-run checks: %llu verified, %llu rejected (no false"
              " positives).\n\n",
              static_cast<unsigned long long>(clean_stats.verified),
              static_cast<unsigned long long>(clean_stats.verify_failures));
}

void in_grid_abft() {
  // In-grid ABFT for the systolic engine. Two questions:
  //
  //   1. Cycle overhead of the checksum rank: the extra column/row fill
  //      and drain step cost a constant 3 cycles per tile, independent of
  //      k — so overhead shrinks as the reduction deepens (< 5%
  //      criterion at k = 64 on an 8x8 grid).
  //   2. Correction economics: an in-grid-corrected fault costs one
  //      k-cycle replay; the same fault caught by the host-side checker
  //      costs a full rollback + re-execution (one retry).
  std::puts("== In-grid ABFT: systolic engine checksum rank ==");
  const std::int64_t dim = 64;
  Workload wl(95);
  const auto ha = wl.matrix<float>(dim, dim);
  const auto hb = wl.matrix<float>(dim, dim);

  auto cycles_with = [&](const verify::Options& vo,
                         std::int64_t k) -> std::uint64_t {
    host::Device dev;
    host::Context ctx(dev);
    ctx.config().pe_rows = 8;
    ctx.config().pe_cols = 8;
    ctx.config().verification = vo;
    host::Buffer<float> a(dev, dim * k, 0), b(dev, k * dim, 1),
        c(dev, dim * dim, 2);
    std::vector<float> hak(ha.begin(), ha.begin() + dim * k);
    std::vector<float> hbk(hb.begin(), hb.begin() + k * dim);
    a.write(hak);
    b.write(hbk);
    c.write(std::vector<float>(static_cast<std::size_t>(dim * dim), 0.0f));
    ctx.gemm_systolic<float>(dim, dim, k, a, b, c);
    return ctx.last_cycles();
  };

  TablePrinter t({"Reduction depth k", "Plain cycles", "ABFT cycles",
                  "Checksum-rank overhead"});
  double overhead_at_64 = 0.0;
  for (std::int64_t k : {8, 16, 32, 64}) {
    const auto plain = cycles_with(verify::Options::off(), k);
    const auto abft = cycles_with(verify::Options::always().in_grid(), k);
    const double pct = 100.0 * (static_cast<double>(abft) -
                                static_cast<double>(plain)) /
                       static_cast<double>(plain);
    if (k == 64) overhead_at_64 = pct;
    t.add_row({TablePrinter::fmt_int(k),
               TablePrinter::fmt_int(static_cast<std::int64_t>(plain)),
               TablePrinter::fmt_int(static_cast<std::int64_t>(abft)),
               TablePrinter::fmt(pct, 1) + "%"});
  }
  t.print();
  std::printf("Criterion: < 5%% at k = 64 — %s (%.1f%%). The rank costs a"
              " constant 3\ncycles per tile, so deeper reductions amortize"
              " it away.\n\n",
              overhead_at_64 < 5.0 ? "PASS" : "FAIL", overhead_at_64);

  // Correction economics: N single PE faults, in-grid correction vs the
  // host-side checker's reject-and-retry.
  std::puts("-- Correction economics: 8 injected single PE faults --");
  const std::int64_t d = 48, kk = 32;
  const int rounds = 8;
  // One fault per round (fresh budget each time, so a host-side retry
  // always re-runs clean); the stats are summed across rounds.
  auto faulted = [&](const verify::Options& vo) {
    host::ExecStats sum;
    for (int i = 0; i < rounds; ++i) {
      host::Device dev;
      host::Context ctx(dev);
      host::FaultConfig fc;
      fc.seed = 21 + static_cast<std::uint64_t>(i);
      fc.pe_fault_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
      host::RetryPolicy policy;
      policy.max_retries = 4;
      policy.backoff = std::chrono::microseconds(0);
      ctx.set_retry_policy(policy);
      ctx.config().verification = vo;
      host::Buffer<float> a(dev, d * kk, 0), b(dev, kk * d, 1),
          c(dev, d * d, 2);
      a.write(std::vector<float>(ha.begin(), ha.begin() + d * kk));
      b.write(std::vector<float>(hb.begin(), hb.begin() + kk * d));
      c.write(std::vector<float>(static_cast<std::size_t>(d * d), 0.0f));
      ctx.gemm_systolic<float>(d, d, kk, a, b, c);
      const auto stats = ctx.exec_stats();
      sum.pe_faults_localized += stats.pe_faults_localized;
      sum.faults_corrected += stats.faults_corrected;
      sum.retries += stats.retries;
      sum.makespan_cycles += stats.makespan_cycles;
    }
    return sum;
  };
  const auto grid = faulted(verify::Options::always().in_grid());
  const auto host_side = faulted(verify::Options::always());

  TablePrinter e({"Recovery path", "Localized", "Corrected in grid",
                  "Retries", "Makespan cycles"});
  e.add_row({"in-grid (correct)",
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(grid.pe_faults_localized)),
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(grid.faults_corrected)),
             TablePrinter::fmt_int(static_cast<std::int64_t>(grid.retries)),
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(grid.makespan_cycles))});
  e.add_row({"host-side (retry)",
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(host_side.pe_faults_localized)),
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(host_side.faults_corrected)),
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(host_side.retries)),
             TablePrinter::fmt_int(
                 static_cast<std::int64_t>(host_side.makespan_cycles))});
  e.print();
  std::puts("An in-grid-corrected fault costs one k-cycle replay; the"
            " host-side checker\npays a full rollback + re-execution per"
            " fault. Both end bit-identical.\n");
}

}  // namespace

int main() {
  std::puts("FBLAS ABFT result verification\n");
  overhead_table();
  composition_overhead();
  protection_demo();
  in_grid_abft();
  return 0;
}
