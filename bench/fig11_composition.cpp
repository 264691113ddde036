// Reproduces Fig. 11: speedup of the streaming compositions over calling
// the modules one-by-one through the host layer, for AXPYDOT, BICG and
// GEMVER across input sizes, plus the Sec. V I/O analysis each speedup
// rests on. Both versions run in the cycle-accurate simulator on a
// host::Context: the streaming version is the compiled composition
// (apps::*_composed, one command), the baseline the apps::*_host_layer
// launch sequence. Speedups compare wall-clock times (cycles / achieved
// frequency, which differs between single-module and composed designs).
//
// Sizes are scaled down from the paper's 2M-16M / 1K-8K range so the
// cycle-level simulation stays fast; the speedup is size-stable (see
// EXPERIMENTS.md). Exits non-zero when a self-check fails: the two
// versions disagree on an output, or the ATAX live check misbehaves.
#include <cstdio>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "common/table_printer.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "common/workload.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/resources.hpp"
#include "mdag/validity.hpp"
#include "sim/frequency_model.hpp"

namespace {

using namespace fblas;
using stream::Mode;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("CHECK FAILED: %s\n", what);
    ++failures;
  }
}

double seconds(std::uint64_t cycles, double mhz) {
  return static_cast<double>(cycles) / (mhz * 1e6);
}

host::RoutineConfig knobs(std::int64_t tile) {
  host::RoutineConfig rc;
  rc.width = 16;
  rc.tile_rows = tile;
  rc.tile_cols = tile;
  return rc;
}

host::Buffer<float> upload(host::Device& dev, const std::vector<float>& h,
                           int bank) {
  host::Buffer<float> b(dev, static_cast<std::int64_t>(h.size()),
                        bank % dev.bank_count());
  b.write(h);
  return b;
}

void run_axpydot() {
  std::puts("== AXPYDOT: z = w - alpha v; beta = z^T u ==");
  TablePrinter t({"Device", "N", "Streaming time", "Host-layer time",
                  "Speedup", "I/O streaming", "I/O host-layer"});
  // The paper reports the Stratix numbers and notes that "similar results
  // hold for the Arria testbed" — both are simulated here.
  for (const auto dev_id : {sim::DeviceId::Stratix10, sim::DeviceId::Arria10}) {
    const auto& dev = sim::device(dev_id);
    const double f_str =
        sim::composition_frequency(0, Precision::Single, dev).mhz;
    const double f_host =
        sim::module_frequency(RoutineKind::Dot, Precision::Single, dev).mhz;
    for (std::int64_t n : {1 << 15, 1 << 16, 1 << 17, 1 << 18}) {
      Workload wl(11);
      auto w = wl.vector<float>(n);
      auto v = wl.vector<float>(n);
      auto u = wl.vector<float>(n);
      host::Device hdev(dev_id);
      host::Context ctx(hdev, Mode::Cycle);
      host::ConfigGuard scoped = ctx.with(knobs(256));
      // Sec. VI-A manual placement: one bank per input vector (Arria 10
      // has two, so u shares w's bank).
      const auto bw = upload(hdev, w, 0);
      const auto bv = upload(hdev, v, 1);
      const auto bu = upload(hdev, u, 2);
      const float beta =
          apps::axpydot_composed<float>(ctx, n, bw, bv, bu, 2.0f);
      const std::uint64_t streaming = ctx.total_cycles();
      const auto host = apps::axpydot_host_layer<float>(
          ctx, VectorView<const float>(w.data(), n),
          VectorView<const float>(v.data(), n),
          VectorView<const float>(u.data(), n), 2.0f);
      check(beta == host.beta, "AXPYDOT beta agrees with the host layer");
      const double ts = seconds(streaming, f_str);
      const double th = seconds(host.cycles, f_host);
      t.add_row({dev_id == sim::DeviceId::Arria10 ? "Arria 10" : "Stratix 10",
                 TablePrinter::fmt_int(n), TablePrinter::fmt_time(ts),
                 TablePrinter::fmt_time(th), TablePrinter::fmt(th / ts, 2),
                 TablePrinter::fmt_int(3 * n + 1),
                 TablePrinter::fmt_int(7 * n + 1)});
    }
  }
  t.print();
  std::puts("Paper: expected speedup 3 from the I/O model, measured ~4"
            " because the host-layer\nAXPY reads and writes z through one"
            " DDR bank (reproduced by the bank model).\n");
}

void run_bicg() {
  std::puts("== BICG: q = A p; s = A^T r ==");
  TablePrinter t({"N x N", "Streaming time", "Host-layer time", "Speedup",
                  "A reads streaming", "A reads host-layer"});
  const auto& dev = sim::stratix10();
  const double f_str =
      sim::composition_frequency(2, Precision::Single, dev).mhz;
  const double f_host =
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev).mhz;
  for (std::int64_t n : {128, 256, 512}) {
    Workload wl(12);
    auto a = wl.matrix<float>(n, n);
    auto p = wl.vector<float>(n);
    auto r = wl.vector<float>(n);
    host::Device hdev(sim::DeviceId::Stratix10);
    host::Context ctx(hdev, Mode::Cycle);
    host::ConfigGuard scoped = ctx.with(knobs(64));
    // A on its own bank, every vector on a second one.
    const auto ba = upload(hdev, a, 0);
    const auto bp = upload(hdev, p, 1);
    const auto br = upload(hdev, r, 1);
    host::Buffer<float> bq(hdev, n, 1), bs(hdev, n, 1);
    apps::bicg_composed<float>(ctx, n, n, ba, bp, br, bq, bs);
    const std::uint64_t streaming = ctx.total_cycles();
    const auto host = apps::bicg_host_layer<float>(
        ctx, MatrixView<const float>(a.data(), n, n),
        VectorView<const float>(p.data(), n),
        VectorView<const float>(r.data(), n));
    check(bq.to_host() == host.q && bs.to_host() == host.s,
          "BICG q and s agree with the host layer");
    const double ts = seconds(streaming, f_str);
    const double th = seconds(host.cycles, f_host);
    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               TablePrinter::fmt_time(ts), TablePrinter::fmt_time(th),
               TablePrinter::fmt(th / ts, 2), "1x", "2x"});
  }
  t.print();
  std::puts("Paper: expected 1.7 from halved A traffic, measured <= 1.45"
            " (the composed design\ncloses timing lower than the"
            " single-module GEMV; the frequency model captures this).\n");
}

void run_gemver() {
  std::puts("== GEMVER: B = A + u1 v1^T + u2 v2^T; x = beta B^T y + z;"
            " w = alpha B x ==");
  TablePrinter t({"N x N", "Streaming time", "Host-layer time", "Speedup"});
  const auto& dev = sim::stratix10();
  const double f_str =
      sim::composition_frequency(3, Precision::Single, dev).mhz;
  const double f_host =
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev).mhz;
  for (std::int64_t n : {128, 256, 512}) {
    Workload wl(13);
    auto a = wl.matrix<float>(n, n);
    auto u1 = wl.vector<float>(n);
    auto v1 = wl.vector<float>(n);
    auto u2 = wl.vector<float>(n);
    auto v2 = wl.vector<float>(n);
    auto y = wl.vector<float>(n);
    auto z = wl.vector<float>(n);
    auto cv = [n](const std::vector<float>& vec) {
      return VectorView<const float>(vec.data(), n);
    };
    host::Device hdev(sim::DeviceId::Stratix10);
    host::Context ctx(hdev, Mode::Cycle);
    host::ConfigGuard scoped = ctx.with(knobs(64));
    // A and B on their own banks, every vector on a third one.
    const auto ba = upload(hdev, a, 0);
    const auto bu1 = upload(hdev, u1, 2), bv1 = upload(hdev, v1, 2);
    const auto bu2 = upload(hdev, u2, 2), bv2 = upload(hdev, v2, 2);
    const auto byv = upload(hdev, y, 2), bz = upload(hdev, z, 2);
    host::Buffer<float> bB(hdev, n * n, 1), bx(hdev, n, 2), bwv(hdev, n, 2);
    apps::gemver_composed<float>(ctx, n, 1.5f, 0.5f, ba, bu1, bv1, bu2, bv2,
                                 byv, bz, bB, bx, bwv);
    const std::uint64_t streaming = ctx.total_cycles();
    const auto host = apps::gemver_host_layer<float>(
        ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n), cv(u1),
        cv(v1), cv(u2), cv(v2), cv(y), cv(z));
    check(bB.to_host() == host.b && bx.to_host() == host.x &&
              bwv.to_host() == host.w,
          "GEMVER B, x and w agree with the host layer");
    const double ts = seconds(streaming, f_str);
    const double th = seconds(host.cycles, f_host);
    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               TablePrinter::fmt_time(ts), TablePrinter::fmt_time(th),
               TablePrinter::fmt(th / ts, 2)});
  }
  t.print();
  std::puts("Paper: speedup ~2-3; the two-component schedule cuts I/O from"
            " ~8N^2 to ~3N^2 and\ncompletion from ~5N^2 to ~2N^2 cycles"
            " despite sequentializing the components.\n");
}

void run_analysis() {
  std::puts("== Sec. V MDAG analysis (N = 4096, tiles 64) ==");
  const std::int64_t n = 4096;
  TablePrinter t({"Composition", "Valid", "Multitree", "I/O ops",
                  "Diagnosis"});
  const auto axpy = apps::axpydot_mdag(n);
  const auto bicg = apps::bicg_mdag(n, n, 64);
  const auto atax = apps::atax_mdag(n, n, 64);
  const auto gemver = apps::gemver_mdag(n, 64);
  auto add = [&](const char* name, const mdag::Mdag& g, const char* note) {
    const auto v = mdag::validate(g);
    t.add_row({name, v.valid ? "yes" : "NO",
               mdag::is_multitree(g) ? "yes" : "no",
               TablePrinter::fmt_int(mdag::total_io_ops(g)), note});
  };
  add("AXPYDOT", axpy, "3N+1 (vs 7N host-layer)");
  add("BICG", bicg, "A read once");
  add("ATAX", atax, "needs channel >= M*TN or a split");
  add("GEMVER (full)", gemver, "runs as 2 sequential components");
  t.print();

  // Sec. VI-C resource note: compositions drop the interface kernels of
  // their internal edges; the paper measures up to -40% vs the
  // non-streamed designs (our model spans ~15-50% across the three apps,
  // growing with the number of internal edges).
  std::puts("\nResource savings of composition (design resources, shell"
            " excluded):");
  for (const auto& [name, graph] :
       {std::pair<const char*, const mdag::Mdag*>{"AXPYDOT", &axpy},
        std::pair<const char*, const mdag::Mdag*>{"BICG", &bicg},
        std::pair<const char*, const mdag::Mdag*>{"GEMVER", &gemver}}) {
    const auto cmp = mdag::composition_resource_savings(
        *graph, Precision::Single, 16, sim::stratix10());
    std::printf("  %-8s %.0f%% fewer ALMs than the one-by-one designs\n",
                name, 100.0 * cmp.saving_fraction);
  }
  // The ATAX deadlock, demonstrated live.
  Workload wl(14);
  const std::int64_t an = 64, am = 48, tile = 16;
  auto a = wl.matrix<float>(an, am);
  auto x = wl.vector<float>(am);
  bool deadlocked = false;
  try {
    apps::atax_streaming<float>(sim::stratix10(), Mode::Functional, 4, tile,
                                /*a_channel_depth=*/tile,
                                MatrixView<const float>(a.data(), an, am),
                                VectorView<const float>(x.data(), am));
  } catch (const DeadlockError&) {
    deadlocked = true;
  }
  const auto ok = apps::atax_streaming<float>(
      sim::stratix10(), Mode::Functional, 4, tile,
      apps::atax_min_channel_depth(am, tile, 4),
      MatrixView<const float>(a.data(), an, am),
      VectorView<const float>(x.data(), am));
  std::printf("\nATAX live check: undersized A channel -> %s;"
              " channel >= M*TN -> completes (%zu outputs).\n",
              deadlocked ? "stalls forever (DeadlockError)" : "UNEXPECTED",
              ok.y.size());
  check(deadlocked && ok.y.size() == static_cast<std::size_t>(am),
        "ATAX deadlocks below M*TN and completes at it");
}

}  // namespace

int main() {
  std::puts("FBLAS reproduction: Fig. 11 — streaming composition speedups\n");
  run_axpydot();
  run_bicg();
  run_gemver();
  run_analysis();
  return failures == 0 ? 0 : 1;
}
