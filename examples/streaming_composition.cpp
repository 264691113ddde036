// Streaming composition walkthrough (Sec. V): builds the AXPYDOT, BICG,
// ATAX and GEMVER module DAGs, analyzes their validity and I/O volume,
// and runs the compiled compositions (apps::*_composed, one command on a
// host::Context) against the host-layer baselines in the cycle-accurate
// simulator. Exits non-zero when a result check fails.
//
// Build & run:  ./build/examples/streaming_composition
#include <cmath>
#include <cstdio>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/validity.hpp"

int main() {
  using namespace fblas;

  std::puts("== MDAG analysis ==");
  const std::int64_t n = 2048, tile = 64;
  struct Case {
    const char* name;
    mdag::Mdag g;
  };
  Case cases[] = {
      {"AXPYDOT", apps::axpydot_mdag(n)},
      {"BICG", apps::bicg_mdag(n, n, tile)},
      {"ATAX", apps::atax_mdag(n, n, tile)},
      {"GEMVER", apps::gemver_mdag(n, tile)},
  };
  for (const auto& c : cases) {
    const auto v = mdag::validate(c.g);
    std::printf("%-8s valid=%-3s multitree=%-3s io_ops=%lld\n", c.name,
                v.valid ? "yes" : "NO",
                mdag::is_multitree(c.g) ? "yes" : "no",
                static_cast<long long>(mdag::total_io_ops(c.g)));
    if (!v.valid) std::printf("  -> %s", v.summary.c_str());
  }

  int failures = 0;
  host::RoutineConfig knobs;
  knobs.width = 16;
  knobs.tile_rows = knobs.tile_cols = 64;

  std::puts("\n== AXPYDOT: streaming vs host layer (cycle simulation) ==");
  Workload wl(99);
  {
    const std::int64_t len = 1 << 15;
    auto w = wl.vector<float>(len);
    auto v = wl.vector<float>(len);
    auto u = wl.vector<float>(len);
    host::Device dev(sim::DeviceId::Stratix10);
    host::Context ctx(dev, stream::Mode::Cycle);
    host::ConfigGuard scoped = ctx.with(knobs);
    host::Buffer<float> bw(dev, len, 0), bv(dev, len, 1), bu(dev, len, 2);
    bw.write(w);
    bv.write(v);
    bu.write(u);
    const float beta =
        apps::axpydot_composed<float>(ctx, len, bw, bv, bu, 2.0f);
    const std::uint64_t streaming = ctx.total_cycles();
    const auto host = apps::axpydot_host_layer<float>(
        ctx, VectorView<const float>(w.data(), len),
        VectorView<const float>(v.data(), len),
        VectorView<const float>(u.data(), len), 2.0f);
    const bool agree = std::abs(beta - host.beta) < 1e-2;
    failures += agree ? 0 : 1;
    std::printf("beta = %.4f (both versions agree: %s)\n", beta,
                agree ? "yes" : "NO");
    std::printf("streaming: %llu cycles   host layer: %llu cycles   "
                "speedup %.2fx\n",
                static_cast<unsigned long long>(streaming),
                static_cast<unsigned long long>(host.cycles),
                static_cast<double>(host.cycles) /
                    static_cast<double>(streaming));
  }

  std::puts("\n== ATAX: why channel depth matters (Sec. V-B) ==");
  {
    const std::int64_t an = 64, am = 48, atile = 16;
    auto a = wl.matrix<float>(an, am);
    auto x = wl.vector<float>(am);
    try {
      apps::atax_streaming<float>(sim::stratix10(), stream::Mode::Functional,
                                  4, atile, /*a_channel_depth=*/atile,
                                  MatrixView<const float>(a.data(), an, am),
                                  VectorView<const float>(x.data(), am));
      std::puts("unexpected: undersized channel completed");
      ++failures;
    } catch (const DeadlockError& e) {
      std::puts("undersized A channel -> DeadlockError, as predicted:");
      // Show the first line of the diagnostic.
      const std::string msg = e.what();
      std::printf("  %s\n", msg.substr(0, msg.find('\n')).c_str());
    }
    const auto depth = apps::atax_min_channel_depth(am, atile, 4);
    const auto ok = apps::atax_streaming<float>(
        sim::stratix10(), stream::Mode::Functional, 4, atile, depth,
        MatrixView<const float>(a.data(), an, am),
        VectorView<const float>(x.data(), am));
    std::printf("channel sized to M*TN (= %lld): completes, y[0] = %.4f\n",
                static_cast<long long>(depth), ok.y[0]);
  }

  std::puts("\n== GEMVER: two-component schedule (Fig. 9) ==");
  {
    const std::int64_t gn = 256;
    auto a = wl.matrix<float>(gn, gn);
    auto u1 = wl.vector<float>(gn);
    auto v1 = wl.vector<float>(gn);
    auto u2 = wl.vector<float>(gn);
    auto v2 = wl.vector<float>(gn);
    auto y = wl.vector<float>(gn);
    auto z = wl.vector<float>(gn);
    auto cv = [gn](const std::vector<float>& vec) {
      return VectorView<const float>(vec.data(), gn);
    };
    host::Device dev(sim::DeviceId::Stratix10);
    host::Context ctx(dev, stream::Mode::Cycle);
    host::ConfigGuard scoped = ctx.with(knobs);
    host::Buffer<float> ba(dev, gn * gn, 0);
    host::Buffer<float> bu1(dev, gn, 1), bv1(dev, gn, 2), bu2(dev, gn, 3),
        bv2(dev, gn, 1), by(dev, gn, 2), bz(dev, gn, 3);
    host::Buffer<float> bb(dev, gn * gn, 1), bx(dev, gn, 2), bw(dev, gn, 3);
    ba.write(a);
    bu1.write(u1);
    bv1.write(v1);
    bu2.write(u2);
    bv2.write(v2);
    by.write(y);
    bz.write(z);
    apps::gemver_composed<float>(ctx, gn, 1.5f, 0.5f, ba, bu1, bv1, bu2, bv2,
                                 by, bz, bb, bx, bw);
    const auto cpu = apps::gemver_cpu<float>(
        1.5f, 0.5f, MatrixView<const float>(a.data(), gn, gn), cv(u1),
        cv(v1), cv(u2), cv(v2), cv(y), cv(z));
    const bool match = rel_error(bw.to_host(), cpu.w) < 1e-3;
    failures += match ? 0 : 1;
    std::printf("2 components, %llu total cycles; w matches CPU: %s\n",
                static_cast<unsigned long long>(ctx.total_cycles()),
                match ? "yes" : "NO");
  }
  return failures == 0 ? 0 : 1;
}
