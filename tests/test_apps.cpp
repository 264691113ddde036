// Composed-application tests (Sec. V / VI-C): numerical agreement of the
// compiled streaming compositions (apps::*_composed on a host::Context),
// host-layer baselines and CPU references; the ATAX deadlock/channel-
// sizing behaviour; cycle-mode speedups of the streaming versions over
// the host-layer versions (the Fig. 11 effect).
#include <gtest/gtest.h>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "mdag/auto_partition.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/validity.hpp"

namespace fblas::apps {
namespace {

using stream::Mode;

template <typename T>
class Apps : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Apps, Precisions);

/// A device buffer on bank `bank` (modulo the device's bank count)
/// holding `host`.
template <typename T>
host::Buffer<T> upload(host::Device& dev, const std::vector<T>& host,
                       int bank) {
  host::Buffer<T> b(dev, static_cast<std::int64_t>(host.size()),
                    bank % dev.bank_count());
  b.write(host);
  return b;
}

/// The streaming knobs the compiled compositions read from the Context.
host::RoutineConfig knobs(int width, std::int64_t tile) {
  host::RoutineConfig rc;
  rc.width = width;
  rc.tile_rows = tile;
  rc.tile_cols = tile;
  return rc;
}

template <typename T>
T run_axpydot(host::Context& ctx, const std::vector<T>& w,
              const std::vector<T>& v, const std::vector<T>& u, T alpha) {
  host::Device& dev = ctx.device();
  const auto bw = upload(dev, w, 0);
  const auto bv = upload(dev, v, 1);
  const auto bu = upload(dev, u, 2);
  return axpydot_composed<T>(ctx, static_cast<std::int64_t>(w.size()), bw,
                             bv, bu, alpha);
}

template <typename T>
std::vector<T> run_atax(host::Context& ctx, std::int64_t n, std::int64_t m,
                        const std::vector<T>& a, const std::vector<T>& x) {
  host::Device& dev = ctx.device();
  const auto ba = upload(dev, a, 0);
  const auto bx = upload(dev, x, 1);
  host::Buffer<T> by(dev, m, 2 % dev.bank_count());
  atax_composed<T>(ctx, n, m, ba, bx, by);
  return by.to_host();
}

template <typename T>
BicgResult<T> run_bicg(host::Context& ctx, std::int64_t n, std::int64_t m,
                       const std::vector<T>& a, const std::vector<T>& p,
                       const std::vector<T>& r) {
  host::Device& dev = ctx.device();
  const auto ba = upload(dev, a, 0);
  const auto bp = upload(dev, p, 1);
  const auto br = upload(dev, r, 2);
  host::Buffer<T> bq(dev, n, 3 % dev.bank_count());
  host::Buffer<T> bs(dev, m, 3 % dev.bank_count());
  bicg_composed<T>(ctx, n, m, ba, bp, br, bq, bs);
  return {bq.to_host(), bs.to_host(), ctx.total_cycles()};
}

/// `in` holds u1, v1, u2, v2, y, z in that order.
template <typename T>
GemverResult<T> run_gemver(host::Context& ctx, std::int64_t n, T alpha,
                           T beta, const std::vector<T>& a,
                           const std::vector<std::vector<T>>& in) {
  host::Device& dev = ctx.device();
  const auto ba = upload(dev, a, 0);
  const auto bu1 = upload(dev, in[0], 1), bv1 = upload(dev, in[1], 2);
  const auto bu2 = upload(dev, in[2], 3), bv2 = upload(dev, in[3], 1);
  const auto by = upload(dev, in[4], 2), bz = upload(dev, in[5], 3);
  host::Buffer<T> bb(dev, n * n, 1 % dev.bank_count());
  host::Buffer<T> bx(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bw(dev, n, 3 % dev.bank_count());
  gemver_composed<T>(ctx, n, alpha, beta, ba, bu1, bv1, bu2, bv2, by, bz, bb,
                     bx, bw);
  return {bb.to_host(), bx.to_host(), bw.to_host(), ctx.total_cycles()};
}

template <typename T>
std::vector<T> run_gesummv(host::Context& ctx, std::int64_t n,
                           std::int64_t m, T alpha, T beta,
                           const std::vector<T>& a, const std::vector<T>& b,
                           const std::vector<T>& x) {
  host::Device& dev = ctx.device();
  const auto ba = upload(dev, a, 0);
  const auto bb = upload(dev, b, 1);
  const auto bx = upload(dev, x, 2);
  host::Buffer<T> by(dev, n, 3 % dev.bank_count());
  gesummv_composed<T>(ctx, n, m, alpha, beta, ba, bb, bx, by);
  return by.to_host();
}

TYPED_TEST(Apps, AxpydotStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(701);
  const std::int64_t n = 500;
  auto w = wl.vector<T>(n);
  auto v = wl.vector<T>(n);
  auto u = wl.vector<T>(n);
  const T alpha = T(0.75);
  const T expect = axpydot_cpu<T>(VectorView<const T>(w.data(), n),
                                  VectorView<const T>(v.data(), n),
                                  VectorView<const T>(u.data(), n), alpha);
  host::Device dev;
  host::Context ctx(dev);
  const auto scoped = ctx.with(knobs(16, 256));
  EXPECT_NEAR(run_axpydot<T>(ctx, w, v, u, alpha), expect, 1e-3 * n);
}

TYPED_TEST(Apps, AxpydotHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(702);
  const std::int64_t n = 300;
  auto w = wl.vector<T>(n);
  auto v = wl.vector<T>(n);
  auto u = wl.vector<T>(n);
  host::Device dev;
  host::Context ctx(dev);
  const auto got = axpydot_host_layer<T>(ctx, VectorView<const T>(w.data(), n),
                                         VectorView<const T>(v.data(), n),
                                         VectorView<const T>(u.data(), n),
                                         T(1.5));
  const T expect = axpydot_cpu<T>(VectorView<const T>(w.data(), n),
                                  VectorView<const T>(v.data(), n),
                                  VectorView<const T>(u.data(), n), T(1.5));
  EXPECT_NEAR(got.beta, expect, 1e-3 * n);
}

TEST(AppsSpeedup, AxpydotStreamingBeatsHostLayer) {
  // Cycle-mode speedup: paper expects ~3 from the model and ~4 measured
  // (the host-layer AXPY reads and writes z on one bank).
  Workload wl(703);
  const std::int64_t n = 1 << 14;
  auto w = wl.vector<float>(n);
  auto v = wl.vector<float>(n);
  auto u = wl.vector<float>(n);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  const auto scoped = ctx.with(knobs(16, 256));
  const float beta = run_axpydot<float>(ctx, w, v, u, 2.0f);
  const std::uint64_t streaming = ctx.total_cycles();
  const auto host = axpydot_host_layer<float>(
      ctx, VectorView<const float>(w.data(), n),
      VectorView<const float>(v.data(), n),
      VectorView<const float>(u.data(), n), 2.0f);
  EXPECT_NEAR(host.beta, beta, 1e-2);
  const double speedup =
      static_cast<double>(host.cycles) / static_cast<double>(streaming);
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 6.0);
}

TYPED_TEST(Apps, BicgStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(704);
  const std::int64_t n = 48, m = 36;
  auto a = wl.matrix<T>(n, m);
  auto p = wl.vector<T>(m);
  auto r = wl.vector<T>(n);
  const auto expect = bicg_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(p.data(), m),
                                  VectorView<const T>(r.data(), n));
  host::Device dev;
  host::Context ctx(dev);
  const auto scoped = ctx.with(knobs(8, 16));
  const auto got = run_bicg<T>(ctx, n, m, a, p, r);
  EXPECT_LT(rel_error(got.q, expect.q), 1e-4);
  EXPECT_LT(rel_error(got.s, expect.s), 1e-4);
}

TYPED_TEST(Apps, BicgHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(705);
  const std::int64_t n = 32, m = 24;
  auto a = wl.matrix<T>(n, m);
  auto p = wl.vector<T>(m);
  auto r = wl.vector<T>(n);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 8;
  ctx.config().tile_rows = 16;
  ctx.config().tile_cols = 16;
  const auto got = bicg_host_layer<T>(ctx, MatrixView<const T>(a.data(), n, m),
                                      VectorView<const T>(p.data(), m),
                                      VectorView<const T>(r.data(), n));
  const auto expect = bicg_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(p.data(), m),
                                  VectorView<const T>(r.data(), n));
  EXPECT_LT(rel_error(got.q, expect.q), 1e-4);
  EXPECT_LT(rel_error(got.s, expect.s), 1e-4);
}

TEST(AppsSpeedup, BicgStreamingReadsAOnce) {
  // The streaming version halves the A traffic; the speedup is bounded by
  // ~2 and the paper measures <= 1.45.
  Workload wl(706);
  const std::int64_t n = 256, m = 256;
  auto a = wl.matrix<float>(n, m);
  auto p = wl.vector<float>(m);
  auto r = wl.vector<float>(n);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  const auto scoped = ctx.with(knobs(16, 64));
  const auto streaming = run_bicg<float>(ctx, n, m, a, p, r);
  const auto host = bicg_host_layer<float>(
      ctx, MatrixView<const float>(a.data(), n, m),
      VectorView<const float>(p.data(), m),
      VectorView<const float>(r.data(), n));
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(streaming.cycles);
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 3.0);
}

TYPED_TEST(Apps, AtaxStreamingWithSizedChannelMatchesCpu) {
  using T = TypeParam;
  Workload wl(707);
  const std::int64_t n = 40, m = 24;
  const std::int64_t tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  const auto got = atax_streaming<T>(
      sim::stratix10(), Mode::Functional, 4, tile,
      atax_min_channel_depth(m, tile, 4), MatrixView<const T>(a.data(), n, m),
      VectorView<const T>(x.data(), m));
  EXPECT_LT(rel_error(got.y, expect), 1e-3);
}

TYPED_TEST(Apps, AtaxUndersizedChannelDeadlocks) {
  using T = TypeParam;
  auto completes = [](Mode mode, std::int64_t n, std::int64_t m,
                      std::int64_t tile, std::int64_t depth) {
    Workload wl(708);
    auto a = wl.matrix<T>(n, m);
    auto x = wl.vector<T>(m);
    try {
      atax_streaming<T>(sim::stratix10(), mode, 4, tile, depth,
                        MatrixView<const T>(a.data(), n, m),
                        VectorView<const T>(x.data(), m));
      return true;
    } catch (const DeadlockError&) {
      return false;
    }
  };
  // A channel much smaller than a row of tiles: the composition stalls
  // forever, exactly as the Sec. V-B analysis predicts.
  EXPECT_FALSE(completes(Mode::Functional, 40, 24, 8, /*depth=*/8));
  // The exact boundary in cycle mode at N=64, M=48, TN=16, W=4: one
  // element below M*TN = 768 still completes (the fan-out stage holds
  // it), two below stall.
  EXPECT_FALSE(completes(Mode::Cycle, 64, 48, 16, 766));
  EXPECT_TRUE(completes(Mode::Cycle, 64, 48, 16, 767));
}

TYPED_TEST(Apps, AtaxSplitMatchesCpu) {
  // A row of tiles (M*TN = 76800 elements) exceeds the compiler's default
  // channel budget (1 << 16), so the compiled ATAX splits: each GEMV
  // reads A itself and q round-trips DRAM.
  using T = TypeParam;
  Workload wl(709);
  const std::int64_t n = 300, m = 300, tile = 256;
  ASSERT_EQ(mdag::derive_plan(atax_mdag(n, m, tile)).components.size(), 2u);
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  host::Device dev;
  host::Context ctx(dev);
  const auto scoped = ctx.with(knobs(4, tile));
  EXPECT_LT(rel_error(run_atax<T>(ctx, n, m, a, x), expect), 1e-3);
  const auto host = atax_host_layer<T>(ctx, MatrixView<const T>(a.data(), n, m),
                                       VectorView<const T>(x.data(), m));
  EXPECT_LT(rel_error(host.y, expect), 1e-3);
}

TYPED_TEST(Apps, AtaxAutoPlannedMatchesCpuBothWays) {
  using T = TypeParam;
  Workload wl(715);
  const std::int64_t n = 40, m = 24, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  host::Device dev;
  host::Context ctx(dev);
  // A row of tiles fits the channel budget: the compiler sizes the
  // direct A channel and streams.
  ASSERT_EQ(mdag::derive_plan(atax_mdag(n, m, tile)).components.size(), 1u);
  const auto scoped = ctx.with(knobs(4, tile));
  EXPECT_LT(rel_error(run_atax<T>(ctx, n, m, a, x), expect), 1e-3);
  // The same matrix padded to a row of tiles over budget: the compiler
  // falls back to the split schedule.
  const std::int64_t wide = (1 << 16) / tile + 8;
  ASSERT_EQ(mdag::derive_plan(atax_mdag(n, wide, tile)).components.size(),
            2u);
  auto aw = wl.matrix<T>(n, wide);
  auto xw = wl.vector<T>(wide);
  const auto expect_wide = atax_cpu<T>(MatrixView<const T>(aw.data(), n, wide),
                                       VectorView<const T>(xw.data(), wide));
  EXPECT_LT(rel_error(run_atax<T>(ctx, n, wide, aw, xw), expect_wide), 1e-3);
}

TYPED_TEST(Apps, GemverStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(710);
  const std::int64_t n = 32, tile = 8;
  auto a = wl.matrix<T>(n, n);
  std::vector<std::vector<T>> in;
  for (int i = 0; i < 6; ++i) in.push_back(wl.vector<T>(n));
  const T alpha = T(1.25), beta = T(0.75);
  auto cv = [n, &in](int i) { return VectorView<const T>(in[i].data(), n); };
  const auto expect =
      gemver_cpu<T>(alpha, beta, MatrixView<const T>(a.data(), n, n), cv(0),
                    cv(1), cv(2), cv(3), cv(4), cv(5));
  host::Device dev;
  host::Context ctx(dev);
  const auto scoped = ctx.with(knobs(4, tile));
  const auto got = run_gemver<T>(ctx, n, alpha, beta, a, in);
  EXPECT_LT(rel_error(got.b, expect.b), 1e-3);
  EXPECT_LT(rel_error(got.x, expect.x), 1e-3);
  EXPECT_LT(rel_error(got.w, expect.w), 1e-3);
}
TYPED_TEST(Apps, GemverHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(711);
  const std::int64_t n = 24;
  auto a = wl.matrix<T>(n, n);
  auto u1 = wl.vector<T>(n);
  auto v1 = wl.vector<T>(n);
  auto u2 = wl.vector<T>(n);
  auto v2 = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  auto z = wl.vector<T>(n);
  auto cv = [n](const std::vector<T>& v) {
    return VectorView<const T>(v.data(), n);
  };
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  const auto expect =
      gemver_cpu<T>(T(2), T(0.5), MatrixView<const T>(a.data(), n, n), cv(u1),
                    cv(v1), cv(u2), cv(v2), cv(y), cv(z));
  const auto got = gemver_host_layer<T>(
      ctx, T(2), T(0.5), MatrixView<const T>(a.data(), n, n), cv(u1), cv(v1),
      cv(u2), cv(v2), cv(y), cv(z));
  EXPECT_LT(rel_error(got.b, expect.b), 1e-3);
  EXPECT_LT(rel_error(got.x, expect.x), 1e-3);
  EXPECT_LT(rel_error(got.w, expect.w), 1e-3);
}

TEST(AppsSpeedup, GemverStreamingBeatsHostLayer) {
  Workload wl(712);
  const std::int64_t n = 128, tile = 32;
  auto a = wl.matrix<float>(n, n);
  std::vector<std::vector<float>> in;
  for (int i = 0; i < 6; ++i) in.push_back(wl.vector<float>(n));
  auto cv = [n, &in](int i) {
    return VectorView<const float>(in[i].data(), n);
  };
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, stream::Mode::Cycle);
  const auto scoped = ctx.with(knobs(16, tile));
  const auto streaming = run_gemver<float>(ctx, n, 1.5f, 0.5f, a, in);
  const auto host = gemver_host_layer<float>(
      ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n), cv(0), cv(1),
      cv(2), cv(3), cv(4), cv(5));
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(streaming.cycles);
  // Paper Fig. 11: GEMVER speedup ~2-3.
  EXPECT_GT(speedup, 1.6);
  EXPECT_LT(speedup, 5.0);
}

TYPED_TEST(Apps, GesummvStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(716);
  const std::int64_t n = 36, m = 28, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto b = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = gesummv_cpu<T>(
      T(1.5), T(-0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  host::Device dev;
  host::Context ctx(dev);
  const auto scoped = ctx.with(knobs(4, tile));
  EXPECT_LT(
      rel_error(run_gesummv<T>(ctx, n, m, T(1.5), T(-0.5), a, b, x), expect),
      1e-3);
}

TYPED_TEST(Apps, GesummvHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(717);
  const std::int64_t n = 24, m = 20;
  auto a = wl.matrix<T>(n, m);
  auto b = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  const auto got = gesummv_host_layer<T>(
      ctx, T(2), T(0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  const auto expect = gesummv_cpu<T>(
      T(2), T(0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  EXPECT_LT(rel_error(got.y, expect), 1e-3);
}

TEST(AppsSpeedup, GesummvStreamingBeatsHostLayer) {
  // Both matrices stream once each, x is broadcast, and the three modules
  // (2 GEMVs + ADD) overlap — the host layer pays an extra intermediate
  // round trip and runs the calls back to back.
  Workload wl(718);
  const std::int64_t n = 256, tile = 64;
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  auto x = wl.vector<float>(n);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  const auto scoped = ctx.with(knobs(16, tile));
  const auto y = run_gesummv<float>(ctx, n, n, 1.5f, 0.5f, a, b, x);
  const std::uint64_t streaming = ctx.total_cycles();
  const auto host = gesummv_host_layer<float>(
      ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n),
      MatrixView<const float>(b.data(), n, n),
      VectorView<const float>(x.data(), n));
  EXPECT_LT(rel_error(host.y, y), 1e-3);
  const double speedup =
      static_cast<double>(host.cycles) / static_cast<double>(streaming);
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 3.5);
}

TEST(AppMdags, GesummvShowsTheAnalysisIsConservative) {
  // GESUMMV is a non-multitree (x reaches the ADD through both GEMVs, and
  // so the Sec. V rule flags it), yet it streams as one component: the
  // two sibling paths have *identical* lag (both GEMVs emit block ti
  // after the same tile-row), so neither side ever builds up unbounded
  // backlog. The vertex-disjoint-path criterion is
  // sufficient-for-danger, not necessary — the paper's "invalid graphs
  // CAN occur" phrasing, made precise.
  const auto g = gesummv_mdag(1024, 1024, 64);
  EXPECT_FALSE(mdag::is_multitree(g));
  EXPECT_FALSE(mdag::validate(g).valid);  // the conservative verdict
  // The planner still produces a safe plan (sized channels or a split).
  mdag::PlanOptions opt;
  opt.max_channel_depth = 1 << 20;
  const auto plan = mdag::derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
}

// ---- MDAG cross-checks --------------------------------------------------

TEST(AppMdags, ValidityMatchesPaper) {
  EXPECT_TRUE(mdag::validate(axpydot_mdag(1024)).valid);
  EXPECT_TRUE(mdag::validate(bicg_mdag(1024, 512, 64)).valid);
  EXPECT_FALSE(mdag::validate(atax_mdag(1024, 1024, 64)).valid);
  EXPECT_FALSE(mdag::validate(gemver_mdag(1024, 64)).valid);
}

TEST(AppMdags, IoVolumesMatchSec5) {
  const std::int64_t n = 1024;
  EXPECT_EQ(mdag::total_io_ops(axpydot_mdag(n)), 3 * n + 1);
  // BICG: A once + replayed p + r + q + s.
  const auto bicg = bicg_mdag(n, n, 64);
  EXPECT_EQ(mdag::total_io_ops(bicg), n * n + n * (n / 64) + 3 * n);
}

}  // namespace
}  // namespace fblas::apps
