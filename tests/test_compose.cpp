// The generic MDAG composition compiler, end to end: descriptions are
// rejected at enqueue with the validity diagnostic, every compiled app is
// bit-identical to its host-layer baseline (and AXPYDOT/ATAX/BICG to
// hand-wired stream graphs of the same modules), the composed
// GEMVER/GESUMMV match refblas (serially and on the worker pool), and
// in-flight corruption is caught on every compiled composition
// (sdc_caught == faults_injected) with the divergence localized to the
// injector's ground-truth channel. The CPU fallback is bit-identical to
// refblas on every compiled node kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/error.hpp"
#include "common/workload.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "trace/trace.hpp"
#include "verify/options.hpp"

namespace fblas {
namespace {

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);
  p.cpu_fallback = cpu_fallback;
  return p;
}

template <typename T>
void expect_close(const std::vector<T>& got, const std::vector<T>& want,
                  double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(got[i]), static_cast<double>(want[i]),
                tol)
        << "at index " << i;
  }
}

// --- Rejection at enqueue -------------------------------------------------

TEST(ComposeCompiler, NonMultitreeRejectionSurfacesValidityDiagnostic) {
  // The ATAX shape (two vertex-disjoint A-paths into the transposed GEMV)
  // with a channel budget too small to buffer a row of tiles and
  // require_streaming(): the compiler must refuse the description at the
  // run_composition_async call itself — no command enqueued, no Event —
  // and explain *why* with the multitree analysis.
  const std::int64_t n = 24, m = 16;
  Workload wl(41);
  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));

  const host::RoutineConfig& rc = ctx.config();
  const core::GemvConfig cfg{Transpose::None,
                             core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  host::Composition<float> c("atax_strict");
  c.require_streaming().max_channel_depth(16);
  const int ra = c.input("read_A", a);
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int g1 = c.gemv("gemv", 1.0f, 0.0f);
  const int g2 = c.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
  c.connect(ra, g1, a_sig);
  c.connect(ra, g2, a_sig);
  c.connect(rx, g1,
            mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
  c.connect(g1, g2, mdag::StreamSig::vec(n));
  c.connect(g2, wy, mdag::StreamSig::vec(m));

  try {
    ctx.run_composition_async(c);
    FAIL() << "expected ConfigError at enqueue";
  } catch (const ConfigError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("single streaming component"), std::string::npos);
    EXPECT_NE(msg.find("vertex-disjoint"), std::string::npos);
  }
  // Nothing ran, nothing landed.
  ctx.finish();
  EXPECT_EQ(ctx.exec_stats().executed, 0u);

  // The same description with the budget restored streams fine.
  c.max_channel_depth(1 << 16);
  EXPECT_NO_THROW(ctx.run_composition(c));
}

TEST(ComposeCompiler, EveryRejectionSurfacesAtEnqueue) {
  // Every description the compiler cannot execute is refused at the
  // run_composition_async call with a ConfigError naming the fault; no
  // command is queued, so nothing executes.
  const std::int64_t n = 8, tri = n * (n + 1) / 2;
  using Sig = mdag::StreamSig;
  using C = host::Composition<float>;
  struct Case {
    const char* name;
    const char* fragment;
    std::function<void(C&, const host::Buffer<float>&, host::Buffer<float>&)>
        build;
  };
  const std::vector<Case> cases = {
      {"reader with an in-edge", "reader 'read_y' cannot have input edges",
       [&](C& c, const auto& x, auto&) {
         const int rx = c.input("read_x", x);
         const int ry = c.input("read_y", x);
         const int sc = c.scal("scal", 2.0f);
         c.connect(rx, sc, Sig::vec(n));
         c.connect(sc, ry, Sig::vec(n));
       }},
      {"writer with two in-edges", "writer 'store' must have exactly one",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int ry = c.input("read_y", x);
         const int w = c.output("store", y);
         c.connect(rx, w, Sig::vec(n));
         c.connect(ry, w, Sig::vec(n));
       }},
      {"compute without output", "compute node 'scal' has no output edge",
       [&](C& c, const auto& x, auto&) {
         const int rx = c.input("read_x", x);
         const int sc = c.scal("scal", 2.0f);
         c.connect(rx, sc, Sig::vec(n));
       }},
      {"compute with the wrong arity", "'axpy' (axpy) has 1 input edges",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int w = c.output("store", y);
         const int ax = c.axpy("axpy", 2.0f);
         c.connect(rx, ax, Sig::vec(n));
         c.connect(ax, w, Sig::vec(n));
       }},
      {"3-way replication", "node 'scal' replicates 3 ways",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int sc = c.scal("scal", 2.0f);
         c.connect(rx, sc, Sig::vec(n));
         for (const char* w : {"w0", "w1", "w2"}) {
           c.connect(sc, c.output(w, y), Sig::vec(n));
         }
       }},
      {"fan-out of two streams", "would replicate two different streams",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int s0 = c.scal("s0", 2.0f);
         const int s1 = c.scal("s1", 3.0f);
         c.connect(rx, s0, Sig::vec(n));
         c.connect(rx, s1, Sig::vec(n, 2));
         c.connect(s0, c.output("w0", y), Sig::vec(n));
         c.connect(s1, c.output("w1", y), Sig::vec(n, 2));
       }},
      {"mismatched edge signatures", "invalid edges (count/order mismatch)",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int sc = c.scal("scal", 2.0f);
         c.connect(rx, sc, Sig::vec(n), Sig::vec(n + 1));
         c.connect(sc, c.output("store", y), Sig::vec(n));
       }},
      {"TRSV A from a plain reader",
       "the TRSV A operand must come from a triangular reader",
       [&](C& c, const auto& x, auto& y) {
         const int ra = c.input("read_A", x);
         const int rb = c.input("read_b", x);
         const int tr = c.trsv("trsv", Uplo::Lower);
         c.connect(ra, tr, Sig::vec(tri));
         c.connect(rb, tr, Sig::vec(n));
         c.connect(tr, c.output("store", y), Sig::vec(n));
       }},
      {"triangle cut through DRAM",
       "a triangular stream cannot round-trip through DRAM",
       [&](C& c, const auto& x, auto& y) {
         const int rl = c.input_triangular("read_L", x, Uplo::Lower);
         const int rb = c.input("read_b", x);
         const int tr = c.trsv("trsv", Uplo::Lower);
         c.connect(rl, tr, Sig::vec(tri), Sig::vec(tri, 2));
         c.connect(rb, tr, Sig::vec(n));
         c.connect(tr, c.output("store", y), Sig::vec(n));
       }},
      // Enqueued before the compiler checked ports: each failed (or
      // silently computed a wrong result) only once the command ran.
      {"replayed TRSV b", "node 'trsv' port 1 (b)",
       [&](C& c, const auto& x, auto& y) {
         const int rl = c.input_triangular("read_L", x, Uplo::Lower);
         const int rb = c.input("read_b", x);
         const int tr = c.trsv("trsv", Uplo::Lower);
         c.connect(rl, tr, Sig::vec(tri));
         c.connect(rb, tr, Sig::vec(n, 2));
         c.connect(tr, c.output("store", y), Sig::vec(n));
       }},
      {"vector into a GEMV A port", "node 'gemv' port 0 (A)",
       [&](C& c, const auto& x, auto& y) {
         const int ra = c.input("read_A", x);
         const int rx = c.input("read_x", x);
         const int gv = c.gemv("gemv", 1.0f, 0.0f);
         c.connect(ra, gv, Sig::vec(n));
         c.connect(rx, gv, Sig::vec(n));
         c.connect(gv, c.output("store", y), Sig::vec(n));
       }},
      {"vector into a GER A port", "node 'ger' port 0 (A0)",
       [&](C& c, const auto& x, auto& y) {
         const int ra = c.input("read_A", x);
         const int rx = c.input("read_x", x);
         const int ry = c.input("read_y", x);
         const int gr = c.ger("ger", 1.0f);
         c.connect(ra, gr, Sig::vec(n));
         c.connect(rx, gr, Sig::vec(n));
         c.connect(ry, gr, Sig::vec(n));
         c.connect(gr, c.output("store", y), Sig::vec(n));
       }},
      {"triangle into an AXPY", "node 'axpy' port 0 (x)",
       [&](C& c, const auto& x, auto& y) {
         const int rl = c.input_triangular("read_L", x, Uplo::Lower);
         const int ry = c.input("read_y", x);
         const int ax = c.axpy("axpy", 2.0f);
         c.connect(rl, ax, Sig::vec(n));
         c.connect(ry, ax, Sig::vec(n));
         c.connect(ax, c.output("store", y), Sig::vec(n));
       }},
      {"upper solve fed by a compute node", "node 'trsv' port 1 (b)",
       [&](C& c, const auto& x, auto& y) {
         const int rl = c.input_triangular("read_U", x, Uplo::Upper);
         const int rb = c.input("read_b", x);
         const int sc = c.scal("scal", 2.0f);
         const int tr = c.trsv("trsv", Uplo::Upper);
         c.connect(rl, tr, Sig::vec(tri));
         c.connect(rb, sc, Sig::vec(n));
         c.connect(sc, tr, Sig::vec(n));
         c.connect(tr, c.output("store", y), Sig::vec(n));
       }},
      {"upper solve feeding a compute node", "node 'trsv' output",
       [&](C& c, const auto& x, auto& y) {
         const int rl = c.input_triangular("read_U", x, Uplo::Upper);
         const int rb = c.input("read_b", x);
         const int tr = c.trsv("trsv", Uplo::Upper);
         const int sc = c.scal("scal", 2.0f);
         c.connect(rl, tr, Sig::vec(tri));
         c.connect(rb, tr, Sig::vec(n));
         c.connect(tr, sc, Sig::vec(n));
         c.connect(sc, c.output("store", y), Sig::vec(n));
       }},
      {"DOT emitting a vector", "node 'dot' output",
       [&](C& c, const auto& x, auto& y) {
         const int rx = c.input("read_x", x);
         const int ry = c.input("read_y", x);
         const int dt = c.dot("dot");
         c.connect(rx, dt, Sig::vec(n));
         c.connect(ry, dt, Sig::vec(n));
         c.connect(dt, c.output("store", y), Sig::vec(n));
       }},
  };

  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    host::Device dev;
    host::Context ctx(dev);
    host::Buffer<float> x(dev, n * n, 0), y(dev, n * n, 1);
    x.write(std::vector<float>(static_cast<std::size_t>(n * n), 1.0f));
    y.write(std::vector<float>(static_cast<std::size_t>(n * n), 0.0f));
    C c("reject");
    k.build(c, x, y);
    try {
      ctx.run_composition_async(c);
      ADD_FAILURE() << "expected ConfigError at enqueue";
    } catch (const ConfigError& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find(k.fragment), std::string::npos) << msg;
    }
    try {
      ctx.finish();
    } catch (const std::exception&) {
    }
    EXPECT_EQ(ctx.exec_stats().executed, 0u);
  }
}

// --- Bit-identity with the host layer and hand-wired stream graphs --------

TEST(ComposeCompiler, CompiledAppsBitIdenticalToHostLayer) {
  // Each compiled *_composed command streams the same routine modules the
  // host layer launches one by one, in the same summation order, so the
  // outputs agree bit for bit — in both simulation modes.
  const std::int64_t n = 40, m = 28, gn = 32;
  Workload wl(42);
  const auto hw = wl.vector<float>(n), hv = wl.vector<float>(n),
             hu = wl.vector<float>(n);
  const auto ha = wl.matrix<float>(n, m), hb = wl.matrix<float>(n, m);
  const auto hxm = wl.vector<float>(m), hxn = wl.vector<float>(n);
  const auto hg = wl.matrix<float>(gn, gn);
  std::vector<std::vector<float>> hgv;
  for (int i = 0; i < 6; ++i) hgv.push_back(wl.vector<float>(gn));
  const float alpha = 0.37f, beta = -0.8f;
  const auto vec = [](const std::vector<float>& v) {
    return VectorView<const float>(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  };
  const MatrixView<const float> A(ha.data(), n, m), B(hb.data(), n, m),
      G(hg.data(), gn, gn);

  for (const auto mode : {stream::Mode::Functional, stream::Mode::Cycle}) {
    SCOPED_TRACE(mode == stream::Mode::Cycle ? "cycle" : "functional");
    host::Device dev;
    host::Context ctx(dev, mode);
    host::RoutineConfig rc;
    rc.width = 4;
    rc.tile_rows = rc.tile_cols = 8;
    const host::ConfigGuard scoped = ctx.with(rc);
    const auto upload = [&dev](const std::vector<float>& h, int bank) {
      host::Buffer<float> buf(dev, static_cast<std::int64_t>(h.size()), bank);
      buf.write(h);
      return buf;
    };

    {  // AXPYDOT
      const auto w = upload(hw, 0), v = upload(hv, 1), u = upload(hu, 2);
      EXPECT_EQ(apps::axpydot_composed<float>(ctx, n, w, v, u, alpha),
                apps::axpydot_host_layer<float>(ctx, vec(hw), vec(hv),
                                                vec(hu), alpha)
                    .beta);
    }
    {  // ATAX
      const auto a = upload(ha, 0), x = upload(hxm, 1);
      host::Buffer<float> y(dev, m, 2);
      apps::atax_composed<float>(ctx, n, m, a, x, y);
      EXPECT_EQ(y.to_host(), apps::atax_host_layer<float>(ctx, A, vec(hxm)).y);
    }
    {  // BICG
      const auto a = upload(ha, 0), p = upload(hxm, 1), r = upload(hxn, 2);
      host::Buffer<float> q(dev, n, 3), s(dev, m, 3);
      apps::bicg_composed<float>(ctx, n, m, a, p, r, q, s);
      const auto host =
          apps::bicg_host_layer<float>(ctx, A, vec(hxm), vec(hxn));
      EXPECT_EQ(q.to_host(), host.q);
      EXPECT_EQ(s.to_host(), host.s);
    }
    {  // GESUMMV
      const auto a = upload(ha, 0), b = upload(hb, 1), x = upload(hxm, 2);
      host::Buffer<float> y(dev, n, 3);
      apps::gesummv_composed<float>(ctx, n, m, alpha, beta, a, b, x, y);
      EXPECT_EQ(y.to_host(), apps::gesummv_host_layer<float>(
                                 ctx, alpha, beta, A, B, vec(hxm))
                                 .y);
    }
    {  // GEMVER
      const auto a = upload(hg, 0);
      const auto u1 = upload(hgv[0], 1), v1 = upload(hgv[1], 2),
                 u2 = upload(hgv[2], 3), v2 = upload(hgv[3], 1),
                 y = upload(hgv[4], 2), z = upload(hgv[5], 3);
      host::Buffer<float> b(dev, gn * gn, 1), x(dev, gn, 2), w(dev, gn, 3);
      apps::gemver_composed<float>(ctx, gn, alpha, beta, a, u1, v1, u2, v2, y,
                                   z, b, x, w);
      const auto host = apps::gemver_host_layer<float>(
          ctx, alpha, beta, G, vec(hgv[0]), vec(hgv[1]), vec(hgv[2]),
          vec(hgv[3]), vec(hgv[4]), vec(hgv[5]));
      EXPECT_EQ(b.to_host(), host.b);
      EXPECT_EQ(x.to_host(), host.x);
      EXPECT_EQ(w.to_host(), host.w);
    }
  }
}

TEST(ComposeCompiler, CompiledAxpydotBitIdenticalToHandWired) {
  // The reference wires the AXPY -> DOT pipeline by hand: three readers,
  // z = w - alpha v streamed straight into the DOT module.
  const std::int64_t n = 300;
  const float alpha = 0.37f;
  Workload wl(42);
  const auto hw = wl.vector<float>(n);
  const auto hv = wl.vector<float>(n);
  const auto hu = wl.vector<float>(n);

  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> w(dev, n, 0), v(dev, n, 1), u(dev, n, 2);
  w.write(hw);
  v.write(hv);
  u.write(hu);
  const float beta = apps::axpydot_composed<float>(ctx, n, w, v, u, alpha);

  const int width = ctx.config().width;
  stream::Graph g(stream::Mode::Functional);
  const std::size_t cap = static_cast<std::size_t>(std::max(64, 2 * width));
  auto& cw = g.channel<float>("w", cap);
  auto& cv = g.channel<float>("v", cap);
  auto& cu = g.channel<float>("u", cap);
  auto& cz = g.channel<float>("z", cap);
  auto& cres = g.channel<float>("beta", 2);
  std::vector<float> hand;
  g.spawn("read_w", stream::read_vector<float>(
                        VectorView<const float>(hw.data(), n), 1, width, cw));
  g.spawn("read_v", stream::read_vector<float>(
                        VectorView<const float>(hv.data(), n), 1, width, cv));
  g.spawn("read_u", stream::read_vector<float>(
                        VectorView<const float>(hu.data(), n), 1, width, cu));
  g.spawn("axpy", core::axpy<float>({width}, n, -alpha, cv, cw, cz));
  g.spawn("dot", core::dot<float>({width}, n, cz, cu, cres));
  g.spawn("collect", stream::collect<float>(1, cres, hand));
  g.run();
  ASSERT_EQ(hand.size(), 1u);
  EXPECT_EQ(beta, hand[0]);  // bit-identical, not just close
}

TEST(ComposeCompiler, CompiledAtaxBitIdenticalToHandWired) {
  const std::int64_t n = 40, m = 28;
  Workload wl(43);
  const auto ha = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);

  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(ha);
  x.write(hx);
  y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  apps::atax_composed<float>(ctx, n, m, a, x, y);

  const auto& rc = ctx.config();
  const auto hand = apps::atax_streaming<float>(
      dev.spec(), stream::Mode::Functional, rc.width, rc.tile_rows,
      apps::atax_min_channel_depth(m, rc.tile_rows, rc.width),
      MatrixView<const float>(ha.data(), n, m),
      VectorView<const float>(hx.data(), m));
  EXPECT_EQ(y.to_host(), hand.y);
}

TEST(ComposeCompiler, CompiledBicgBitIdenticalToHandWired) {
  // The reference wires Fig. 7 by hand: A read once and duplicated on chip
  // into both GEMVs, zero y streams generated on chip (beta = 0).
  const std::int64_t n = 36, m = 24;
  Workload wl(44);
  const auto ha = wl.matrix<float>(n, m);
  const auto hp = wl.vector<float>(m);
  const auto hr = wl.vector<float>(n);

  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
  host::Buffer<float> q(dev, n, 1), s(dev, m, 2);
  a.write(ha);
  p.write(hp);
  r.write(hr);
  q.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  s.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  apps::bicg_composed<float>(ctx, n, m, a, p, r, q, s);

  const auto& rc = ctx.config();
  const int width = rc.width;
  const core::GemvConfig cfg_n{Transpose::None,
                               core::MatrixTiling::TilesByRows, width,
                               rc.tile_rows, rc.tile_rows};
  const core::GemvConfig cfg_t{Transpose::Trans,
                               core::MatrixTiling::TilesByRows, width,
                               rc.tile_rows, rc.tile_rows};
  ASSERT_EQ(core::gemv_a_schedule(cfg_n), core::gemv_a_schedule(cfg_t));
  stream::Graph g(stream::Mode::Functional);
  const std::size_t cap = static_cast<std::size_t>(std::max(64, 4 * width));
  auto& ca = g.channel<float>("A", cap);
  auto& ca1 = g.channel<float>("A_gemv", cap);
  auto& ca2 = g.channel<float>("A_gemvT", cap);
  auto& cp = g.channel<float>("p", cap);
  auto& cr = g.channel<float>("r", cap);
  auto& cq0 = g.channel<float>("q0", cap);
  auto& cs0 = g.channel<float>("s0", cap);
  auto& cq = g.channel<float>("q", cap);
  auto& cs = g.channel<float>("s", cap);
  std::vector<float> hand_q, hand_s;
  g.spawn("read_A", stream::read_matrix<float>(
                        MatrixView<const float>(ha.data(), n, m),
                        core::gemv_a_schedule(cfg_n), 1, width, ca));
  g.spawn("fanout_A", stream::fanout2<float>(n * m, width, ca, ca1, ca2));
  g.spawn("read_p", stream::read_vector<float>(
                        VectorView<const float>(hp.data(), m),
                        core::gemv_x_repeat(cfg_n, n, m), width, cp));
  g.spawn("read_r", stream::read_vector<float>(
                        VectorView<const float>(hr.data(), n),
                        core::gemv_x_repeat(cfg_t, n, m), width, cr));
  g.spawn("zero_q", stream::generate<float>(n, 0.0f, width, cq0));
  g.spawn("zero_s", stream::generate<float>(m, 0.0f, width, cs0));
  g.spawn("gemv",
          core::gemv<float>(cfg_n, n, m, 1.0f, 0.0f, ca1, cp, cq0, cq));
  g.spawn("gemv_T",
          core::gemv<float>(cfg_t, n, m, 1.0f, 0.0f, ca2, cr, cs0, cs));
  g.spawn("collect_q", stream::collect<float>(n, cq, hand_q));
  g.spawn("collect_s", stream::collect<float>(m, cs, hand_s));
  g.run();
  EXPECT_EQ(q.to_host(), hand_q);
  EXPECT_EQ(s.to_host(), hand_s);
}

// --- Composed GEMVER / GESUMMV against refblas ---------------------------

// Runs both new compositions `rounds` times (alternating, to interleave
// on the pool) and returns every output buffer.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_gemver_gesummv(int workers, bool with_faults, bool verified = true) {
  const std::int64_t n = 24, m = 20;
  const float alpha = 0.6f, beta = -0.8f;
  Workload wl(45);
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 51;
    fc.channel_corrupt_rate = 0.4;
    fc.max_faults = 4;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  if (verified) ctx.config().verification = verify::Options::always();

  host::Buffer<float> A(dev, n * n, 0);
  host::Buffer<float> u1(dev, n, 1), v1(dev, n, 2), u2(dev, n, 1),
      v2(dev, n, 2), yy(dev, n, 1), zz(dev, n, 2);
  host::Buffer<float> B(dev, n * n, 1), X(dev, n, 2), W(dev, n, 1);
  A.write(wl.matrix<float>(n, n));
  u1.write(wl.vector<float>(n));
  v1.write(wl.vector<float>(n));
  u2.write(wl.vector<float>(n));
  v2.write(wl.vector<float>(n));
  yy.write(wl.vector<float>(n));
  zz.write(wl.vector<float>(n));

  host::Buffer<float> GA(dev, n * m, 0), GB(dev, n * m, 1), gx(dev, m, 2),
      gy(dev, n, 1);
  GA.write(wl.matrix<float>(n, m));
  GB.write(wl.matrix<float>(n, m));
  gx.write(wl.vector<float>(m));

  // Outputs are zeroed once, up front: a host-side Buffer::write is not a
  // tracked command, so touching these buffers inside the loop would race
  // with the still-in-flight rounds on the worker pool. The commands'
  // own WAW hazards keep the rounds ordered.
  B.write(std::vector<float>(static_cast<std::size_t>(n * n), 0.0f));
  X.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  W.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  gy.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  for (int round = 0; round < 3; ++round) {
    apps::gemver_composed_async<float>(ctx, n, alpha, beta, A, u1, v1, u2,
                                       v2, yy, zz, B, X, W);
    apps::gesummv_composed_async<float>(ctx, n, m, alpha, beta, GA, GB, gx,
                                        gy);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{B.to_host(), X.to_host(), W.to_host(),
                                      gy.to_host()};
  return {out, ctx.exec_stats()};
}

TEST(ComposeApps, GemverAndGesummvMatchRefblasSerially) {
  const auto [out, stats] = run_gemver_gesummv(0, false);
  EXPECT_EQ(stats.verify_failures, 0u);

  const std::int64_t n = 24, m = 20;
  const float alpha = 0.6f, beta = -0.8f;
  Workload wl(45);  // same seed => same operands as the device run
  const auto hA = wl.matrix<float>(n, n);
  const auto hu1 = wl.vector<float>(n);
  const auto hv1 = wl.vector<float>(n);
  const auto hu2 = wl.vector<float>(n);
  const auto hv2 = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  const auto hz = wl.vector<float>(n);
  const auto ref = apps::gemver_cpu<float>(
      alpha, beta, MatrixView<const float>(hA.data(), n, n),
      VectorView<const float>(hu1.data(), n),
      VectorView<const float>(hv1.data(), n),
      VectorView<const float>(hu2.data(), n),
      VectorView<const float>(hv2.data(), n),
      VectorView<const float>(hy.data(), n),
      VectorView<const float>(hz.data(), n));
  const double tol = 1e-3 * static_cast<double>(n);
  expect_close(out[0], ref.b, tol);
  expect_close(out[1], ref.x, tol);
  expect_close(out[2], ref.w, tol);

  const auto hGA = wl.matrix<float>(n, m);
  const auto hGB = wl.matrix<float>(n, m);
  const auto hgx = wl.vector<float>(m);
  const auto gref = apps::gesummv_cpu<float>(
      alpha, beta, MatrixView<const float>(hGA.data(), n, m),
      MatrixView<const float>(hGB.data(), n, m),
      VectorView<const float>(hgx.data(), m));
  expect_close(out[3], gref, tol);
}

TEST(ComposeApps, GemverAndGesummvIdenticalOnWorkerPool) {
  const auto [serial, serial_stats] = run_gemver_gesummv(0, false);
  const auto [pool, pool_stats] = run_gemver_gesummv(4, false);
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(pool_stats.verify_failures, 0u);
  EXPECT_EQ(serial_stats.executed, pool_stats.executed);
}

// --- Fault injection across the compiled compositions ---------------------

TEST(ComposeFaults, EveryInjectedFaultCaughtAndRecoveredBitIdentical) {
  const auto [clean, clean_stats] = run_gemver_gesummv(0, false);
  const auto [faulted, fstats] = run_gemver_gesummv(0, true);
  EXPECT_GT(fstats.faults_injected, 0u);
  EXPECT_EQ(fstats.sdc_caught, fstats.faults_injected);
  EXPECT_EQ(clean, faulted);  // retries converge to the fault-free bits
  EXPECT_EQ(clean_stats.sdc_caught, 0u);

  const auto [pool, pstats] = run_gemver_gesummv(4, true);
  EXPECT_EQ(pstats.sdc_caught, pstats.faults_injected);
  EXPECT_EQ(clean, pool);
}

TEST(ComposeFaults, GemverCorruptionLocalizedToGroundTruthChannel) {
  // One corrupted FIFO element somewhere in the compiled two-component
  // GEMVER pipeline; the tap plan must name exactly the channel the
  // injector recorded as ground truth.
  const std::int64_t n = 20;
  Workload wl(46);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 52;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> A(dev, n * n, 0);
  host::Buffer<float> u1(dev, n, 1), v1(dev, n, 2), u2(dev, n, 1),
      v2(dev, n, 2), yy(dev, n, 1), zz(dev, n, 2);
  host::Buffer<float> B(dev, n * n, 1), X(dev, n, 2), W(dev, n, 1);
  A.write(wl.matrix<float>(n, n));
  u1.write(wl.vector<float>(n));
  v1.write(wl.vector<float>(n));
  u2.write(wl.vector<float>(n));
  v2.write(wl.vector<float>(n));
  yy.write(wl.vector<float>(n));
  zz.write(wl.vector<float>(n));
  B.write(std::vector<float>(static_cast<std::size_t>(n * n), 0.0f));
  X.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  W.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

  host::Event e = apps::gemver_composed_async<float>(
      ctx, n, 0.5f, 1.5f, A, u1, v1, u2, v2, yy, zz, B, X, W);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'gemver'"), std::string::npos);
    EXPECT_NE(msg.find("first divergent edge"), std::string::npos);
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
  }
  EXPECT_EQ(ctx.exec_stats().faults_injected, 1u);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(ComposeFaults, GesummvCorruptionLocalizedToGroundTruthChannel) {
  const std::int64_t n = 24, m = 18;
  Workload wl(47);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 53;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> a(dev, n * m, 0), b(dev, n * m, 1), x(dev, m, 2),
      y(dev, n, 1);
  a.write(wl.matrix<float>(n, m));
  b.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

  host::Event e =
      apps::gesummv_composed_async<float>(ctx, n, m, 0.7f, 0.2f, a, b, x, y);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'gesummv'"), std::string::npos);
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
  }
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

// --- Degradation: the synthesized refblas fallback ------------------------

TEST(ComposeFaults, PersistentCorruptionDegradesToSynthesizedCpuFallback) {
  // Unlimited corruption exhausts the retry budget; the command must
  // complete through the compiler's topologically-synthesized refblas
  // replay and still produce the exact refblas result. Sizes chosen so
  // every attempt streams well past the injector's deepest strike point
  // (the k-th pushed value, k <= 1024) — no attempt can escape clean.
  const std::int64_t n = 32, m = 24;
  const float alpha = 1.1f, beta = -0.4f;
  Workload wl(48);
  const auto ha = wl.matrix<float>(n, m);
  const auto hb = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 54;
  fc.channel_corrupt_rate = 1.0;  // every attempt corrupted
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> a(dev, n * m, 0), b(dev, n * m, 1), x(dev, m, 2),
      y(dev, n, 1);
  a.write(ha);
  b.write(hb);
  x.write(hx);
  y.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  apps::gesummv_composed<float>(ctx, n, m, alpha, beta, a, b, x, y);

  EXPECT_EQ(ctx.exec_stats().degraded, 1u);
  EXPECT_EQ(ctx.exec_stats().retries, 2u);
  const auto ref = apps::gesummv_cpu<float>(
      alpha, beta, MatrixView<const float>(ha.data(), n, m),
      MatrixView<const float>(hb.data(), n, m),
      VectorView<const float>(hx.data(), m));
  EXPECT_EQ(y.to_host(), ref);  // fallback IS refblas, bit for bit
}

// Every launch fails, so every command degrades to the host replay in T;
// it must be refblas bit for bit on each compiled node kind.
template <typename T>
void forced_fallback_matches_refblas() {
  const std::int64_t n = 24, m = 20, len = 96;
  const T alpha = T(1.1), beta = T(-0.4);
  Workload wl(49);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 55;
  fc.launch_fail_rate = 1.0;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
  const auto vec = [](const std::vector<T>& v) {
    return VectorView<const T>(v.data(), static_cast<std::int64_t>(v.size()));
  };
  const auto upload = [&dev](const std::vector<T>& h, int bank) {
    host::Buffer<T> buf(dev, static_cast<std::int64_t>(h.size()), bank);
    buf.write(h);
    return buf;
  };
  const auto zeros = [&dev](std::int64_t k, int bank) {
    host::Buffer<T> buf(dev, k, bank);
    buf.write(std::vector<T>(static_cast<std::size_t>(k), T(0)));
    return buf;
  };
  const auto ha = wl.template matrix<T>(n, m), hb = wl.template matrix<T>(n, m);
  const auto hxm = wl.template vector<T>(m), hxn = wl.template vector<T>(n);
  const MatrixView<const T> A(ha.data(), n, m), B(hb.data(), n, m);
  std::uint64_t commands = 0;

  {  // AXPYDOT
    const auto hw = wl.template vector<T>(len), hv = wl.template vector<T>(len),
               hu = wl.template vector<T>(len);
    const auto w = upload(hw, 0), v = upload(hv, 1), u = upload(hu, 2);
    EXPECT_EQ(apps::axpydot_composed<T>(ctx, len, w, v, u, alpha),
              apps::axpydot_cpu<T>(vec(hw), vec(hv), vec(hu), alpha));
    ++commands;
  }
  {  // ATAX
    const auto a = upload(ha, 0), x = upload(hxm, 1);
    auto y = zeros(m, 2);
    apps::atax_composed<T>(ctx, n, m, a, x, y);
    EXPECT_EQ(y.to_host(), apps::atax_cpu<T>(A, vec(hxm)));
    ++commands;
  }
  {  // BICG
    const auto a = upload(ha, 0), p = upload(hxm, 1), r = upload(hxn, 2);
    auto q = zeros(n, 3), s = zeros(m, 3);
    apps::bicg_composed<T>(ctx, n, m, a, p, r, q, s);
    const auto ref = apps::bicg_cpu<T>(A, vec(hxm), vec(hxn));
    EXPECT_EQ(q.to_host(), ref.q);
    EXPECT_EQ(s.to_host(), ref.s);
    ++commands;
  }
  {  // GESUMMV
    const auto a = upload(ha, 0), b = upload(hb, 1), x = upload(hxm, 2);
    auto y = zeros(n, 3);
    apps::gesummv_composed<T>(ctx, n, m, alpha, beta, a, b, x, y);
    EXPECT_EQ(y.to_host(), apps::gesummv_cpu<T>(alpha, beta, A, B, vec(hxm)));
    ++commands;
  }
  {  // GEMVER: compiled as two components joined by DRAM cuts
    const auto hg = wl.template matrix<T>(n, n);
    std::vector<std::vector<T>> hv;
    for (int i = 0; i < 6; ++i) hv.push_back(wl.template vector<T>(n));
    const auto a = upload(hg, 0);
    const auto u1 = upload(hv[0], 1), v1 = upload(hv[1], 2),
               u2 = upload(hv[2], 3), v2 = upload(hv[3], 1),
               y = upload(hv[4], 2), z = upload(hv[5], 3);
    auto b = zeros(n * n, 1), x = zeros(n, 2), w = zeros(n, 3);
    apps::gemver_composed<T>(ctx, n, alpha, beta, a, u1, v1, u2, v2, y, z, b,
                             x, w);
    const auto ref = apps::gemver_cpu<T>(
        alpha, beta, MatrixView<const T>(hg.data(), n, n), vec(hv[0]),
        vec(hv[1]), vec(hv[2]), vec(hv[3]), vec(hv[4]), vec(hv[5]));
    EXPECT_EQ(b.to_host(), ref.b);
    EXPECT_EQ(x.to_host(), ref.x);
    EXPECT_EQ(w.to_host(), ref.w);
    ++commands;
  }
  {  // TRSV whose b is streamed from a GEMV: L x = A v
    const auto hl = wl.template triangular<T>(n, Uplo::Lower, Diag::NonUnit);
    const auto l = upload(hl, 0), a = upload(ha, 1), v = upload(hxm, 2);
    auto x = zeros(n, 3);
    const host::RoutineConfig& rc = ctx.config();
    const core::GemvConfig cfg{Transpose::None,
                               core::MatrixTiling::TilesByRows, rc.width,
                               rc.tile_rows, rc.tile_rows};
    host::Composition<T> c("gemv_trsv");
    const int rl = c.input_triangular("read_L", l, Uplo::Lower);
    const int ra = c.input("read_A", a);
    const int rv = c.input("read_v", v);
    const int wx = c.output("store_x", x);
    const int gv = c.gemv("gemv", T(1), T(0));
    const int tr = c.trsv("trsv", Uplo::Lower);
    c.connect(ra, gv, mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg)));
    c.connect(rv, gv, mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
    c.connect(rl, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
    c.connect(gv, tr, mdag::StreamSig::vec(n));
    c.connect(tr, wx, mdag::StreamSig::vec(n));
    ctx.run_composition(c);
    std::vector<T> ref(static_cast<std::size_t>(n), T(0));
    ref::gemv<T>(Transpose::None, T(1), A, vec(hxm), T(0),
                 VectorView<T>(ref.data(), n));
    ref::trsv<T>(Uplo::Lower, Transpose::None, Diag::NonUnit,
                 MatrixView<const T>(hl.data(), n, n),
                 VectorView<T>(ref.data(), n));
    EXPECT_EQ(x.to_host(), ref);
    ++commands;
  }
  {  // SCAL
    const auto hv = wl.template vector<T>(len);
    const auto x = upload(hv, 0);
    auto y = zeros(len, 1);
    host::Composition<T> c("scal");
    const int rx = c.input("read_x", x);
    const int wy = c.output("store_y", y);
    const int sc = c.scal("scal", alpha);
    c.connect(rx, sc, mdag::StreamSig::vec(len));
    c.connect(sc, wy, mdag::StreamSig::vec(len));
    ctx.run_composition(c);
    auto ref = hv;
    ref::scal<T>(alpha, VectorView<T>(ref.data(), len));
    EXPECT_EQ(y.to_host(), ref);
    ++commands;
  }

  EXPECT_EQ(ctx.exec_stats().degraded, commands);
}

TEST(ComposeFaults, ForcedFallbackBitIdenticalToRefblasOnEveryNodeKind) {
  {
    SCOPED_TRACE("float");
    forced_fallback_matches_refblas<float>();
  }
  {
    SCOPED_TRACE("double");
    forced_fallback_matches_refblas<double>();
  }
}

// --- Output audits of replayed writer streams ----------------------------

TEST(ComposeFaults, WriterOfReplayedStreamAuditsOnePass) {
  // The writer consumes its in-edge twice (a replay only a DRAM round trip
  // can serve) and overwrites its buffer with each pass, so the buffer
  // holds ONE pass: a clean verified run must not be rejected.
  const std::int64_t n = 64;
  Workload wl(50);
  const auto hx = wl.vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0), y(dev, n, 1);
  x.write(hx);
  y.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

  host::Composition<float> c("scal_replay");
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int sc = c.scal("scal", 2.0f);
  c.connect(rx, sc, mdag::StreamSig::vec(n));
  c.connect(sc, wy, mdag::StreamSig::vec(n), mdag::StreamSig::vec(n, 2));
  EXPECT_NO_THROW(ctx.run_composition(c));
  EXPECT_EQ(ctx.exec_stats().verified, 1u);
  EXPECT_EQ(ctx.exec_stats().verify_failures, 0u);
  std::vector<float> ref = hx;
  for (float& v : ref) v *= 2.0f;
  EXPECT_EQ(y.to_host(), ref);
}


// --- Plan pins -------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void bits(const std::vector<T>& v) {
    for (const T x : v) {
      std::uint64_t w = 0;
      std::memcpy(&w, &x, sizeof(T));
      mix(w);
    }
  }
};

/// Runs `run` (which executes one composition and returns its outputs) in
/// a fresh cycle-mode context with tracing and verification armed, and
/// hashes the engine summaries in emit order — every channel's name,
/// capacity, peak and stalls, every graph's cycles and stall
/// module-cycles — followed by the output bits.
template <typename T>
std::uint64_t plan_hash(
    const std::function<std::vector<T>(host::Context&, host::Device&)>& run,
    std::set<std::string>& channels) {
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Cycle);
  host::RoutineConfig rc;
  rc.width = 4;
  rc.tile_rows = rc.tile_cols = 8;
  rc.verification = verify::Options::always();
  const host::ConfigGuard scoped = ctx.with(rc);
  const auto rec = ctx.tracing();
  const std::vector<T> out = run(ctx, dev);
  ctx.finish();
  Fnv f;
  for (const trace::Event& e : rec->events()) {
    if (e.kind == trace::EventKind::ChannelStats) {
      channels.emplace(e.name_view());
      for (const char ch : e.name_view()) f.mix(static_cast<unsigned char>(ch));
      f.mix(e.flags);
      f.mix(e.a);
      f.mix(e.b);
    } else if (e.kind == trace::EventKind::GraphStats) {
      f.mix(e.a);
      f.mix(e.b);
    }
  }
  f.bits(out);
  return f.h;
}

/// One hash per composition; together they cover every channel role
/// (edge, trunk, zero, spill, readback) and both cut kinds (a sibling
/// writer and a scratch buffer).
template <typename T>
std::vector<std::pair<std::string, std::uint64_t>> plan_hashes(
    std::set<std::string>& channels) {
  const std::int64_t n = 24, m = 20, len = 96;
  const T alpha = T(0.6), beta = T(-0.8);
  using Run = std::function<std::vector<T>(host::Context&, host::Device&)>;
  const auto upload = [](host::Device& dev, const std::vector<T>& h,
                         int bank) {
    host::Buffer<T> buf(dev, static_cast<std::int64_t>(h.size()), bank);
    buf.write(h);
    return buf;
  };
  const auto zeros = [](host::Device& dev, std::int64_t k, int bank) {
    host::Buffer<T> buf(dev, k, bank);
    buf.write(std::vector<T>(static_cast<std::size_t>(k), T(0)));
    return buf;
  };
  const auto cat = [](std::vector<T> a, const std::vector<T>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  // The ATAX graph, optionally under a channel budget too small to size.
  const auto atax = [&](std::int64_t max_depth) -> Run {
    return [&, max_depth](host::Context& ctx, host::Device& dev) {
      Workload wl(61);
      const auto a = upload(dev, wl.template matrix<T>(n, m), 0);
      const auto x = upload(dev, wl.template vector<T>(m), 1);
      auto y = zeros(dev, m, 2);
      const host::RoutineConfig& rc = ctx.config();
      const core::GemvConfig cfg{Transpose::None,
                                 core::MatrixTiling::TilesByRows, rc.width,
                                 rc.tile_rows, rc.tile_rows};
      host::Composition<T> c("atax");
      c.max_channel_depth(max_depth);
      const int ra = c.input("read_A", a);
      const int rx = c.input("read_x", x);
      const int wy = c.output("store_y", y);
      const int g1 = c.gemv("gemv", T(1), T(0));
      const int g2 = c.gemv("gemv_T", T(1), T(0), Transpose::Trans);
      const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
      c.connect(ra, g1, a_sig);
      c.connect(ra, g2, a_sig);
      c.connect(rx, g1,
                mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
      c.connect(g1, g2, mdag::StreamSig::vec(n));
      c.connect(g2, wy, mdag::StreamSig::vec(m));
      ctx.run_composition(c);
      return y.to_host();
    };
  };
  const auto scal = [&](std::int64_t writer_repeat) -> Run {
    return [&, writer_repeat](host::Context& ctx, host::Device& dev) {
      Workload wl(62);
      const auto x = upload(dev, wl.template vector<T>(len), 0);
      auto y = zeros(dev, len, 1);
      host::Composition<T> c("scal");
      const int rx = c.input("read_x", x);
      const int wy = c.output("store_y", y);
      const int sc = c.scal("scal", alpha);
      c.connect(rx, sc, mdag::StreamSig::vec(len));
      c.connect(sc, wy, mdag::StreamSig::vec(len),
                mdag::StreamSig::vec(len, writer_repeat));
      ctx.run_composition(c);
      return y.to_host();
    };
  };
  const std::vector<std::pair<std::string, Run>> runs = {
      {"axpydot",
       [&](host::Context& ctx, host::Device& dev) {
         Workload wl(63);
         const auto w = upload(dev, wl.template vector<T>(len), 0);
         const auto v = upload(dev, wl.template vector<T>(len), 1);
         const auto u = upload(dev, wl.template vector<T>(len), 2);
         return std::vector<T>{
             apps::axpydot_composed<T>(ctx, len, w, v, u, alpha)};
       }},
      {"bicg",
       [&](host::Context& ctx, host::Device& dev) {
         Workload wl(64);
         const auto a = upload(dev, wl.template matrix<T>(n, m), 0);
         const auto p = upload(dev, wl.template vector<T>(m), 1);
         const auto r = upload(dev, wl.template vector<T>(n), 2);
         auto q = zeros(dev, n, 3), s = zeros(dev, m, 3);
         apps::bicg_composed<T>(ctx, n, m, a, p, r, q, s);
         return cat(q.to_host(), s.to_host());
       }},
      {"atax_sized", atax(1 << 16)},
      {"atax_split", atax(16)},
      {"gemver",
       [&](host::Context& ctx, host::Device& dev) {
         Workload wl(65);
         const auto a = upload(dev, wl.template matrix<T>(n, n), 0);
         std::vector<host::Buffer<T>> v;
         for (int i = 0; i < 6; ++i) {
           v.push_back(upload(dev, wl.template vector<T>(n), 1 + i % 3));
         }
         auto b = zeros(dev, n * n, 1), x = zeros(dev, n, 2),
              w = zeros(dev, n, 3);
         apps::gemver_composed<T>(ctx, n, alpha, beta, a, v[0], v[1], v[2],
                                  v[3], v[4], v[5], b, x, w);
         return cat(cat(b.to_host(), x.to_host()), w.to_host());
       }},
      {"gesummv",
       [&](host::Context& ctx, host::Device& dev) {
         Workload wl(66);
         const auto a = upload(dev, wl.template matrix<T>(n, m), 0);
         const auto b = upload(dev, wl.template matrix<T>(n, m), 1);
         const auto x = upload(dev, wl.template vector<T>(m), 2);
         auto y = zeros(dev, n, 3);
         apps::gesummv_composed<T>(ctx, n, m, alpha, beta, a, b, x, y);
         return y.to_host();
       }},
      {"gemv_trsv",
       [&](host::Context& ctx, host::Device& dev) {
         Workload wl(67);
         const auto l = upload(
             dev, wl.template triangular<T>(n, Uplo::Lower, Diag::NonUnit), 0);
         const auto a = upload(dev, wl.template matrix<T>(n, m), 1);
         const auto v = upload(dev, wl.template vector<T>(m), 2);
         auto x = zeros(dev, n, 3);
         const host::RoutineConfig& rc = ctx.config();
         const core::GemvConfig cfg{Transpose::None,
                                    core::MatrixTiling::TilesByRows, rc.width,
                                    rc.tile_rows, rc.tile_rows};
         host::Composition<T> c("gemv_trsv");
         const int rl = c.input_triangular("read_L", l, Uplo::Lower);
         const int ra = c.input("read_A", a);
         const int rv = c.input("read_v", v);
         const int wx = c.output("store_x", x);
         const int gv = c.gemv("gemv", T(1), T(0));
         const int tr = c.trsv("trsv", Uplo::Lower);
         c.connect(ra, gv,
                   mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg)));
         c.connect(rv, gv,
                   mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
         c.connect(rl, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
         c.connect(gv, tr, mdag::StreamSig::vec(n));
         c.connect(tr, wx, mdag::StreamSig::vec(n));
         ctx.run_composition(c);
         return x.to_host();
       }},
      {"scal", scal(1)},
      {"scal_readback", scal(2)},
  };
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, run] : runs) {
    out.emplace_back(name, plan_hash<T>(run, channels));
  }
  return out;
}

TEST(ComposeCompiler, PlansPinned) {
  // Recorded before the compiler emitted per-node/edge/channel records:
  // the plan a description compiles to (channel names, depths, creation
  // order, cut kinds) and the cycles it runs in must not move.
  const std::vector<std::pair<std::string, std::uint64_t>> want_f = {
      {"axpydot", 14732848261752593201ULL},
      {"bicg", 15005255794980495294ULL},
      {"atax_sized", 16824213301916886808ULL},
      {"atax_split", 4451386384179516720ULL},
      {"gemver", 8613404101549902739ULL},
      {"gesummv", 11679733876216529676ULL},
      {"gemv_trsv", 2846811521700299282ULL},
      {"scal", 17756095201178455606ULL},
      {"scal_readback", 5344477198978606271ULL},
  };
  const std::vector<std::pair<std::string, std::uint64_t>> want_d = {
      {"axpydot", 14164347535960806231ULL},
      {"bicg", 14016746837173258791ULL},
      {"atax_sized", 293779948271707047ULL},
      {"atax_split", 7225974233191439727ULL},
      {"gemver", 3499740540554306160ULL},
      {"gesummv", 18403404147635543572ULL},
      {"gemv_trsv", 13470241793365473806ULL},
      {"scal", 18304804447669527176ULL},
      {"scal_readback", 17290618113231079048ULL},
  };
  std::set<std::string> channels;
  EXPECT_EQ(plan_hashes<float>(channels), want_f) << "float";
  EXPECT_EQ(plan_hashes<double>(channels), want_d) << "double";
  // Every channel role ran: edges, fan-out trunks, zero inputs, scratch
  // spills and DRAM readbacks.
  for (const std::string role : {"->", ".fan", ".y0", "spill:", "rb:"}) {
    EXPECT_TRUE(std::any_of(channels.begin(), channels.end(),
                            [&](const std::string& name) {
                              return name.find(role) != std::string::npos;
                            }))
        << role;
  }
}

/// One hash per app over the checksums a verified run compares against:
/// the prediction and magnitude bits, the terms and the skip flag of
/// every plan channel and writer audit.
template <typename T>
std::vector<std::pair<std::string, std::uint64_t>> prediction_hashes() {
  const std::int64_t n = 24, m = 20;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Cycle);
  host::RoutineConfig rc;
  rc.width = 4;
  rc.tile_rows = rc.tile_cols = 8;
  Workload wl(71);
  const auto buf = [&](std::vector<T> h, int bank) {
    host::Buffer<T> b(dev, static_cast<std::int64_t>(h.size()), bank);
    b.write(h);
    return b;
  };
  const auto vec = [&](std::int64_t k, int bank) {
    return buf(wl.template vector<T>(k), bank);
  };
  const auto a = buf(wl.template matrix<T>(n, m), 0);
  const auto sq = buf(wl.template matrix<T>(n, n), 0);
  const auto xm = vec(m, 1), xn = vec(n, 2);
  std::vector<host::Buffer<T>> v;
  for (int i = 0; i < 6; ++i) v.push_back(vec(n, 1 + i % 3));
  auto ym = vec(m, 3), yn = vec(n, 3), b = vec(n * n, 1), w = vec(n, 2);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto add = [&](const char* name, const host::Composition<T>& c) {
    Fnv f;
    for (const verify::ScalarCheck& chk : ctx.composition_checksums(c)) {
      f.bits(std::vector<double>{chk.pred, chk.mag});
      f.mix(static_cast<std::uint64_t>(chk.terms));
      f.mix(chk.skip);
    }
    out.emplace_back(name, f.h);
  };
  add("atax", apps::atax_composition<T>(rc, n, m, a, xm, ym));
  add("bicg", apps::bicg_composition<T>(rc, n, m, a, xm, xn, yn, ym));
  add("gemver",
      apps::gemver_composition<T>(rc, n, T(0.6), T(-0.8), sq, v[0], v[1],
                                  v[2], v[3], v[4], v[5], b, yn, w));
  return out;
}

TEST(ComposeCompiler, ChecksumPredictionsPinned) {
  // Recorded before the host replay shared reader passes across
  // out-edges: the predictions must not move by a bit.
  const std::vector<std::pair<std::string, std::uint64_t>> want_f = {
      {"atax", 7712107085366579424ULL},
      {"bicg", 5037474175529596421ULL},
      {"gemver", 12098871000512558519ULL},
  };
  const std::vector<std::pair<std::string, std::uint64_t>> want_d = {
      {"atax", 9559283593894529619ULL},
      {"bicg", 11140159975366436680ULL},
      {"gemver", 10492947679554741637ULL},
  };
  EXPECT_EQ(prediction_hashes<float>(), want_f) << "float";
  EXPECT_EQ(prediction_hashes<double>(), want_d) << "double";
}

}  // namespace
}  // namespace fblas
