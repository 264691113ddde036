// Streaming Level-1 modules tested against the reference BLAS oracle,
// across widths, sizes, and both execution modes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/workload.hpp"
#include "fblas/level1.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

template <typename T>
struct L1Harness {
  Mode mode = Mode::Functional;
  std::uint64_t cycles = 0;

  // Runs a one-in/one-out module builder: builder(g, ch_in, ch_out).
  template <typename Builder>
  std::vector<T> map1(const std::vector<T>& x, Builder&& builder) {
    Graph g(mode);
    auto& in = g.channel<T>("x", 64);
    auto& out = g.channel<T>("out", 64);
    std::vector<T> result;
    g.spawn("feed", stream::feed(x, in));
    builder(g, in, out);
    g.spawn("collect", stream::collect<T>(
                           static_cast<std::int64_t>(x.size()), out, result));
    g.run();
    cycles = g.cycles();
    return result;
  }

  // Runs a two-in/one-out elementwise module builder.
  template <typename Builder>
  std::vector<T> map2(const std::vector<T>& x, const std::vector<T>& y,
                      Builder&& builder) {
    Graph g(mode);
    auto& cx = g.channel<T>("x", 64);
    auto& cy = g.channel<T>("y", 64);
    auto& out = g.channel<T>("out", 64);
    std::vector<T> result;
    g.spawn("feed_x", stream::feed(x, cx));
    g.spawn("feed_y", stream::feed(y, cy));
    builder(g, cx, cy, out);
    g.spawn("collect", stream::collect<T>(
                           static_cast<std::int64_t>(x.size()), out, result));
    g.run();
    cycles = g.cycles();
    return result;
  }

  // Runs a two-in/scalar-out reduction module builder.
  template <typename Builder>
  T reduce2(const std::vector<T>& x, const std::vector<T>& y,
            Builder&& builder) {
    Graph g(mode);
    auto& cx = g.channel<T>("x", 64);
    auto& cy = g.channel<T>("y", 64);
    auto& res = g.channel<T>("res", 2);
    std::vector<T> result;
    g.spawn("feed_x", stream::feed(x, cx));
    g.spawn("feed_y", stream::feed(y, cy));
    builder(g, cx, cy, res);
    g.spawn("collect", stream::collect<T>(1, res, result));
    g.run();
    cycles = g.cycles();
    return result.at(0);
  }
};

template <typename T>
class StreamLevel1 : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(StreamLevel1, Precisions);

TYPED_TEST(StreamLevel1, ScalMatchesOracleAcrossWidths) {
  using T = TypeParam;
  Workload wl(101);
  for (std::int64_t n : {1, 7, 64, 257}) {
    auto x = wl.vector<T>(n);
    for (int w : {1, 4, 16, 64}) {
      L1Harness<T> h;
      auto got = h.map1(x, [&](Graph& g, Channel<T>& in, Channel<T>& out) {
        g.spawn("scal", scal<T>({w}, n, T(2.5), in, out));
      });
      auto expect = x;
      ref::scal<T>(T(2.5), VectorView<T>(expect.data(), n));
      EXPECT_EQ(got, expect) << "n=" << n << " w=" << w;
    }
  }
}

TYPED_TEST(StreamLevel1, CopyIsIdentity) {
  using T = TypeParam;
  Workload wl(102);
  auto x = wl.vector<T>(100);
  L1Harness<T> h;
  auto got = h.map1(x, [&](Graph& g, Channel<T>& in, Channel<T>& out) {
    g.spawn("copy", copy<T>({8}, 100, in, out));
  });
  EXPECT_EQ(got, x);
}

TYPED_TEST(StreamLevel1, AxpyMatchesOracle) {
  using T = TypeParam;
  Workload wl(103);
  const std::int64_t n = 129;
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  L1Harness<T> h;
  auto got = h.map2(
      x, y, [&](Graph& g, Channel<T>& cx, Channel<T>& cy, Channel<T>& out) {
        g.spawn("axpy", axpy<T>({16}, n, T(-1.5), cx, cy, out));
      });
  auto expect = y;
  ref::axpy<T>(T(-1.5), VectorView<const T>(x.data(), n),
               VectorView<T>(expect.data(), n));
  EXPECT_EQ(got, expect);
}

TYPED_TEST(StreamLevel1, SwapExchangesStreams) {
  using T = TypeParam;
  Workload wl(104);
  const std::int64_t n = 33;
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  Graph g;
  auto& cx = g.channel<T>("x", 16);
  auto& cy = g.channel<T>("y", 16);
  auto& ox = g.channel<T>("ox", 16);
  auto& oy = g.channel<T>("oy", 16);
  std::vector<T> rx, ry;
  g.spawn("fx", stream::feed(x, cx));
  g.spawn("fy", stream::feed(y, cy));
  g.spawn("swap", swap<T>({8}, n, cx, cy, ox, oy));
  g.spawn("cx", stream::collect<T>(n, ox, rx));
  g.spawn("cy", stream::collect<T>(n, oy, ry));
  g.run();
  EXPECT_EQ(rx, y);
  EXPECT_EQ(ry, x);
}

TYPED_TEST(StreamLevel1, RotMatchesOracle) {
  using T = TypeParam;
  Workload wl(105);
  const std::int64_t n = 65;
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  const T c = T(0.6), s = T(0.8);
  Graph g;
  auto& cx = g.channel<T>("x", 16);
  auto& cy = g.channel<T>("y", 16);
  auto& ox = g.channel<T>("ox", 16);
  auto& oy = g.channel<T>("oy", 16);
  std::vector<T> rx, ry;
  g.spawn("fx", stream::feed(x, cx));
  g.spawn("fy", stream::feed(y, cy));
  g.spawn("rot", rot<T>({8}, n, c, s, cx, cy, ox, oy));
  g.spawn("cx", stream::collect<T>(n, ox, rx));
  g.spawn("cy", stream::collect<T>(n, oy, ry));
  g.run();
  auto ex = x, ey = y;
  ref::rot<T>(VectorView<T>(ex.data(), n), VectorView<T>(ey.data(), n), c, s);
  EXPECT_EQ(rx, ex);
  EXPECT_EQ(ry, ey);
}

TYPED_TEST(StreamLevel1, RotmMatchesOracleAllFlags) {
  using T = TypeParam;
  Workload wl(106);
  const std::int64_t n = 40;
  const std::vector<ref::RotmParam<T>> params = {
      {T(-2), 0, 0, 0, 0},
      {T(-1), T(0.5), T(-0.25), T(0.75), T(1.25)},
      {T(0), 0, T(-0.5), T(0.5), 0},
      {T(1), T(0.25), 0, 0, T(0.5)},
  };
  for (const auto& p : params) {
    auto x = wl.vector<T>(n);
    auto y = wl.vector<T>(n);
    Graph g;
    auto& cx = g.channel<T>("x", 16);
    auto& cy = g.channel<T>("y", 16);
    auto& ox = g.channel<T>("ox", 16);
    auto& oy = g.channel<T>("oy", 16);
    std::vector<T> rx, ry;
    g.spawn("fx", stream::feed(x, cx));
    g.spawn("fy", stream::feed(y, cy));
    g.spawn("rotm", rotm<T>({8}, n, p, cx, cy, ox, oy));
    g.spawn("cx", stream::collect<T>(n, ox, rx));
    g.spawn("cy", stream::collect<T>(n, oy, ry));
    g.run();
    auto ex = x, ey = y;
    ref::rotm<T>(VectorView<T>(ex.data(), n), VectorView<T>(ey.data(), n), p);
    EXPECT_EQ(rx, ex) << "flag=" << p.flag;
    EXPECT_EQ(ry, ey) << "flag=" << p.flag;
  }
}

TYPED_TEST(StreamLevel1, RotgModule) {
  using T = TypeParam;
  Graph g;
  auto& in = g.channel<T>("in", 4);
  auto& out = g.channel<T>("out", 8);
  std::vector<T> result;
  g.spawn("feed", stream::feed(std::vector<T>{T(3), T(4)}, in));
  g.spawn("rotg", rotg<T>(in, out));
  g.spawn("collect", stream::collect<T>(4, out, result));
  g.run();
  // r = 5 (sign of larger-magnitude operand b), c = 3/5, s = 4/5.
  EXPECT_NEAR(std::abs(result[0]), 5.0, 1e-5);
  EXPECT_NEAR(result[2] * result[2] + result[3] * result[3], 1.0, 1e-6);
}

TYPED_TEST(StreamLevel1, RotmgModuleMatchesOracle) {
  using T = TypeParam;
  T d1 = T(1.5), d2 = T(0.5), x1 = T(2), y1 = T(1);
  T rd1 = d1, rd2 = d2, rx1 = x1;
  const auto expect = ref::rotmg<T>(rd1, rd2, rx1, y1);
  Graph g;
  auto& in = g.channel<T>("in", 4);
  auto& out = g.channel<T>("out", 8);
  std::vector<T> result;
  g.spawn("feed", stream::feed(std::vector<T>{d1, d2, x1, y1}, in));
  g.spawn("rotmg", rotmg<T>(in, out));
  g.spawn("collect", stream::collect<T>(8, out, result));
  g.run();
  EXPECT_EQ(result[0], expect.flag);
  EXPECT_EQ(result[1], expect.h11);
  EXPECT_EQ(result[5], rd1);
  EXPECT_EQ(result[7], rx1);
}

TYPED_TEST(StreamLevel1, DotMatchesOracleAcrossWidthsAndSizes) {
  using T = TypeParam;
  Workload wl(107);
  for (std::int64_t n : {1, 16, 100, 513}) {
    auto x = wl.vector<T>(n);
    auto y = wl.vector<T>(n);
    const T expect = ref::dot<T>(VectorView<const T>(x.data(), n),
                                 VectorView<const T>(y.data(), n));
    for (int w : {1, 8, 32}) {
      L1Harness<T> h;
      const T got = h.reduce2(
          x, y, [&](Graph& g, Channel<T>& cx, Channel<T>& cy, Channel<T>& r) {
            g.spawn("dot", dot<T>({w}, n, cx, cy, r));
          });
      EXPECT_NEAR(got, expect, 1e-4 * n) << "n=" << n << " w=" << w;
    }
  }
}

TEST(StreamLevel1Sdsdot, DoubleAccumulation) {
  std::vector<float> x{1e8f, 1.0f}, y{1.0f, 1.0f};
  Graph g;
  auto& cx = g.channel<float>("x", 4);
  auto& cy = g.channel<float>("y", 4);
  auto& res = g.channel<float>("r", 2);
  std::vector<float> out;
  g.spawn("fx", stream::feed(x, cx));
  g.spawn("fy", stream::feed(y, cy));
  g.spawn("sdsdot", sdsdot({4}, 2, 1.0f, cx, cy, res));
  g.spawn("collect", stream::collect<float>(1, res, out));
  g.run();
  EXPECT_FLOAT_EQ(out[0], static_cast<float>(1e8 + 2.0));
}

TYPED_TEST(StreamLevel1, Nrm2AndAsum) {
  using T = TypeParam;
  Workload wl(108);
  const std::int64_t n = 201;
  auto x = wl.vector<T>(n);
  Graph g;
  auto& c1 = g.channel<T>("x1", 32);
  auto& c2 = g.channel<T>("x2", 32);
  auto& r1 = g.channel<T>("r1", 2);
  auto& r2 = g.channel<T>("r2", 2);
  std::vector<T> o1, o2;
  g.spawn("f1", stream::feed(x, c1));
  g.spawn("f2", stream::feed(x, c2));
  g.spawn("nrm2", nrm2<T>({16}, n, c1, r1));
  g.spawn("asum", asum<T>({16}, n, c2, r2));
  g.spawn("c1", stream::collect<T>(1, r1, o1));
  g.spawn("c2", stream::collect<T>(1, r2, o2));
  g.run();
  EXPECT_NEAR(o1[0], ref::nrm2<T>(VectorView<const T>(x.data(), n)), 1e-3);
  EXPECT_NEAR(o2[0], ref::asum<T>(VectorView<const T>(x.data(), n)), 1e-3);
}

TYPED_TEST(StreamLevel1, IamaxMatchesOracle) {
  using T = TypeParam;
  Workload wl(109);
  const std::int64_t n = 77;
  auto x = wl.vector<T>(n);
  x[31] = T(9);  // make the winner unambiguous
  Graph g;
  auto& cx = g.channel<T>("x", 16);
  auto& res = g.channel<std::int64_t>("r", 2);
  std::vector<std::int64_t> out;
  g.spawn("feed", stream::feed(x, cx));
  g.spawn("iamax", iamax<T>({8}, n, cx, res));
  g.spawn("collect", stream::collect<std::int64_t>(1, res, out));
  g.run();
  EXPECT_EQ(out[0], 31);
}

TYPED_TEST(StreamLevel1, CycleModeMatchesFunctionalAndScalesWithWidth) {
  using T = TypeParam;
  Workload wl(110);
  const std::int64_t n = 4096;
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  std::uint64_t cyc_w8 = 0, cyc_w32 = 0;
  T val8{}, val32{};
  for (auto [w, cyc, val] :
       {std::tuple<int, std::uint64_t*, T*>{8, &cyc_w8, &val8},
        std::tuple<int, std::uint64_t*, T*>{32, &cyc_w32, &val32}}) {
    L1Harness<T> h;
    h.mode = Mode::Cycle;
    *val = h.reduce2(
        x, y, [&](Graph& g, Channel<T>& cx, Channel<T>& cy, Channel<T>& r) {
          g.spawn("dot", dot<T>({w}, n, cx, cy, r));
        });
    *cyc = h.cycles;
  }
  // Different widths group the accumulation differently; results agree up
  // to rounding.
  EXPECT_NEAR(val8, val32, 1e-3);
  // C = CD + N/W: quadrupling W divides the cycle count by ~4.
  EXPECT_NEAR(static_cast<double>(cyc_w8) / static_cast<double>(cyc_w32), 4.0,
              0.8);
}

TYPED_TEST(StreamLevel1, ZeroLengthStreams) {
  using T = TypeParam;
  Graph g;
  auto& cx = g.channel<T>("x", 4);
  auto& cy = g.channel<T>("y", 4);
  auto& res = g.channel<T>("r", 2);
  std::vector<T> out;
  g.spawn("dot", dot<T>({8}, 0, cx, cy, res));
  g.spawn("collect", stream::collect<T>(1, res, out));
  g.run();
  EXPECT_EQ(out[0], T(0));
  if constexpr (std::is_same_v<T, float>) {
    // SDSDOT of no elements is sb bit for bit: nothing, not even 0.0,
    // is added to it, so -0.0f stays negative.
    for (const float sb : {-0.0f, 2.5f}) {
      Graph gs;
      auto& sx = gs.channel<float>("x", 4);
      auto& sy = gs.channel<float>("y", 4);
      auto& sres = gs.channel<float>("r", 2);
      std::vector<float> got;
      gs.spawn("sdsdot", sdsdot({8}, 0, sb, sx, sy, sres));
      gs.spawn("collect", stream::collect<float>(1, sres, got));
      gs.run();
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[0]),
                std::bit_cast<std::uint32_t>(sb))
          << "sb " << sb;
    }
  }
}

TYPED_TEST(StreamLevel1, RejectsInvalidWidth) {
  using T = TypeParam;
  Graph g;
  auto& cx = g.channel<T>("x", 4);
  auto& out = g.channel<T>("o", 4);
  g.spawn("scal", scal<T>({0}, 4, T(1), cx, out));
  EXPECT_THROW(g.run(), ConfigError);
}

}  // namespace
}  // namespace fblas::core
