// Host API integration tests: every routine through the full
// reader -> module -> writer lowering, validated against the reference
// BLAS; device/buffer semantics; sync/async queue behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/atax.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/batched.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "trace/trace.hpp"

namespace fblas::host {
namespace {

template <typename T>
Buffer<T> make_buffer(Device& dev, const std::vector<T>& host, int bank = 0) {
  Buffer<T> b(dev, static_cast<std::int64_t>(host.size()), bank);
  b.write(host);
  return b;
}

TEST(DeviceAllocation, TracksBankUsage) {
  Device dev(sim::DeviceId::Stratix10);
  EXPECT_EQ(dev.bank_count(), 4);
  {
    Buffer<float> b(dev, 1024, 2);
    EXPECT_EQ(dev.allocated_bytes(2), 4096u);
    EXPECT_EQ(dev.allocated_bytes(0), 0u);
  }
  EXPECT_EQ(dev.allocated_bytes(2), 0u);  // released on destruction
  EXPECT_THROW(Buffer<float>(dev, 16, 7), ConfigError);
}

TEST(DeviceAllocation, RejectsOverflowingBank) {
  Device dev(sim::DeviceId::Arria10);
  const std::int64_t too_many =
      static_cast<std::int64_t>(dev.bank_capacity_bytes() / sizeof(double)) + 1;
  EXPECT_THROW(Buffer<double>(dev, too_many, 0), FitError);
}

TEST(BufferTransfer, RoundTrip) {
  Device dev;
  std::vector<float> host{1, 2, 3, 4};
  auto b = make_buffer(dev, host);
  auto back = b.to_host();
  EXPECT_EQ(back, host);
}

TEST(AsyncQueue, CommandsDeferUntilWaited) {
  Device dev;
  Context ctx(dev);
  Workload wl(501);
  auto x = make_buffer(dev, wl.vector<float>(64));
  Event e = ctx.scal_async<float>(64, 2.0f, x, 1);
  EXPECT_FALSE(e.done());
  EXPECT_FALSE(ctx.idle());
  e.wait();
  EXPECT_TRUE(e.done());
  EXPECT_TRUE(ctx.idle());
}

TEST(AsyncQueue, FinishDrainsInOrder) {
  Device dev;
  Context ctx(dev);
  std::vector<float> ones(16, 1.0f);
  auto x = make_buffer(dev, ones);
  ctx.scal_async<float>(16, 2.0f, x, 1);
  ctx.scal_async<float>(16, 3.0f, x, 1);
  ctx.finish();
  EXPECT_FLOAT_EQ(x.to_host()[0], 6.0f);
}

template <typename T>
class HostApi : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(HostApi, Precisions);

TYPED_TEST(HostApi, Level1Routines) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  Workload wl(502);
  const std::int64_t n = 200;
  auto hx = wl.vector<T>(n);
  auto hy = wl.vector<T>(n);

  // scal
  auto x = make_buffer(dev, hx);
  ctx.scal<T>(n, T(2), x);
  auto ex = hx;
  ref::scal<T>(T(2), VectorView<T>(ex.data(), n));
  EXPECT_EQ(x.to_host(), ex);

  // axpy (x now scaled)
  auto y = make_buffer(dev, hy, 1);
  ctx.axpy<T>(n, T(-1), x, 1, y, 1);
  auto ey = hy;
  ref::axpy<T>(T(-1), VectorView<const T>(ex.data(), n),
               VectorView<T>(ey.data(), n));
  EXPECT_EQ(y.to_host(), ey);

  // dot
  const T d = ctx.dot<T>(n, x, 1, y, 1);
  const T ed = ref::dot<T>(VectorView<const T>(ex.data(), n),
                           VectorView<const T>(ey.data(), n));
  EXPECT_NEAR(d, ed, 1e-3);

  // copy + swap
  auto z = Buffer<T>(dev, n, 0);
  ctx.copy<T>(n, x, 1, z, 1);
  EXPECT_EQ(z.to_host(), ex);
  ctx.swap<T>(n, y, 1, z, 1);
  EXPECT_EQ(z.to_host(), ey);
  EXPECT_EQ(y.to_host(), ex);

  // nrm2 / asum / iamax
  EXPECT_NEAR(ctx.nrm2<T>(n, x),
              ref::nrm2<T>(VectorView<const T>(ex.data(), n)), 1e-2);
  EXPECT_NEAR(ctx.asum<T>(n, x),
              ref::asum<T>(VectorView<const T>(ex.data(), n)), 1e-2);
  EXPECT_EQ(ctx.iamax<T>(n, x),
            ref::iamax<T>(VectorView<const T>(ex.data(), n)));
}

TYPED_TEST(HostApi, RotAndRotm) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  Workload wl(503);
  const std::int64_t n = 64;
  auto hx = wl.vector<T>(n);
  auto hy = wl.vector<T>(n);
  auto x = make_buffer(dev, hx);
  auto y = make_buffer(dev, hy);
  T ra = T(3), rb = T(4);
  const auto giv = ctx.rotg<T>(ra, rb);
  EXPECT_NEAR(std::abs(ra), 5.0, 1e-4);
  ctx.rot<T>(n, x, 1, y, 1, giv.c, giv.s);
  auto ex = hx, ey = hy;
  ref::rot<T>(VectorView<T>(ex.data(), n), VectorView<T>(ey.data(), n),
              giv.c, giv.s);
  EXPECT_LT(rel_error(x.to_host(), ex), 1e-5);
  EXPECT_LT(rel_error(y.to_host(), ey), 1e-5);

  T d1 = T(1), d2 = T(1), x1 = T(1);
  const auto p = ctx.rotmg<T>(d1, d2, x1, T(0.5));
  auto x2 = make_buffer(dev, hx);
  auto y2 = make_buffer(dev, hy);
  ctx.rotm<T>(n, x2, 1, y2, 1, p);
  auto ex2 = hx, ey2 = hy;
  ref::rotm<T>(VectorView<T>(ex2.data(), n), VectorView<T>(ey2.data(), n), p);
  EXPECT_LT(rel_error(x2.to_host(), ex2), 1e-5);
}

TEST(HostApiFloatOnly, Sdsdot) {
  Device dev;
  Context ctx(dev);
  std::vector<float> hx{1e8f, 1.0f}, hy{1.0f, 1.0f};
  auto x = make_buffer(dev, hx);
  auto y = make_buffer(dev, hy);
  EXPECT_FLOAT_EQ(ctx.sdsdot(2, 1.0f, x, 1, y, 1),
                  static_cast<float>(1e8 + 2.0));
}

TYPED_TEST(HostApi, StridedVectors) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  // x = [1,_,2,_,3,_] with inc 2.
  std::vector<T> hx{1, 9, 2, 9, 3, 9};
  auto x = make_buffer(dev, hx);
  ctx.scal<T>(3, T(10), x, 2);
  const auto out = x.to_host();
  EXPECT_EQ(out, (std::vector<T>{10, 9, 20, 9, 30, 9}));
}

TYPED_TEST(HostApi, GemvAllTransposesAndTilings) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 8;
  ctx.config().tile_rows = 16;
  ctx.config().tile_cols = 16;
  Workload wl(504);
  const std::int64_t rows = 40, cols = 28;
  auto ha = wl.matrix<T>(rows, cols);
  auto a = make_buffer(dev, ha);
  for (Transpose tr : {Transpose::None, Transpose::Trans}) {
    for (core::MatrixTiling tiling :
         {core::MatrixTiling::TilesByRows, core::MatrixTiling::TilesByCols}) {
      ctx.config().tiling = tiling;
      const std::int64_t xl = tr == Transpose::None ? cols : rows;
      const std::int64_t yl = tr == Transpose::None ? rows : cols;
      auto hx = wl.vector<T>(xl);
      auto hy = wl.vector<T>(yl);
      auto x = make_buffer(dev, hx, 1);
      auto y = make_buffer(dev, hy, 2 % dev.bank_count());
      ctx.gemv<T>(tr, rows, cols, T(1.5), a, x, 1, T(0.5), y, 1);
      auto ey = hy;
      ref::gemv<T>(tr, T(1.5), MatrixView<const T>(ha.data(), rows, cols),
                   VectorView<const T>(hx.data(), xl), T(0.5),
                   VectorView<T>(ey.data(), yl));
      EXPECT_LT(rel_error(y.to_host(), ey), 1e-4)
          << "trans=" << int(tr) << " tiling=" << int(tiling);
    }
  }
}

TYPED_TEST(HostApi, GemvWithStridedVectors) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  Workload wl(515);
  const std::int64_t rows = 12, cols = 10;
  auto ha = wl.matrix<T>(rows, cols);
  // x strided by 2, y strided by 3.
  auto hx = wl.vector<T>(2 * cols);
  auto hy = wl.vector<T>(3 * rows);
  auto a = make_buffer(dev, ha);
  auto x = make_buffer(dev, hx, 1);
  auto y = make_buffer(dev, hy, 1);
  ctx.gemv<T>(Transpose::None, rows, cols, T(2), a, x, 2, T(1), y, 3);
  auto ey = hy;
  ref::gemv<T>(Transpose::None, T(2),
               MatrixView<const T>(ha.data(), rows, cols),
               VectorView<const T>(hx.data(), cols, 2), T(1),
               VectorView<T>(ey.data(), rows, 3));
  EXPECT_LT(rel_error(y.to_host(), ey), 1e-4);
  // Elements between the strides are untouched.
  const auto out = y.to_host();
  for (std::int64_t i = 0; i < rows; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(3 * i + 1)],
              hy[static_cast<std::size_t>(3 * i + 1)]);
  }
}

TYPED_TEST(HostApi, TrsvAllOrientations) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 4;
  Workload wl(505);
  const std::int64_t n = 24;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (Transpose tr : {Transpose::None, Transpose::Trans}) {
      for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
        auto ha = wl.triangular<T>(n, uplo, dg);
        auto xref = wl.vector<T>(n);
        std::vector<T> hb(n, T(0));
        ref::gemv<T>(tr, T(1), MatrixView<const T>(ha.data(), n, n),
                     VectorView<const T>(xref.data(), n), T(0),
                     VectorView<T>(hb.data(), n));
        auto a = make_buffer(dev, ha);
        auto x = make_buffer(dev, hb, 1);
        ctx.trsv<T>(uplo, tr, dg, n, a, x);
        EXPECT_LT(rel_error(x.to_host(), xref), 1e-3)
            << "uplo=" << int(uplo) << " tr=" << int(tr) << " dg=" << int(dg);
      }
    }
  }
}

TYPED_TEST(HostApi, GerSyrSyr2) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  Workload wl(506);
  const std::int64_t n = 20;
  auto ha = wl.matrix<T>(n, n);
  auto hx = wl.vector<T>(n);
  auto hy = wl.vector<T>(n);
  auto x = make_buffer(dev, hx, 1);
  auto y = make_buffer(dev, hy, 1);

  {
    auto a = make_buffer(dev, ha);
    ctx.ger<T>(n, n, T(0.5), x, 1, y, 1, a);
    auto ea = ha;
    ref::ger<T>(T(0.5), VectorView<const T>(hx.data(), n),
                VectorView<const T>(hy.data(), n),
                MatrixView<T>(ea.data(), n, n));
    EXPECT_LT(rel_error(a.to_host(), ea), 1e-4);
  }
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    auto a = make_buffer(dev, ha);
    ctx.syr<T>(uplo, n, T(2), x, 1, a);
    auto ea = ha;
    ref::syr<T>(uplo, T(2), VectorView<const T>(hx.data(), n),
                MatrixView<T>(ea.data(), n, n));
    EXPECT_LT(rel_error(a.to_host(), ea), 1e-4) << "syr uplo=" << int(uplo);

    auto a2 = make_buffer(dev, ha);
    ctx.syr2<T>(uplo, n, T(1.5), x, 1, y, 1, a2);
    auto ea2 = ha;
    ref::syr2<T>(uplo, T(1.5), VectorView<const T>(hx.data(), n),
                 VectorView<const T>(hy.data(), n),
                 MatrixView<T>(ea2.data(), n, n));
    EXPECT_LT(rel_error(a2.to_host(), ea2), 1e-4) << "syr2 uplo=" << int(uplo);
  }
}

TYPED_TEST(HostApi, GemmAllTransposes) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().pe_rows = 2;
  ctx.config().pe_cols = 2;
  ctx.config().gemm_tile_rows = 8;
  ctx.config().gemm_tile_cols = 8;
  Workload wl(507);
  const std::int64_t m = 20, n = 12, k = 16;
  auto hc = wl.matrix<T>(m, n);
  for (Transpose ta : {Transpose::None, Transpose::Trans}) {
    for (Transpose tb : {Transpose::None, Transpose::Trans}) {
      auto hA = ta == Transpose::None ? wl.matrix<T>(m, k) : wl.matrix<T>(k, m);
      auto hB = tb == Transpose::None ? wl.matrix<T>(k, n) : wl.matrix<T>(n, k);
      auto a = make_buffer(dev, hA);
      auto b = make_buffer(dev, hB, 1);
      auto c = make_buffer(dev, hc, 2 % dev.bank_count());
      ctx.gemm<T>(ta, tb, m, n, k, T(1.25), a, b, T(0.75), c);
      auto ec = hc;
      ref::gemm<T>(ta, tb, T(1.25),
                   MatrixView<const T>(hA.data(),
                                       ta == Transpose::None ? m : k,
                                       ta == Transpose::None ? k : m),
                   MatrixView<const T>(hB.data(),
                                       tb == Transpose::None ? k : n,
                                       tb == Transpose::None ? n : k),
                   T(0.75), MatrixView<T>(ec.data(), m, n));
      EXPECT_LT(rel_error(c.to_host(), ec), 1e-4)
          << "ta=" << int(ta) << " tb=" << int(tb);
    }
  }
}

TYPED_TEST(HostApi, SyrkAndSyr2k) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().pe_rows = 2;
  ctx.config().pe_cols = 2;
  ctx.config().gemm_tile_rows = 4;
  ctx.config().gemm_tile_cols = 4;
  Workload wl(508);
  const std::int64_t n = 12, k = 8;
  for (Transpose tr : {Transpose::None, Transpose::Trans}) {
    auto hA = tr == Transpose::None ? wl.matrix<T>(n, k) : wl.matrix<T>(k, n);
    auto hB = tr == Transpose::None ? wl.matrix<T>(n, k) : wl.matrix<T>(k, n);
    auto hc = wl.matrix<T>(n, n);
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      auto a = make_buffer(dev, hA);
      auto c = make_buffer(dev, hc, 1);
      ctx.syrk<T>(uplo, tr, n, k, T(2), a, T(0.5), c);
      auto ec = hc;
      ref::syrk<T>(uplo, tr, T(2),
                   MatrixView<const T>(hA.data(),
                                       tr == Transpose::None ? n : k,
                                       tr == Transpose::None ? k : n),
                   T(0.5), MatrixView<T>(ec.data(), n, n));
      // Compare the uplo triangle; the opposite one must be untouched.
      MatrixView<T> E(ec.data(), n, n);
      auto out = c.to_host();
      MatrixView<T> O(out.data(), n, n);
      MatrixView<T> H(hc.data(), n, n);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const bool tri = uplo == Uplo::Lower ? j <= i : j >= i;
          EXPECT_NEAR(O(i, j), tri ? E(i, j) : H(i, j), 1e-3)
              << "syrk " << i << "," << j;
        }
      }

      auto b = make_buffer(dev, hB);
      auto c2 = make_buffer(dev, hc, 1);
      ctx.syr2k<T>(uplo, tr, n, k, T(1.5), a, b, T(0.25), c2);
      auto ec2 = hc;
      ref::syr2k<T>(uplo, tr, T(1.5),
                    MatrixView<const T>(hA.data(),
                                        tr == Transpose::None ? n : k,
                                        tr == Transpose::None ? k : n),
                    MatrixView<const T>(hB.data(),
                                        tr == Transpose::None ? n : k,
                                        tr == Transpose::None ? k : n),
                    T(0.25), MatrixView<T>(ec2.data(), n, n));
      auto out2 = c2.to_host();
      MatrixView<T> O2(out2.data(), n, n);
      MatrixView<T> E2(ec2.data(), n, n);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const bool tri = uplo == Uplo::Lower ? j <= i : j >= i;
          EXPECT_NEAR(O2(i, j), tri ? E2(i, j) : H(i, j), 1e-3)
              << "syr2k " << i << "," << j;
        }
      }
    }
  }
}

TYPED_TEST(HostApi, TrsmAllSidesUplosTransposes) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 8;
  Workload wl(509);
  const std::int64_t m = 12, n = 8;
  for (Side side : {Side::Left, Side::Right}) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (Transpose tr : {Transpose::None, Transpose::Trans}) {
        for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
          const std::int64_t na = side == Side::Left ? m : n;
          auto ha = wl.triangular<T>(na, uplo, dg);
          auto hb = wl.matrix<T>(m, n);
          auto expect = hb;
          ref::trsm<T>(side, uplo, tr, dg, T(1.5),
                       MatrixView<const T>(ha.data(), na, na),
                       MatrixView<T>(expect.data(), m, n));
          auto a = make_buffer(dev, ha);
          auto b = make_buffer(dev, hb, 1);
          ctx.trsm<T>(side, uplo, tr, dg, m, n, T(1.5), a, b);
          EXPECT_LT(rel_error(b.to_host(), expect), 1e-3)
              << "side=" << int(side) << " uplo=" << int(uplo)
              << " tr=" << int(tr) << " dg=" << int(dg);
        }
      }
    }
  }
}

TYPED_TEST(HostApi, SymvInTermsOfGemv) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 8;
  Workload wl(512);
  const std::int64_t n = 24;
  // Build a symmetric matrix; store only one triangle in the buffer the
  // call reads (the other triangle holds garbage to prove it is ignored).
  auto full = wl.matrix<T>(n, n);
  MatrixView<T> F(full.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) F(j, i) = F(i, j);
  }
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    auto stored = full;
    MatrixView<T> S(stored.data(), n, n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const bool keep = uplo == Uplo::Lower ? j <= i : j >= i;
        if (!keep) S(i, j) = T(99);  // garbage in the unstored triangle
      }
    }
    auto hx = wl.vector<T>(n);
    auto hy = wl.vector<T>(n);
    auto a = make_buffer(dev, stored);
    auto x = make_buffer(dev, hx, 1);
    auto y = make_buffer(dev, hy, 1);
    ctx.symv<T>(uplo, n, T(1.5), a, x, 1, T(0.5), y, 1);
    auto expect = hy;
    ref::gemv<T>(Transpose::None, T(1.5),
                 MatrixView<const T>(full.data(), n, n),
                 VectorView<const T>(hx.data(), n), T(0.5),
                 VectorView<T>(expect.data(), n));
    EXPECT_LT(rel_error(y.to_host(), expect), 1e-4) << "uplo=" << int(uplo);
  }
}

TYPED_TEST(HostApi, TrmvInTermsOfGemv) {
  using T = TypeParam;
  Device dev;
  Context ctx(dev);
  ctx.config().width = 8;
  Workload wl(513);
  const std::int64_t n = 16;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (Transpose tr : {Transpose::None, Transpose::Trans}) {
      for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
        auto ha = wl.triangular<T>(n, uplo, dg);
        auto hx = wl.vector<T>(n);
        auto a = make_buffer(dev, ha);
        auto x = make_buffer(dev, hx, 1);
        ctx.trmv<T>(uplo, tr, dg, n, a, x);
        // Oracle: dense gemv on the (unit-adjusted) triangle.
        auto dense = ha;
        if (dg == Diag::Unit) {
          MatrixView<T> D(dense.data(), n, n);
          for (std::int64_t i = 0; i < n; ++i) D(i, i) = T(1);
        }
        std::vector<T> expect(n, T(0));
        ref::gemv<T>(tr, T(1), MatrixView<const T>(dense.data(), n, n),
                     VectorView<const T>(hx.data(), n), T(0),
                     VectorView<T>(expect.data(), n));
        EXPECT_LT(rel_error(x.to_host(), expect), 1e-4)
            << "uplo=" << int(uplo) << " tr=" << int(tr)
            << " dg=" << int(dg);
      }
    }
  }
}

// ---- Pinned lowerings -----------------------------------------------------
//
// Every hand-wired lowering at one small shape in cycle mode: the exact
// simulated cycles of its graph launch and a bitwise hash of what it
// wrote. Refactors of the lowerings must leave both unchanged; a
// deliberate model change updates the tables (a mismatch prints the
// observed table in source form). The same shapes in functional mode
// must write the same bits.

/// FNV-1a over the object representation of `v`.
template <typename T>
std::uint64_t bit_hash(const std::vector<T>& v,
                       std::uint64_t h = 0xcbf29ce484222325ULL) {
  std::vector<unsigned char> bytes(v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Pin {
  std::uint64_t cycles;
  std::uint64_t hash;
  bool operator==(const Pin&) const = default;
};

template <typename T>
std::map<std::string, Pin> run_pinned_routines(
    stream::Mode mode = stream::Mode::Cycle) {
  Device dev;
  Context ctx(dev, mode);
  ctx.config().width = 8;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  Workload wl(520);
  std::map<std::string, Pin> got;
  const auto pin = [&](const std::string& name, std::uint64_t hash) {
    got[name] = Pin{ctx.last_cycles(), hash};
  };
  const std::int64_t n = 100;
  const auto vec = [&](int bank = 0) {
    return make_buffer(dev, wl.vector<T>(n), bank);
  };

  {
    T a = T(3), b = T(4);
    const auto g = ctx.rotg<T>(a, b);
    pin("rotg", bit_hash(std::vector<T>{a, b, g.c, g.s}));
    T d1 = T(2), d2 = T(1), x1 = T(1);
    const auto p = ctx.rotmg<T>(d1, d2, x1, T(0.5));
    pin("rotmg", bit_hash(std::vector<T>{d1, d2, x1, p.flag, p.h11, p.h21,
                                         p.h12, p.h22}));
    auto x = vec(0), y = vec(1);
    ctx.rot<T>(n, x, y, g.c, g.s);
    pin("rot", bit_hash(y.to_host(), bit_hash(x.to_host())));
    ctx.rotm<T>(n, x, y, p);
    pin("rotm", bit_hash(y.to_host(), bit_hash(x.to_host())));
    ctx.swap<T>(n / 2, x, 1, y, 2);
    pin("swap", bit_hash(y.to_host(), bit_hash(x.to_host())));
    ctx.scal<T>(n, T(1.5), x);
    pin("scal", bit_hash(x.to_host()));
    auto z = vec(2);
    ctx.copy<T>(n / 2, x, 2, z, 1);
    pin("copy", bit_hash(z.to_host()));
    ctx.axpy<T>(n, T(-0.75), x, y);
    pin("axpy", bit_hash(y.to_host()));
    pin("dot", bit_hash(std::vector<T>{ctx.dot<T>(n, x, y)}));
    if constexpr (std::is_same_v<T, float>) {
      pin("sdsdot", bit_hash(std::vector<T>{ctx.sdsdot(n, 0.25f, x, y)}));
    }
    pin("nrm2", bit_hash(std::vector<T>{ctx.nrm2<T>(n, x)}));
    pin("asum", bit_hash(std::vector<T>{ctx.asum<T>(n, y)}));
    pin("iamax", bit_hash(std::vector<std::int64_t>{ctx.iamax<T>(n, x)}));
  }
  {
    const std::int64_t r = 24, c = 20;
    auto a = make_buffer(dev, wl.matrix<T>(r, c), 0);
    auto x = make_buffer(dev, wl.vector<T>(r), 1);
    auto y = make_buffer(dev, wl.vector<T>(r), 2);
    ctx.gemv<T>(Transpose::None, r, c, T(1.25), a, x, 1, T(0.5), y, 1);
    pin("gemv", bit_hash(y.to_host()));
    ctx.gemv<T>(Transpose::Trans, r, c, T(-1), a, y, 1, T(2), x, 1);
    pin("gemv_t", bit_hash(x.to_host()));
    ctx.ger<T>(r, c, T(0.5), y, 1, x, 1, a);
    pin("ger", bit_hash(a.to_host()));
    const std::int64_t s = 20;
    auto sq = make_buffer(dev, wl.matrix<T>(s, s), 3);
    ctx.syr<T>(Uplo::Lower, s, T(0.5), x, sq);
    pin("syr", bit_hash(sq.to_host()));
    ctx.syr2<T>(Uplo::Upper, s, T(-0.25), x, y, sq);
    pin("syr2", bit_hash(sq.to_host()));
    ctx.symv<T>(Uplo::Upper, s, T(0.5), sq, x, 1, T(1), y, 1);
    pin("symv", bit_hash(y.to_host()));
    auto tri = make_buffer(dev, wl.triangular<T>(s, Uplo::Lower,
                                                 Diag::NonUnit), 0);
    ctx.trmv<T>(Uplo::Lower, Transpose::Trans, Diag::NonUnit, s, tri, y);
    pin("trmv", bit_hash(y.to_host()));
    ctx.trsv<T>(Uplo::Lower, Transpose::None, Diag::NonUnit, s, tri, x);
    pin("trsv", bit_hash(x.to_host()));
    auto strided = make_buffer(dev, wl.vector<T>(2 * s), 1);
    ctx.trsv<T>(Uplo::Lower, Transpose::Trans, Diag::NonUnit, s, tri,
                strided, 2);
    pin("trsv_t", bit_hash(strided.to_host()));
  }
  {
    const std::int64_t m = 12, nn = 10, k = 9;
    auto a = make_buffer(dev, wl.matrix<T>(m, k), 0);
    auto b = make_buffer(dev, wl.matrix<T>(k, nn), 1);
    auto c = make_buffer(dev, wl.matrix<T>(m, nn), 2);
    ctx.gemm<T>(Transpose::None, Transpose::None, m, nn, k, T(1.5), a, b,
                T(0.5), c);
    pin("gemm", bit_hash(c.to_host()));
    auto cs = make_buffer(dev, wl.matrix<T>(nn, nn), 3);
    ctx.syrk<T>(Uplo::Lower, Transpose::Trans, nn, k, T(0.5), b, T(1), cs);
    pin("syrk", bit_hash(cs.to_host()));
    auto b2 = make_buffer(dev, wl.matrix<T>(nn, k), 0);
    ctx.syr2k<T>(Uplo::Upper, Transpose::None, nn, k, T(-1), b2, b2, T(0),
                 cs);
    pin("syr2k", bit_hash(cs.to_host()));
    const std::int64_t ms = 8, ns = 6;
    auto tl = make_buffer(dev, wl.triangular<T>(ms, Uplo::Upper,
                                                Diag::NonUnit), 1);
    auto bl = make_buffer(dev, wl.matrix<T>(ms, ns), 2);
    ctx.trsm<T>(Side::Left, Uplo::Upper, Transpose::None, Diag::NonUnit, ms,
                ns, T(2), tl, bl);
    pin("trsm_left", bit_hash(bl.to_host()));
    auto tr = make_buffer(dev, wl.triangular<T>(ns, Uplo::Lower,
                                                Diag::Unit), 3);
    ctx.trsm<T>(Side::Right, Uplo::Lower, Transpose::Trans, Diag::Unit, ms,
                ns, T(1), tr, bl);
    pin("trsm_right", bit_hash(bl.to_host()));
    auto cg = make_buffer(dev, std::vector<T>(static_cast<std::size_t>(m * nn)),
                          0);
    ctx.gemm_systolic<T>(m, nn, k, a, b, cg);
    pin("gemm_systolic", bit_hash(cg.to_host()));
  }
  {
    const std::int64_t s = 4, batch = 5, e = s * s * batch;
    auto a = make_buffer(dev, wl.vector<T>(e), 0);
    auto b = make_buffer(dev, wl.vector<T>(e), 1);
    auto c = make_buffer(dev, std::vector<T>(static_cast<std::size_t>(e)), 2);
    ctx.gemm_batched<T>(s, batch, T(1.5), a, b, c);
    pin("gemm_batched", bit_hash(c.to_host()));
    std::vector<T> tris;
    for (std::int64_t i = 0; i < batch; ++i) {
      const auto t = wl.triangular<T>(s, Uplo::Lower, Diag::NonUnit);
      tris.insert(tris.end(), t.begin(), t.end());
    }
    auto at = make_buffer(dev, tris, 3);
    ctx.trsm_batched<T>(s, batch, T(1), at, b);
    pin("trsm_batched", bit_hash(b.to_host()));
  }
  {
    // Column tiling, strided operands and upper triangles: the mover
    // choices the shapes above leave unexercised.
    const std::int64_t r = 24, c = 20, s = 20;
    auto a = make_buffer(dev, wl.matrix<T>(r, c), 0);
    auto x = make_buffer(dev, wl.vector<T>(2 * r), 1);
    auto y = make_buffer(dev, wl.vector<T>(3 * r), 2);
    ctx.config().tiling = core::MatrixTiling::TilesByCols;
    ctx.gemv<T>(Transpose::None, r, c, T(1.25), a, x, 1, T(0.5), y, 1);
    pin("gemv_cols", bit_hash(y.to_host()));
    ctx.gemv<T>(Transpose::Trans, r, c, T(-1), a, y, 1, T(2), x, 1);
    pin("gemv_t_cols", bit_hash(x.to_host()));
    ctx.ger<T>(r, c, T(0.5), y, 1, x, 1, a);
    pin("ger_cols", bit_hash(a.to_host()));
    ctx.config().tiling = core::MatrixTiling::TilesByRows;
    ctx.gemv<T>(Transpose::None, r, c, T(0.75), a, x, 2, T(-0.5), y, 2);
    pin("gemv_inc2", bit_hash(y.to_host()));
    ctx.ger<T>(r, c, T(0.25), x, 2, y, 1, a);
    pin("ger_incx2", bit_hash(a.to_host()));
    ctx.axpy<T>(c, T(0.5), x, 2, y, 3);
    pin("axpy_inc", bit_hash(y.to_host()));
    pin("dot_inc", bit_hash(std::vector<T>{ctx.dot<T>(c, x, 2, y, 3)}));
    auto sq = make_buffer(dev, wl.matrix<T>(s, s), 3);
    ctx.syr<T>(Uplo::Upper, s, T(0.5), x, sq);
    pin("syr_upper", bit_hash(sq.to_host()));
    auto tri = make_buffer(dev, wl.triangular<T>(s, Uplo::Upper,
                                                 Diag::NonUnit), 0);
    ctx.trsv<T>(Uplo::Upper, Transpose::None, Diag::NonUnit, s, tri, y);
    pin("trsv_upper", bit_hash(y.to_host()));
  }
  return got;
}

template <typename T>
void expect_pins(const std::map<std::string, Pin>& want) {
  const auto got = run_pinned_routines<T>();
  EXPECT_EQ(got.size(), want.size());
  bool all = got.size() == want.size();
  for (const auto& [name, pin] : got) {
    const auto it = want.find(name);
    const bool ok = it != want.end() && it->second == pin;
    EXPECT_TRUE(ok) << name << ": cycles " << pin.cycles << ", hash 0x"
                    << std::hex << pin.hash;
    all = all && ok;
  }
  if (!all) {
    std::ostringstream os;
    for (const auto& [name, pin] : got) {
      os << "      {\"" << name << "\", {" << pin.cycles << "u, 0x" << std::hex
         << pin.hash << std::dec << "ULL}},\n";
    }
    ADD_FAILURE() << "observed pins:\n" << os.str();
  }
}

/// The pinned cycles and output hashes of run_pinned_routines<T>.
template <typename T>
std::map<std::string, Pin> routine_pins() {
  if constexpr (std::is_same_v<T, float>) {
    return {
        {"asum", {14u, 0xb9fef200f36108f9ULL}},
        {"axpy", {17u, 0xf8ce0dbf6ebda205ULL}},
        {"axpy_inc", {4u, 0x43ccfaefce2fab31ULL}},
        {"copy", {7u, 0xba147d028460f030ULL}},
        {"dot", {14u, 0xcfc8ccc8ec25ef67ULL}},
        {"dot_inc", {4u, 0x844b29af1babc898ULL}},
        {"gemm", {100u, 0x92573434109686c1ULL}},
        {"gemm_batched", {9u, 0x8f2fd25f3b8e2fe5ULL}},
        {"gemm_systolic", {171u, 0x93616db5fe3593dbULL}},
        {"gemv", {64u, 0xfc8ce3efb8174534ULL}},
        {"gemv_cols", {64u, 0x6e4f3a93b69a3688ULL}},
        {"gemv_inc2", {64u, 0xb2bfa3c5372b5c16ULL}},
        {"gemv_t", {65u, 0x1710d18858d1f8a3ULL}},
        {"gemv_t_cols", {63u, 0xbc98fada9213a481ULL}},
        {"ger", {76u, 0x49bcff4c9a0d6749ULL}},
        {"ger_cols", {76u, 0x1000eb6c0700f3f1ULL}},
        {"ger_incx2", {76u, 0x23de46c4f9b970bdULL}},
        {"iamax", {14u, 0xeee74dfbe67e7cffULL}},
        {"nrm2", {14u, 0x73082a4d899c6210ULL}},
        {"rot", {17u, 0xbdb5cfb5bb284ac9ULL}},
        {"rotg", {1u, 0x81fdccc452e3b15aULL}},
        {"rotm", {17u, 0x4a7454bc25e4dc7fULL}},
        {"rotmg", {1u, 0xff0c35ae3eb81eb7ULL}},
        {"scal", {17u, 0xbb1ca2ae342c3d39ULL}},
        {"sdsdot", {14u, 0x4c3c1aae6adae7ecULL}},
        {"swap", {9u, 0x561d4378be915a23ULL}},
        {"symv", {53u, 0x335d62f5556f7969ULL}},
        {"syr", {58u, 0x7ce21e139d0a810aULL}},
        {"syr2", {61u, 0xde9b7befcbcba7f9ULL}},
        {"syr2k", {84u, 0xa6deb980a2f5b8e9ULL}},
        {"syr_upper", {61u, 0x34850076d002e589ULL}},
        {"syrk", {84u, 0xe94355c3767810d8ULL}},
        {"trmv", {57u, 0x6dceedd39200c34bULL}},
        {"trsm_batched", {13u, 0x69735991fc91bea8ULL}},
        {"trsm_left", {34u, 0x2bf556e862a37b9ULL}},
        {"trsm_right", {28u, 0xbb46e2bd7a806c7aULL}},
        {"trsv", {27u, 0xad7210fb621c2309ULL}},
        {"trsv_t", {27u, 0x15ba235a2860fd60ULL}},
        {"trsv_upper", {27u, 0xc3fdbe2fcd8883e8ULL}},
    };
  } else {
    return {
        {"asum", {17u, 0x2cda436485c18fd7ULL}},
        {"axpy", {31u, 0x7d22bd18b27b5c12ULL}},
        {"axpy_inc", {7u, 0x8b5ef01e4ef7f8eeULL}},
        {"copy", {9u, 0x2325f097ae80e43fULL}},
        {"dot", {17u, 0xa3416a107b287956ULL}},
        {"dot_inc", {5u, 0xb0046ea4b86abfa6ULL}},
        {"gemm", {100u, 0x54e9a93c29fb0445ULL}},
        {"gemm_batched", {17u, 0x444cea333697c1eaULL}},
        {"gemm_systolic", {171u, 0x21cd471435c4025cULL}},
        {"gemv", {72u, 0x1405a31e8168ae20ULL}},
        {"gemv_cols", {72u, 0x2df26eafb4beaddbULL}},
        {"gemv_inc2", {72u, 0xab86bbf77ec1d9c9ULL}},
        {"gemv_t", {73u, 0x1df44f66a7342a3eULL}},
        {"gemv_t_cols", {71u, 0x9709c3cbe112d15aULL}},
        {"ger", {139u, 0xbe59d5ff3bc1af01ULL}},
        {"ger_cols", {139u, 0xa51621dc37da47f1ULL}},
        {"ger_incx2", {139u, 0xc550739c37f59eacULL}},
        {"iamax", {17u, 0xeee74dfbe67e7cffULL}},
        {"nrm2", {17u, 0x1c0ec02e2079db77ULL}},
        {"rot", {31u, 0x63c9ac99aa62c6f9ULL}},
        {"rotg", {1u, 0xaf760054c9261ae0ULL}},
        {"rotm", {31u, 0xc02ae2f4acc8895cULL}},
        {"rotmg", {1u, 0xe06dc0a7f0fcee72ULL}},
        {"scal", {31u, 0xaf08a54e1f88641aULL}},
        {"swap", {16u, 0xd96a0fee7b9d1420ULL}},
        {"symv", {59u, 0xdf0330ae548b92cULL}},
        {"syr", {91u, 0x522ee2587ed42a7fULL}},
        {"syr2", {89u, 0x244a85b92de9afa4ULL}},
        {"syr2k", {103u, 0x79cc2e2619250697ULL}},
        {"syr_upper", {89u, 0xa174b4d25c03664cULL}},
        {"syrk", {84u, 0x8cfd684ca67f4886ULL}},
        {"trmv", {62u, 0x367b60bb968eb984ULL}},
        {"trsm_batched", {25u, 0x4bd5d1be77fb4f4aULL}},
        {"trsm_left", {35u, 0x8cd3a27e2012e3ecULL}},
        {"trsm_right", {29u, 0x8dbdbb113f1317f3ULL}},
        {"trsv", {40u, 0xcb4c2ece48238a82ULL}},
        {"trsv_t", {40u, 0x878cd57e1fbd6f74ULL}},
        {"trsv_upper", {40u, 0x4a92320f49591833ULL}},
    };
  }
}

TEST(HostApi, RoutineCyclesPinned) {
  expect_pins<float>(routine_pins<float>());
  expect_pins<double>(routine_pins<double>());
}

/// Functional mode keeps no cycles; every output must match the pinned
/// cycle-mode bits. The 64-slot channels are crossed with ragged tails
/// (n = 100 at W = 8, 24 x 20 tiles), so a functional step that moves a
/// channel's worth still ends on the same values.
template <typename T>
void expect_functional_outputs_match_pins() {
  const auto got = run_pinned_routines<T>(stream::Mode::Functional);
  const auto want = routine_pins<T>();
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, pin] : got) {
    const auto it = want.find(name);
    ASSERT_NE(it, want.end()) << name;
    EXPECT_EQ(pin.hash, it->second.hash)
        << name << ": functional hash 0x" << std::hex << pin.hash
        << ", pinned 0x" << it->second.hash;
  }
}

TEST(HostApi, FunctionalOutputsMatchPins) {
  expect_functional_outputs_match_pins<float>();
  expect_functional_outputs_match_pins<double>();
}

// ---- Functional FIFO depth ----------------------------------------------
// A functional routine graph sizes its FIFOs detail::kFunctionalDepth (D)
// deep, or as deep as its longest operand stream when that is shorter, so
// one step moves up to D values. Lengths around W and D leave ragged
// steps. The in-place outputs (AXPY's y, SCAL's x, SWAP's and ROT's x and
// y, GEMV's y, GER's A, TRSV's x) are read and written by the same graph,
// at inc 1 and 3.

constexpr int kSweepWidth = 16;
constexpr std::int64_t kDepth = detail::kFunctionalDepth;
constexpr std::int64_t kSweepRows = 5;  // GEMV's and GER's short side

/// The sweep's inputs: vectors of `n` elements at stride `inc`, GEMV's
/// and GER's matrices with one side `n` long, and TRSV's n x n triangle.
template <typename T>
struct SweepInputs {
  std::int64_t n, inc;
  std::vector<T> x, y, short_vec, a_tall, a_wide, tri;
};

template <typename T>
SweepInputs<T> sweep_inputs(std::int64_t n, std::int64_t inc) {
  Workload wl(static_cast<std::uint64_t>(600 + 4 * n + inc));
  const std::int64_t len = 1 + (n - 1) * inc;
  SweepInputs<T> in;
  in.n = n;
  in.inc = inc;
  in.x = wl.vector<T>(len);
  in.y = wl.vector<T>(len);
  in.short_vec = wl.vector<T>(kSweepRows);
  in.a_tall = wl.matrix<T>(n, kSweepRows);
  in.a_wide = wl.matrix<T>(kSweepRows, n);
  // TRSV's triangle is n x n, so past W it runs once, in float at D+1
  // with inc 3: the other long lengths would make up most of the sweep's
  // time.
  if (n < kSweepWidth ||
      (std::is_same_v<T, float> && n == kDepth + 1 && inc == 3)) {
    in.tri = wl.triangular<T>(n, Uplo::Lower, Diag::NonUnit);
  }
  return in;
}

/// Every sweep routine's output on a context of `mode`.
template <typename T>
std::map<std::string, std::vector<T>> run_depth_sweep(
    stream::Mode mode, const SweepInputs<T>& in) {
  Device dev;
  Context ctx(dev, mode);
  ctx.config().width = kSweepWidth;
  const std::int64_t n = in.n, inc = in.inc, k = kSweepRows;
  std::map<std::string, std::vector<T>> out;
  auto x = make_buffer(dev, in.x, 0), y = make_buffer(dev, in.y, 1);
  ctx.axpy<T>(n, T(-0.75), x, inc, y, inc);
  out["axpy"] = y.to_host();
  ctx.scal<T>(n, T(1.5), x, inc);
  out["scal"] = x.to_host();
  auto z = make_buffer(dev, in.y, 2);
  ctx.copy<T>(n, x, inc, z, inc);
  out["copy"] = z.to_host();
  ctx.swap<T>(n, x, inc, y, inc);
  out["swap_x"] = x.to_host();
  out["swap_y"] = y.to_host();
  ctx.rot<T>(n, x, inc, y, inc, T(0.6), T(0.8));
  out["rot_x"] = x.to_host();
  out["rot_y"] = y.to_host();
  out["dot"] = {ctx.dot<T>(n, x, inc, y, inc)};
  if constexpr (std::is_same_v<T, float>) {
    out["sdsdot"] = {ctx.sdsdot(n, 0.25f, x, inc, y, inc)};
  }
  out["nrm2"] = {ctx.nrm2<T>(n, x, inc)};
  out["asum"] = {ctx.asum<T>(n, x, inc)};
  out["iamax"] = {static_cast<T>(ctx.iamax<T>(n, x, inc))};
  // GEMV's y and GER's A rows are n long.
  const auto s = make_buffer(dev, in.short_vec, 1);
  for (const bool none : {true, false}) {
    for (const bool by_rows : {true, false}) {
      ctx.config().tiling = by_rows ? core::MatrixTiling::TilesByRows
                                    : core::MatrixTiling::TilesByCols;
      const auto a = make_buffer(dev, none ? in.a_tall : in.a_wide, 0);
      auto yg = make_buffer(dev, in.y, 2);
      ctx.gemv<T>(none ? Transpose::None : Transpose::Trans, none ? n : k,
                  none ? k : n, T(1.25), a, s, 1, T(0.5), yg, inc);
      out[std::string(none ? "gemv" : "gemv_t") + (by_rows ? "" : "_cols")] =
          yg.to_host();
    }
  }
  ctx.config().tiling = core::MatrixTiling::TilesByRows;
  auto a = make_buffer(dev, in.a_wide, 0);
  const auto yr = make_buffer(dev, in.y, 2);
  ctx.ger<T>(k, n, T(0.5), s, 1, yr, inc, a);
  out["ger"] = a.to_host();
  if (!in.tri.empty()) {
    const auto tri = make_buffer(dev, in.tri, 0);
    auto b = make_buffer(dev, in.x, 1);
    ctx.trsv<T>(Uplo::Lower, Transpose::None, Diag::NonUnit, n, tri, b, inc);
    out["trsv"] = b.to_host();
  }
  return out;
}

/// refblas on the sweep's inputs, for the routines that compute each
/// output element on its own, so no summation order can differ.
template <typename T>
std::map<std::string, std::vector<T>> ref_depth_sweep(
    const SweepInputs<T>& in) {
  const std::int64_t n = in.n, inc = in.inc;
  std::vector<T> x = in.x, y = in.y, z = in.y;
  const auto v = [n, inc](std::vector<T>& h) {
    return VectorView<T>(h.data(), n, inc);
  };
  const auto cv = [n, inc](const std::vector<T>& h) {
    return VectorView<const T>(h.data(), n, inc);
  };
  std::map<std::string, std::vector<T>> out;
  ref::axpy<T>(T(-0.75), cv(x), v(y));
  out["axpy"] = y;
  ref::scal<T>(T(1.5), v(x));
  out["scal"] = x;
  ref::copy<T>(cv(x), v(z));
  out["copy"] = z;
  ref::swap<T>(v(x), v(y));
  out["swap_x"] = x;
  out["swap_y"] = y;
  ref::rot<T>(v(x), v(y), T(0.6), T(0.8));
  out["rot_x"] = x;
  out["rot_y"] = y;
  out["iamax"] = {static_cast<T>(ref::iamax<T>(cv(x)))};
  std::vector<T> a = in.a_wide;
  ref::ger<T>(T(0.5), VectorView<const T>(in.short_vec.data(), kSweepRows),
              cv(in.y), MatrixView<T>(a.data(), kSweepRows, n));
  out["ger"] = a;
  return out;
}

template <typename T>
void expect_depth_sweep_agrees() {
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{kSweepWidth - 1},
                               kDepth - 1, kDepth, kDepth + 1,
                               3 * kDepth + 5}) {
    for (const std::int64_t inc : {1, 3}) {
      const SweepInputs<T> in = sweep_inputs<T>(n, inc);
      const auto fun = run_depth_sweep<T>(stream::Mode::Functional, in);
      const auto cyc = run_depth_sweep<T>(stream::Mode::Cycle, in);
      EXPECT_EQ(fun.size(), cyc.size());
      for (const auto& [name, got] : cyc) {
        EXPECT_EQ(bit_hash(fun.at(name)), bit_hash(got))
            << name << ": functional and cycle differ at n=" << n
            << " inc=" << inc;
      }
      for (const auto& [name, want] : ref_depth_sweep<T>(in)) {
        EXPECT_EQ(bit_hash(fun.at(name)), bit_hash(want))
            << name << ": functional differs from refblas at n=" << n
            << " inc=" << inc;
      }
    }
  }
}

TEST(HostApi, FunctionalDepthSweepMatchesCycleAndRefblas) {
  expect_depth_sweep_agrees<float>();
  expect_depth_sweep_agrees<double>();
}

/// The capacity of every channel a traced command on a `mode` context
/// ran, by channel name, leaving out the 2-deep scalar collectors.
template <typename Run>
std::map<std::string, std::uint64_t> channel_capacities(stream::Mode mode,
                                                        Run run) {
  Device dev;
  Context ctx(dev, mode);
  const auto rec = ctx.tracing();
  run(dev, ctx);
  std::map<std::string, std::uint64_t> caps;
  for (const trace::Event& e : rec->events()) {
    if (e.kind == trace::EventKind::ChannelStats && e.flags != 2) {
      caps[std::string(e.name_view())] = e.flags;
    }
  }
  return caps;
}

// A Buffer bound to a written operand and to a second slot is refused at
// enqueue, naming the routine and both operands, and nothing runs: a GEMV
// with y = x would read x again after writing y. The written operand's
// own in-place read (AXPY's y, GEMV's y) and read-only pairs (DOT with
// x = y) stay legal.
TEST(HostApi, AliasedOperandsRefusedAtEnqueue) {
  for (const stream::Mode mode : {stream::Mode::Functional,
                                  stream::Mode::Cycle}) {
    for (const auto& [n, tile] :
         {std::pair<std::int64_t, std::int64_t>{64, 16}, {512, 64}}) {
      Workload wl(536);
      Device dev;
      Context ctx(dev, mode);
      ctx.config().tile_rows = tile;
      ctx.config().tile_cols = tile;
      const auto a = make_buffer(dev, wl.matrix<float>(n, n), 0);
      auto x = make_buffer(dev, wl.vector<float>(n), 1);
      auto y = make_buffer(dev, wl.vector<float>(n), 2);
      std::string msg;
      try {
        ctx.gemv<float>(Transpose::None, n, n, 1.0f, a, x, 1, 0.0f, x, 1);
      } catch (const ConfigError& e) {
        msg = e.what();
      }
      EXPECT_NE(msg.find("gemv: operand 'x' and written operand 'y'"),
                std::string::npos)
          << msg;
      EXPECT_EQ(ctx.exec_stats().executed, 0u);
      ctx.dot<float>(n, x, x);
      ctx.axpy<float>(n, 2.0f, x, y);
      ctx.gemv<float>(Transpose::None, n, n, 1.0f, a, x, 0.5f, y);
      EXPECT_EQ(ctx.exec_stats().executed, 3u);
    }
  }
}

TEST(HostApi, RoutineFifoDepthFollowsMode) {
  // Routine channels are chan_cap deep: max(64, 2W) on a cycle context;
  // kFunctionalDepth on a functional one, or the longest operand stream
  // when that is shorter (but never less than in cycle mode). A composed
  // ATAX keeps the depths its compiler sized, in both modes.
  Workload wl(530);
  const std::int64_t n = 96, n_long = 5000, n_short = 200;
  const auto hv = wl.vector<float>(n), hm = wl.matrix<float>(n, n);
  const auto hl = wl.triangular<float>(n, Uplo::Lower, Diag::NonUnit);
  const auto hlong = wl.vector<float>(n_long);
  struct Case {
    const char* name;
    int width;            // the W chan_cap is given
    std::int64_t values;  // the graph's longest stream
    std::function<void(Device&, Context&)> run;
  };
  const int W = 48, pe = 4;
  const auto axpy_dot = [&](std::int64_t len) {
    return [&, len](Device& dev, Context& ctx) {
      ctx.config().width = W;
      const std::vector<float> h(hlong.begin(), hlong.begin() + len);
      const auto x = make_buffer(dev, h, 0);
      auto y = make_buffer(dev, h, 1);
      ctx.axpy<float>(len, 2.0f, x, y);
      ctx.dot<float>(len, x, y);
    };
  };
  const std::vector<Case> cases = {
      {"axpy", W, n_long, axpy_dot(n_long)},
      {"axpy short", W, n_short, axpy_dot(n_short)},
      {"gemv", W, n * n,
       [&](Device& dev, Context& ctx) {
         ctx.config().width = W;
         const auto a = make_buffer(dev, hm, 0), x = make_buffer(dev, hv, 1);
         auto y = make_buffer(dev, hv, 2);
         ctx.gemv<float>(Transpose::None, n, n, 1.0f, a, x, 0.5f, y);
       }},
      {"gemm", pe * 4, n * n,
       [&](Device& dev, Context& ctx) {
         ctx.config().pe_rows = ctx.config().pe_cols = pe;
         const auto a = make_buffer(dev, hm, 0), b = make_buffer(dev, hm, 1);
         auto c = make_buffer(dev, hm, 2);
         ctx.gemm<float>(Transpose::None, Transpose::None, n, n, n, 1.0f, a,
                         b, 0.5f, c);
       }},
      {"trsm", W, n * n,
       [&](Device& dev, Context& ctx) {
         ctx.config().width = W;
         const auto a = make_buffer(dev, hl, 0);
         auto b = make_buffer(dev, hm, 1);
         ctx.trsm<float>(Side::Left, Uplo::Lower, Transpose::None,
                         Diag::NonUnit, n, n, 1.0f, a, b);
       }},
  };
  for (const Case& c : cases) {
    for (const stream::Mode mode :
         {stream::Mode::Functional, stream::Mode::Cycle}) {
      const auto caps = channel_capacities(mode, c.run);
      EXPECT_FALSE(caps.empty()) << c.name;
      for (const auto& [chan, cap] : caps) {
        EXPECT_EQ(cap, detail::chan_cap(mode, c.width, c.values))
            << c.name << " channel '" << chan << "' in "
            << (mode == stream::Mode::Cycle ? "cycle" : "functional")
            << " mode";
      }
    }
  }
  const auto F = stream::Mode::Functional, C = stream::Mode::Cycle;
  EXPECT_EQ(detail::chan_cap(F, W, n_long), 4096u);
  EXPECT_EQ(detail::chan_cap(F, W, n * n), 4096u);
  EXPECT_EQ(detail::chan_cap(F, W, n_short), 200u);
  EXPECT_EQ(detail::chan_cap(F, W, 1), 96u);
  EXPECT_EQ(detail::chan_cap(C, W, n_long), 96u);

  const auto atax = [&](Device& dev, Context& ctx) {
    const auto a = make_buffer(dev, hm, 0), x = make_buffer(dev, hv, 1);
    auto y = make_buffer(dev, hv, 2);
    apps::atax_composed<float>(ctx, n, n, a, x, y);
  };
  const auto fun = channel_capacities(stream::Mode::Functional, atax);
  EXPECT_FALSE(fun.empty());
  EXPECT_EQ(fun, channel_capacities(stream::Mode::Cycle, atax));
}

TEST(HostApiCycles, CycleModeRecordsTime) {
  Device dev;
  Context ctx(dev, stream::Mode::Cycle);
  ctx.config().width = 16;
  Workload wl(510);
  const std::int64_t n = 4096;
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  auto x = make_buffer(dev, hx, 0);
  auto y = make_buffer(dev, hy, 1);
  const float d = ctx.dot<float>(n, x, 1, y, 1);
  const float ed = ref::dot<float>(VectorView<const float>(hx.data(), n),
                                   VectorView<const float>(hy.data(), n));
  EXPECT_NEAR(d, ed, 1e-2);
  // At W=16 with two separate banks the module needs >= n/16 cycles.
  EXPECT_GE(ctx.last_cycles(), static_cast<std::uint64_t>(n / 16));
  EXPECT_LE(ctx.last_cycles(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(ctx.total_cycles(), ctx.last_cycles());
}

TEST(HostApiCycles, SameBankContentionSlowsDown) {
  // dot with x and y on the same bank halves the effective read rate —
  // the effect behind the AXPYDOT host-layer slowdown (Sec. VI-C).
  Workload wl(511);
  const std::int64_t n = 1 << 14;
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  auto run = [&](int bank_y) {
    Device dev;
    Context ctx(dev, stream::Mode::Cycle);
    ctx.config().width = 64;  // wide enough to be memory bound
    auto x = make_buffer(dev, hx, 0);
    auto y = make_buffer(dev, hy, bank_y);
    ctx.dot<float>(n, x, 1, y, 1);
    return ctx.last_cycles();
  };
  const auto separate = run(1);
  const auto shared = run(0);
  EXPECT_GT(static_cast<double>(shared) / static_cast<double>(separate), 1.5);
}

}  // namespace
}  // namespace fblas::host
