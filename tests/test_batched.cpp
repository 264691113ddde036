// Tests for the fully-unrolled batched modules and their host API (the
// Table V circuits): numerical agreement with the batched reference
// routines, the one-problem-per-cycle throughput property, and config
// validation (the host API rejects a bad size at enqueue).
#include <gtest/gtest.h>

#include <string>

#include "common/workload.hpp"
#include "fblas/batched.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "refblas/batched.hpp"
#include "stream/graph.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

template <typename T>
class Batched : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Batched, Precisions);

TYPED_TEST(Batched, GemmModuleMatchesReference) {
  using T = TypeParam;
  Workload wl(901);
  const std::int64_t s = 4, batch = 64;
  auto a = wl.vector<T>(batch * s * s);
  auto b = wl.vector<T>(batch * s * s);
  std::vector<T> expect(batch * s * s, T(0));
  ref::gemm_batched<T>(batch, s, T(1.5), a.data(), b.data(), T(0),
                       expect.data());
  Graph g;
  auto& ca = g.channel<T>("A", 64);
  auto& cb = g.channel<T>("B", 64);
  auto& cc = g.channel<T>("C", 64);
  std::vector<T> got(batch * s * s, T(0));
  g.spawn("read_A", read_batched<T>(a.data(), s * s, batch, ca));
  g.spawn("read_B", read_batched<T>(b.data(), s * s, batch, cb));
  g.spawn("gemm", gemm_batched_unrolled<T>({s}, batch, T(1.5), ca, cb, cc));
  g.spawn("store", write_batched<T>(got.data(), s * s, batch, cc));
  g.run();
  EXPECT_LT(rel_error(got, expect), 1e-5);
}

TYPED_TEST(Batched, OneProblemPerCycle) {
  using T = TypeParam;
  Workload wl(902);
  const std::int64_t s = 4, batch = 256;
  auto a = wl.vector<T>(batch * s * s);
  auto b = wl.vector<T>(batch * s * s);
  Graph g(Mode::Cycle);
  auto& ca = g.channel<T>("A", 128);
  auto& cb = g.channel<T>("B", 128);
  auto& cc = g.channel<T>("C", 128);
  std::vector<T> got(batch * s * s, T(0));
  g.spawn("read_A", read_batched<T>(a.data(), s * s, batch, ca));
  g.spawn("read_B", read_batched<T>(b.data(), s * s, batch, cb));
  g.spawn("gemm", gemm_batched_unrolled<T>({s}, batch, T(1), ca, cb, cc));
  g.spawn("store", write_batched<T>(got.data(), s * s, batch, cc));
  g.run();
  // The fully-unrolled pipeline retires ~one problem per cycle (small
  // constant factor for pipeline fill and scheduling).
  EXPECT_LE(g.cycles(), static_cast<std::uint64_t>(3 * batch));
  EXPECT_GE(g.cycles(), static_cast<std::uint64_t>(batch));
}

TYPED_TEST(Batched, TrsmModuleMatchesReference) {
  using T = TypeParam;
  Workload wl(903);
  const std::int64_t s = 4, batch = 32;
  std::vector<T> a, xref, bmat;
  for (std::int64_t i = 0; i < batch; ++i) {
    auto ai = wl.triangular<T>(s, Uplo::Lower, Diag::NonUnit);
    auto xi = wl.matrix<T>(s, s);
    std::vector<T> bi(s * s, T(0));
    ref::gemm_batched<T>(1, s, T(1), ai.data(), xi.data(), T(0), bi.data());
    a.insert(a.end(), ai.begin(), ai.end());
    xref.insert(xref.end(), xi.begin(), xi.end());
    bmat.insert(bmat.end(), bi.begin(), bi.end());
  }
  Graph g;
  auto& ca = g.channel<T>("A", 64);
  auto& cb = g.channel<T>("B", 64);
  auto& cx = g.channel<T>("X", 64);
  std::vector<T> got(batch * s * s, T(0));
  // Stream the triangles (row-major lower part of each dense A).
  struct Maker {
    static stream::Task triangles(const T* data, std::int64_t s,
                                  std::int64_t batch,
                                  stream::Channel<T>& out) {
      for (std::int64_t inv = 0; inv < batch; ++inv) {
        const T* p = data + inv * s * s;
        for (std::int64_t i = 0; i < s; ++i) {
          for (std::int64_t j = 0; j <= i; ++j) {
            co_await out.push(p[i * s + j]);
          }
        }
      }
    }
  };
  g.spawn("read_A", Maker::triangles(a.data(), s, batch, ca));
  g.spawn("read_B", read_batched<T>(bmat.data(), s * s, batch, cb));
  g.spawn("trsm", trsm_batched_unrolled<T>({s}, batch, T(1), ca, cb, cx));
  g.spawn("store", write_batched<T>(got.data(), s * s, batch, cx));
  g.run();
  EXPECT_LT(rel_error(got, xref), 1e-3);
}

TYPED_TEST(Batched, HostApiGemmBatched) {
  using T = TypeParam;
  Workload wl(904);
  const std::int64_t s = 4, batch = 48;
  host::Device dev;
  host::Context ctx(dev);
  auto ha = wl.vector<T>(batch * s * s);
  auto hb = wl.vector<T>(batch * s * s);
  host::Buffer<T> a(dev, batch * s * s, 0);
  host::Buffer<T> b(dev, batch * s * s, 1);
  host::Buffer<T> c(dev, batch * s * s, 2 % dev.bank_count());
  a.write(ha);
  b.write(hb);
  ctx.gemm_batched<T>(s, batch, T(2), a, b, c);
  std::vector<T> expect(batch * s * s, T(0));
  ref::gemm_batched<T>(batch, s, T(2), ha.data(), hb.data(), T(0),
                       expect.data());
  EXPECT_LT(rel_error(c.to_host(), expect), 1e-5);
}

TYPED_TEST(Batched, HostApiTrsmBatched) {
  using T = TypeParam;
  Workload wl(905);
  const std::int64_t s = 4, batch = 24;
  host::Device dev;
  host::Context ctx(dev);
  std::vector<T> ha, xref, hb;
  for (std::int64_t i = 0; i < batch; ++i) {
    auto ai = wl.triangular<T>(s, Uplo::Lower, Diag::NonUnit);
    auto xi = wl.matrix<T>(s, s);
    std::vector<T> bi(s * s, T(0));
    ref::gemm_batched<T>(1, s, T(1), ai.data(), xi.data(), T(0), bi.data());
    ha.insert(ha.end(), ai.begin(), ai.end());
    xref.insert(xref.end(), xi.begin(), xi.end());
    hb.insert(hb.end(), bi.begin(), bi.end());
  }
  host::Buffer<T> a(dev, batch * s * s, 0);
  host::Buffer<T> x(dev, batch * s * s, 1);
  a.write(ha);
  x.write(hb);
  ctx.trsm_batched<T>(s, batch, T(1), a, x);
  EXPECT_LT(rel_error(x.to_host(), xref), 1e-3);
}

TYPED_TEST(Batched, ConfigValidation) {
  using T = TypeParam;
  (void)sizeof(T);
  BatchedConfig bad{0};
  EXPECT_THROW(bad.validate(), ConfigError);
  BatchedConfig too_big{64};
  EXPECT_THROW(too_big.validate(), ConfigError);
  EXPECT_NO_THROW(BatchedConfig{4}.validate());
}

TYPED_TEST(Batched, HostApiRejectsBadSizeAtEnqueue) {
  using T = TypeParam;
  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<T> a(dev, 64, 0);
  host::Buffer<T> b(dev, 64, 1);
  host::Buffer<T> c(dev, 64, 2 % dev.bank_count());
  for (const std::int64_t size : {0, 33}) {
    const std::string named = "batched size " + std::to_string(size);
    for (const bool gemm : {true, false}) {
      try {
        if (gemm) {
          ctx.gemm_batched_async<T>(size, 1, T(1), a, b, c);
        } else {
          ctx.trsm_batched_async<T>(size, 1, T(1), a, b);
        }
        ADD_FAILURE() << "size " << size << " was enqueued";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
            << e.what();
      }
    }
  }
  ctx.finish();
  EXPECT_EQ(ctx.exec_stats().executed, 0u);
}

TYPED_TEST(Batched, ZeroBatchIsANoop) {
  using T = TypeParam;
  Graph g;
  auto& ca = g.channel<T>("A", 4);
  auto& cb = g.channel<T>("B", 4);
  auto& cc = g.channel<T>("C", 4);
  g.spawn("gemm", gemm_batched_unrolled<T>({4}, 0, T(1), ca, cb, cc));
  EXPECT_NO_THROW(g.run());
}

}  // namespace
}  // namespace fblas::core
