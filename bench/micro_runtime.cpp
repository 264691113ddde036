// Google-benchmark microbenchmarks of the simulation substrate itself:
// channel throughput, scheduler overhead in both modes, tile walking,
// reference-BLAS rates and the systolic-array engine. These bound how
// large a design the cycle simulator can drive in reasonable time.
#include <benchmark/benchmark.h>

#include "common/workload.hpp"
#include "fblas/batched.hpp"
#include "fblas/level1.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "systolic/systolic_array.hpp"

namespace {

using namespace fblas;

void BM_ChannelPutTake(benchmark::State& state) {
  stream::Graph g;
  auto& ch = g.channel<float>("c", 1024);
  const float one = 1.0f;
  float v = 0;
  for (auto _ : state) {
    ch.put_some(&one, 1);
    ch.take_some(&v, 1);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPutTake);

void BM_StreamPassthrough(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto mode = state.range(1) == 0 ? stream::Mode::Functional
                                        : stream::Mode::Cycle;
  for (auto _ : state) {
    stream::Graph g(mode);
    auto& a = g.channel<float>("a", 256);
    auto& b = g.channel<float>("b", 256);
    g.spawn("gen", stream::generate<float>(n, 1.0f, 16, a));
    g.spawn("scal", core::scal<float>({16}, n, 2.0f, a, b));
    g.spawn("sink", stream::sink<float>(n, 16, b));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(mode == stream::Mode::Functional ? "functional" : "cycle");
}
BENCHMARK(BM_StreamPassthrough)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

void BM_TileWalker(benchmark::State& state) {
  const std::int64_t n = 512;
  for (auto _ : state) {
    stream::TileWalker walk(n, n,
                            {Order::RowMajor, Order::RowMajor, 64, 64});
    std::int64_t i, j, acc = 0;
    while (walk.next(i, j)) acc += i + j;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TileWalker);

void BM_RefGemmBlocked(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Workload wl(1);
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    ref::gemm_blocked<float>(1.0f, MatrixView<const float>(a.data(), n, n),
                             MatrixView<const float>(b.data(), n, n), 0.0f,
                             MatrixView<float>(c.data(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_RefGemmBlocked)->Arg(128)->Arg(256);

void BM_SystolicArray(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  const std::int64_t n = 32;
  Workload wl(2);
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  std::vector<float> c(n * n, 0.0f);
  systolic::SystolicArray<float> arr(grid, grid);
  for (auto _ : state) {
    arr.multiply(MatrixView<const float>(a.data(), n, n),
                 MatrixView<const float>(b.data(), n, n),
                 MatrixView<float>(c.data(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SystolicArray)->Arg(4)->Arg(8);

void BM_BatchedUnrolledGemm(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  const std::int64_t sz = 4;
  Workload wl(3);
  auto a = wl.vector<float>(batch * sz * sz);
  auto b = wl.vector<float>(batch * sz * sz);
  std::vector<float> c(batch * sz * sz, 0.0f);
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    auto& ca = g.channel<float>("A", 128);
    auto& cb = g.channel<float>("B", 128);
    auto& cc = g.channel<float>("C", 128);
    g.spawn("read_A", core::read_batched<float>(a.data(), sz * sz, batch, ca));
    g.spawn("read_B", core::read_batched<float>(b.data(), sz * sz, batch, cb));
    g.spawn("gemm",
            core::gemm_batched_unrolled<float>({sz}, batch, 1.0f, ca, cb, cc));
    g.spawn("store", core::write_batched<float>(c.data(), sz * sz, batch, cc));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedUnrolledGemm)->Arg(256)->Arg(1024);

void BM_OccupancyTraceOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const std::int64_t n = 1 << 14;
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    if (traced) g.scheduler().enable_occupancy_trace();
    auto& a = g.channel<float>("a", 64);
    g.spawn("gen", stream::generate<float>(n, 1.0f, 16, a));
    g.spawn("sink", stream::sink<float>(n, 16, a));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_OccupancyTraceOverhead)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
