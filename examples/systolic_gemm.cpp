// Systolic GEMM walkthrough (Sec. III-C, Fig. 3): runs the PR x PC
// PE-grid engine, whose skewed wavefronts and drain chain are computed in
// closed form (PE(r, c) MACs operand j = t - r - c at cycle t), verifies
// it against the reference BLAS and the time-multiplexed single-kernel
// module, and shows the cycle/load-balance properties that make the
// architecture scale.
//
// Build & run:  ./build/examples/systolic_gemm
#include <cstdio>

#include "common/workload.hpp"
#include "fblas/level3.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "systolic/systolic_array.hpp"

int main() {
  using namespace fblas;
  Workload wl(77);
  const std::int64_t m = 24, n = 20, k = 32;
  auto a = wl.matrix<float>(m, k);
  auto b = wl.matrix<float>(k, n);

  std::vector<float> expect(m * n, 0.0f);
  ref::gemm<float>(Transpose::None, Transpose::None, 1.0f,
                   MatrixView<const float>(a.data(), m, k),
                   MatrixView<const float>(b.data(), k, n), 0.0f,
                   MatrixView<float>(expect.data(), m, n));

  std::puts("== Explicit PE grid (output stationary, skewed wavefronts) ==");
  systolic::SystolicArray<float> grid(4, 4);
  std::vector<float> c(m * n, 0.0f);
  const auto cycles = grid.multiply(MatrixView<const float>(a.data(), m, k),
                                    MatrixView<const float>(b.data(), k, n),
                                    MatrixView<float>(c.data(), m, n));
  std::printf("4x4 grid, %lldx%lldx%lld: %llu cycles"
              " (k + PR-1 + PC-1 + PR per tile), rel. error %.2e\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k),
              static_cast<unsigned long long>(cycles),
              rel_error(c, expect));
  std::printf("constant fan-out per PE: %d connections (the property that"
              " lets the grid scale)\n",
              systolic::SystolicArray<float>::connections_per_pe());
  std::printf("total MACs: %llu (= m*n*k), per-PE load balance: %llu vs"
              " %llu MACs\n",
              static_cast<unsigned long long>(grid.total_macs()),
              static_cast<unsigned long long>(grid.pe_macs(0, 0)),
              static_cast<unsigned long long>(grid.pe_macs(3, 3)));

  std::puts("\n== Time-multiplexed single-kernel module (Intel-style) ==");
  const core::GemmConfig cfg{4, 4, 8, 8};
  stream::Graph g(stream::Mode::Cycle);
  auto& ca = g.channel<float>("A", 128);
  auto& cb = g.channel<float>("B", 128);
  auto& cc = g.channel<float>("Cin", 4);
  auto& out = g.channel<float>("out", 128);
  std::vector<float> c2(m * n, 0.0f);
  g.spawn("read_A", core::read_a_gemm<float>(
                        MatrixView<const float>(a.data(), m, k), cfg, n, ca));
  g.spawn("read_B", core::read_b_gemm<float>(
                        MatrixView<const float>(b.data(), k, n), cfg, m, cb));
  g.spawn("gemm",
          core::gemm<float>(cfg, m, n, k, 1.0f, 0.0f, ca, cb, cc, out));
  g.spawn("store_C",
          stream::write_matrix<float>(MatrixView<float>(c2.data(), m, n),
                                      core::gemm_c_schedule(cfg),
                                      cfg.pe_cols, out));
  g.run();
  std::printf("4x4 grid time-multiplexed over 8x8 compute tiles: %llu"
              " cycles, rel. error %.2e\n",
              static_cast<unsigned long long>(g.cycles()),
              rel_error(c2, expect));
  std::printf("the two engines agree with each other: rel. error %.2e\n",
              rel_error(c, c2));

  std::puts("\n== Scaling: grid size vs cycles (same 48x48x48 problem) ==");
  const std::int64_t s = 48;
  auto sa = wl.matrix<float>(s, s);
  auto sb = wl.matrix<float>(s, s);
  for (int gsz : {2, 4, 8}) {
    systolic::SystolicArray<float> arr(gsz, gsz);
    std::vector<float> sc(s * s, 0.0f);
    const auto cyc = arr.multiply(MatrixView<const float>(sa.data(), s, s),
                                  MatrixView<const float>(sb.data(), s, s),
                                  MatrixView<float>(sc.data(), s, s));
    std::printf("  %dx%d PEs -> %6llu cycles\n", gsz, gsz,
                static_cast<unsigned long long>(cyc));
  }
  std::puts("\nQuadrupling the PEs roughly quarters the cycle count until"
            " fill/drain overheads bite\n(the compute/memory tile ratio"
            " trade-off of Fig. 10, right).");
  return 0;
}
