// Streaming Level-2 modules tested against the reference BLAS oracle:
// all four GEMV variants, GER/SYR/SYR2 tilings, TRSV orientations.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "refblas/level2.hpp"
#include "sim/perf_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

/// Values pushed into `g`'s channels that no module popped.
std::uint64_t unconsumed(const Graph& g) {
  std::uint64_t left = 0;
  for (const auto& ch : g.channels()) {
    left += ch->total_pushed() - ch->total_popped();
  }
  return left;
}

template <typename T>
std::vector<T> run_gemv(const GemvConfig& cfg, std::int64_t rows,
                        std::int64_t cols, T alpha, T beta,
                        const std::vector<T>& a, const std::vector<T>& x,
                        const std::vector<T>& y, Mode mode = Mode::Functional,
                        std::uint64_t* cycles = nullptr,
                        std::uint64_t* left = nullptr) {
  Graph g(mode);
  auto& ca = g.channel<T>("A", 128);
  auto& cx = g.channel<T>("x", 128);
  auto& cy = g.channel<T>("y", 128);
  auto& out = g.channel<T>("out", 128);
  const std::int64_t out_len = cfg.trans == Transpose::None ? rows : cols;
  std::vector<T> result;
  g.spawn("read_a",
          stream::read_matrix<T>(MatrixView<const T>(a.data(), rows, cols),
                                 gemv_a_schedule(cfg),
                                 /*repeat=*/1, cfg.width, ca));
  g.spawn("read_x",
          stream::read_vector<T>(
              VectorView<const T>(x.data(),
                                  static_cast<std::int64_t>(x.size())),
              gemv_x_repeat(cfg, rows, cols), cfg.width, cx));
  g.spawn("read_y",
          stream::read_vector<T>(
              VectorView<const T>(y.data(),
                                  static_cast<std::int64_t>(y.size())),
              /*repeat=*/1, cfg.width, cy));
  g.spawn("gemv", gemv<T>(cfg, rows, cols, alpha, beta, ca, cx, cy, out));
  g.spawn("collect", stream::collect<T>(out_len, out, result));
  g.run();
  if (cycles != nullptr) *cycles = g.cycles();
  if (left != nullptr) *left = unconsumed(g);
  return result;
}

template <typename T>
class StreamGemv : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(StreamGemv, Precisions);

TYPED_TEST(StreamGemv, AllVariantsMatchOracle) {
  using T = TypeParam;
  Workload wl(201);
  // Sizes chosen to exercise edge tiles (non-divisible by tile sizes).
  const std::int64_t rows = 13, cols = 18;
  auto a = wl.matrix<T>(rows, cols);
  const T alpha = T(1.25), beta = T(-0.5);
  for (Transpose tr : {Transpose::None, Transpose::Trans}) {
    const std::int64_t xl = tr == Transpose::None ? cols : rows;
    const std::int64_t yl = tr == Transpose::None ? rows : cols;
    auto x = wl.vector<T>(xl);
    auto y = wl.vector<T>(yl);
    auto expect = y;
    ref::gemv<T>(tr, alpha, MatrixView<const T>(a.data(), rows, cols),
                 VectorView<const T>(x.data(), xl), beta,
                 VectorView<T>(expect.data(), yl));
    for (MatrixTiling tiling :
         {MatrixTiling::TilesByRows, MatrixTiling::TilesByCols}) {
      for (Order elems : {Order::RowMajor, Order::ColMajor}) {
        for (std::int64_t tile : {4, 5, 32}) {
          // All 4 streaming modes of Sec. III-B (tile order x element
          // order), for both transpositions.
          GemvConfig cfg{tr, tiling, /*width=*/4, tile, tile, elems};
          auto got = run_gemv<T>(cfg, rows, cols, alpha, beta, a, x, y);
          ASSERT_EQ(got.size(), expect.size());
          EXPECT_LT(rel_error(got, expect), 1e-4)
              << "trans=" << int(tr) << " tiling=" << int(tiling)
              << " elems=" << int(elems) << " tile=" << tile;
        }
      }
    }
  }
}

// The four-row kernel (detail::gemv_rows) against a one-row loop, bit for
// bit: seeded tiles of 1..13 rows (ragged edge tiles, row counts that are
// not multiples of 4) of 1..23 inner elements, the tile's elements cut
// into random windows (most of them cut mid-row), both scalings. Each
// term, alpha * a * src (a * src unscaled), adds to its row's accumulator
// in arrival order.
TYPED_TEST(StreamGemv, FourRowKernelMatchesOneRowLoop) {
  using T = TypeParam;
  Workload w(0x4a0);
  for (int rep = 0; rep < 400; ++rep) {
    const auto rows = static_cast<std::int64_t>(1 + w.next_u64() % 13);
    const auto ni = static_cast<std::int64_t>(1 + w.next_u64() % 23);
    const std::int64_t total = rows * ni;
    const std::vector<T> a = w.vector<T>(total);
    const std::vector<T> src = w.vector<T>(ni);
    const std::vector<T> init = w.vector<T>(rows);
    const auto alpha = static_cast<T>(w.uniform(-2.0, 2.0));
    for (const bool scaled : {false, true}) {
      std::vector<T> want = init;
      for (std::int64_t e = 0; e < total; ++e) {
        const T term = scaled ? alpha * a[e] : a[e];
        want[e / ni] += term * src[e % ni];
      }
      std::vector<T> got = init;
      for (std::int64_t e = 0; e < total;) {
        const auto len =
            static_cast<std::int64_t>(1 + w.next_u64() % (total - e));
        if (scaled) {
          detail::gemv_rows<true>(a.data() + e, len, e, ni, alpha,
                                  got.data(), src.data());
        } else {
          detail::gemv_rows<false>(a.data() + e, len, e, ni, alpha,
                                   got.data(), src.data());
        }
        e += len;
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::bit_cast<stream::BitsOf<T>>(got[r]),
                  std::bit_cast<stream::BitsOf<T>>(want[r]))
            << "rep " << rep << " rows " << rows << " ni " << ni << " row "
            << r << (scaled ? " scaled" : "");
      }
    }
  }
}

TYPED_TEST(StreamGemv, SquareTilesDivisible) {
  using T = TypeParam;
  Workload wl(202);
  const std::int64_t n = 32;
  auto a = wl.matrix<T>(n, n);
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  auto expect = y;
  ref::gemv<T>(Transpose::None, T(1), MatrixView<const T>(a.data(), n, n),
               VectorView<const T>(x.data(), n), T(1),
               VectorView<T>(expect.data(), n));
  GemvConfig cfg{Transpose::None, MatrixTiling::TilesByRows, 8, 8, 8};
  auto got = run_gemv<T>(cfg, n, n, T(1), T(1), a, x, y);
  EXPECT_LT(rel_error(got, expect), 1e-4);
}

TYPED_TEST(StreamGemv, CycleModeAgreesAndTilingChangesNothingNumerically) {
  using T = TypeParam;
  Workload wl(203);
  const std::int64_t n = 24;
  auto a = wl.matrix<T>(n, n);
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  GemvConfig cfg{Transpose::None, MatrixTiling::TilesByRows, 8, 8, 8};
  std::uint64_t cycles = 0;
  auto functional = run_gemv<T>(cfg, n, n, T(2), T(0), a, x, y);
  auto cycled = run_gemv<T>(cfg, n, n, T(2), T(0), a, x, y, Mode::Cycle,
                            &cycles);
  EXPECT_EQ(functional, cycled);
  // At W=8 the module needs at least n*n/8 = 72 cycles for the matrix.
  EXPECT_GE(cycles, 72u);
}

TYPED_TEST(StreamGemv, CycleSimulationMatchesPerfModel) {
  // The analytic model (C = CD + N*M/W) extrapolates the benches to paper
  // scale; this pins it to the cycle simulator within a few percent
  // across widths.
  using T = TypeParam;
  Workload wl(208);
  const std::int64_t n = 512;
  auto a = wl.matrix<T>(n, n);
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  for (int w : {8, 32}) {
    GemvConfig cfg{Transpose::None, MatrixTiling::TilesByRows, w, 128, 128};
    std::uint64_t cycles = 0;
    run_gemv<T>(cfg, n, n, T(1), T(0), a, x, y, Mode::Cycle, &cycles);
    const auto model = sim::gemv_timing(PrecisionTraits<T>::value, w, n, n,
                                        sim::stratix10());
    EXPECT_NEAR(static_cast<double>(cycles) / model.cycles, 1.0, 0.06)
        << "w=" << w;
  }
}

TYPED_TEST(StreamGemv, IoFormulasMatchPaper) {
  using T = TypeParam;
  (void)sizeof(T);
  // Divisible case: N=M=1024, TN=TM=256.
  GemvConfig by_rows{Transpose::None, MatrixTiling::TilesByRows, 16, 256, 256};
  GemvConfig by_cols{Transpose::None, MatrixTiling::TilesByCols, 16, 256, 256};
  const std::int64_t N = 1024, M = 1024;
  // Sec. III-B: NM + M*N/TN + 2N  vs  NM + M + 2N*M/TM.
  EXPECT_EQ(gemv_io_ops(by_rows, N, M), N * M + M * (N / 256) + 2 * N);
  EXPECT_EQ(gemv_io_ops(by_cols, N, M), N * M + M + 2 * N * (M / 256));
  // Larger vertical tiles reduce by-rows I/O; larger horizontal tiles
  // reduce by-cols I/O.
  GemvConfig big_tn = by_rows;
  big_tn.tile_rows = 1024;
  EXPECT_LT(gemv_io_ops(big_tn, N, M), gemv_io_ops(by_rows, N, M));
}

template <typename T>
std::vector<T> run_ger(const GerConfig& cfg, std::int64_t rows,
                       std::int64_t cols, T alpha, const std::vector<T>& a,
                       const std::vector<T>& x, const std::vector<T>& y,
                       std::uint64_t* left = nullptr) {
  Graph g;
  auto& ca = g.channel<T>("A", 64);
  auto& cx = g.channel<T>("x", 64);
  auto& cy = g.channel<T>("y", 64);
  auto& out = g.channel<T>("out", 64);
  std::vector<T> result(rows * cols);
  const auto sched = ger_a_schedule(cfg);
  g.spawn("read_a",
          stream::read_matrix<T>(MatrixView<const T>(a.data(), rows, cols),
                                 sched, 1, cfg.width, ca));
  g.spawn("read_x", stream::read_vector<T>(
                        VectorView<const T>(x.data(), rows),
                        ger_x_repeat(cfg, rows, cols), cfg.width, cx));
  g.spawn("read_y", stream::read_vector<T>(
                        VectorView<const T>(y.data(), cols),
                        ger_y_repeat(cfg, rows, cols), cfg.width, cy));
  g.spawn("ger", ger<T>(cfg, rows, cols, alpha, ca, cx, cy, out));
  g.spawn("write",
          stream::write_matrix<T>(MatrixView<T>(result.data(), rows, cols),
                                  sched, cfg.width, out));
  g.run();
  if (left != nullptr) *left = unconsumed(g);
  return result;
}

TYPED_TEST(StreamGemv, GerBothTilingsMatchOracle) {
  using T = TypeParam;
  Workload wl(204);
  const std::int64_t rows = 11, cols = 14;
  auto a = wl.matrix<T>(rows, cols);
  auto x = wl.vector<T>(rows);
  auto y = wl.vector<T>(cols);
  auto expect = a;
  ref::ger<T>(T(0.75), VectorView<const T>(x.data(), rows),
              VectorView<const T>(y.data(), cols),
              MatrixView<T>(expect.data(), rows, cols));
  for (MatrixTiling tiling :
       {MatrixTiling::TilesByRows, MatrixTiling::TilesByCols}) {
    for (Order elems : {Order::RowMajor, Order::ColMajor}) {
      GerConfig cfg{tiling, 4, 4, 4, elems};
      auto got = run_ger<T>(cfg, rows, cols, T(0.75), a, x, y);
      EXPECT_LT(rel_error(got, expect), 1e-5)
          << "tiling=" << int(tiling) << " elems=" << int(elems);
    }
  }
}

// A zero extent still streams the operand whose pass does not depend on
// it; the module must consume that operand although no tile runs: GEMV
// leaves y <- beta * y, GER leaves the (empty) A, and no value is left in a
// channel. 200 exceeds every channel's capacity.
TYPED_TEST(StreamGemv, ZeroExtentMatchesOracle) {
  using T = TypeParam;
  Workload wl(208);
  const std::vector<T> a;
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {5, 0}, {0, 5}, {200, 0}, {0, 200}};
  for (const auto& [rows, cols] : shapes) {
    const MatrixView<const T> A(a.data(), rows, cols);
    for (Transpose tr : {Transpose::None, Transpose::Trans}) {
      const std::int64_t xl = tr == Transpose::None ? cols : rows;
      const std::int64_t yl = tr == Transpose::None ? rows : cols;
      const auto x = wl.vector<T>(xl);
      const auto y = wl.vector<T>(yl);
      auto expect = y;
      ref::gemv<T>(tr, T(1.25), A, VectorView<const T>(x.data(), xl), T(-0.5),
                   VectorView<T>(expect.data(), yl));
      for (MatrixTiling tiling :
           {MatrixTiling::TilesByRows, MatrixTiling::TilesByCols}) {
        const GemvConfig cfg{tr, tiling, 4, 4, 4};
        std::uint64_t left = 1;
        const auto got = run_gemv<T>(cfg, rows, cols, T(1.25), T(-0.5), a, x,
                                     y, Mode::Functional, nullptr, &left);
        EXPECT_EQ(got, expect) << rows << "x" << cols << " trans=" << int(tr)
                               << " tiling=" << int(tiling);
        EXPECT_EQ(left, 0u) << rows << "x" << cols << " trans=" << int(tr)
                            << " tiling=" << int(tiling);
      }
    }
    const auto x = wl.vector<T>(rows);
    const auto y = wl.vector<T>(cols);
    for (MatrixTiling tiling :
         {MatrixTiling::TilesByRows, MatrixTiling::TilesByCols}) {
      std::uint64_t left = 1;
      const auto got = run_ger<T>({tiling, 4, 4, 4}, rows, cols, T(0.75), a,
                                  x, y, &left);
      EXPECT_EQ(got, a) << "ger " << rows << "x" << cols
                        << " tiling=" << int(tiling);
      EXPECT_EQ(left, 0u) << "ger " << rows << "x" << cols
                          << " tiling=" << int(tiling);
    }
  }
}

TYPED_TEST(StreamGemv, SyrMatchesOracleFullMatrixUpdate) {
  using T = TypeParam;
  Workload wl(205);
  const std::int64_t n = 12;
  auto a = wl.matrix<T>(n, n);
  auto x = wl.vector<T>(n);
  // The generic streaming SYR updates the full matrix (A + alpha x x^T);
  // compare against GER with y == x.
  auto expect = a;
  ref::ger<T>(T(2), VectorView<const T>(x.data(), n),
              VectorView<const T>(x.data(), n),
              MatrixView<T>(expect.data(), n, n));
  GerConfig cfg{MatrixTiling::TilesByRows, 4, 4, 4};
  Graph g;
  auto& ca = g.channel<T>("A", 64);
  auto& cxr = g.channel<T>("xr", 64);
  auto& cxc = g.channel<T>("xc", 64);
  auto& out = g.channel<T>("out", 64);
  std::vector<T> result(n * n);
  const auto sched = ger_a_schedule(cfg);
  g.spawn("read_a", stream::read_matrix<T>(MatrixView<const T>(a.data(), n, n),
                                           sched, 1, cfg.width, ca));
  g.spawn("read_xr",
          stream::read_vector<T>(VectorView<const T>(x.data(), n),
                                 ger_x_repeat(cfg, n, n), cfg.width, cxr));
  g.spawn("read_xc",
          stream::read_vector<T>(VectorView<const T>(x.data(), n),
                                 ger_y_repeat(cfg, n, n), cfg.width, cxc));
  g.spawn("syr", syr<T>(cfg, n, T(2), ca, cxr, cxc, out));
  g.spawn("write", stream::write_matrix<T>(MatrixView<T>(result.data(), n, n),
                                           sched, cfg.width, out));
  g.run();
  EXPECT_LT(rel_error(result, expect), 1e-5);
}

TYPED_TEST(StreamGemv, Syr2MatchesOracleFullMatrixUpdate) {
  using T = TypeParam;
  Workload wl(206);
  const std::int64_t n = 10;
  auto a = wl.matrix<T>(n, n);
  auto x = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  auto expect = a;
  ref::ger<T>(T(1.5), VectorView<const T>(x.data(), n),
              VectorView<const T>(y.data(), n),
              MatrixView<T>(expect.data(), n, n));
  ref::ger<T>(T(1.5), VectorView<const T>(y.data(), n),
              VectorView<const T>(x.data(), n),
              MatrixView<T>(expect.data(), n, n));
  GerConfig cfg{MatrixTiling::TilesByCols, 4, 4, 4};
  Graph g;
  auto& ca = g.channel<T>("A", 64);
  auto& cxr = g.channel<T>("xr", 64);
  auto& cxc = g.channel<T>("xc", 64);
  auto& cyr = g.channel<T>("yr", 64);
  auto& cyc = g.channel<T>("yc", 64);
  auto& out = g.channel<T>("out", 64);
  std::vector<T> result(n * n);
  const auto sched = ger_a_schedule(cfg);
  // Row blocks follow the x-operand replay pattern, column blocks the
  // y-operand pattern (see GerConfig helpers).
  g.spawn("read_a", stream::read_matrix<T>(MatrixView<const T>(a.data(), n, n),
                                           sched, 1, cfg.width, ca));
  g.spawn("read_xr",
          stream::read_vector<T>(VectorView<const T>(x.data(), n),
                                 ger_x_repeat(cfg, n, n), cfg.width, cxr));
  g.spawn("read_yr",
          stream::read_vector<T>(VectorView<const T>(y.data(), n),
                                 ger_x_repeat(cfg, n, n), cfg.width, cyr));
  g.spawn("read_xc",
          stream::read_vector<T>(VectorView<const T>(x.data(), n),
                                 ger_y_repeat(cfg, n, n), cfg.width, cxc));
  g.spawn("read_yc",
          stream::read_vector<T>(VectorView<const T>(y.data(), n),
                                 ger_y_repeat(cfg, n, n), cfg.width, cyc));
  g.spawn("syr2", syr2<T>(cfg, n, T(1.5), ca, cxr, cxc, cyr, cyc, out));
  g.spawn("write", stream::write_matrix<T>(MatrixView<T>(result.data(), n, n),
                                           sched, cfg.width, out));
  g.run();
  EXPECT_LT(rel_error(result, expect), 1e-5);
}

TYPED_TEST(StreamGemv, TrsvBothUplosAndDiags) {
  using T = TypeParam;
  Workload wl(207);
  const std::int64_t n = 20;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
      auto a = wl.triangular<T>(n, uplo, dg);
      auto xref = wl.vector<T>(n);
      std::vector<T> b(n, T(0));
      ref::gemv<T>(Transpose::None, T(1), MatrixView<const T>(a.data(), n, n),
                   VectorView<const T>(xref.data(), n), T(0),
                   VectorView<T>(b.data(), n));
      // b and the solution stream in solve order (reversed for Upper).
      std::vector<T> b_solve(n);
      for (std::int64_t k = 0; k < n; ++k) {
        b_solve[k] = uplo == Uplo::Lower ? b[k] : b[n - 1 - k];
      }
      TrsvConfig cfg{uplo, dg, 4};
      Graph g;
      auto& ca = g.channel<T>("A", 64);
      auto& cb = g.channel<T>("b", 64);
      auto& out = g.channel<T>("x", 64);
      std::vector<T> got_solve;
      g.spawn("read_a", read_triangular<T>(MatrixView<const T>(a.data(), n, n),
                                           uplo, cfg.width, ca));
      g.spawn("feed_b", stream::feed(b_solve, cb));
      g.spawn("trsv", trsv<T>(cfg, n, ca, cb, out));
      g.spawn("collect", stream::collect<T>(n, out, got_solve));
      g.run();
      std::vector<T> got(n);
      for (std::int64_t k = 0; k < n; ++k) {
        const std::int64_t i = uplo == Uplo::Lower ? k : n - 1 - k;
        got[i] = got_solve[k];
      }
      EXPECT_LT(rel_error(got, xref), 1e-3)
          << "uplo=" << int(uplo) << " diag=" << int(dg);
    }
  }
}

TYPED_TEST(StreamGemv, RejectsBadConfig) {
  using T = TypeParam;
  (void)sizeof(T);
  GemvConfig cfg;
  cfg.tile_rows = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  GerConfig gcfg;
  gcfg.width = 0;
  EXPECT_THROW(gcfg.validate(), ConfigError);
}

}  // namespace
}  // namespace fblas::core
