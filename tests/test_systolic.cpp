// Tests for the explicit PE-grid systolic array: numerical agreement with
// the reference BLAS and with the core library's time-multiplexed GEMM
// module, cycle-count formula, load balance, constant fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/workload.hpp"
#include "fblas/level3.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "systolic/systolic_array.hpp"

namespace fblas::systolic {
namespace {

template <typename T>
class Systolic : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Systolic, Precisions);

TYPED_TEST(Systolic, MatchesOracleExactGrid) {
  using T = TypeParam;
  Workload wl(401);
  const std::int64_t m = 4, n = 4, k = 8;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(m * n, T(0)), expect(m * n, T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(1),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(expect.data(), m, n));
  SystolicArray<T> arr(4, 4);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  EXPECT_LT(rel_error(c, expect), 1e-5);
}

TYPED_TEST(Systolic, MatchesOracleMultiTileAndEdges) {
  using T = TypeParam;
  Workload wl(402);
  // Non-divisible everything: 4x3 grid over a 10x7 result.
  const std::int64_t m = 10, n = 7, k = 9;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(m * n, T(0)), expect(m * n, T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(1),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(expect.data(), m, n));
  SystolicArray<T> arr(4, 3);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  EXPECT_LT(rel_error(c, expect), 1e-5);
}

TYPED_TEST(Systolic, CycleCountFormula) {
  using T = TypeParam;
  Workload wl(403);
  const std::int64_t m = 8, n = 8, k = 16;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(m * n, T(0));
  SystolicArray<T> arr(4, 4);
  const auto cycles = arr.multiply(MatrixView<const T>(a.data(), m, k),
                                   MatrixView<const T>(b.data(), k, n),
                                   MatrixView<T>(c.data(), m, n));
  // 4 tiles, each k + PR-1 + PC-1 + PR cycles.
  EXPECT_EQ(cycles, 4u * (16 + 3 + 3 + 4));
}

TYPED_TEST(Systolic, PerfectLoadBalanceOnDivisibleProblem) {
  using T = TypeParam;
  Workload wl(404);
  const std::int64_t m = 8, n = 8, k = 12;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(m * n, T(0));
  SystolicArray<T> arr(4, 4);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  // Every PE performs exactly k MACs per tile, 4 tiles: uniform load.
  for (int r = 0; r < 4; ++r) {
    for (int cc = 0; cc < 4; ++cc) {
      EXPECT_EQ(arr.pe_macs(r, cc), 4u * 12u) << "PE(" << r << "," << cc << ")";
    }
  }
  EXPECT_EQ(arr.total_macs(), static_cast<std::uint64_t>(m * n * k));
}

TYPED_TEST(Systolic, ConstantFanout) {
  using T = TypeParam;
  // The scalability property of Sec. III-C: connections per PE do not
  // grow with the grid.
  EXPECT_EQ(SystolicArray<T>::connections_per_pe(), 6);
}

TYPED_TEST(Systolic, SinglePeDegeneratesToScalarMac) {
  using T = TypeParam;
  std::vector<T> a{1, 2, 3}, b{4, 5, 6};  // 1x3 times 3x1
  std::vector<T> c(1, T(0));
  SystolicArray<T> arr(1, 1);
  arr.multiply(MatrixView<const T>(a.data(), 1, 3),
               MatrixView<const T>(b.data(), 3, 1),
               MatrixView<T>(c.data(), 1, 1));
  EXPECT_NEAR(c[0], 32.0, 1e-6);
}

TYPED_TEST(Systolic, AgreesWithTimeMultiplexedGemmModule) {
  // The explicit PE grid and the single-kernel time-multiplexed module
  // (fblas::core::gemm) are two realizations of the same architecture;
  // they must agree with each other, not just with the oracle.
  using T = TypeParam;
  Workload wl(405);
  const std::int64_t m = 16, n = 12, k = 20;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c_grid(m * n, T(0));
  SystolicArray<T> arr(4, 4);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c_grid.data(), m, n));

  const core::GemmConfig cfg{4, 4, 8, 8};
  stream::Graph g;
  auto& ca = g.channel<T>("A", 128);
  auto& cb = g.channel<T>("B", 128);
  auto& cc = g.channel<T>("Cin", 4);
  auto& out = g.channel<T>("out", 128);
  std::vector<T> c_module(m * n, T(0));
  g.spawn("read_A", core::read_a_gemm<T>(MatrixView<const T>(a.data(), m, k),
                                         cfg, n, ca));
  g.spawn("read_B", core::read_b_gemm<T>(MatrixView<const T>(b.data(), k, n),
                                         cfg, m, cb));
  g.spawn("gemm", core::gemm<T>(cfg, m, n, k, T(1), T(0), ca, cb, cc, out));
  g.spawn("store",
          stream::write_matrix<T>(MatrixView<T>(c_module.data(), m, n),
                                  core::gemm_c_schedule(cfg), cfg.pe_cols,
                                  out));
  g.run();
  EXPECT_LT(rel_error(c_grid, c_module), 1e-5);
}

// --- Ragged-tile properties ----------------------------------------------
// m, n not multiples of PR, PC: partial tiles on the right and bottom
// edges. The grid's per-PE accumulation order (ascending j) matches the
// reference GEMM's, so for alpha=1, beta=0 the results must agree BIT FOR
// BIT — the property the in-grid replay correction also relies on.

TYPED_TEST(Systolic, RaggedTilesBitAgreeWithReference) {
  using T = TypeParam;
  Workload wl(406);
  struct Case {
    std::int64_t m, n, k;
    int pr, pc;
  };
  const Case cases[] = {
      {10, 7, 9, 4, 3},  {5, 5, 1, 4, 4},   {13, 11, 17, 5, 2},
      {3, 9, 4, 8, 8},   {16, 16, 32, 4, 4}, {7, 1, 6, 2, 3},
  };
  for (const Case& tc : cases) {
    auto a = wl.matrix<T>(tc.m, tc.k);
    auto b = wl.matrix<T>(tc.k, tc.n);
    std::vector<T> c(static_cast<std::size_t>(tc.m * tc.n), T(0));
    std::vector<T> expect(static_cast<std::size_t>(tc.m * tc.n), T(0));
    ref::gemm<T>(Transpose::None, Transpose::None, T(1),
                 MatrixView<const T>(a.data(), tc.m, tc.k),
                 MatrixView<const T>(b.data(), tc.k, tc.n), T(0),
                 MatrixView<T>(expect.data(), tc.m, tc.n));
    SystolicArray<T> arr(tc.pr, tc.pc);
    arr.multiply(MatrixView<const T>(a.data(), tc.m, tc.k),
                 MatrixView<const T>(b.data(), tc.k, tc.n),
                 MatrixView<T>(c.data(), tc.m, tc.n));
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c[i], expect[i])
          << "element " << i << " of m=" << tc.m << " n=" << tc.n
          << " k=" << tc.k << " grid " << tc.pr << "x" << tc.pc;
    }
  }
}

TYPED_TEST(Systolic, PartialTileMacAccounting) {
  using T = TypeParam;
  Workload wl(407);
  // 10x7 result on a 4x3 grid: rows 0-1 of the grid see 3 row-tiles,
  // rows 2-3 see 2 (the last row-tile is 2 high); columns 0 sees 3
  // column-tiles, columns 1-2 see 2 (the last column-tile is 1 wide).
  const std::int64_t m = 10, n = 7, k = 9;
  const int pr = 4, pc = 3;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  SystolicArray<T> arr(pr, pc);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  std::uint64_t total = 0;
  for (int r = 0; r < pr; ++r) {
    // Row-tiles covering grid row r: full tiles plus the partial one if
    // its height exceeds r. Same for columns.
    const std::uint64_t row_tiles =
        static_cast<std::uint64_t>(m / pr) + ((m % pr) > r ? 1u : 0u);
    for (int cc = 0; cc < pc; ++cc) {
      const std::uint64_t col_tiles =
          static_cast<std::uint64_t>(n / pc) + ((n % pc) > cc ? 1u : 0u);
      const std::uint64_t want = row_tiles * col_tiles *
                                 static_cast<std::uint64_t>(k);
      EXPECT_EQ(arr.pe_macs(r, cc), want)
          << "PE(" << r << "," << cc << ")";
      total += want;
    }
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(m * n * k));
  EXPECT_EQ(arr.total_macs(), total);
}

// --- In-grid ABFT at the engine level -------------------------------------

TYPED_TEST(Systolic, AbftCleanRunDetectsNothingAndCostsThreeCycles) {
  using T = TypeParam;
  Workload wl(408);
  const std::int64_t m = 8, n = 8, k = 16;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> plain(static_cast<std::size_t>(m * n), T(0));
  std::vector<T> checked(static_cast<std::size_t>(m * n), T(0));
  SystolicArray<T> arr(4, 4);
  const auto base = arr.multiply(MatrixView<const T>(a.data(), m, k),
                                 MatrixView<const T>(b.data(), k, n),
                                 MatrixView<T>(plain.data(), m, n));
  SystolicArray<T> armed(4, 4);
  armed.set_abft(AbftConfig{true, true, 32.0});
  const auto cycles = armed.multiply(MatrixView<const T>(a.data(), m, k),
                                     MatrixView<const T>(b.data(), k, n),
                                     MatrixView<T>(checked.data(), m, n));
  // The checksum rank costs a constant 3 cycles per tile (4 tiles here)
  // and never perturbs the data path.
  EXPECT_EQ(cycles, base + 4u * 3u);
  EXPECT_EQ(checked, plain);
  const AbftReport& report = armed.report();
  EXPECT_EQ(report.tiles_checked, 4u);
  EXPECT_EQ(report.faults_detected, 0u);
  EXPECT_EQ(report.faults_localized, 0u);
  EXPECT_EQ(report.faults_corrected, 0u);
  EXPECT_EQ(report.uncorrectable_tiles, 0u);
}

TYPED_TEST(Systolic, AbftLocalizesAndCorrectsArmedFaultBitIdentically) {
  using T = TypeParam;
  Workload wl(409);
  const std::int64_t m = 10, n = 7, k = 9;  // ragged: partial victim tiles
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> expect(static_cast<std::size_t>(m * n), T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(1),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(expect.data(), m, n));
  // One fault in every tile of the sweep (3x3 tiles on a 4x3 grid), each
  // at a different PE/MAC — all must be localized and corrected in place.
  int plan_no = 0;
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  SystolicArray<T> arr(4, 3);
  arr.set_abft(AbftConfig{true, true, 32.0});
  for (std::int64_t ti = 0; ti < 3; ++ti) {
    for (std::int64_t tj = 0; tj < 3; ++tj) {
      PeFaultPlan plan;
      plan.tile = ti * 3 + tj;
      const std::int64_t th = std::min<std::int64_t>(4, m - ti * 4);
      const std::int64_t tw = std::min<std::int64_t>(3, n - tj * 3);
      plan.r = static_cast<int>(plan_no % th);
      plan.c = static_cast<int>((plan_no / 2) % tw);
      plan.mac = plan_no % k;
      arr.arm_fault(plan);
      ++plan_no;
    }
  }
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  EXPECT_EQ(arr.faults_fired(), 9u);
  const AbftReport& report = arr.report();
  EXPECT_EQ(report.faults_detected, 9u);
  EXPECT_EQ(report.faults_localized, 9u);
  EXPECT_EQ(report.faults_corrected, 9u);
  EXPECT_EQ(report.uncorrectable_tiles, 0u);
  // Corrected result is bit-identical to the fault-free reference.
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], expect[i]) << "element " << i;
  }
  // Per-PE fault counters sum to the faults localized.
  std::uint64_t fault_sum = 0;
  for (int r = 0; r < 4; ++r) {
    for (int cc = 0; cc < 3; ++cc) fault_sum += arr.pe_faults(r, cc);
  }
  EXPECT_EQ(fault_sum, 9u);
}

TYPED_TEST(Systolic, AbftDetectOnlyLeavesFaultInPlace) {
  using T = TypeParam;
  Workload wl(410);
  const std::int64_t m = 8, n = 8, k = 12;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> expect(static_cast<std::size_t>(m * n), T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(1),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(expect.data(), m, n));
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  SystolicArray<T> arr(4, 4);
  arr.set_abft(AbftConfig{true, /*correct_single_faults=*/false, 32.0});
  PeFaultPlan plan;
  plan.tile = 2;  // tile (1, 0): rows 4-7, cols 0-3
  plan.r = 1;
  plan.c = 2;
  plan.mac = 5;
  arr.arm_fault(plan);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  const AbftReport& report = arr.report();
  EXPECT_EQ(report.faults_detected, 1u);
  EXPECT_EQ(report.faults_localized, 1u);
  EXPECT_EQ(report.faults_corrected, 0u);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].tile_row, 1);
  EXPECT_EQ(report.faults[0].tile_col, 0);
  EXPECT_EQ(report.faults[0].r, 1);
  EXPECT_EQ(report.faults[0].c, 2);
  EXPECT_FALSE(report.faults[0].corrected);
  // The corrupted accumulator reached C: exactly the diagnosed element
  // diverges, everything else is untouched.
  const std::size_t bad = static_cast<std::size_t>((4 + 1) * n + (0 + 2));
  EXPECT_NE(c[bad], expect[bad]);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i != bad) {
      EXPECT_EQ(c[i], expect[i]) << "element " << i;
    }
  }
}

TYPED_TEST(Systolic, AbftDoubleFaultIsUncorrectable) {
  using T = TypeParam;
  Workload wl(411);
  const std::int64_t m = 8, n = 8, k = 12;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  SystolicArray<T> arr(4, 4);
  arr.set_abft(AbftConfig{true, true, 32.0});
  PeFaultPlan first{1, 0, 1, 3};
  PeFaultPlan second{1, 2, 3, 7};  // same tile, distinct PE
  arr.arm_fault(first);
  arr.arm_fault(second);
  arr.multiply(MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n),
               MatrixView<T>(c.data(), m, n));
  EXPECT_EQ(arr.faults_fired(), 2u);
  const AbftReport& report = arr.report();
  EXPECT_EQ(report.faults_detected, 1u);  // one bad tile
  EXPECT_EQ(report.faults_corrected, 0u);
  EXPECT_EQ(report.uncorrectable_tiles, 1u);
  EXPECT_NE(report.first_uncorrectable.find("tile (0, 1)"),
            std::string::npos)
      << report.first_uncorrectable;
}

TYPED_TEST(Systolic, RejectsBadShapes) {
  using T = TypeParam;
  EXPECT_THROW(SystolicArray<T>(0, 4), ConfigError);
  SystolicArray<T> arr(2, 2);
  std::vector<T> a(4), b(6), c(4);
  EXPECT_THROW(arr.multiply(MatrixView<const T>(a.data(), 2, 2),
                            MatrixView<const T>(b.data(), 3, 2),
                            MatrixView<T>(c.data(), 2, 2)),
               ConfigError);
}

// --- Engine pin -------------------------------------------------------------
// One FNV-1a hash over everything multiply() makes observable, across a
// seeded table of shapes, grids, precisions, ABFT modes and armed plans
// (some on PEs outside a ragged tile, some past the last MAC). Operands
// are ~30% exact zeros, so planned products are often zero and flips get
// postponed or never fire.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename V>
  void add(V v) {
    bytes(&v, sizeof(v));
  }
  void add(const std::string& s) {
    add<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }
};

template <typename T>
std::vector<T> sparse_matrix(Workload& wl, std::int64_t rows,
                             std::int64_t cols) {
  std::vector<T> v(static_cast<std::size_t>(rows * cols));
  for (T& x : v) {
    x = wl.next_u64() % 10 < 3 ? T(0) : static_cast<T>(wl.uniform());
  }
  return v;
}

// What the table exercised. `postponed` counts planned MACs whose product
// is zero while a later one of the same PE is not.
struct PinCoverage {
  int postponed = 0;
  std::uint64_t fired = 0, corrected = 0, uncorrectable = 0;
};

// Runs two multiplies on one grid (so per-PE counters and scratch carry
// over) and folds every observable into `h`.
template <typename T>
void pin_case(Workload& wl, Fnv1a& h, PinCoverage* cov) {
  const int pr = 1 + static_cast<int>(wl.next_u64() % 8);
  const int pc = 1 + static_cast<int>(wl.next_u64() % 8);
  SystolicArray<T> arr(pr, pc);
  for (int call = 0; call < 2; ++call) {
    const auto dim = [&] {
      return static_cast<std::int64_t>(wl.next_u64() % 21);
    };
    const std::int64_t m = dim(), n = dim();
    const std::uint64_t kind = wl.next_u64() % 8;
    const std::int64_t k = kind == 0 ? 0 : kind == 1 ? 1 : dim();
    const auto a = sparse_matrix<T>(wl, m, k);
    const auto b = sparse_matrix<T>(wl, k, n);
    const std::uint64_t mode = wl.next_u64() % 3;
    arr.set_abft(AbftConfig{mode != 0, mode == 2, 32.0});
    const std::int64_t tiles = ((m + pr - 1) / pr) * ((n + pc - 1) / pc);
    const int plans = static_cast<int>(wl.next_u64() % 3);
    for (int p = 0; p < plans && tiles > 0; ++p) {
      PeFaultPlan plan;
      plan.tile = static_cast<std::int64_t>(wl.next_u64() %
                                            static_cast<std::uint64_t>(tiles));
      plan.r = static_cast<int>(wl.next_u64() % static_cast<std::uint64_t>(pr));
      plan.c = static_cast<int>(wl.next_u64() % static_cast<std::uint64_t>(pc));
      plan.mac = static_cast<std::int64_t>(
          wl.next_u64() % static_cast<std::uint64_t>(k + 2));
      arr.arm_fault(plan);
      const std::int64_t tiles_n = (n + pc - 1) / pc;
      const std::int64_t row = (plan.tile / tiles_n) * pr + plan.r;
      const std::int64_t col = (plan.tile % tiles_n) * pc + plan.c;
      if (row < m && col < n && plan.mac < k &&
          a[static_cast<std::size_t>(row * k + plan.mac)] *
                  b[static_cast<std::size_t>(plan.mac * n + col)] ==
              T(0)) {
        for (std::int64_t j = plan.mac + 1; j < k; ++j) {
          if (a[static_cast<std::size_t>(row * k + j)] *
                  b[static_cast<std::size_t>(j * n + col)] !=
              T(0)) {
            ++cov->postponed;
            break;
          }
        }
      }
    }
    std::vector<T> c(static_cast<std::size_t>(m * n), T(-7));
    const std::uint64_t cycles =
        arr.multiply(MatrixView<const T>(a.data(), m, k),
                     MatrixView<const T>(b.data(), k, n),
                     MatrixView<T>(c.data(), m, n));
    for (const T v : c) h.add(v);
    h.add(cycles);
    for (int r = 0; r < pr; ++r) {
      for (int cc = 0; cc < pc; ++cc) {
        h.add(arr.pe_macs(r, cc));
        h.add(arr.pe_faults(r, cc));
      }
    }
    h.add(arr.faults_fired());
    const AbftReport& rep = arr.report();
    h.add(rep.tiles_checked);
    h.add(rep.faults_detected);
    h.add(rep.faults_localized);
    h.add(rep.faults_corrected);
    h.add(rep.uncorrectable_tiles);
    h.add<std::uint64_t>(rep.faults.size());
    for (const LocalizedFault& f : rep.faults) {
      h.add(f.tile_row);
      h.add(f.tile_col);
      h.add(f.r);
      h.add(f.c);
      h.add(f.residual);
      h.add<std::uint8_t>(f.corrected ? 1 : 0);
    }
    h.add(rep.first_uncorrectable);
    cov->fired += arr.faults_fired();
    cov->corrected += rep.faults_corrected;
    cov->uncorrectable += rep.uncorrectable_tiles;
  }
}

TEST(Systolic, EnginePinned) {
  Workload wl(412);
  Fnv1a h;
  PinCoverage cov;
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      pin_case<float>(wl, h, &cov);
    } else {
      pin_case<double>(wl, h, &cov);
    }
  }
  EXPECT_GT(cov.postponed, 0);
  EXPECT_GT(cov.fired, 0u);
  EXPECT_GT(cov.corrected, 0u);
  EXPECT_GT(cov.uncorrectable, 0u);
  EXPECT_EQ(h.h, 0x31e1863c99569cdbULL) << std::hex << "0x" << h.h;
}

// --- The firing rule of an armed plan ---------------------------------------

template <typename T>
T flipped(T v) {
  // The injector's corruption: XOR the second-highest bit (an exponent bit).
  if constexpr (sizeof(T) == 4) {
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    u ^= 0x40000000u;
    std::memcpy(&v, &u, sizeof(u));
  } else {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    u ^= 0x4000000000000000ull;
    std::memcpy(&v, &u, sizeof(u));
  }
  return v;
}

template <typename T>
void check_firing_rule() {
  // One 4x4 tile, k = 6. PE (1, 2): A(1, 2) = 0 makes its planned MAC 2
  // a zero product; MAC 3 is not. PE (2, 1): A(2, j) = 0 for j >= 3, so
  // a plan at MAC 3 never reaches a nonzero product.
  const std::int64_t m = 4, n = 4, k = 6;
  Workload wl(413);
  auto a = wl.matrix<T>(m, k, 0.25, 1.0);
  const auto b = wl.matrix<T>(k, n, 0.25, 1.0);
  a[static_cast<std::size_t>(1 * k + 2)] = T(0);
  for (std::int64_t j = 3; j < k; ++j) {
    a[static_cast<std::size_t>(2 * k + j)] = T(0);
  }
  // Each PE's dot product in the grid's order, with an optional flip.
  const auto dot = [&](std::int64_t r, std::int64_t c, std::int64_t flip_at) {
    T acc = T(0);
    for (std::int64_t j = 0; j < k; ++j) {
      T prod = a[static_cast<std::size_t>(r * k + j)] *
               b[static_cast<std::size_t>(j * n + c)];
      if (j == flip_at) prod = flipped(prod);
      acc += prod;
    }
    return acc;
  };
  std::vector<T> expect(static_cast<std::size_t>(m * n));
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t c = 0; c < n; ++c) {
      expect[static_cast<std::size_t>(r * n + c)] = dot(r, c, -1);
    }
  }
  const auto run = [&](bool correct, const PeFaultPlan& plan,
                       SystolicArray<T>& arr) {
    std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
    arr.set_abft(AbftConfig{true, correct, 32.0});
    arr.arm_fault(plan);
    arr.multiply(MatrixView<const T>(a.data(), m, k),
                 MatrixView<const T>(b.data(), k, n),
                 MatrixView<T>(c.data(), m, n));
    return c;
  };

  // Postponed: detect-only leaves the flip of MAC 3 (not 2, not 4) in C.
  SystolicArray<T> detect(4, 4);
  std::vector<T> c = run(false, PeFaultPlan{0, 1, 2, 2}, detect);
  EXPECT_EQ(detect.faults_fired(), 1u);
  std::vector<T> faulty = expect;
  faulty[1 * n + 2] = dot(1, 2, 3);
  ASSERT_NE(faulty[1 * n + 2], expect[1 * n + 2]);
  EXPECT_EQ(c, faulty);
  // Correcting: localized to PE (1, 2) and replayed bit-identically.
  SystolicArray<T> fix(4, 4);
  c = run(true, PeFaultPlan{0, 1, 2, 2}, fix);
  EXPECT_EQ(fix.faults_fired(), 1u);
  const AbftReport& rep = fix.report();
  ASSERT_EQ(rep.faults.size(), 1u);
  EXPECT_EQ(rep.faults[0].r, 1);
  EXPECT_EQ(rep.faults[0].c, 2);
  EXPECT_TRUE(rep.faults[0].corrected);
  EXPECT_EQ(rep.faults_corrected, 1u);
  EXPECT_EQ(fix.pe_faults(1, 2), 1u);
  EXPECT_EQ(c, expect);

  // Unreached: every product from MAC 3 on is zero, so the plan never fires.
  SystolicArray<T> idle(4, 4);
  c = run(true, PeFaultPlan{0, 2, 1, 3}, idle);
  EXPECT_EQ(idle.faults_fired(), 0u);
  EXPECT_EQ(idle.report().faults_detected, 0u);
  EXPECT_TRUE(idle.report().faults.empty());
  EXPECT_TRUE(idle.report().first_uncorrectable.empty());
  EXPECT_EQ(c, expect);
}

TEST(Systolic, ZeroProductPostponesFlipAndUnreachedPlanNeverFires) {
  check_firing_rule<float>();
  check_firing_rule<double>();
}

}  // namespace
}  // namespace fblas::systolic
