// Tests for the generic Level-1 design runner: every Level-1 routine is
// parsed from a JSON spec, emitted, executed in the simulator through the
// generic runner, and compared against the reference BLAS — the complete
// specification -> kernels -> result loop.
#include <gtest/gtest.h>

#include <bit>

#include "codegen/runner.hpp"
#include "common/workload.hpp"
#include "refblas/level1.hpp"

namespace fblas::codegen {
namespace {

GeneratedDesign make(const std::string& blas, const std::string& precision,
                     int width = 8) {
  const std::string json = std::string("{\"routines\": [{\"blas\": \"") +
                           blas + "\", \"precision\": \"" + precision +
                           "\", \"width\": " + std::to_string(width) + "}]}";
  const auto spec = parse_spec(json);
  return emit(spec.routines[0], sim::stratix10());
}

class RunnerPrecision : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerPrecision, ScalCopyAxpy) {
  const std::string prec = GetParam();
  const double tol = prec == "single" ? 1e-4 : 1e-12;
  Workload wl(11);
  Level1Inputs in;
  in.x = wl.vector<double>(100);
  in.y = wl.vector<double>(100);
  in.alpha = 2.5;

  auto r = run_level1(make("scal", prec), stream::Mode::Functional, in);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    EXPECT_NEAR(r.out_x[i], 2.5 * in.x[i], tol);
  }
  r = run_level1(make("copy", prec), stream::Mode::Functional, in);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    EXPECT_NEAR(r.out_x[i], in.x[i], tol);
  }
  r = run_level1(make("axpy", prec), stream::Mode::Cycle, in);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    EXPECT_NEAR(r.out_y[i], 2.5 * in.x[i] + in.y[i], tol);
  }
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(RunnerPrecision, Reductions) {
  const std::string prec = GetParam();
  const double tol = prec == "single" ? 1e-2 : 1e-9;
  Workload wl(12);
  Level1Inputs in;
  in.x = wl.vector<double>(333);
  in.y = wl.vector<double>(333);

  const auto dot = run_level1(make("dot", prec), stream::Mode::Functional, in);
  double expect = 0;
  for (std::size_t i = 0; i < in.x.size(); ++i) expect += in.x[i] * in.y[i];
  EXPECT_NEAR(dot.scalar, expect, tol);

  const auto nrm = run_level1(make("nrm2", prec), stream::Mode::Functional,
                              in);
  double ss = 0;
  for (const double v : in.x) ss += v * v;
  EXPECT_NEAR(nrm.scalar, std::sqrt(ss), tol);

  const auto asum = run_level1(make("asum", prec), stream::Mode::Functional,
                               in);
  double as = 0;
  for (const double v : in.x) as += std::abs(v);
  EXPECT_NEAR(asum.scalar, as, tol);

  const auto imax = run_level1(make("iamax", prec), stream::Mode::Functional,
                               in);
  std::vector<double> xd(in.x.begin(), in.x.end());
  EXPECT_EQ(imax.index, ref::iamax<double>(VectorView<const double>(
                            xd.data(), static_cast<std::int64_t>(xd.size()))));
}

TEST_P(RunnerPrecision, RotAndSwap) {
  const std::string prec = GetParam();
  const double tol = prec == "single" ? 1e-4 : 1e-12;
  Workload wl(13);
  Level1Inputs in;
  in.x = wl.vector<double>(64);
  in.y = wl.vector<double>(64);
  in.c = 0.6;
  in.s = 0.8;
  const auto rot = run_level1(make("rot", prec), stream::Mode::Functional, in);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    EXPECT_NEAR(rot.out_x[i], 0.6 * in.x[i] + 0.8 * in.y[i], tol);
    EXPECT_NEAR(rot.out_y[i], 0.6 * in.y[i] - 0.8 * in.x[i], tol);
  }
  const auto sw = run_level1(make("swap", prec), stream::Mode::Functional, in);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    EXPECT_NEAR(sw.out_x[i], in.y[i], tol);
    EXPECT_NEAR(sw.out_y[i], in.x[i], tol);
  }
}

TEST_P(RunnerPrecision, ScalarSetupRoutines) {
  const std::string prec = GetParam();
  Level1Inputs in;
  in.x = {3.0, 4.0};
  const auto rotg = run_level1(make("rotg", prec), stream::Mode::Functional,
                               in);
  ASSERT_EQ(rotg.out_x.size(), 4u);  // r, z, c, s
  EXPECT_NEAR(std::abs(rotg.out_x[0]), 5.0, 1e-4);
  in.x = {1.5, 0.5, 2.0, 1.0};  // d1, d2, x1, y1
  const auto rotmg = run_level1(make("rotmg", prec), stream::Mode::Functional,
                                in);
  ASSERT_EQ(rotmg.out_x.size(), 8u);  // flag, H, d1', d2', x1'
}

INSTANTIATE_TEST_SUITE_P(BothPrecisions, RunnerPrecision,
                         ::testing::Values("single", "double"));

TEST(Runner, SdsdotSingleOnly) {
  Level1Inputs in;
  in.x = {1e8, 1.0};
  in.y = {1.0, 1.0};
  in.alpha = 1.0;  // the sb offset
  const auto r = run_level1(make("sdsdot", "single", 4),
                            stream::Mode::Functional, in);
  EXPECT_NEAR(r.scalar, 1e8 + 2.0, 16.0);  // double accumulation held
}

TEST(Runner, RejectsLevel2Designs) {
  const auto spec = parse_spec(R"({"routines": [{"blas": "gemv"}]})");
  const auto design = emit(spec.routines[0], sim::stratix10());
  Level1Inputs in;
  in.x = {1.0};
  EXPECT_THROW(run_level1(design, stream::Mode::Functional, in), ConfigError);
}

// Pins run_level1's cycles and output bits for every Level-1 kind, in
// both precisions and both modes (SDSDOT in single precision only), as
// one FNV-1a hash over 50 runs. Every kind gets the same 100-element x,
// so the setup routines must read only its first 2 (ROTG) or 4 (ROTMG)
// values.
TEST(Runner, OutputsAndCyclesPinned) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  auto mix_vector = [&mix](const std::vector<double>& v) {
    mix(v.size());
    for (const double d : v) mix(std::bit_cast<std::uint64_t>(d));
  };
  Workload wl(15);
  Level1Inputs in;
  in.x = wl.vector<double>(100);
  in.y = wl.vector<double>(100);
  in.alpha = -0.75;
  in.c = 0.6;
  in.s = 0.8;
  int runs = 0;
  for (const std::string prec : {"single", "double"}) {
    for (const stream::Mode mode :
         {stream::Mode::Functional, stream::Mode::Cycle}) {
      for (int k = 0; k < kRoutineCount; ++k) {
        const RoutineInfo& info = all_routines()[k];
        if (info.level != 1 ||
            (info.kind == RoutineKind::Sdsdot && prec != "single")) {
          continue;
        }
        const auto r = run_level1(make(std::string(info.name), prec), mode,
                                  in);
        mix(r.cycles);
        mix_vector(r.out_x);
        mix_vector(r.out_y);
        mix(std::bit_cast<std::uint64_t>(r.scalar));
        mix(static_cast<std::uint64_t>(r.index));
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 50);
  EXPECT_EQ(h, 18160205898966400371ULL);
}

TEST(Runner, CycleCountsScaleWithDesignWidth) {
  Workload wl(14);
  Level1Inputs in;
  in.x = wl.vector<double>(4096);
  const auto narrow = run_level1(make("scal", "double", 8),
                                 stream::Mode::Cycle, in);
  const auto wide = run_level1(make("scal", "double", 64),
                               stream::Mode::Cycle, in);
  EXPECT_NEAR(static_cast<double>(narrow.cycles) /
                  static_cast<double>(wide.cycles),
              8.0, 1.5);
}

}  // namespace
}  // namespace fblas::codegen
