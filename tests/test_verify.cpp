// ABFT result verification: checksum checkers at the unit level, and the
// end-to-end silent-data-corruption story — an unverified run provably
// misses silent faults, a verified run catches every one and recovers
// bit-identically through the existing retry/rollback/fallback runtime.
//
// Silent corruption decisions hash (seed, command seq, attempt), like
// every other injected fault, so each test here is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/error.hpp"
#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "stream/graph.hpp"
#include "refblas/batched.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "verify/abft.hpp"
#include "verify/options.hpp"
#include "verify/policy.hpp"

namespace fblas {
namespace {

constexpr double kScale = 32.0;  // default verify::Options tolerance_scale

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);
  p.cpu_fallback = cpu_fallback;
  return p;
}

// --- verify::Options: the unified knob surface ---------------------------

TEST(VerifyOptions, BuilderRoundTripAndValidation) {
  const verify::Options o = verify::Options::sampled(0.5)
                                .tolerance_scale(8.0)
                                .seed(7)
                                .trap_nonfinite()
                                .adaptive();
  EXPECT_EQ(o.policy(), verify::VerifyPolicy::Sampled);
  EXPECT_DOUBLE_EQ(o.sample_rate(), 0.5);
  EXPECT_DOUBLE_EQ(o.tolerance_scale(), 8.0);
  EXPECT_EQ(o.seed(), 7u);
  EXPECT_TRUE(o.trap_nonfinite());
  EXPECT_TRUE(o.adaptive());
  EXPECT_TRUE(o.enabled());
  EXPECT_FALSE(verify::Options::off().enabled());
  EXPECT_EQ(verify::Options::always().policy(), verify::VerifyPolicy::Always);
  EXPECT_EQ(o, o);
  EXPECT_NE(o, verify::Options::always());

  EXPECT_NO_THROW(o.validate());
  EXPECT_THROW(verify::Options::sampled(1.5).validate(), ConfigError);
  EXPECT_THROW(verify::Options::sampled(-0.1).validate(), ConfigError);
  EXPECT_THROW(verify::Options::always().tolerance_scale(0.0).validate(),
               ConfigError);
}

TEST(VerifyComposed, TrsvCompositionChecksumLocalizesCorruption) {
  // A compiled TRSV composition: triangular reader -> solver -> writer.
  // Clean runs verify via the trsv_propagate prediction; a corrupted
  // in-flight value is rejected with the first divergent edge naming the
  // injector's ground-truth channel, and retries recover bit-identically.
  const std::int64_t n = 48;
  Workload wl(91);
  const auto ha = wl.triangular<float>(n, Uplo::Lower, Diag::NonUnit);
  const auto hb = wl.vector<float>(n);

  auto run = [&](bool with_fault, int retries) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 35;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(retries));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, n * n, 0), b(dev, n, 1), x(dev, n, 2);
    a.write(ha);
    b.write(hb);
    x.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

    host::Composition<float> c("trsv_solve");
    const int ra = c.input_triangular("read_A", a, Uplo::Lower);
    const int rb = c.input("read_b", b);
    const int wx = c.output("store_x", x);
    const int tr = c.trsv("trsv", Uplo::Lower);
    c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
    c.connect(rb, tr, mdag::StreamSig::vec(n));
    c.connect(tr, wx, mdag::StreamSig::vec(n));
    std::string diagnosis;
    host::Event e = ctx.run_composition_async(c);
    try {
      e.wait();
    } catch (const VerificationError& err) {
      diagnosis = err.what();
    }
    return std::make_tuple(x.to_host(), diagnosis, ctx.exec_stats(),
                           dev.faults().last_victim());
  };

  // Clean, verified run agrees with refblas.
  const auto [clean, clean_diag, clean_stats, cv] = run(false, 0);
  EXPECT_TRUE(clean_diag.empty());
  EXPECT_EQ(clean_stats.verify_failures, 0u);
  std::vector<float> ref = hb;
  ref::trsv<float>(Uplo::Lower, Transpose::None, Diag::NonUnit,
                   MatrixView<const float>(ha.data(), n, n),
                   VectorView<float>(ref.data(), n));
  ASSERT_EQ(clean.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(clean[i], ref[i], 1e-3) << "at index " << i;
  }

  // Corrupted without retries: rejected, localized to the ground truth.
  const auto [dirty, diag, dstats, victim] = run(true, 0);
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("composition 'trsv_solve'"), std::string::npos);
  EXPECT_NE(diag.find("first divergent edge"), std::string::npos);
  ASSERT_FALSE(victim.empty());
  EXPECT_NE(diag.find("edge '" + victim + "'"), std::string::npos);
  EXPECT_EQ(dstats.sdc_caught, 1u);

  // Corrupted with a retry budget: bit-identical to the clean run.
  const auto [rec, rec_diag, rstats, rv] = run(true, 2);
  EXPECT_TRUE(rec_diag.empty());
  EXPECT_EQ(rec, clean);
  EXPECT_EQ(rstats.sdc_caught, 1u);
  EXPECT_EQ(rstats.retries, 1u);
}

// --- A compiled one-node GER composition ----------------------------------
// The rank-1 update partition the mdag planner emits: read_A / read_x /
// read_y feeding the GER module, writing the updated panel out. Every
// edge, including the module's output, is predicted by the host replay.

TEST(VerifyComposed, GerCompositionAcceptsCleanAndLocalizesCorruption) {
  // Large enough that every injected strike point (the k-th pushed
  // value, k <= 1024) lands inside the run.
  using T = float;
  const std::int64_t rows = 40, cols = 36;
  const T alpha = T(0.5);
  Workload wl(96);
  const auto ha = wl.matrix<T>(rows, cols);
  const auto hx = wl.vector<T>(rows);
  const auto hy = wl.vector<T>(cols);

  auto run = [&](bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 36;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(0));
    ctx.config().verification = verify::Options::always();
    host::Buffer<T> a(dev, rows * cols, 0), x(dev, rows, 1), y(dev, cols, 2);
    host::Buffer<T> out(dev, rows * cols, 3);
    a.write(ha);
    x.write(hx);
    y.write(hy);
    out.write(std::vector<T>(static_cast<std::size_t>(rows * cols), T(0)));

    const host::RoutineConfig& rc = ctx.config();
    const core::GerConfig cfg{core::MatrixTiling::TilesByRows, rc.width,
                              rc.tile_rows, rc.tile_rows};
    host::Composition<T> c("ger");
    const int ra = c.input("read_A", a);
    const int rx = c.input("read_x", x);
    const int ry = c.input("read_y", y);
    const int wa = c.output("store_A", out);
    const int g = c.ger("ger", alpha);
    const auto m_sig =
        mdag::StreamSig::mat(rows, cols, core::ger_a_schedule(cfg));
    c.connect(ra, g, m_sig);
    c.connect(rx, g,
              mdag::StreamSig::vec(rows, core::ger_x_repeat(cfg, rows, cols)));
    c.connect(ry, g,
              mdag::StreamSig::vec(cols, core::ger_y_repeat(cfg, rows, cols)));
    c.connect(g, wa, m_sig);
    std::string diagnosis;
    try {
      ctx.run_composition(c);
    } catch (const VerificationError& err) {
      diagnosis = err.what();
    }
    return std::make_tuple(out.to_host(), diagnosis, ctx.exec_stats(),
                           dev.faults().last_victim());
  };

  {  // Clean run: every edge matches its prediction.
    const auto [out, diag, stats, victim] = run(false);
    EXPECT_TRUE(diag.empty()) << diag;
    EXPECT_EQ(stats.verified, 1u);
    EXPECT_EQ(stats.verify_failures, 0u);
    // The realized panel is the reference rank-1 update.
    auto aref = ha;
    ref::ger(alpha, VectorView<const T>(hx.data(), rows),
             VectorView<const T>(hy.data(), cols),
             MatrixView<T>(aref.data(), rows, cols));
    EXPECT_EQ(out, aref);
  }
  {  // One in-flight value flipped: the checker rejects and names exactly
     // the channel the corruption crossed.
    const auto [out, diag, stats, victim] = run(true);
    ASSERT_FALSE(victim.empty());
    ASSERT_FALSE(diag.empty());
    EXPECT_NE(diag.find("composition 'ger'"), std::string::npos);
    EXPECT_NE(diag.find("edge '" + victim + "'"), std::string::npos);
    EXPECT_NE(diag.find("first divergent edge"), std::string::npos);
    EXPECT_EQ(stats.sdc_caught, 1u);
  }
}

// --- Checker unit tests --------------------------------------------------
// Each checker must accept the reference result of the routine it guards
// (no false positives on clean data) and reject a single corrupted
// element (no false negatives on damage far above rounding).

TEST(VerifyCheckers, GemmRowAndColumnChecksums) {
  const std::int64_t m = 12, n = 10, k = 8;
  Workload wl(70);
  const auto ha = wl.matrix<double>(m, k);
  const auto hb = wl.matrix<double>(k, n);
  const auto hc = wl.matrix<double>(m, n);
  const auto chk = verify::gemm_prepare<double>(
      Transpose::None, Transpose::None, m, n, k, 1.5,
      MatrixView<const double>(ha.data(), m, k),
      MatrixView<const double>(hb.data(), k, n), 0.5,
      MatrixView<const double>(hc.data(), m, n));

  auto c = hc;
  ref::gemm(Transpose::None, Transpose::None, 1.5,
            MatrixView<const double>(ha.data(), m, k),
            MatrixView<const double>(hb.data(), k, n), 0.5,
            MatrixView<double>(c.data(), m, n));
  EXPECT_NO_THROW(verify::gemm_check<double>(
      chk, MatrixView<const double>(c.data(), m, n), kScale));

  auto bad = c;
  bad[static_cast<std::size_t>(3 * n + 7)] += 1e-3;
  try {
    verify::gemm_check<double>(chk, MatrixView<const double>(bad.data(), m, n),
                               kScale);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gemm"), std::string::npos);
    EXPECT_NE(msg.find("silent data corruption"), std::string::npos);
  }
}

TEST(VerifyCheckers, GemmTransposedOperandsChecksum) {
  const std::int64_t m = 9, n = 11, k = 7;
  Workload wl(71);
  const auto ha = wl.matrix<double>(k, m);  // A^T storage
  const auto hb = wl.matrix<double>(n, k);  // B^T storage
  const auto hc = wl.matrix<double>(m, n);
  const auto chk = verify::gemm_prepare<double>(
      Transpose::Trans, Transpose::Trans, m, n, k, -0.75,
      MatrixView<const double>(ha.data(), k, m),
      MatrixView<const double>(hb.data(), n, k), 2.0,
      MatrixView<const double>(hc.data(), m, n));

  auto c = hc;
  ref::gemm(Transpose::Trans, Transpose::Trans, -0.75,
            MatrixView<const double>(ha.data(), k, m),
            MatrixView<const double>(hb.data(), n, k), 2.0,
            MatrixView<double>(c.data(), m, n));
  EXPECT_NO_THROW(verify::gemm_check<double>(
      chk, MatrixView<const double>(c.data(), m, n), kScale));
  c[1] *= 1.0 + 1e-6;
  EXPECT_THROW(verify::gemm_check<double>(
                   chk, MatrixView<const double>(c.data(), m, n), kScale),
               VerificationError);
}

TEST(VerifyCheckers, SyrkTriangleMaskedChecksums) {
  const std::int64_t n = 10, k = 6;
  Workload wl(72);
  const auto ha = wl.matrix<double>(n, k);
  const auto hc = wl.matrix<double>(n, n);
  const auto chk = verify::syrk_prepare<double>(
      Uplo::Lower, Transpose::None, n, k, 1.25,
      MatrixView<const double>(ha.data(), n, k), 0.5,
      MatrixView<const double>(hc.data(), n, n));

  auto c = hc;
  ref::syrk(Uplo::Lower, Transpose::None, 1.25,
            MatrixView<const double>(ha.data(), n, k), 0.5,
            MatrixView<double>(c.data(), n, n));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syrk", MatrixView<const double>(c.data(), n, n), kScale));

  // Corruption inside the stored (lower) triangle is caught...
  auto bad = c;
  bad[static_cast<std::size_t>(7 * n + 2)] += 1e-4;
  EXPECT_THROW(
      verify::check_rowsums<double>(
          chk, "syrk", MatrixView<const double>(bad.data(), n, n), kScale),
      VerificationError);
  // ...while the strict upper triangle is outside SYRK's write-set, so
  // the tri mask must ignore it (BLAS never touches it).
  bad = c;
  bad[static_cast<std::size_t>(2 * n + 7)] += 1e+4;
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syrk", MatrixView<const double>(bad.data(), n, n), kScale));
}

TEST(VerifyCheckers, Syr2kUpperChecksums) {
  const std::int64_t n = 8, k = 5;
  Workload wl(73);
  const auto ha = wl.matrix<double>(n, k);
  const auto hb = wl.matrix<double>(n, k);
  const auto hc = wl.matrix<double>(n, n);
  const auto chk = verify::syr2k_prepare<double>(
      Uplo::Upper, Transpose::None, n, k, 0.5,
      MatrixView<const double>(ha.data(), n, k),
      MatrixView<const double>(hb.data(), n, k), 1.0,
      MatrixView<const double>(hc.data(), n, n));

  auto c = hc;
  ref::syr2k(Uplo::Upper, Transpose::None, 0.5,
             MatrixView<const double>(ha.data(), n, k),
             MatrixView<const double>(hb.data(), n, k), 1.0,
             MatrixView<double>(c.data(), n, n));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syr2k", MatrixView<const double>(c.data(), n, n), kScale));
  c[static_cast<std::size_t>(3 * n + 6)] -= 1e-3;  // stored upper element
  EXPECT_THROW(
      verify::check_rowsums<double>(
          chk, "syr2k", MatrixView<const double>(c.data(), n, n), kScale),
      VerificationError);
}

TEST(VerifyCheckers, TrsmResidualChecksums) {
  const std::int64_t m = 12, n = 6;
  Workload wl(74);
  auto ha = wl.matrix<double>(m, m);
  // Diagonally dominant lower triangle: a well-conditioned solve.
  for (std::int64_t i = 0; i < m; ++i) ha[static_cast<std::size_t>(i * m + i)] += m;
  const auto hb = wl.matrix<double>(m, n);
  const auto chk = verify::trsm_prepare<double>(
      Side::Left, m, n, 2.0, MatrixView<const double>(hb.data(), m, n));

  auto x = hb;
  ref::trsm(Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, 2.0,
            MatrixView<const double>(ha.data(), m, m),
            MatrixView<double>(x.data(), m, n));
  EXPECT_NO_THROW(verify::trsm_check<double>(
      chk, Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, m, n,
      MatrixView<const double>(ha.data(), m, m),
      MatrixView<const double>(x.data(), m, n), kScale));
  x[static_cast<std::size_t>(5 * n + 3)] += 1e-4;
  EXPECT_THROW(verify::trsm_check<double>(
                   chk, Side::Left, Uplo::Lower, Transpose::None,
                   Diag::NonUnit, m, n,
                   MatrixView<const double>(ha.data(), m, m),
                   MatrixView<const double>(x.data(), m, n), kScale),
               VerificationError);
}

TEST(VerifyCheckers, GemvAndGerChecksums) {
  const std::int64_t rows = 14, cols = 9;
  Workload wl(75);
  const auto ha = wl.matrix<double>(rows, cols);
  const auto hx = wl.vector<double>(cols);
  const auto hy = wl.vector<double>(rows);

  const auto gv = verify::gemv_prepare<double>(
      Transpose::None, rows, cols, 1.1,
      MatrixView<const double>(ha.data(), rows, cols),
      VectorView<const double>(hx.data(), cols), -0.4,
      VectorView<const double>(hy.data(), rows));
  auto y = hy;
  ref::gemv(Transpose::None, 1.1, MatrixView<const double>(ha.data(), rows, cols),
            VectorView<const double>(hx.data(), cols), -0.4,
            VectorView<double>(y.data(), rows));
  EXPECT_NO_THROW(verify::check_sum<double>(
      gv, "gemv", VectorView<const double>(y.data(), rows), kScale));
  y[4] += 1e-5;
  EXPECT_THROW(verify::check_sum<double>(
                   gv, "gemv", VectorView<const double>(y.data(), rows),
                   kScale),
               VerificationError);

  const auto hyc = wl.vector<double>(cols);
  const auto gr = verify::ger_prepare<double>(
      rows, cols, 0.8, VectorView<const double>(hy.data(), rows),
      VectorView<const double>(hyc.data(), cols),
      MatrixView<const double>(ha.data(), rows, cols));
  auto a = ha;
  ref::ger(0.8, VectorView<const double>(hy.data(), rows),
           VectorView<const double>(hyc.data(), cols),
           MatrixView<double>(a.data(), rows, cols));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      gr, "ger", MatrixView<const double>(a.data(), rows, cols), kScale));
  a[3] *= 1.0 + 1e-7;
  EXPECT_THROW(
      verify::check_rowsums<double>(
          gr, "ger", MatrixView<const double>(a.data(), rows, cols), kScale),
      VerificationError);
}

TEST(VerifyCheckers, SingleElementChecksFloat) {
  const std::int64_t n = 64;
  Workload wl(76);
  const auto hx = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  const VectorView<const float> x(hx.data(), n), y(hy.data(), n);

  const float d = ref::dot(x, y);
  EXPECT_NO_THROW(verify::dot_check<float>(x, y, d, kScale));
  EXPECT_THROW(verify::dot_check<float>(x, y, d + 0.5f, kScale),
               VerificationError);

  const float nrm = ref::nrm2(x);
  EXPECT_NO_THROW(verify::nrm2_check<float>(x, nrm, kScale));
  EXPECT_THROW(verify::nrm2_check<float>(x, -nrm, kScale), VerificationError);
  EXPECT_THROW(verify::nrm2_check<float>(x, nrm * 4.0f, kScale),
               VerificationError);

  const float s = ref::asum(x);
  EXPECT_NO_THROW(verify::asum_check<float>(x, s, kScale));
  EXPECT_THROW(verify::asum_check<float>(x, s * 1.5f, kScale),
               VerificationError);

  const std::int64_t idx = ref::iamax(x);
  EXPECT_NO_THROW(verify::iamax_check<float>(x, idx));
  EXPECT_THROW(verify::iamax_check<float>(x, (idx + 1) % n),
               VerificationError);
  EXPECT_THROW(verify::iamax_check<float>(x, n), VerificationError);
  EXPECT_NO_THROW(
      verify::iamax_check<float>(VectorView<const float>(hx.data(), 0), -1));
}

TEST(VerifyCheckers, NonFinitePredictionsSkipInsteadOfRejecting) {
  // NaN in the inputs poisons the checksum prediction; that is the taint
  // channel's territory, not a corruption verdict — the checker skips.
  const std::int64_t n = 16;
  Workload wl(77);
  auto hx = wl.vector<double>(n);
  hx[5] = std::numeric_limits<double>::quiet_NaN();
  const auto chk =
      verify::scal_prepare<double>(2.0, VectorView<const double>(hx.data(), n));
  auto out = hx;
  for (auto& v : out) v *= 2.0;
  EXPECT_NO_THROW(verify::check_sum<double>(
      chk, "scal", VectorView<const double>(out.data(), n), kScale));
}

// --- Prediction oracle ---------------------------------------------------
// Every prediction against the refblas routine run in double on the same
// inputs: each predicted sum is the stored-span sum of the result, each
// magnitude the same sum of the routine run on absolute values
// (|alpha|·|U|·|V|^T + |beta|·|C0|), and `terms` the routine's
// accumulation count.

template <typename T>
std::vector<double> widen(const std::vector<T>& v) {
  return {v.begin(), v.end()};
}

std::vector<double> absolute(std::vector<double> v) {
  for (double& x : v) x = std::abs(x);
  return v;
}

MatrixView<const double> cmat(const std::vector<double>& v, std::int64_t r,
                              std::int64_t c) {
  return {v.data(), r, c};
}

MatrixView<double> mat(std::vector<double>& v, std::int64_t r,
                       std::int64_t c) {
  return {v.data(), r, c};
}

VectorView<const double> cvec(const std::vector<double>& v) {
  return {v.data(), static_cast<std::int64_t>(v.size())};
}

/// Checks `pred`/`mag` against the stored-span sums (`tri` as in
/// RowSumCheck) of the rows x cols results `val` and `abs`: per row, or
/// per column when `by_col`. `slack` widens the sum's tolerance beyond
/// 1e-12 of the magnitude.
void expect_span_sums(const std::string& what,
                      const std::vector<double>& pred,
                      const std::vector<double>& mag,
                      const std::vector<double>& val,
                      const std::vector<double>& abs, std::int64_t rows,
                      std::int64_t cols, int tri = 0, bool by_col = false,
                      const std::vector<double>& slack = {}) {
  const std::int64_t lines = by_col ? cols : rows;
  const std::int64_t len = by_col ? rows : cols;
  ASSERT_EQ(pred.size(), static_cast<std::size_t>(lines)) << what;
  ASSERT_EQ(mag.size(), pred.size()) << what;
  for (std::int64_t i = 0; i < lines; ++i) {
    double s = 0.0, g = 0.0;
    for (std::int64_t j = tri < 0 ? i : 0; j < (tri > 0 ? i + 1 : len); ++j) {
      const auto at = static_cast<std::size_t>(by_col ? j * cols + i
                                                      : i * cols + j);
      s += val[at];
      g += abs[at];
    }
    const auto u = static_cast<std::size_t>(i);
    const double wide = slack.empty() ? 0.0 : slack[u];
    EXPECT_LE(std::abs(pred[u] - s), 1e-12 * (g + wide)) << what << " [" << i
                                                         << "]";
    EXPECT_LE(std::abs(mag[u] - g), 1e-12 * g) << what << " magnitude [" << i
                                               << "]";
  }
}

/// One ScalarCheck against the sum of the vector results `val` / `abs`.
void expect_scalar(const std::string& what, const verify::ScalarCheck& chk,
                   const std::vector<double>& val,
                   const std::vector<double>& abs, std::int64_t terms) {
  expect_span_sums(what, {chk.pred}, {chk.mag}, val, abs, 1,
                   static_cast<std::int64_t>(val.size()));
  EXPECT_EQ(chk.terms, terms) << what;
  EXPECT_FALSE(chk.skip) << what;
}

template <typename T>
void predictions_match_double_oracle() {
  using M = MatrixView<const T>;
  using V = VectorView<const T>;
  using VD = VectorView<double>;
  const std::string tname = std::is_same_v<T, float> ? "float " : "double ";
  const std::int64_t extents[] = {0, 1, 7, 33};
  const double alphas[] = {0.0, -0.75};
  const double betas[] = {0.0, 0.5, 1.0};
  const Transpose transposes[] = {Transpose::None, Transpose::Trans};
  const Uplo uplos[] = {Uplo::Lower, Uplo::Upper};
  Workload wl(91);

  // --- Level 1: SCAL, COPY, AXPY and the 2x2 maps.
  for (const std::int64_t n : extents) {
    const auto hx = wl.vector<T>(n), hy = wl.vector<T>(n);
    const V vx(hx.data(), n), vy(hy.data(), n);
    const auto x = widen(hx), y = widen(hy);
    const auto ax = absolute(x), ay = absolute(y);
    expect_scalar(tname + "copy", verify::copy_prepare<T>(vx), x, ax, n);
    // SWAP, ROT and ROTM: refblas on the values, |h| on the magnitudes.
    const auto pair = [&](const std::string& what, std::array<T, 4> h,
                          auto apply) {
      auto ox = x, oy = y;
      apply(VD(ox), VD(oy));
      std::vector<double> gx(ax.size()), gy(ay.size());
      for (std::size_t i = 0; i < gx.size(); ++i) {
        gx[i] = std::abs(double(h[0])) * ax[i] + std::abs(double(h[1])) * ay[i];
        gy[i] = std::abs(double(h[2])) * ax[i] + std::abs(double(h[3])) * ay[i];
      }
      const auto nnz = [n](T a, T b) {
        return (int{a != T(0)} + int{b != T(0)}) * n;
      };
      const verify::PairCheck chk = verify::pair_prepare<T>(vx, vy, h);
      expect_scalar(tname + what + "(x)", chk.x, ox, gx, nnz(h[0], h[1]));
      expect_scalar(tname + what + "(y)", chk.y, oy, gy, nnz(h[2], h[3]));
    };
    pair("swap", {0, 1, 1, 0}, [](VD a, VD b) { ref::swap(a, b); });
    for (const double al : alphas) {
      const T ta = static_cast<T>(al);
      auto v = x, g = ax;
      ref::scal(al, VD(v));
      ref::scal(std::abs(al), VD(g));
      expect_scalar(tname + "scal", verify::scal_prepare<T>(ta, vx), v, g, n);
      v = y;
      g = ay;
      ref::axpy(al, cvec(x), VD(v));
      ref::axpy(std::abs(al), cvec(ax), VD(g));
      expect_scalar(tname + "axpy", verify::axpy_prepare<T>(ta, vx, vy), v, g,
                    2 * n);
      for (const double be : betas) {
        const T tb = static_cast<T>(be);
        pair("rot", {ta, tb, T(-tb), ta},
             [&](VD a, VD b) { ref::rot(a, b, double(ta), double(tb)); });
        for (const T flag : {T(-2), T(-1), T(0), T(1)}) {
          const ref::RotmParam<T> p{flag, ta, T(0.3), tb, T(-0.6)};
          pair("rotm" + std::to_string(int(flag)), p.matrix(), [&](VD a, VD b) {
            ref::rotm(a, b,
                      ref::RotmParam<double>{double(p.flag), double(p.h11),
                                             double(p.h21), double(p.h12),
                                             double(p.h22)});
          });
        }
      }
    }
  }

  // --- GEMV (eᵀy), GER, SYR, SYR2.
  for (const std::int64_t rows : extents) {
    for (const std::int64_t cols : extents) {
      const auto ha = wl.matrix<T>(rows, cols);
      const auto a = widen(ha), aa = absolute(a);
      for (const double al : alphas) {
        for (const Transpose tr : transposes) {
          const std::int64_t xlen = tr == Transpose::None ? cols : rows;
          const std::int64_t ylen = tr == Transpose::None ? rows : cols;
          const auto hx = wl.vector<T>(xlen), hy = wl.vector<T>(ylen);
          for (const double be : betas) {
            auto v = widen(hy), g = absolute(v);
            ref::gemv(tr, al, cmat(a, rows, cols), cvec(widen(hx)), be, VD(v));
            ref::gemv(tr, std::abs(al), cmat(aa, rows, cols),
                      cvec(absolute(widen(hx))), std::abs(be), VD(g));
            expect_scalar(tname + "gemv",
                          verify::gemv_prepare<T>(
                              tr, rows, cols, static_cast<T>(al),
                              M(ha.data(), rows, cols), V(hx.data(), xlen),
                              static_cast<T>(be), V(hy.data(), ylen)),
                          v, g, xlen + ylen);
          }
        }
        const auto hx = wl.vector<T>(rows), hy = wl.vector<T>(cols);
        const auto x = widen(hx), y = widen(hy);
        auto v = a, g = aa;
        ref::ger(al, cvec(x), cvec(y), mat(v, rows, cols));
        ref::ger(std::abs(al), cvec(absolute(x)), cvec(absolute(y)),
                 mat(g, rows, cols));
        const verify::RowSumCheck chk = verify::ger_prepare<T>(
            rows, cols, static_cast<T>(al), V(hx.data(), rows),
            V(hy.data(), cols), M(ha.data(), rows, cols));
        expect_span_sums(tname + "ger", chk.pred, chk.mag, v, g, rows, cols);
        EXPECT_EQ(chk.terms, cols + 2);
        EXPECT_EQ(chk.tri, 0);
        EXPECT_FALSE(chk.skip);
        if (rows != cols) continue;
        const std::int64_t n = rows;
        for (const Uplo uplo : uplos) {
          const int tri = uplo == Uplo::Lower ? 1 : -1;
          const auto check = [&](const std::string& what,
                                 const verify::RowSumCheck& c,
                                 const std::vector<double>& val,
                                 const std::vector<double>& abs) {
            expect_span_sums(tname + what, c.pred, c.mag, val, abs, n, n, tri);
            EXPECT_EQ(c.terms, n + 2) << what;
            EXPECT_EQ(c.tri, tri) << what;
            EXPECT_FALSE(c.skip) << what;
          };
          v = a;
          g = aa;
          ref::syr(uplo, al, cvec(x), mat(v, n, n));
          ref::syr(uplo, std::abs(al), cvec(absolute(x)), mat(g, n, n));
          check("syr",
                verify::syr_prepare<T>(uplo, n, static_cast<T>(al),
                                       V(hx.data(), n), M(ha.data(), n, n)),
                v, g);
          v = a;
          g = aa;
          ref::syr2(uplo, al, cvec(x), cvec(y), mat(v, n, n));
          ref::syr2(uplo, std::abs(al), cvec(absolute(x)), cvec(absolute(y)),
                    mat(g, n, n));
          check("syr2",
                verify::syr2_prepare<T>(uplo, n, static_cast<T>(al),
                                        V(hx.data(), n), V(hy.data(), n),
                                        M(ha.data(), n, n)),
                v, g);
        }
      }
    }
  }

  // --- SYRK, SYR2K, GEMM.
  for (const std::int64_t n : extents) {
    for (const std::int64_t k : extents) {
      const auto hc = wl.matrix<T>(n, n);
      const auto c = widen(hc), ac = absolute(c);
      for (const Transpose tr : transposes) {
        const std::int64_t ar = tr == Transpose::None ? n : k;
        const std::int64_t acols = tr == Transpose::None ? k : n;
        const auto ha = wl.matrix<T>(ar, acols), hb = wl.matrix<T>(ar, acols);
        const auto a = widen(ha), b = widen(hb);
        const auto aa = absolute(a), ab = absolute(b);
        for (const Uplo uplo : uplos) {
          const int tri = uplo == Uplo::Lower ? 1 : -1;
          for (const double al : alphas) {
            for (const double be : betas) {
              const auto check = [&](const std::string& what,
                                     const verify::RowSumCheck& chk,
                                     const std::vector<double>& val,
                                     const std::vector<double>& abs) {
                expect_span_sums(tname + what, chk.pred, chk.mag, val, abs, n,
                                 n, tri);
                EXPECT_EQ(chk.terms, n + k) << what;
                EXPECT_EQ(chk.tri, tri) << what;
                EXPECT_FALSE(chk.skip) << what;
              };
              auto v = c, g = ac;
              ref::syrk(uplo, tr, al, cmat(a, ar, acols), be, mat(v, n, n));
              ref::syrk(uplo, tr, std::abs(al), cmat(aa, ar, acols),
                        std::abs(be), mat(g, n, n));
              check("syrk",
                    verify::syrk_prepare<T>(uplo, tr, n, k, static_cast<T>(al),
                                            M(ha.data(), ar, acols),
                                            static_cast<T>(be),
                                            M(hc.data(), n, n)),
                    v, g);
              v = c;
              g = ac;
              ref::syr2k(uplo, tr, al, cmat(a, ar, acols), cmat(b, ar, acols),
                         be, mat(v, n, n));
              ref::syr2k(uplo, tr, std::abs(al), cmat(aa, ar, acols),
                         cmat(ab, ar, acols), std::abs(be), mat(g, n, n));
              check("syr2k",
                    verify::syr2k_prepare<T>(
                        uplo, tr, n, k, static_cast<T>(al),
                        M(ha.data(), ar, acols), M(hb.data(), ar, acols),
                        static_cast<T>(be), M(hc.data(), n, n)),
                    v, g);
            }
          }
        }
      }
      for (const std::int64_t m : extents) {
        for (const Transpose ta : transposes) {
          for (const Transpose tb : transposes) {
            const std::int64_t ar = ta == Transpose::None ? m : k;
            const std::int64_t acols = ta == Transpose::None ? k : m;
            const std::int64_t br = tb == Transpose::None ? k : n;
            const std::int64_t bcols = tb == Transpose::None ? n : k;
            const auto ha = wl.matrix<T>(ar, acols), hb = wl.matrix<T>(br, bcols);
            const auto h0 = wl.matrix<T>(m, n);
            const auto a = widen(ha), b = widen(hb), c0 = widen(h0);
            for (const double al : alphas) {
              for (const double be : betas) {
                auto v = c0, g = absolute(c0);
                ref::gemm(ta, tb, al, cmat(a, ar, acols), cmat(b, br, bcols),
                          be, mat(v, m, n));
                ref::gemm(ta, tb, std::abs(al), cmat(absolute(a), ar, acols),
                          cmat(absolute(b), br, bcols), std::abs(be),
                          mat(g, m, n));
                const auto chk = verify::gemm_prepare<T>(
                    ta, tb, m, n, k, static_cast<T>(al),
                    M(ha.data(), ar, acols), M(hb.data(), br, bcols),
                    static_cast<T>(be), M(h0.data(), m, n));
                expect_span_sums(tname + "gemm rows", chk.rows.pred,
                                 chk.rows.mag, v, g, m, n);
                expect_span_sums(tname + "gemm columns", chk.col_pred,
                                 chk.col_mag, v, g, m, n, 0, true);
                EXPECT_EQ(chk.rows.terms, k + n);
                EXPECT_EQ(chk.col_terms, k + m);
                EXPECT_FALSE(chk.skip);
              }
            }
          }
        }
      }
    }
  }

  // --- TRSM: alpha·B0 per solve-dimension line equals op(A)·(X·e) (Left)
  // or (eᵀ·X)·op(A) (Right) of the double solve X, within 1e-12 of both
  // sides' magnitudes. The input also holds values off its triangle and,
  // for a unit diagonal, on it: the solve must not read them.
  for (const Side side : {Side::Left, Side::Right}) {
    for (const std::int64_t m : extents) {
      for (const std::int64_t n : extents) {
        const std::int64_t dim = side == Side::Left ? m : n;
        const auto hb = wl.matrix<T>(m, n);
        for (const Uplo uplo : uplos) {
          for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
            auto ha = wl.triangular<T>(dim, uplo, diag);
            auto opa = widen(ha);  // stored triangle, implicit unit diagonal
            for (std::int64_t i = 0; i < dim; ++i) {
              for (std::int64_t j = 0; j < dim; ++j) {
                const bool stored = uplo == Uplo::Lower ? j <= i : j >= i;
                if (!stored || (i == j && diag == Diag::Unit)) {
                  ha[static_cast<std::size_t>(i * dim + j)] = T(7);
                }
              }
            }
            for (const Transpose tr : transposes) {
              for (const double al : alphas) {
                auto x = widen(hb);
                ref::trsm(side, uplo, tr, diag, al, cmat(widen(ha), dim, dim),
                          mat(x, m, n));
                std::vector<double> r(x.size()), rabs(x.size());
                const auto ta = side == Side::Left ? tr : Transpose::None;
                const auto tb = side == Side::Left ? Transpose::None : tr;
                const auto& lhs = side == Side::Left ? opa : x;
                const auto& rhs = side == Side::Left ? x : opa;
                const std::int64_t lc = side == Side::Left ? dim : n;
                ref::gemm(ta, tb, 1.0, cmat(lhs, m, lc), cmat(rhs, lc, n),
                          0.0, mat(r, m, n));
                ref::gemm(ta, tb, 1.0, cmat(absolute(lhs), m, lc),
                          cmat(absolute(rhs), lc, n), 0.0, mat(rabs, m, n));
                // |alpha|·|B0|, and the residual side's magnitude as slack.
                auto g = absolute(widen(hb));
                for (double& e : g) e *= std::abs(al);
                std::vector<double> slack(static_cast<std::size_t>(dim), 0.0);
                const bool by_col = side == Side::Right;
                for (std::int64_t i = 0; i < m; ++i) {
                  for (std::int64_t j = 0; j < n; ++j) {
                    slack[static_cast<std::size_t>(by_col ? j : i)] +=
                        rabs[static_cast<std::size_t>(i * n + j)];
                  }
                }
                const auto chk = verify::trsm_prepare<T>(
                    side, m, n, static_cast<T>(al), M(hb.data(), m, n));
                expect_span_sums(tname + "trsm", chk.pred, chk.mag, r, g, m, n,
                                 0, by_col, slack);
                EXPECT_FALSE(chk.skip);
              }
            }
          }
        }
      }
    }
  }
}

TEST(VerifyCheckers, PredictionsMatchDoubleOracle) {
  predictions_match_double_oracle<float>();
  predictions_match_double_oracle<double>();
}

// TRSM's residual on both sides and TRSV's over every triangle,
// transpose and diagonal: the clean solve is accepted and one corrupted
// element rejected. The matrix holds 7s off its triangle and, for a unit
// diagonal, on it, so a residual that reads them rejects the clean solve.
template <typename T>
void solve_residuals_every_triangle() {
  using M = MatrixView<const T>;
  const std::int64_t m = 9, n = 5;
  Workload wl(92);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose tr : {Transpose::None, Transpose::Trans}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        const auto matrix = [&](std::int64_t dim) {
          auto a = wl.triangular<T>(dim, uplo, diag);
          for (std::int64_t i = 0; i < dim; ++i) {
            for (std::int64_t j = 0; j < dim; ++j) {
              const bool stored = uplo == Uplo::Lower ? j <= i : j >= i;
              if (!stored || (i == j && diag == Diag::Unit)) {
                a[static_cast<std::size_t>(i * dim + j)] = T(7);
              }
            }
          }
          return a;
        };
        for (const Side side : {Side::Left, Side::Right}) {
          SCOPED_TRACE(testing::Message()
                       << "trsm side " << int(side) << " uplo " << int(uplo)
                       << " trans " << int(tr) << " diag " << int(diag));
          const std::int64_t dim = side == Side::Left ? m : n;
          const auto ha = matrix(dim);
          const auto hb = wl.matrix<T>(m, n);
          const auto chk = verify::trsm_prepare<T>(side, m, n, T(1.5),
                                                   M(hb.data(), m, n));
          auto x = hb;
          ref::trsm<T>(side, uplo, tr, diag, T(1.5), M(ha.data(), dim, dim),
                       MatrixView<T>(x.data(), m, n));
          const auto check = [&] {
            verify::trsm_check<T>(chk, side, uplo, tr, diag, m, n,
                                  M(ha.data(), dim, dim), M(x.data(), m, n),
                                  kScale);
          };
          EXPECT_NO_THROW(check());
          x[7] += T(0.25);
          EXPECT_THROW(check(), VerificationError);
        }
        SCOPED_TRACE(testing::Message() << "trsv uplo " << int(uplo)
                                        << " trans " << int(tr) << " diag "
                                        << int(diag));
        const auto ha = matrix(m);
        const auto hb = wl.vector<T>(m);
        const auto chk =
            verify::trsv_prepare<T>(m, VectorView<const T>(hb.data(), m));
        auto x = hb;
        ref::trsv<T>(uplo, tr, diag, M(ha.data(), m, m),
                     VectorView<T>(x.data(), m));
        const auto check = [&] {
          verify::trsv_check<T>(chk, uplo, tr, diag, m, M(ha.data(), m, m),
                                VectorView<const T>(x.data(), m), kScale);
        };
        EXPECT_NO_THROW(check());
        x[4] += T(0.25);
        EXPECT_THROW(check(), VerificationError);
      }
    }
  }
}

TEST(VerifyCheckers, SolveResidualsEveryTriangleAndDiagonal) {
  solve_residuals_every_triangle<float>();
  solve_residuals_every_triangle<double>();
}

// The host replay's non-transposed GEMV sweeps x for four rows at once;
// every row must still be the one-row loop's sum over ascending j, bit
// for bit, for every row count around the block of four, on strided x
// and y and a padded leading dimension.
template <typename T>
void four_row_gemv_matches_one_row_loop() {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  Workload w(0x9e3779b97f4a7c15ULL + sizeof(T));
  for (std::int64_t n = 1; n <= 9; ++n) {
    for (const std::int64_t m : {0, 1, 3, 8, 13, 64}) {
      const std::int64_t ld = m + 2, incx = 2, incy = 3;
      const std::vector<T> a = w.vector<T>(n * ld + 1, -2.0, 2.0);
      const std::vector<T> x = w.vector<T>(m * incx + 1, -2.0, 2.0);
      std::vector<T> y = w.vector<T>(n * incy + 1, -2.0, 2.0);
      std::vector<T> want = y;
      const T alpha = static_cast<T>(w.uniform(-1.5, 1.5));
      const T beta = static_cast<T>(w.uniform(-1.5, 1.5));
      const MatrixView<const T> A(a.data(), n, m, ld);
      for (std::int64_t i = 0; i < n; ++i) {
        T acc = T(0);
        for (std::int64_t j = 0; j < m; ++j) acc += A(i, j) * x[j * incx];
        want[i * incy] = alpha * acc + beta * want[i * incy];
      }
      ref::gemv<T>(Transpose::None, alpha, A,
                   VectorView<const T>(x.data(), m, incx), beta,
                   VectorView<T>(y.data(), n, incy));
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(std::bit_cast<Bits>(y[i]), std::bit_cast<Bits>(want[i]))
            << "n " << n << " m " << m << " element " << i;
      }
    }
  }
}

TEST(VerifyReplay, FourRowGemvMatchesOneRowLoop) {
  four_row_gemv_matches_one_row_loop<float>();
  four_row_gemv_matches_one_row_loop<double>();
}

TEST(VerifySampling, DeterministicAndProportional) {
  EXPECT_FALSE(verify::sampled(1, 42, 0.0));
  EXPECT_TRUE(verify::sampled(1, 42, 1.0));
  int hits = 0;
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    const bool a = verify::sampled(9, seq, 0.25);
    const bool b = verify::sampled(9, seq, 0.25);
    EXPECT_EQ(a, b);  // pure in (seed, seq)
    hits += a ? 1 : 0;
  }
  EXPECT_GT(hits, 180);  // ~250 expected
  EXPECT_LT(hits, 320);
}

// --- End-to-end: silent corruption through the host runtime --------------

TEST(VerifyRuntime, UnverifiedBaselineMissesSilentCorruption) {
  // One silent fault, no verification: the command completes Ok, the
  // result is wrong, and nothing in the stats hints at the damage —
  // exactly the failure mode ABFT exists for.
  const std::int64_t m = 24, n = 20, k = 16;
  Workload wl(80);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto hc = wl.matrix<float>(m, n);

  auto run = [&](bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 21;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
    a.write(ha);
    b.write(hb);
    c.write(hc);
    host::Event e = ctx.gemm_async<float>(Transpose::None, Transpose::None,
                                          m, n, k, 1.5f, a, b, 0.5f, c);
    e.wait();
    return std::make_tuple(c.to_host(), e.status(), ctx.exec_stats());
  };

  const auto [clean, clean_st, clean_stats] = run(false);
  const auto [dirty, dirty_st, dirty_stats] = run(true);
  EXPECT_TRUE(clean_st.ok());
  EXPECT_TRUE(dirty_st.ok());  // the device lied and nobody noticed
  EXPECT_NE(clean, dirty);
  EXPECT_EQ(dirty_stats.faults_injected, 1u);
  EXPECT_EQ(dirty_stats.sdc_caught, 0u);
  EXPECT_EQ(dirty_stats.verified, 0u);
}

TEST(VerifyRuntime, AlwaysCatchesSilentCorruptionAndRecoversBitIdentical) {
  // Two budgeted silent faults under Always + retry: both attempts are
  // rejected by the checksum, rolled back, and the third (clean) attempt
  // produces bits identical to a fault-free run.
  const std::int64_t m = 24, n = 20, k = 16;
  Workload wl(81);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto hc = wl.matrix<float>(m, n);

  auto run = [&](bool with_faults) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 22;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 2;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(3));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
    a.write(ha);
    b.write(hb);
    c.write(hc);
    host::Event e = ctx.gemm_async<float>(Transpose::None, Transpose::None,
                                          m, n, k, 1.5f, a, b, 0.5f, c);
    e.wait();
    return std::make_tuple(c.to_host(), e.status(), ctx.exec_stats());
  };

  const auto [clean, clean_st, clean_stats] = run(false);
  const auto [rec, rec_st, rec_stats] = run(true);
  EXPECT_EQ(clean, rec);  // recovered, bit-identical
  EXPECT_TRUE(rec_st.ok());
  EXPECT_EQ(rec_st.verify_rejections, 2u);
  EXPECT_EQ(rec_stats.faults_injected, 2u);
  EXPECT_EQ(rec_stats.sdc_caught, 2u);
  EXPECT_EQ(rec_stats.verify_failures, 2u);
  EXPECT_EQ(rec_stats.retries, 2u);
  EXPECT_EQ(rec_stats.verified, 3u);  // every attempt was checked
  EXPECT_EQ(clean_stats.verified, 1u);
  EXPECT_EQ(clean_stats.sdc_caught, 0u);
}

TEST(VerifyRuntime, VerifyRejectionWithoutRetryFailsTransactionally) {
  // No retry budget: the rejection surfaces as VerificationError, but the
  // write-set was rolled back first — the buffer holds pre-command bytes,
  // never the corrupted result.
  const std::int64_t n = 64;
  const auto hx = Workload(82).vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 23;
  fc.silent_corrupt_rate = 1.0;
  dev.inject_faults(fc);
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
  EXPECT_THROW(e.wait(), VerificationError);
  EXPECT_EQ(x.to_host(), hx);  // not half-scaled, not corrupted
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.failed());
  EXPECT_EQ(st.verify_rejections, 1u);
  EXPECT_NE(st.message.find("ABFT verification failed"), std::string::npos);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(VerifyRuntime, VerifyExhaustionDegradesToCpuFallback) {
  // Unlimited silent corruption: every device attempt is rejected; after
  // retries the CPU reference path serves the (correct) result and the
  // command reports Degraded — same path as any other persistent fault.
  const std::int64_t n = 96;
  Workload wl(83);
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 24;
  fc.silent_corrupt_rate = 1.0;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0), y(dev, n, 1);
  x.write(hx);
  y.write(hy);
  host::Event e = ctx.axpy_async<float>(n, 2.0f, x, 1, y, 1);
  EXPECT_NO_THROW(e.wait());

  ref::axpy(2.0f, VectorView<const float>(hx.data(), n),
            VectorView<float>(hy.data(), n));
  EXPECT_EQ(y.to_host(), hy);
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.degraded());
  EXPECT_NE(st.message.find("degraded to CPU fallback"), std::string::npos);
  EXPECT_NE(st.message.find("ABFT verification failed"), std::string::npos);
  EXPECT_EQ(st.verify_rejections, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(ctx.exec_stats().degraded, 1u);
}

// The batched GEMM/TRSM commands carry checkers and refblas fallbacks
// like every other routine: one silent write-back fault is caught and
// retried to the fault-free bits, and a device that never launches
// degrades to the CPU reference result.
TEST(VerifyRuntime, BatchedSilentCorruptionCaughtAndFallbackDegrades) {
  const std::int64_t s = 4, batch = 64, elems = batch * s * s;
  Workload wl(88);
  const auto ha = wl.matrix<float>(batch * s, s);
  const auto hb = wl.matrix<float>(batch * s, s);
  std::vector<float> htri;
  for (std::int64_t i = 0; i < batch; ++i) {
    const auto t = wl.triangular<float>(s, Uplo::Lower, Diag::NonUnit);
    htri.insert(htri.end(), t.begin(), t.end());
  }
  // Runs one batched routine under Always; returns its output, status
  // and the run's stats.
  auto run = [&](const std::string& routine, const host::FaultConfig* fc,
                 host::RetryPolicy retry) {
    host::Device dev;
    host::Context ctx(dev);
    if (fc != nullptr) dev.inject_faults(*fc);
    ctx.set_retry_policy(retry);
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, elems, 0), b(dev, elems, 1), c(dev, elems, 2);
    b.write(hb);
    host::Event e;
    if (routine == "gemm_batched") {
      a.write(ha);
      e = ctx.gemm_batched_async<float>(s, batch, 1.5f, a, b, c);
    } else {
      a.write(htri);
      e = ctx.trsm_batched_async<float>(s, batch, 2.0f, a, b);
    }
    e.wait();
    return std::make_tuple(routine == "gemm_batched" ? c.to_host()
                                                     : b.to_host(),
                           e.status(), ctx.exec_stats());
  };
  for (const std::string routine : {"gemm_batched", "trsm_batched"}) {
    SCOPED_TRACE(routine);
    const auto [clean, clean_st, clean_stats] =
        run(routine, nullptr, fast_retry(3));
    EXPECT_TRUE(clean_st.ok());
    EXPECT_EQ(clean_stats.verified, 1u);

    host::FaultConfig silent;
    silent.seed = 29;
    silent.silent_corrupt_rate = 1.0;
    silent.max_faults = 1;
    const auto [rec, rec_st, rec_stats] = run(routine, &silent, fast_retry(3));
    EXPECT_EQ(rec, clean);  // recovered, bit-identical
    EXPECT_TRUE(rec_st.ok());
    EXPECT_EQ(rec_stats.faults_injected, 1u);
    EXPECT_EQ(rec_stats.sdc_caught, 1u);
    EXPECT_EQ(rec_stats.verified, 2u);

    host::FaultConfig dead;
    dead.seed = 30;
    dead.launch_fail_rate = 1.0;
    const auto [fb, fb_st, fb_stats] =
        run(routine, &dead, fast_retry(3, /*cpu_fallback=*/true));
    std::vector<float> want = hb;  // TRSM solves in place
    if (routine == "gemm_batched") {
      want.assign(want.size(), 0.0f);
      ref::gemm_batched<float>(batch, s, 1.5f, ha.data(), hb.data(), 0.0f,
                               want.data());
    } else {
      ref::trsm_batched<float>(batch, s, 2.0f, htri.data(), want.data());
    }
    EXPECT_TRUE(fb_st.degraded());
    EXPECT_EQ(fb, want);
    EXPECT_EQ(fb_stats.degraded, 1u);
  }
}

// ROTM applies a linear 2x2 map per flag, SDSDOT is a DOT plus an
// offset, and SYMV/TRMV are GEMVs on the expanded triangle, so all four
// carry checkers: one silent write-back fault on ROTM, SYMV or TRMV and
// one channel fault on SDSDOT are caught and retried to a result
// bit-identical to a fault-free run.
TEST(VerifyRuntime, RotmAndSdsdotFaultsCaughtAndRecoveredBitIdentical) {
  const std::int64_t n = 2000, tn = 64;
  Workload wl(86);
  const auto hx = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  const auto ha = wl.matrix<float>(tn, tn);
  const ref::RotmParam<float> p{-1.0f, 0.8f, -0.3f, 0.4f, 0.9f};

  // Runs `routine` with at most one fault (a channel fault for SDSDOT, a
  // silent write-back fault otherwise); returns the outputs, the command
  // status and the run's stats.
  auto run = [&](const std::string& routine, bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 26;
      (routine == "sdsdot" ? fc.channel_corrupt_rate
                           : fc.silent_corrupt_rate) = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
    ctx.config().verification = verify::Options::always();
    // Vectors span exactly what the routine touches, so the silent fault
    // always lands on a live element.
    const bool gemv_based = routine == "symv" || routine == "trmv";
    const std::int64_t len = gemv_based ? tn : n;
    host::Buffer<float> x(dev, len, 0), y(dev, len, 1), a(dev, tn * tn, 2);
    x.write(std::span<const float>(hx.data(), static_cast<std::size_t>(len)));
    y.write(std::span<const float>(hy.data(), static_cast<std::size_t>(len)));
    a.write(ha);
    float dot = 0.0f;
    host::Event e;
    if (routine == "rotm") e = ctx.rotm_async<float>(n, x, 1, y, 1, p);
    if (routine == "sdsdot") e = ctx.sdsdot_async(n, 0.25f, x, 1, y, 1, &dot);
    if (routine == "symv") {
      e = ctx.symv_async<float>(Uplo::Lower, tn, 1.5f, a, x, 1, 0.5f, y, 1);
    }
    if (routine == "trmv") {
      e = ctx.trmv_async<float>(Uplo::Upper, Transpose::None, Diag::NonUnit,
                                tn, a, x, 1);
    }
    e.wait();
    std::vector<float> out = x.to_host();
    const auto hy_out = y.to_host();
    out.insert(out.end(), hy_out.begin(), hy_out.end());
    out.push_back(dot);
    return std::make_tuple(out, e.status(), ctx.exec_stats());
  };

  for (const std::string routine : {"rotm", "sdsdot", "symv", "trmv"}) {
    SCOPED_TRACE(routine);
    const auto [clean, clean_st, clean_stats] = run(routine, false);
    const auto [rec, rec_st, rec_stats] = run(routine, true);
    EXPECT_TRUE(rec_st.ok());
    EXPECT_EQ(rec, clean);
    EXPECT_EQ(rec_stats.faults_injected, 1u);
    EXPECT_EQ(rec_stats.sdc_caught, rec_stats.faults_injected);
    EXPECT_EQ(rec_st.verify_rejections, 1u);
    EXPECT_EQ(clean_stats.verified, 1u);
    EXPECT_EQ(clean_stats.verify_failures, 0u);
  }
}

TEST(VerifyRuntime, CleanRotmEveryFlagAndSdsdotNeverReject) {
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification = verify::Options::always();
  const std::int64_t n = 300, tn = 64;
  Workload wl(87);
  host::Buffer<float> x(dev, n, 0), y(dev, n, 1), a(dev, tn * tn, 2);
  x.write(wl.vector<float>(n));
  y.write(wl.vector<float>(n));
  a.write(wl.matrix<float>(tn, tn));
  for (float flag : {-2.0f, -1.0f, 0.0f, 1.0f}) {
    ctx.rotm<float>(n, x, y, {flag, 0.7f, -0.2f, 0.3f, 0.6f});
  }
  (void)ctx.sdsdot(n, -1.5f, x, 1, y, 1);
  // SYMV and TRMV, both triangles, every TRMV transpose/diag variant.
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    ctx.symv<float>(uplo, tn, 0.5f, a, x, 1, 1.25f, y, 1);
    for (Transpose tr : {Transpose::None, Transpose::Trans}) {
      for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
        ctx.trmv<float>(uplo, tr, dg, tn, a, y, 2);
      }
    }
  }
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.verified, 15u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.sdc_caught, 0u);
}

// The acceptance workload: a mixed GEMM / GEMV / Level-1 stream under 5%
// silent corruption. VerifyPolicy::Always must catch every injected SDC
// (sdc_caught == faults_injected) and recover bit-identically to a
// fault-free run; the unverified baseline must provably miss them.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_mixed_workload(int workers, bool with_faults, verify::VerifyPolicy vp) {
  const std::int64_t m = 32, n = 28, k = 24, len = 256;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 4;
    fc.silent_corrupt_rate = 0.05;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  ctx.config().verification.policy(vp);

  Workload wl(84);
  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  host::Buffer<float> ga(dev, m * len, 0), gx(dev, len, 1), gy(dev, m, 2);
  host::Buffer<float> v0(dev, len, 0), v1(dev, len, 1);
  a.write(wl.matrix<float>(m, k));
  b.write(wl.matrix<float>(k, n));
  c.write(wl.matrix<float>(m, n));
  ga.write(wl.matrix<float>(m, len));
  gx.write(wl.vector<float>(len));
  gy.write(wl.vector<float>(m));
  v0.write(wl.vector<float>(len));
  v1.write(wl.vector<float>(len));

  float dots[8] = {};
  for (int round = 0; round < 8; ++round) {
    ctx.gemm_async<float>(Transpose::None, Transpose::None, m, n, k, 1.01f,
                          a, b, 0.5f, c);
    ctx.gemv_async<float>(Transpose::None, m, len, 0.125f, ga, gx, 1, 0.875f,
                          gy, 1);
    ctx.scal_async<float>(len, 1.0009f, v0, 1);
    ctx.axpy_async<float>(len, 0.01f, v0, 1, v1, 1);
    ctx.dot_async<float>(len, v0, 1, v1, 1, &dots[round]);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{c.to_host(), gy.to_host(),
                                      v0.to_host(), v1.to_host(),
                                      std::vector<float>(dots, dots + 8)};
  return {out, ctx.exec_stats()};
}

TEST(VerifyRuntime, MixedWorkloadFivePercentSdcAllCaughtSerial) {
  const auto [clean, clean_stats] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Off);
  const auto [guarded, guarded_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Always);
  const auto [naked, naked_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Off);

  // Seed 4 draws silent faults across the 40 commands (deterministic).
  EXPECT_GT(guarded_stats.faults_injected, 0u);
  EXPECT_EQ(guarded_stats.sdc_caught, guarded_stats.faults_injected);
  EXPECT_EQ(clean, guarded);  // every SDC caught and recovered, bit-identical
  EXPECT_EQ(guarded_stats.degraded, 0u);

  // The same fault stream without verification: wrong bits, zero caught.
  EXPECT_GT(naked_stats.faults_injected, 0u);
  EXPECT_EQ(naked_stats.sdc_caught, 0u);
  EXPECT_NE(clean, naked);
}

TEST(VerifyRuntime, MixedWorkloadFivePercentSdcAllCaughtWorkerPool) {
  // Identical guarantees on the 4-worker out-of-order executor: fault and
  // sampling decisions hash (seed, seq), not thread interleaving.
  const auto [clean, clean_stats] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Off);
  const auto [guarded, guarded_stats] =
      run_mixed_workload(4, true, verify::VerifyPolicy::Always);
  EXPECT_GT(guarded_stats.faults_injected, 0u);
  EXPECT_EQ(guarded_stats.sdc_caught, guarded_stats.faults_injected);
  EXPECT_EQ(clean, guarded);

  const auto [serial, serial_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Always);
  EXPECT_EQ(serial, guarded);
  EXPECT_EQ(serial_stats.faults_injected, guarded_stats.faults_injected);
  EXPECT_EQ(serial_stats.sdc_caught, guarded_stats.sdc_caught);
}

TEST(VerifyRuntime, SampledVerifiesDeterministicFraction) {
  const auto [out_a, stats_a] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Sampled);
  const auto [out_b, stats_b] =
      run_mixed_workload(4, false, verify::VerifyPolicy::Sampled);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(stats_a.verified, stats_b.verified);  // same commands sampled
  EXPECT_GT(stats_a.verified, 0u);
  EXPECT_LT(stats_a.verified, 40u);  // a fraction, not all
  EXPECT_EQ(stats_a.verify_failures, 0u);
}

TEST(VerifyRuntime, AlwaysOnCleanRunNeverRejects) {
  // No-false-positive sweep: every wired routine, both precisions, with
  // Always verification and no faults — nothing may be rejected.
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification = verify::Options::always();
  const std::int64_t n = 48, k = 16;
  Workload wl(85);

  auto sweep = [&](auto tag) {
    using T = decltype(tag);
    host::Buffer<T> x(dev, n, 0), y(dev, n, 1), z(dev, n, 2);
    host::Buffer<T> A(dev, n * n, 0), B(dev, n * n, 1), C(dev, n * n, 2);
    x.write(wl.vector<T>(n));
    y.write(wl.vector<T>(n));
    z.write(wl.vector<T>(n));
    A.write(wl.matrix<T>(n, n));
    B.write(wl.matrix<T>(n, n));
    C.write(wl.matrix<T>(n, n));

    ctx.scal<T>(n, T(1.5), x);
    ctx.axpy<T>(n, T(0.5), x, y);
    ctx.copy<T>(n, x, z);
    ctx.swap<T>(n, y, z);
    ctx.rot<T>(n, x, y, T(0.8), T(0.6));
    (void)ctx.dot<T>(n, x, y);
    (void)ctx.nrm2<T>(n, x);
    (void)ctx.asum<T>(n, x);
    (void)ctx.iamax<T>(n, x);
    ctx.gemv<T>(Transpose::Trans, n, n, T(0.9), A, x, T(0.1), y);
    ctx.ger<T>(n, n, T(0.05), x, y, C);
    ctx.syr<T>(Uplo::Lower, n, T(0.04), x, C);
    ctx.syr2<T>(Uplo::Upper, n, T(0.03), x, y, C);
    ctx.gemm<T>(Transpose::None, Transpose::Trans, n, n, n, T(0.02), A, B,
                T(0.5), C);
    ctx.syrk<T>(Uplo::Lower, Transpose::None, n, k, T(0.1), A, T(0.9), C);
    ctx.syr2k<T>(Uplo::Upper, Transpose::None, n, k, T(0.1), A, B, T(0.9),
                 C);
    // Well-conditioned triangular systems for the solves.
    {
      auto ha = wl.matrix<T>(n, n);
      for (std::int64_t i = 0; i < n; ++i)
        ha[static_cast<std::size_t>(i * n + i)] += T(n);
      A.write(ha);
    }
    ctx.trsv<T>(Uplo::Lower, Transpose::None, Diag::NonUnit, n, A, x);
    ctx.trsm<T>(Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, n,
                n, T(1.0), A, B);
    ctx.trsm<T>(Side::Right, Uplo::Upper, Transpose::Trans, Diag::NonUnit, n,
                n, T(1.0), A, C);
    // The batched engines: n*n elements hold n*n/16 problems of size 4.
    const std::int64_t s = 4, batch = n * n / (s * s);
    ctx.gemm_batched<T>(s, batch, T(0.5), A, B, C);
    {
      std::vector<T> tri;
      for (std::int64_t i = 0; i < batch; ++i) {
        const auto t = wl.triangular<T>(s, Uplo::Lower, Diag::NonUnit);
        tri.insert(tri.end(), t.begin(), t.end());
      }
      A.write(tri);
    }
    ctx.trsm_batched<T>(s, batch, T(1.0), A, B);
  };
  EXPECT_NO_THROW(sweep(float{}));
  EXPECT_NO_THROW(sweep(double{}));
  const auto stats = ctx.exec_stats();
  EXPECT_GT(stats.verified, 30u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.sdc_caught, 0u);
}

// --- Composed commands: checksum-carrying streaming compositions ----------
// The paper applications run as single host commands whose intermediates
// never touch DRAM; every channel's checksum tap is compared against the
// host's double-precision replay of the composition.

template <typename T>
void expect_rel_near(const std::vector<T>& got, const std::vector<T>& want) {
  const double tol = std::is_same_v<T, float> ? 1e-4 : 1e-9;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double w = static_cast<double>(want[i]);
    EXPECT_NEAR(static_cast<double>(got[i]), w,
                tol * std::max(1.0, std::abs(w)))
        << "at index " << i;
  }
}

// Every compiled node kind, clean and Always-verified: no edge may reject,
// and every output must match its refblas reference.
template <typename T>
void clean_compositions_match_cpu_references() {
  const std::int64_t n = 20, m = 16, len = 96;
  const T alpha = T(0.6), beta = T(-0.8);
  Workload wl(91);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification = verify::Options::always();
  const auto vec = [](const std::vector<T>& v) {
    return VectorView<const T>(v.data(), static_cast<std::int64_t>(v.size()));
  };
  const auto zeros = [](std::int64_t k) {
    return std::vector<T>(static_cast<std::size_t>(k), T(0));
  };

  const auto ha = wl.template matrix<T>(n, m);
  const auto hx = wl.template vector<T>(m);
  const MatrixView<const T> A(ha.data(), n, m);
  std::uint64_t commands = 0;

  {  // ATAX: y = A^T (A x)
    host::Buffer<T> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
    a.write(ha);
    x.write(hx);
    y.write(std::vector<T>(static_cast<std::size_t>(m), T(-1)));
    apps::atax_composed<T>(ctx, n, m, a, x, y);
    expect_rel_near(y.to_host(), apps::atax_cpu<T>(A, vec(hx)));
    ++commands;
  }
  {  // BICG: q = A p, s = A^T r
    const auto hp = wl.template vector<T>(m);
    const auto hr = wl.template vector<T>(n);
    host::Buffer<T> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
    host::Buffer<T> q(dev, n, 1), s(dev, m, 2);
    a.write(ha);
    p.write(hp);
    r.write(hr);
    q.write(zeros(n));
    s.write(zeros(m));
    apps::bicg_composed<T>(ctx, n, m, a, p, r, q, s);
    const auto ref = apps::bicg_cpu<T>(A, vec(hp), vec(hr));
    expect_rel_near(q.to_host(), ref.q);
    expect_rel_near(s.to_host(), ref.s);
    ++commands;
  }
  {  // AXPYDOT: beta = (w - alpha v)^T u
    const auto hw = wl.template vector<T>(len);
    const auto hv = wl.template vector<T>(len);
    const auto hu = wl.template vector<T>(len);
    host::Buffer<T> w(dev, len, 0), v(dev, len, 1), u(dev, len, 2);
    w.write(hw);
    v.write(hv);
    u.write(hu);
    const T got = apps::axpydot_composed<T>(ctx, len, w, v, u, T(0.3));
    expect_rel_near(std::vector<T>{got},
                    {apps::axpydot_cpu<T>(vec(hw), vec(hv), vec(hu), T(0.3))});
    ++commands;
  }
  {  // GESUMMV: y = alpha A x + beta B x
    const auto hb = wl.template matrix<T>(n, m);
    host::Buffer<T> a(dev, n * m, 0), b(dev, n * m, 1), x(dev, m, 2),
        y(dev, n, 3);
    a.write(ha);
    b.write(hb);
    x.write(hx);
    y.write(zeros(n));
    apps::gesummv_composed<T>(ctx, n, m, alpha, beta, a, b, x, y);
    expect_rel_near(y.to_host(),
                    apps::gesummv_cpu<T>(alpha, beta, A,
                                         MatrixView<const T>(hb.data(), n, m),
                                         vec(hx)));
    ++commands;
  }
  {  // GEMVER: the two-component split with DRAM round trips
    const auto hg = wl.template matrix<T>(n, n);
    std::vector<std::vector<T>> hv;
    for (int i = 0; i < 6; ++i) hv.push_back(wl.template vector<T>(n));
    host::Buffer<T> a(dev, n * n, 0), u1(dev, n, 1), v1(dev, n, 2),
        u2(dev, n, 3), v2(dev, n, 1), y(dev, n, 2), z(dev, n, 3);
    host::Buffer<T> b(dev, n * n, 1), x(dev, n, 2), w(dev, n, 3);
    a.write(hg);
    u1.write(hv[0]);
    v1.write(hv[1]);
    u2.write(hv[2]);
    v2.write(hv[3]);
    y.write(hv[4]);
    z.write(hv[5]);
    b.write(zeros(n * n));
    x.write(zeros(n));
    w.write(zeros(n));
    apps::gemver_composed<T>(ctx, n, alpha, beta, a, u1, v1, u2, v2, y, z, b,
                             x, w);
    const auto ref = apps::gemver_cpu<T>(
        alpha, beta, MatrixView<const T>(hg.data(), n, n), vec(hv[0]),
        vec(hv[1]), vec(hv[2]), vec(hv[3]), vec(hv[4]), vec(hv[5]));
    expect_rel_near(b.to_host(), ref.b);
    expect_rel_near(x.to_host(), ref.x);
    expect_rel_near(w.to_host(), ref.w);
    ++commands;
  }
  {  // SCAL: y = alpha x
    const auto hv = wl.template vector<T>(len);
    host::Buffer<T> x(dev, len, 0), y(dev, len, 1);
    x.write(hv);
    y.write(zeros(len));
    host::Composition<T> c("scal");
    const int rx = c.input("read_x", x);
    const int wy = c.output("store_y", y);
    const int sc = c.scal("scal", alpha);
    c.connect(rx, sc, mdag::StreamSig::vec(len));
    c.connect(sc, wy, mdag::StreamSig::vec(len));
    ctx.run_composition(c);
    auto ref = hv;
    ref::scal<T>(alpha, VectorView<T>(ref.data(), len));
    expect_rel_near(y.to_host(), ref);
    ++commands;
  }
  // TRSV: op(A) x = b in every uplo/trans/diag variant.
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        SCOPED_TRACE(testing::Message()
                     << "uplo=" << static_cast<int>(uplo)
                     << " trans=" << static_cast<int>(trans)
                     << " diag=" << static_cast<int>(diag));
        const auto ht = wl.template triangular<T>(n, uplo, diag);
        const auto hb = wl.template vector<T>(n);
        host::Buffer<T> a(dev, n * n, 0), b(dev, n, 1), x(dev, n, 2);
        a.write(ht);
        b.write(hb);
        x.write(zeros(n));
        host::Composition<T> c("trsv");
        const int ra = c.input_triangular("read_A", a, uplo, trans);
        const int rb = c.input("read_b", b);
        const int wx = c.output("store_x", x);
        const int tr = c.trsv("trsv", uplo, trans, diag);
        c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
        c.connect(rb, tr, mdag::StreamSig::vec(n));
        c.connect(tr, wx, mdag::StreamSig::vec(n));
        ctx.run_composition(c);
        auto ref = hb;
        ref::trsv<T>(uplo, trans, diag, MatrixView<const T>(ht.data(), n, n),
                     VectorView<T>(ref.data(), n));
        expect_rel_near(x.to_host(), ref);
        ++commands;
      }
    }
  }

  // Every composed command was checked, none rejected.
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.verified, commands);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.sdc_caught, 0u);
}

TEST(VerifyComposed, CleanCompositionsMatchCpuReferences) {
  {
    SCOPED_TRACE("float");
    clean_compositions_match_cpu_references<float>();
  }
  {
    SCOPED_TRACE("double");
    clean_compositions_match_cpu_references<double>();
  }
}

TEST(VerifyComposed, PerCallOptionsOverrideOnlyThatCommand) {
  // A ConfigGuard scopes the override to the one enqueue (knobs are
  // captured there): the context's own (Off) policy is untouched before
  // and after.
  const std::int64_t n = 12, m = 8;
  Workload wl(97);
  host::Device dev;
  host::Context ctx(dev);
  ASSERT_FALSE(ctx.config().verification.enabled());

  host::Buffer<double> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(wl.matrix<double>(n, m));
  x.write(wl.vector<double>(m));
  y.write(std::vector<double>(static_cast<std::size_t>(m), 0.0));
  {
    host::RoutineConfig rc = ctx.config();
    rc.verification = verify::Options::always();
    const host::ConfigGuard scoped = ctx.with(rc);
    apps::atax_composed_async<double>(ctx, n, m, a, x, y).wait();
  }
  EXPECT_FALSE(ctx.config().verification.enabled());  // guard restored
  EXPECT_EQ(ctx.exec_stats().verified, 1u);

  apps::atax_composed_async<double>(ctx, n, m, a, x, y).wait();
  EXPECT_EQ(ctx.exec_stats().verified, 1u);  // second command unverified
}

TEST(VerifyComposed, ChannelCorruptionLocalizedToFirstDivergentEdge) {
  // One in-flight value flipped on an intermediate channel: no write-set
  // snapshot can see it, but the edge checksums localize it. Without a
  // retry budget the rejection surfaces transactionally.
  const std::int64_t n = 32, m = 24;
  Workload wl(92);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 31;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  const auto ha = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);
  const auto hy0 = wl.vector<float>(m);  // pre-command bytes in y
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(ha);
  x.write(hx);
  y.write(hy0);
  host::Event e = apps::atax_composed_async<float>(ctx, n, m, a, x, y);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'atax'"), std::string::npos);
    // The checker's diagnosis names exactly the channel the injector hit
    // (ground truth recorded by the runtime when the corruption fired).
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
    EXPECT_NE(msg.find("first divergent edge"), std::string::npos);
  }
  EXPECT_EQ(y.to_host(), hy0);  // rolled back; corrupted bits never landed
  EXPECT_TRUE(e.status().failed());
  EXPECT_EQ(ctx.exec_stats().faults_injected, 1u);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(VerifyComposed, ChannelCorruptionRecoversBitIdentical) {
  const std::int64_t n = 32, m = 24;
  Workload wl(93);
  const auto ha = wl.matrix<float>(n, m);
  const auto hp = wl.vector<float>(m);
  const auto hr = wl.vector<float>(n);

  auto run = [&](bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 32;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(3));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
    host::Buffer<float> q(dev, n, 1), s(dev, m, 2);
    a.write(ha);
    p.write(hp);
    r.write(hr);
    q.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
    s.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
    apps::bicg_composed<float>(ctx, n, m, a, p, r, q, s);
    return std::make_tuple(q.to_host(), s.to_host(), ctx.exec_stats());
  };

  const auto [cq, cs, cstats] = run(false);
  const auto [rq, rs, rstats] = run(true);
  EXPECT_EQ(cq, rq);  // recovered, bit-identical to the fault-free run
  EXPECT_EQ(cs, rs);
  EXPECT_EQ(rstats.faults_injected, 1u);
  EXPECT_EQ(rstats.sdc_caught, 1u);
  EXPECT_EQ(rstats.retries, 1u);
  EXPECT_EQ(cstats.sdc_caught, 0u);
}

// Mixed composed workload: all three compositions, repeated, under
// in-flight channel corruption. Every injected fault must be caught
// (sdc_caught == faults_injected) and the final state must match a
// fault-free run bit-for-bit — serially and on the worker pool.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_composed_workload(int workers, bool with_faults) {
  const std::int64_t n = 32, m = 24, len = 400;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 6;
    fc.channel_corrupt_rate = 0.4;
    fc.max_faults = 4;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  ctx.config().verification = verify::Options::always();

  Workload wl(94);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  host::Buffer<float> p(dev, m, 1), r(dev, n, 2), q(dev, n, 0), s(dev, m, 1);
  host::Buffer<float> w(dev, len, 0), v(dev, len, 1), u(dev, len, 2);
  a.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  p.write(wl.vector<float>(m));
  r.write(wl.vector<float>(n));
  q.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  s.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  w.write(wl.vector<float>(len));
  v.write(wl.vector<float>(len));
  u.write(wl.vector<float>(len));

  float betas[4] = {};
  for (int round = 0; round < 4; ++round) {
    apps::atax_composed_async<float>(ctx, n, m, a, x, y);
    apps::bicg_composed_async<float>(ctx, n, m, a, p, r, q, s);
    apps::axpydot_composed_async<float>(ctx, len, w, v, u, 0.3f,
                                        &betas[round]);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{y.to_host(), q.to_host(), s.to_host(),
                                      std::vector<float>(betas, betas + 4)};
  return {out, ctx.exec_stats()};
}

TEST(VerifyComposed, MixedCompositionWorkloadAllCaughtSerialAndPool) {
  const auto [clean, clean_stats] = run_composed_workload(0, false);
  const auto [serial, serial_stats] = run_composed_workload(0, true);
  EXPECT_GT(serial_stats.faults_injected, 0u);
  EXPECT_EQ(serial_stats.sdc_caught, serial_stats.faults_injected);
  EXPECT_EQ(clean, serial);
  EXPECT_EQ(serial_stats.degraded, 0u);
  EXPECT_EQ(clean_stats.verify_failures, 0u);

  // Same guarantees out of order: fault and sampling decisions hash
  // (seed, seq), not thread interleaving.
  const auto [pool, pool_stats] = run_composed_workload(4, true);
  EXPECT_EQ(pool_stats.sdc_caught, pool_stats.faults_injected);
  EXPECT_EQ(clean, pool);
  EXPECT_EQ(pool_stats.faults_injected, serial_stats.faults_injected);
}

// --- SilentCorrupt steering: SYRK/SYR2K triangle blind spot ---------------

TEST(VerifyRuntime, SyrkSteeredCorruptionAlwaysLandsInTheTriangle) {
  // SYRK/SYR2K only write one triangle; an unsteered injector could mangle
  // a byte in the never-written half, where the tri-masked checksums are
  // blind by design (BLAS semantics say those bytes are dead). The
  // corrupt_steer hook remaps every draw into the stored triangle, so the
  // fault is always live and always caught.
  const std::int64_t n = 24, k = 10;
  Workload wl(95);
  const auto ha = wl.matrix<float>(n, k);
  const auto hb = wl.matrix<float>(n, k);
  const auto hc = wl.matrix<float>(n, n);

  auto run = [&](bool with_faults, Uplo uplo, bool two_k) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 33;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 3;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(4));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> A(dev, n * k, 0), B(dev, n * k, 1), C(dev, n * n, 2);
    A.write(ha);
    B.write(hb);
    C.write(hc);
    if (two_k) {
      ctx.syr2k<float>(uplo, Transpose::None, n, k, 0.5f, A, B, 0.9f, C);
    } else {
      ctx.syrk<float>(uplo, Transpose::None, n, k, 1.25f, A, 0.5f, C);
    }
    return std::make_pair(C.to_host(), ctx.exec_stats());
  };

  for (const bool two_k : {false, true}) {
    const Uplo uplo = two_k ? Uplo::Upper : Uplo::Lower;
    const auto [clean, clean_stats] = run(false, uplo, two_k);
    const auto [rec, rec_stats] = run(true, uplo, two_k);
    EXPECT_EQ(rec_stats.faults_injected, 3u);
    EXPECT_EQ(rec_stats.sdc_caught, rec_stats.faults_injected);
    EXPECT_EQ(clean, rec);  // caught every time, recovered bit-identical
    EXPECT_EQ(clean_stats.sdc_caught, 0u);
  }
}

// --- Adaptive sampling: the rate follows the device's behavior ------------

TEST(VerifyRuntime, AdaptiveSamplingReactsToRejections) {
  const std::int64_t len = 64;
  const auto hx = Workload(96).vector<float>(len);
  auto run = [&](bool with_faults) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 34;
      fc.silent_corrupt_rate = 1.0;  // unlimited: every attempt corrupted
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
    ctx.config().verification = verify::Options::sampled(0.25).adaptive();
    host::Buffer<float> x(dev, len, 0);
    for (int i = 0; i < 40; ++i) {
      x.write(hx);  // fresh operand: missed corruption cannot accumulate
      ctx.scal<float>(len, 2.0f, x);
    }
    return ctx.exec_stats();
  };

  // Clean device: every sampled check passes, so the live rate decays
  // below the configured base (never below the floor of base/4).
  const auto clean = run(false);
  EXPECT_GT(clean.verified, 0u);
  EXPECT_GT(clean.adaptive_sample_rate, 0.0);
  EXPECT_LT(clean.adaptive_sample_rate, 0.25);
  EXPECT_GE(clean.adaptive_sample_rate, 0.25 / 4 - 1e-12);
  EXPECT_EQ(clean.verify_failures, 0u);

  // Hostile device: the first caught corruption escalates the rate (x4
  // per rejection), driving coverage toward Always.
  const auto hostile = run(true);
  EXPECT_GT(hostile.verify_failures, 0u);
  EXPECT_GT(hostile.degraded, 0u);
  EXPECT_GT(hostile.adaptive_sample_rate, 0.25);
  EXPECT_GT(hostile.verified, clean.verified);
}

// --- Taint channel: NaN/Inf provenance at module boundaries --------------

TEST(VerifyTaint, TrapNamesTheProducingModule) {
  const std::int64_t n = 32;
  auto hx = Workload(86).vector<float>(n);
  hx[7] = std::numeric_limits<float>::quiet_NaN();
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification.trap_nonfinite();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
  try {
    e.wait();
    FAIL() << "expected TaintError";
  } catch (const TaintError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("non-finite value"), std::string::npos);
    EXPECT_NE(msg.find("module 'read_x'"), std::string::npos);
    EXPECT_NE(msg.find("channel 'x'"), std::string::npos);
  }
  EXPECT_TRUE(e.status().failed());
  // Deterministic, not transient: no retry could ever change the outcome.
  EXPECT_EQ(ctx.exec_stats().retries, 0u);
}

TEST(VerifyTaint, VerifiedNaNRunSkipsChecksInsteadOfRejecting) {
  // Without the trap, NaN data flows through (IEEE semantics) and the
  // checkers skip their poisoned comparisons: Ok result, NaN output, no
  // spurious corruption verdict.
  const std::int64_t n = 32;
  auto hx = Workload(87).vector<float>(n);
  hx[3] = std::numeric_limits<float>::infinity();
  host::Device dev;
  host::Context ctx(dev);
  ctx.set_retry_policy(fast_retry(2));
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 0.5f, x, 1);
  EXPECT_NO_THROW(e.wait());
  EXPECT_TRUE(e.status().ok());
  EXPECT_TRUE(std::isinf(x.to_host()[3]));
  EXPECT_EQ(ctx.exec_stats().verify_failures, 0u);

  // The composed path skips the same way: its FIFO taps and its writer
  // audit both see a non-finite prediction, so a NaN in ATAX's A is
  // passed through, not rejected as corruption.
  const std::int64_t rows = 16, cols = 12;
  auto ha = Workload(88).matrix<float>(rows, cols);
  ha[5] = std::numeric_limits<float>::quiet_NaN();
  host::Buffer<float> a(dev, rows * cols, 0), ax(dev, cols, 1),
      ay(dev, cols, 2);
  a.write(ha);
  ax.write(Workload(89).vector<float>(cols));
  host::Event ce = apps::atax_composed_async<float>(ctx, rows, cols, a, ax, ay);
  EXPECT_NO_THROW(ce.wait());
  EXPECT_TRUE(ce.status().ok());
  EXPECT_TRUE(std::isnan(ay.to_host()[5]));
  EXPECT_EQ(ctx.exec_stats().verify_failures, 0u);
}

}  // namespace
}  // namespace fblas
