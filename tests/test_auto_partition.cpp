// Tests for the automatic MDAG planner (the paper's future-work item):
// channel-depth inference for non-multitrees and greedy sequential
// partitioning, exercised on the four paper compositions and on synthetic
// graphs.
#include <gtest/gtest.h>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "common/error.hpp"
#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "mdag/auto_partition.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {
namespace {

TEST(AutoPlan, ValidCompositionStaysFullyStreaming) {
  const auto g = apps::axpydot_mdag(1024);
  const auto plan = derive_plan(g);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 1u);
  EXPECT_TRUE(plan.sizings.empty());
  EXPECT_EQ(plan.io_ops, 3 * 1024 + 1);
  EXPECT_NE(plan.explanation.find("fully streaming"), std::string::npos);
}

TEST(AutoPlan, BicgIsAlreadyValid) {
  const auto plan = derive_plan(apps::bicg_mdag(512, 512, 64));
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 1u);
}

TEST(AutoPlan, AtaxChannelSizingMatchesPaperFormula) {
  // ATAX with N = M = 1024, tiles 64: the direct A channel into the
  // transposed GEMV needs >= M * TN = 1024 * 64 elements (Sec. V-B).
  const auto g = apps::atax_mdag(1024, 1024, 64);
  const auto sizings = required_channel_depths(g);
  ASSERT_EQ(sizings.size(), 1u);
  const Edge& e = g.edge(sizings[0].edge);
  EXPECT_EQ(g.node(e.from).name, "read_A");
  EXPECT_EQ(g.node(e.to).name, "gemv_T");
  EXPECT_EQ(sizings[0].min_depth, 1024 * 64);
}

TEST(AutoPlan, AtaxPlansSizingWhenBudgetAllows) {
  const auto g = apps::atax_mdag(1024, 1024, 64);
  PlanOptions opt;
  opt.max_channel_depth = 1024 * 64;  // exactly enough
  const auto plan = derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 1u);
  ASSERT_EQ(plan.sizings.size(), 1u);
  EXPECT_EQ(plan.sizings[0].min_depth, 1024 * 64);
  EXPECT_NE(plan.explanation.find("sized channel"), std::string::npos);
}

TEST(AutoPlan, AtaxSplitsWhenBufferTooLarge) {
  const auto g = apps::atax_mdag(4096, 4096, 64);
  PlanOptions opt;
  opt.max_channel_depth = 1024;  // far below 4096 * 64
  const auto plan = derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
  EXPECT_GE(plan.components.size(), 2u);
  // Every component individually valid.
  for (const auto& c : plan.components) {
    EXPECT_TRUE(validate(component_subgraph(g, c)).valid);
  }
  // The split pays more I/O than the (infeasible) fully-streamed version
  // but is a real plan.
  EXPECT_GT(plan.io_ops, total_io_ops(g));
}

TEST(AutoPlan, GemverSplitsIntoTwoComponentsLikeFig9) {
  const auto g = apps::gemver_mdag(1024, 64);
  PlanOptions opt;
  opt.prefer_sizing = false;  // force the Fig. 9 schedule
  const auto plan = derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 2u);
  // I/O ~ 3N^2, completion ~ 2N^2 — the Sec. V-C numbers.
  const double n2 = 1024.0 * 1024.0;
  EXPECT_NEAR(static_cast<double>(plan.io_ops) / n2, 3.0, 0.1);
  EXPECT_NEAR(plan.cycles / n2, 2.0, 0.1);
}

TEST(AutoPlan, GemverSizingAlternativeAlsoWorks) {
  // With a (hypothetically) huge on-chip budget, GEMVER could stream
  // fully by buffering B on the direct edge.
  const auto g = apps::gemver_mdag(256, 64);
  PlanOptions opt;
  opt.max_channel_depth = 256 * 64;  // one row of tiles of B
  const auto plan = derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 1u);
  EXPECT_FALSE(plan.sizings.empty());
}

TEST(AutoPlan, EdgeInvalidGraphsAreRejected) {
  Mdag g;
  const int a = g.add_interface("a");
  const int b = g.add_compute("b", RoutineKind::Scal, 1);
  g.connect(a, b, StreamSig::vec(10), StreamSig::vec(20));
  EXPECT_THROW(derive_plan(g), ConfigError);
}

TEST(AutoPlan, DeepDiamondChain) {
  // a -> b -> c -> d plus a shortcut b -> d: one disjoint pair (b, d).
  Mdag g;
  const int src = g.add_interface("src");
  const int b = g.add_compute("b", RoutineKind::Scal, 1);
  const int c = g.add_compute("c", RoutineKind::Scal, 1);
  const int d = g.add_compute("d", RoutineKind::Axpy, 1);
  const int sink = g.add_interface("sink");
  g.connect(src, b, StreamSig::vec(100));
  g.connect(b, c, StreamSig::vec(100));
  g.connect(c, d, StreamSig::vec(100));
  g.connect(b, d, StreamSig::vec(100));
  g.connect(d, sink, StreamSig::vec(100));
  EXPECT_FALSE(validate(g).valid);
  const auto sizings = required_channel_depths(g);
  ASSERT_EQ(sizings.size(), 1u);
  // The shortcut edge b -> d must buffer the vector (lag = full stream).
  EXPECT_EQ(g.edge(sizings[0].edge).from, b);
  EXPECT_EQ(g.edge(sizings[0].edge).to, d);
  EXPECT_EQ(sizings[0].min_depth, 100);
  const auto plan = derive_plan(g);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.components.size(), 1u);  // sized, small enough
}

TEST(AutoPlan, FirstOutputLagFormulas) {
  const stream::TileSchedule by_rows{Order::RowMajor, Order::RowMajor, 64,
                                     64};
  const stream::TileSchedule by_cols{Order::ColMajor, Order::RowMajor, 64,
                                     64};
  EXPECT_EQ(StreamSig::mat(1024, 2048, by_rows).first_output_lag(),
            2048 * 64);
  EXPECT_EQ(StreamSig::mat(1024, 2048, by_cols).first_output_lag(),
            1024 * 64);
  EXPECT_EQ(StreamSig::vec(777).first_output_lag(), 777);
  // Tiles larger than the matrix are clamped.
  EXPECT_EQ(StreamSig::mat(16, 16, by_rows).first_output_lag(), 16 * 16);
}

TEST(AutoPlan, PlannedSizingActuallyRunsAtax) {
  // End-to-end: the compiled ATAX takes the planner's channel depth (plus
  // fan-out slack) for its direct A channel and completes.
  const std::int64_t n = 40, m = 24, tile = 8;
  const auto g = apps::atax_mdag(n, m, tile);
  const auto sizings = required_channel_depths(g);
  ASSERT_EQ(sizings.size(), 1u);
  ASSERT_EQ(derive_plan(g).components.size(), 1u);
  Workload wl(808);
  auto a = wl.matrix<float>(n, m);
  auto x = wl.vector<float>(m);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = ctx.config().tile_cols = tile;
  host::Buffer<float> ba(dev, n * m, 0), bx(dev, m, 1), by(dev, m, 2);
  ba.write(a);
  bx.write(x);
  apps::atax_composed<float>(ctx, n, m, ba, bx, by);
  const auto expect = apps::atax_cpu<float>(
      MatrixView<const float>(a.data(), n, m),
      VectorView<const float>(x.data(), m));
  EXPECT_LT(rel_error(by.to_host(), expect), 1e-3);
}

}  // namespace
}  // namespace fblas::mdag
