// Tests for the automatic MDAG planner (the paper's future-work item):
// channel-depth inference for non-multitrees and greedy sequential
// partitioning, exercised on the four paper compositions and on synthetic
// graphs, plus pins of the whole Sec. V analysis on seeded random MDAGs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

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

// --- Random MDAGs -----------------------------------------------------------

/// splitmix64: a seeded stream that is the same on every platform.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
};

/// A random MDAG of `n` nodes. Node 0 is a reader; every later node is a
/// reader (no in-edges), a writer (in-edges, never a producer) or a
/// compute module of one of several latencies fed from 1-3 earlier
/// producers, so fan-out and reconvergence are common (about one graph in
/// six is a multitree). Edges go from a lower to a higher index; some are
/// doubled (parallel channels). Streams are vectors (one pass or
/// replayed) or matrices in either tile order, so `first_output_lag`
/// varies; one graph in eight gets an edge whose consumer expects another
/// count.
Mdag random_mdag(Rng& rng, int n) {
  const RoutineKind kinds[] = {RoutineKind::Scal, RoutineKind::Axpy,
                               RoutineKind::Dot, RoutineKind::Gemv,
                               RoutineKind::Ger};
  const double latencies[] = {1, 8, 37, 120};
  const stream::TileSchedule by_rows{Order::RowMajor, Order::RowMajor, 8, 16};
  const stream::TileSchedule by_cols{Order::ColMajor, Order::RowMajor, 8, 16};
  const StreamSig sigs[] = {
      StreamSig::vec(64),
      StreamSig::vec(64, 4),
      StreamSig::vec(200),
      StreamSig::mat(32, 48, by_rows),
      StreamSig::mat(32, 48, by_cols),
      StreamSig::mat(48, 32, by_cols)};
  Mdag g;
  std::vector<bool> producer;
  for (int i = 0; i < n; ++i) {
    const int role = i == 0 ? 0 : rng.below(6);
    if (role == 0) {
      g.add_interface("r" + std::to_string(i));
      producer.push_back(true);
      continue;
    }
    const bool writer = role == 1;
    if (writer) {
      g.add_interface("w" + std::to_string(i));
    } else {
      g.add_compute("c" + std::to_string(i), kinds[rng.below(5)],
                    latencies[rng.below(4)]);
    }
    producer.push_back(!writer);
    const int pick = rng.below(12);
    const int fan_in = pick < 8 ? 1 : pick < 11 ? 2 : 3;
    for (int k = 0; k < fan_in; ++k) {
      int from = rng.below(i);
      while (!producer[static_cast<std::size_t>(from)]) from = rng.below(i);
      const StreamSig sig = sigs[rng.below(6)];
      g.connect(from, i, sig);
      if (rng.below(10) == 0) g.connect(from, i, sig);
    }
  }
  if (!g.edges().empty() && rng.below(8) == 0) {
    Edge& e = g.edge(rng.below(static_cast<int>(g.edges().size())));
    e.consumed = StreamSig::vec(e.produced.count + 1);
  }
  return g;
}

/// FNV-1a over 64-bit words and strings.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  void mix_double(double d) {
    std::uint64_t w = 0;
    std::memcpy(&w, &d, sizeof d);
    mix(w);
  }
};

TEST(AutoPlan, RandomGraphsPinned) {
  // Every output of the Sec. V analysis on 500 random MDAGs of 2-14
  // nodes: path counts of every pair, the multitree test, the disjoint
  // pairs, the channel sizings, the validity summary, and the plan under
  // both preferences and two depth budgets.
  Rng rng{20190718};
  Fnv f;
  for (int gi = 0; gi < 500; ++gi) {
    const Mdag g = random_mdag(rng, 2 + rng.below(13));
    const int n = g.node_count();
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        f.mix(static_cast<std::uint64_t>(count_paths(g, u, v)));
      }
    }
    f.mix(is_multitree(g) ? 1 : 0);
    for (const DisjointPairIssue& d : disjoint_path_issues(g)) {
      f.mix(static_cast<std::uint64_t>(d.from));
      f.mix(static_cast<std::uint64_t>(d.to));
      f.mix(static_cast<std::uint64_t>(d.paths));
    }
    for (const ChannelSizing& s : required_channel_depths(g)) {
      f.mix(static_cast<std::uint64_t>(s.edge));
      f.mix(static_cast<std::uint64_t>(s.min_depth));
    }
    f.mix(validate(g).summary);
    for (const bool prefer_sizing : {true, false}) {
      for (const std::int64_t depth : {300, 1 << 16}) {
        PlanOptions opt;
        opt.prefer_sizing = prefer_sizing;
        opt.max_channel_depth = depth;
        try {
          const Plan plan = derive_plan(g, opt);
          f.mix(plan.feasible ? 1 : 0);
          f.mix(plan.components.size());
          for (const Component& c : plan.components) {
            f.mix(c.nodes.size());
            for (const int u : c.nodes) f.mix(static_cast<std::uint64_t>(u));
          }
          for (const ChannelSizing& s : plan.sizings) {
            f.mix(static_cast<std::uint64_t>(s.edge));
            f.mix(static_cast<std::uint64_t>(s.min_depth));
          }
          f.mix(static_cast<std::uint64_t>(plan.io_ops));
          f.mix_double(plan.cycles);
          f.mix(plan.explanation);
        } catch (const ConfigError& e) {
          f.mix(std::string("threw: ") + e.what());
        }
      }
    }
  }
  EXPECT_EQ(f.h, 9856012190864324051ULL);
}

/// Every path from `u` to `to` as the bit mask of its internal vertices,
/// one entry per edge sequence (parallel edges give distinct paths).
void enumerate_paths(const Mdag& g, int u, int to, std::uint32_t internal,
                     std::vector<std::uint32_t>& out) {
  if (u == to) {
    out.push_back(internal);
    return;
  }
  for (const Edge& e : g.edges()) {
    if (e.from != u) continue;
    const std::uint32_t next =
        e.to == to ? internal : internal | (1u << e.to);
    enumerate_paths(g, e.to, to, next, out);
  }
}

TEST(Validity, RandomGraphsMatchBruteForce) {
  // On 400 random MDAGs of at most 8 nodes: count_paths is the number of
  // enumerated paths, and the flow finds two vertex-disjoint paths exactly
  // when two enumerated paths share no internal vertex.
  Rng rng{907};
  for (int gi = 0; gi < 400; ++gi) {
    const Mdag g = random_mdag(rng, 2 + rng.below(7));
    const int n = g.node_count();
    std::vector<DisjointPairIssue> expect;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        std::vector<std::uint32_t> paths;
        enumerate_paths(g, u, v, 0, paths);
        ASSERT_EQ(count_paths(g, u, v),
                  static_cast<std::int64_t>(paths.size()))
            << "graph " << gi << " pair " << u << " -> " << v;
        if (u == v) continue;
        bool disjoint = false;
        for (std::size_t i = 0; i < paths.size() && !disjoint; ++i) {
          for (std::size_t j = i + 1; j < paths.size(); ++j) {
            if ((paths[i] & paths[j]) == 0) {
              disjoint = true;
              break;
            }
          }
        }
        const int k = vertex_disjoint_paths(g, u, v);
        ASSERT_EQ(k >= 2, disjoint)
            << "graph " << gi << " pair " << u << " -> " << v;
        if (disjoint) expect.push_back({u, v, k});
      }
    }
    const auto issues = disjoint_path_issues(g);
    ASSERT_EQ(issues.size(), expect.size()) << "graph " << gi;
    for (std::size_t i = 0; i < issues.size(); ++i) {
      EXPECT_EQ(issues[i].from, expect[i].from);
      EXPECT_EQ(issues[i].to, expect[i].to);
      EXPECT_EQ(issues[i].paths, expect[i].paths);
    }
  }
}

}  // namespace
}  // namespace fblas::mdag
