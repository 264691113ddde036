// MDAG composition analysis tests, reproducing the Sec. V case studies:
// AXPYDOT (valid linear chain, 7N -> 3N+1), BICG (shared interface,
// 2NM -> NM), ATAX (invalid non-multitree), GEMVER (two-component
// schedule, ~8N^2 -> ~3N^2).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mdag/graph.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/resources.hpp"
#include "mdag/schedule.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {
namespace {

using stream::TileSchedule;

constexpr std::int64_t N = 1024;

TileSchedule tiles_by_rows(std::int64_t t = 64) {
  return {Order::RowMajor, Order::RowMajor, t, t};
}

// ---- AXPYDOT (Fig. 6) -------------------------------------------------

Mdag build_axpydot() {
  Mdag g;
  const int rv = g.add_interface("read_v");
  const int rw = g.add_interface("read_w");
  const int ru = g.add_interface("read_u");
  const int wb = g.add_interface("write_beta");
  const int axpy = g.add_compute("axpy", RoutineKind::Axpy, 12);
  const int dot = g.add_compute("dot", RoutineKind::Dot, 30);
  g.connect(rv, axpy, StreamSig::vec(N));
  g.connect(rw, axpy, StreamSig::vec(N));
  g.connect(axpy, dot, StreamSig::vec(N));
  g.connect(ru, dot, StreamSig::vec(N));
  g.connect(dot, wb, StreamSig::vec(1));
  return g;
}

TEST(Axpydot, StreamingIsValidMultitree) {
  const auto g = build_axpydot();
  EXPECT_TRUE(validate_edges(g).empty());
  EXPECT_TRUE(is_multitree(g));
  const auto v = validate(g);
  EXPECT_TRUE(v.valid);
  EXPECT_NE(v.summary.find("multitree"), std::string::npos);
}

TEST(Axpydot, StreamingIoIs3NPlus1) {
  const auto g = build_axpydot();
  EXPECT_EQ(total_io_ops(g), 3 * N + 1);
}

TEST(Axpydot, StreamingCyclesAreOnePassPlusLatencies) {
  const auto g = build_axpydot();
  // L_axpy + L_dot + N (W = 1).
  EXPECT_DOUBLE_EQ(streaming_cycles(g, 1), 12 + 30 + N);
  // Sequential host-layer execution: each module pays its own pass.
  EXPECT_DOUBLE_EQ(sequential_cycles(g, 1), (12 + N) + (30 + N));
  // Width adjusts the data-pass term.
  EXPECT_DOUBLE_EQ(streaming_cycles(g, 16), 42 + N / 16.0);
}

TEST(Axpydot, HostLayerVersionDoes7N) {
  // The non-streamed implementation needs COPY + AXPY + DOT through DRAM:
  // 2N + 3N + (2N + 1) I/O operations (Sec. V-A).
  Mdag g;
  const int rw = g.add_interface("read_w");
  const int wz0 = g.add_interface("write_z_copy");
  const int copy = g.add_compute("copy", RoutineKind::Copy, 8);
  g.connect(rw, copy, StreamSig::vec(N));
  g.connect(copy, wz0, StreamSig::vec(N));
  const int rv = g.add_interface("read_v");
  const int rz = g.add_interface("read_z");
  const int wz = g.add_interface("write_z");
  const int axpy = g.add_compute("axpy", RoutineKind::Axpy, 12);
  g.connect(rv, axpy, StreamSig::vec(N));
  g.connect(rz, axpy, StreamSig::vec(N));
  g.connect(axpy, wz, StreamSig::vec(N));
  const int rz2 = g.add_interface("read_z2");
  const int ru = g.add_interface("read_u");
  const int wb = g.add_interface("write_beta");
  const int dot = g.add_compute("dot", RoutineKind::Dot, 30);
  g.connect(rz2, dot, StreamSig::vec(N));
  g.connect(ru, dot, StreamSig::vec(N));
  g.connect(dot, wb, StreamSig::vec(1));
  EXPECT_EQ(total_io_ops(g), 7 * N + 1);
}

// ---- BICG (Fig. 7) ----------------------------------------------------

Mdag build_bicg() {
  Mdag g;
  const int ra = g.add_interface("read_A");
  const int rp = g.add_interface("read_p");
  const int rr = g.add_interface("read_r");
  const int wq = g.add_interface("write_q");
  const int ws = g.add_interface("write_s");
  const int gemv = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int gemvt = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const auto a_sig = StreamSig::mat(N, N, tiles_by_rows());
  g.connect(ra, gemv, a_sig);
  g.connect(ra, gemvt, a_sig);  // same data, same schedule: read A once
  g.connect(rp, gemv, StreamSig::vec(N, /*repeat=*/N / 64));
  g.connect(rr, gemvt, StreamSig::vec(N));
  g.connect(gemv, wq, StreamSig::vec(N));
  g.connect(gemvt, ws, StreamSig::vec(N));
  return g;
}

TEST(Bicg, SharedInterfaceIsValid) {
  const auto g = build_bicg();
  EXPECT_TRUE(validate(g).valid);
  EXPECT_TRUE(is_multitree(g));
}

TEST(Bicg, ReadsAOnce) {
  const auto g = build_bicg();
  // A is broadcast on chip: N*N DRAM reads, not 2*N*N.
  const std::int64_t io = total_io_ops(g);
  const std::int64_t expected =
      N * N + N * (N / 64) + N + N + N;  // A + replayed p + r + q + s
  EXPECT_EQ(io, expected);
  EXPECT_LT(io, 2 * N * N);
}

TEST(Bicg, MismatchedSchedulesAreInvalidEdges) {
  // If the two GEMVs expect different tiling schemes, the shared read is
  // no longer a valid composition.
  Mdag g;
  const int ra = g.add_interface("read_A");
  const int g1 = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int g2 = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const auto produced = StreamSig::mat(N, N, tiles_by_rows());
  auto consumed_other = StreamSig::mat(
      N, N, TileSchedule{Order::ColMajor, Order::RowMajor, 64, 64});
  g.connect(ra, g1, produced);
  g.connect(ra, g2, produced, consumed_other);
  const auto issues = validate_edges(g);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].reason.find("order"), std::string::npos);
}

// ---- ATAX (Fig. 8) ----------------------------------------------------

Mdag build_atax() {
  Mdag g;
  const int ra = g.add_interface("read_A");
  const int rx = g.add_interface("read_x");
  const int wy = g.add_interface("write_y");
  const int g1 = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int g2 = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const auto a_sig = StreamSig::mat(N, N, tiles_by_rows());
  g.connect(ra, g1, a_sig);
  g.connect(ra, g2, a_sig);
  g.connect(rx, g1, StreamSig::vec(N, N / 64));
  g.connect(g1, g2, StreamSig::vec(N));
  g.connect(g2, wy, StreamSig::vec(N));
  return g;
}

TEST(Atax, FullStreamingIsInvalidNonMultitree) {
  const auto g = build_atax();
  EXPECT_FALSE(is_multitree(g));
  // Two vertex-disjoint paths from read_A to gemv_T.
  EXPECT_EQ(vertex_disjoint_paths(g, 0, 4), 2);
  const auto v = validate(g);
  EXPECT_FALSE(v.valid);
  ASSERT_FALSE(v.disjoint_issues.empty());
  EXPECT_EQ(v.disjoint_issues[0].from, 0);
  EXPECT_EQ(v.disjoint_issues[0].to, 4);
  EXPECT_NE(v.summary.find("stalls forever"), std::string::npos);
}

TEST(Atax, SplitIntoComponentsIsValid) {
  // The paper's fallback (b): let the two GEMVs read A independently.
  const auto g = build_atax();
  // Partition: {read_A, read_x, gemv} then {gemv_T, write_y} with the cut
  // edges (A -> gemv_T, gemv -> gemv_T) round-tripping DRAM.
  std::vector<Component> parts{{{0, 1, 3}}, {{4, 2}}};
  const auto cost = partition_cost(g, parts, /*width=*/1);
  EXPECT_EQ(cost.components, 2);
  // Component subgraphs are individually valid.
  EXPECT_TRUE(validate(component_subgraph(g, parts[0])).valid);
  EXPECT_TRUE(validate(component_subgraph(g, parts[1])).valid);
  // The split pays the A read twice plus the intermediate round trip.
  EXPECT_GT(cost.io_ops, total_io_ops(g));
}

TEST(Atax, PathCounting) {
  const auto g = build_atax();
  EXPECT_EQ(count_paths(g, 0, 4), 2);  // read_A to gemv_T
  EXPECT_EQ(count_paths(g, 0, 2), 2);  // both continue to write_y
  EXPECT_EQ(count_paths(g, 1, 2), 1);  // read_x has a single path
  EXPECT_EQ(count_paths(g, 2, 0), 0);  // no backward paths
}

// ---- GEMVER (Fig. 9) --------------------------------------------------

Mdag build_gemver_full_streaming() {
  Mdag g;
  const int ra = g.add_interface("read_A");
  const int ruv = g.add_interface("read_u1v1");
  const int ruv2 = g.add_interface("read_u2v2");
  const int ryz = g.add_interface("read_y_z");
  const int wx = g.add_interface("write_x");
  const int ww = g.add_interface("write_w");
  const int ger1 = g.add_compute("ger1", RoutineKind::Ger, 20);
  const int ger2 = g.add_compute("ger2", RoutineKind::Ger, 20);
  const int gemvt = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const int gemv2 = g.add_compute("gemv_w", RoutineKind::Gemv, 40);
  const auto m = StreamSig::mat(N, N, tiles_by_rows());
  g.connect(ra, ger1, m);
  g.connect(ruv, ger1, StreamSig::vec(2 * N));
  g.connect(ger1, ger2, m);
  g.connect(ruv2, ger2, StreamSig::vec(2 * N));
  g.connect(ger2, gemvt, m);   // B into x-computation
  g.connect(ger2, gemv2, m);   // B into w-computation
  g.connect(ryz, gemvt, StreamSig::vec(2 * N));
  g.connect(gemvt, gemv2, StreamSig::vec(N));  // x feeds w = alpha B x
  g.connect(gemvt, wx, StreamSig::vec(N));
  g.connect(gemv2, ww, StreamSig::vec(N));
  return g;
}

TEST(Gemver, FullStreamingIsInvalid) {
  const auto g = build_gemver_full_streaming();
  const auto v = validate(g);
  EXPECT_FALSE(v.valid);
  // ger2 reaches gemv_w directly and through gemv_T.
  EXPECT_GE(vertex_disjoint_paths(g, 7, 9), 2);
}

TEST(Gemver, TwoComponentScheduleShrinksIo) {
  const auto g = build_gemver_full_streaming();
  // Fig. 9: component 1 = {A, rank-1 updates, x computation}; component 2
  // = {w = alpha B x}.
  std::vector<Component> parts{
      {{0, 1, 2, 3, 6, 7, 8, 4}},  // read_A, vectors, ger1, ger2, gemv_T, write_x
      {{9, 5}},                    // gemv_w, write_w
  };
  const auto cost = partition_cost(g, parts, 1);
  EXPECT_EQ(cost.components, 2);
  // I/O ~ 3N^2 + O(N): A read, B written once and read back, vectors.
  const double n2 = static_cast<double>(N) * N;
  EXPECT_NEAR(static_cast<double>(cost.io_ops) / n2, 3.0, 0.05);
  // The naive host-layer version does ~8N^2 (two GER, two GEMV, copies).
  const double naive = 8 * n2;
  EXPECT_GT(naive / static_cast<double>(cost.io_ops), 2.5);
  // Completion ~ 2N^2: one N^2 pass per component.
  EXPECT_NEAR(cost.cycles / n2, 2.0, 0.05);
}

TEST(Gemver, BadPartitionsRejected) {
  const auto g = build_gemver_full_streaming();
  // Missing a node.
  std::vector<Component> missing{{{0, 1, 2, 3, 6, 7, 8}}, {{9, 5}}};
  EXPECT_THROW(partition_cost(g, missing, 1), ConfigError);
  // Backward edge: gemv_w before its producer.
  std::vector<Component> backwards{{{9, 5}}, {{0, 1, 2, 3, 6, 7, 8, 4}}};
  EXPECT_THROW(partition_cost(g, backwards, 1), ConfigError);
  // Duplicated node.
  std::vector<Component> dup{{{0, 1, 2, 3, 6, 7, 8, 4}}, {{9, 5, 0}}};
  EXPECT_THROW(partition_cost(g, dup, 1), ConfigError);
}

// ---- Generic machinery -------------------------------------------------

TEST(Graph, TopoOrderAndCycleDetection) {
  Mdag g;
  const int a = g.add_interface("a");
  const int b = g.add_compute("b", RoutineKind::Scal, 1);
  const int c = g.add_compute("c", RoutineKind::Scal, 1);
  g.connect(a, b, StreamSig::vec(4));
  g.connect(b, c, StreamSig::vec(4));
  const auto order = g.topo_order();
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a);
  g.connect(c, b, StreamSig::vec(4));  // now cyclic
  EXPECT_THROW(g.topo_order(), ConfigError);
}

TEST(Graph, RejectsBadEdges) {
  Mdag g;
  const int a = g.add_interface("a");
  EXPECT_THROW(g.connect(a, a, StreamSig::vec(1)), ConfigError);
  EXPECT_THROW(g.connect(a, 7, StreamSig::vec(1)), ConfigError);
}

TEST(StreamSigCompat, CountAndOrderRules) {
  EXPECT_TRUE(StreamSig::vec(10).compatible(StreamSig::vec(10)));
  EXPECT_FALSE(StreamSig::vec(10).compatible(StreamSig::vec(20)));
  // Same count but a replayed stream is not order-compatible with a
  // single-pass one of the same volume.
  EXPECT_FALSE(StreamSig::vec(10, 2).compatible(StreamSig::vec(20)));
  const auto m1 = StreamSig::mat(8, 8, tiles_by_rows(4));
  const auto m2 = StreamSig::mat(
      8, 8, TileSchedule{Order::ColMajor, Order::RowMajor, 4, 4});
  EXPECT_FALSE(m1.compatible(m2));
  EXPECT_TRUE(m1.compatible(StreamSig::mat(8, 8, tiles_by_rows(4))));
  EXPECT_FALSE(m1.compatible(StreamSig::vec(64)));
}

TEST(CompositionResources, StreamingSavesInterfaceKernels) {
  // Sec. VI-C: module composition uses fewer resources (up to -40%)
  // because internal edges drop their DRAM interface kernels.
  const std::int64_t n = 4096;
  Mdag g;
  const int rv = g.add_interface("read_v");
  const int rw = g.add_interface("read_w");
  const int ru = g.add_interface("read_u");
  const int wb = g.add_interface("write_beta");
  const int axpy = g.add_compute("axpy", RoutineKind::Axpy, 12);
  const int dotn = g.add_compute("dot", RoutineKind::Dot, 30);
  g.connect(rv, axpy, StreamSig::vec(n));
  g.connect(rw, axpy, StreamSig::vec(n));
  g.connect(axpy, dotn, StreamSig::vec(n));
  g.connect(ru, dotn, StreamSig::vec(n));
  g.connect(dotn, wb, StreamSig::vec(1));
  const auto cmp = composition_resource_savings(g, Precision::Single, 16,
                                                sim::stratix10());
  EXPECT_LT(cmp.streamed.alms, cmp.sequential.alms);
  EXPECT_GT(cmp.saving_fraction, 0.05);
  EXPECT_LT(cmp.saving_fraction, 0.45);  // "up to -40%"
}

TEST(CompositionResources, InterfaceKernelScalesWithWidth) {
  const auto narrow = interface_kernel_cost(Precision::Single, 4);
  const auto wide = interface_kernel_cost(Precision::Single, 64);
  EXPECT_GT(wide.alms, narrow.alms);
  const auto dbl = interface_kernel_cost(Precision::Double, 4);
  EXPECT_GT(dbl.alms, narrow.alms);
}

TEST(CriticalPath, LongestLatencyPath) {
  Mdag g;
  const int a = g.add_interface("a");
  const int b = g.add_compute("b", RoutineKind::Scal, 10);
  const int c = g.add_compute("c", RoutineKind::Scal, 100);
  const int d = g.add_compute("d", RoutineKind::Dot, 5);
  const int w = g.add_interface("w");
  g.connect(a, b, StreamSig::vec(4));
  g.connect(a, c, StreamSig::vec(4));
  g.connect(b, d, StreamSig::vec(4));
  g.connect(c, d, StreamSig::vec(4));
  g.connect(d, w, StreamSig::vec(1));
  EXPECT_DOUBLE_EQ(critical_path_latency(g), 105);
}

}  // namespace
}  // namespace fblas::mdag
