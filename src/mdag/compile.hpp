// The composition compiler: one pipeline from an MDAG description to an
// executable streaming plan (Sec. V generalized beyond the paper's three
// worked examples).
//
// compile() takes an annotated module DAG and derives everything the host
// runtime previously hand-wired per app:
//
//   1. validity    — node shapes and port rules (what stream each port of
//                    each routine takes), edge signature checks and the
//                    multitree analysis via derive_plan(); an
//                    unexecutable graph is rejected here (enqueue time)
//                    naming the node and port, or with the validity
//                    diagnostic.
//   2. partition   — channel sizings when the lag fits on chip, otherwise
//                    a sequential split into individually-valid streaming
//                    components. Edges whose consumer demands a replay the
//                    producer cannot stream (no replay between
//                    computational modules, Sec. V-C) are *forced cuts*:
//                    they always materialize through DRAM and sequence
//                    their endpoints into different components.
//   3. lowering    — per-edge FIFO names and depths, synthesized fan-out
//                    trunks (only 2-way replication modules exist),
//                    synthesized zero generators for GEMV nodes built
//                    without a y0 edge, and DRAM round-trips for cut
//                    edges (reusing a sibling interface writer's buffer
//                    when one carries the same stream, otherwise a scratch
//                    buffer the runtime allocates).
//   4. tap plan    — every FIFO of every component, in topological
//                    declaration order, each with the edge and pass count
//                    its checksum prediction needs, so the runtime can
//                    localize a divergence to the first corrupted edge.
//
// The result is one record per node, edge and channel; the runtime reads
// them and re-derives nothing. The compiler is host-agnostic: it never
// touches buffers or streams. host::Composition +
// Context::run_composition interpret the result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mdag/graph.hpp"

namespace fblas::mdag {

/// Per-node annotation the graph structure alone cannot carry. Compute
/// inputs follow each node's in-edge declaration order (its ports):
/// GEMV [A, x, (y0)], AXPY/DOT [x, y], GER [A0, x, y], TRSV [A, b],
/// SCAL [x].
struct NodeSemantics {
  bool is_output = false;  ///< interface writer (exactly one in-edge)
  /// Reader streams op(A)'s `uplo` triangle in solve order instead of a
  /// tiled full matrix (the TRSV A operand).
  bool triangular = false;
  // Compute nodes (and triangular readers, which reuse uplo/trans).
  Transpose trans = Transpose::None;
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
};

struct CompileOptions {
  int width = 16;  ///< vectorization width of every lowered module
  /// Largest FIFO the planner may allocate to stream a non-multitree.
  std::int64_t max_channel_depth = 1 << 16;
  bool prefer_sizing = true;
  /// When false, a graph that needs a sequential split (or a forced DRAM
  /// cut) is rejected with the validity diagnostic instead of partitioned.
  bool allow_split = true;
};

/// One node of the plan.
struct PlanNode {
  int component = -1;
  std::vector<int> ins;   ///< in-edges in port order
  std::vector<int> outs;  ///< out-edges in declaration order
  /// Out-edges this node streams in its own component: all but the cut
  /// edges a DRAM buffer already carries. One streams directly; two go
  /// through a fan-out module fed by `trunk`.
  std::vector<int> branches;
  int trunk = -1;  ///< channel of the pre-fan-out stream, or -1
  /// Channel this node's module pushes: its trunk, or its one branch's
  /// channel; -1 for writers and for readers nothing streams from.
  int push = -1;
  int zero = -1;  ///< channel of the synthesized zero y0 (GEMV), or -1
  /// TRSV nodes and the triangular readers feeding them: the solve
  /// dimension and op(A)'s triangle, which fixes the solve order.
  std::int64_t solve_n = 0;
  Uplo solve_uplo = Uplo::Lower;
};

/// One edge of the plan.
struct PlanEdge {
  /// Cut edges round-trip through DRAM between components.
  bool cut = false;
  /// Cut edges only: the interface node whose buffer already carries the
  /// stream (the reader itself, or a sibling writer of the producer), or
  /// else the runtime's scratch slot the producer spills into.
  int writer = -1;
  int scratch = -1;
  /// Channels: what the producer's module pushes (-1 when `writer`
  /// carries the edge) and what the consumer pops. Equal unless cut.
  int push = -1;
  int pop = -1;
  /// Solve orders of vector streams not in natural order: what a TRSV
  /// producer pushes, and what a TRSV b port pops. A DRAM writer of the
  /// edge writes from `pushed_order`; a DRAM reader reads in
  /// `popped_order`.
  std::optional<Uplo> pushed_order;
  std::optional<Uplo> popped_order;
};

/// One FIFO of one component's lowered stream graph. Every channel is
/// also a checksum-tap site.
struct PlanChannel {
  std::string name;
  std::int64_t depth;
  int component;
  /// Its checksum prediction: `passes` copies of edge `edge`'s per-pass
  /// values, or, for edge -1, a synthesized zero stream of `passes`
  /// values.
  int edge;
  std::int64_t passes;
};

struct Compiled {
  CompileOptions options;
  std::vector<PlanNode> nodes;
  std::vector<PlanEdge> edges;
  /// Every FIFO, by component, each component in topological declaration
  /// order: the channel-creation list and the tap order at once.
  std::vector<PlanChannel> channels;
  std::vector<std::vector<int>> order;  ///< per component, topo node order
  std::vector<std::int64_t> scratch;    ///< elements per scratch slot
  /// Level-2+ compute modules (feeds sim::composition_frequency).
  int matrix_modules = 0;
};

/// Compiles an annotated MDAG into an executable plan. Throws ConfigError
/// when the description cannot execute: edge-invalid signatures (via
/// derive_plan), unsupported routine kinds, a port fed a stream it cannot
/// take (a vector into a matrix port, a triangle outside a TRSV A port,
/// a replayed TRSV b, a DOT emitting more than one value), an upper
/// solve whose b or x a compute node would have to reorder, replication
/// beyond the 2-way fan-out module, a triangle cut through DRAM, or —
/// with allow_split = false — any graph that is not a single
/// fully-streaming component.
Compiled compile(const Mdag& g, const std::vector<NodeSemantics>& sem,
                 const CompileOptions& opts = {});

}  // namespace fblas::mdag
