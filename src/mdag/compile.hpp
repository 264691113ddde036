// The composition compiler: one pipeline from an MDAG description to an
// executable streaming plan (Sec. V generalized beyond the paper's three
// worked examples).
//
// compile() takes an annotated module DAG and derives everything the host
// runtime previously hand-wired per app:
//
//   1. validity    — edge signature checks and the multitree analysis,
//                    via derive_plan(); an unexecutable graph is rejected
//                    here (enqueue time) with the validity diagnostic.
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
//                    declaration order, so a verify::GraphChecker can
//                    localize a divergence to the first corrupted edge.
//
// The compiler is host-agnostic: it never touches buffers or streams.
// host::Composition + Context::run_composition interpret the result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdag/auto_partition.hpp"
#include "mdag/graph.hpp"

namespace fblas::mdag {

/// Per-node annotation the graph structure alone cannot carry: operand
/// identity for interface nodes and the scalar/orientation parameters of
/// compute nodes. Compute inputs follow each node's in-edge declaration
/// order: GEMV [A, x, (y0)], AXPY/DOT [x, y], GER [A0, x, y],
/// TRSV [A, b], SCAL [x].
struct NodeSemantics {
  // Interface nodes.
  std::string operand;     ///< binding key (diagnostics; the host binds by node)
  bool is_output = false;  ///< DRAM writer (exactly one in-edge)
  /// Reader streams op(A)'s `uplo` triangle in solve order instead of a
  /// tiled full matrix (the TRSV A operand).
  bool triangular = false;
  // Compute nodes (and triangular readers, which reuse uplo/trans).
  Transpose trans = Transpose::None;
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  double alpha = 1.0;  ///< GEMV/GER/AXPY/SCAL coefficient
  double beta = 0.0;   ///< GEMV y0 coefficient (forced 0 when y0 is synthesized)
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

/// One FIFO of one component's lowered stream graph. Every channel is
/// also a checksum-tap site.
struct CompiledChannel {
  enum class Role {
    Edge,      ///< carries MDAG edge `id`
    Trunk,     ///< pre-fanout stream of producer node `id`
    Zero,      ///< synthesized zero y0 of GEMV node `id`
    Spill,     ///< producer side of cut edge `id` into a scratch buffer
    Readback,  ///< consumer side of cut edge `id` (DRAM round trip)
  };
  Role role;
  int id;
  std::string name;
  std::int64_t depth;
};

/// DRAM materialization of a cut edge.
struct CutEdge {
  int edge;
  /// Interface-writer node whose bound buffer already carries the stream
  /// (same per-pass values); -1 means no such sibling exists and the
  /// runtime must allocate a scratch buffer of `scratch_elems` elements
  /// (fed by a Spill channel in the producer's component).
  int writer = -1;
  std::int64_t scratch_elems = 0;
};

struct Compiled {
  CompileOptions options;
  /// The execution plan of the streamable subgraph (forced cuts removed).
  Plan plan;
  std::vector<int> component_of;         ///< node -> component index
  std::vector<std::vector<int>> order;   ///< per component, topo node order
  std::vector<bool> edge_cut;            ///< per edge
  std::vector<CutEdge> cuts;             ///< one per cut edge
  std::vector<std::string> edge_channel; ///< per edge ("" when cut)
  std::vector<std::int64_t> edge_depth;  ///< per edge (0 when cut)
  std::vector<int> fanout_nodes;         ///< nodes lowered with a fanout2
  std::vector<std::string> trunk_name;   ///< parallel to fanout_nodes
  std::vector<int> zero_nodes;           ///< GEMV nodes with synthesized y0
  std::vector<std::string> zero_name;    ///< parallel to zero_nodes
  std::vector<std::int64_t> zero_count;  ///< parallel to zero_nodes
  /// Per component: every FIFO in topological declaration order — the
  /// channel-creation list and the checker's tap order at once.
  std::vector<std::vector<CompiledChannel>> channels;
  /// Level-2+ compute modules (feeds sim::composition_frequency).
  int matrix_modules = 0;

  bool has_trunk(int node) const;
  const std::string& trunk_of(int node) const;
  bool has_zero(int node) const;
  std::size_t zero_index(int node) const;
  const CutEdge& cut_of(int edge) const;
  /// In-edges of `node` in declaration (port) order.
  std::vector<int> in_edges(const Mdag& g, int node) const;
  /// Out-edges of `node` in declaration order.
  std::vector<int> out_edges(const Mdag& g, int node) const;
};

/// Compiles an annotated MDAG into an executable plan. Throws ConfigError
/// when the description cannot execute: edge-invalid signatures (via
/// derive_plan), unsupported routine kinds, replication beyond the 2-way
/// fan-out module, or — with allow_split = false — any graph that is not
/// a single fully-streaming component.
Compiled compile(const Mdag& g, const std::vector<NodeSemantics>& sem,
                 const CompileOptions& opts = {});

}  // namespace fblas::mdag
