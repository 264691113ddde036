// Validity analysis of streaming compositions (Sec. V):
//  * every edge must carry identical counts in identical order;
//  * a multitree (at most one path between any pair of vertices) with
//    valid edges is always a valid composition;
//  * two or more vertex-disjoint paths between a pair (a non-multitree)
//    stall forever unless a channel on one path buffers the full lag —
//    the ATAX situation of Fig. 8.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mdag/graph.hpp"

namespace fblas::mdag {

struct EdgeIssue {
  int edge;
  std::string reason;
};

/// Checks condition (1)/(2) on every edge, O(E); empty result means all
/// valid.
std::vector<EdgeIssue> validate_edges(const Mdag& g);

/// The shared state of the passes below, built once per graph in
/// O(V + E): the out-edge targets of every node, the degrees and one
/// topological order. Throws ConfigError if the graph has a cycle.
class PathIndex {
 public:
  explicit PathIndex(const Mdag& g);

  /// Kahn's order, taking out-edges in edge-id order (Mdag::topo_order).
  const std::vector<int>& order() const { return order_; }

  /// Number of distinct directed paths from `from` to every node (1 to
  /// itself): one DP over the order, O(V + E).
  std::vector<std::int64_t> paths_from(int from) const;

  /// Targets of u's out-edges in edge-id order; parallel edges repeat.
  std::span<const int> successors(int u) const {
    const auto i = static_cast<std::size_t>(u);
    return {succ_.data() + first_[i], succ_.data() + first_[i + 1]};
  }
  int out_degree(int u) const {
    const auto i = static_cast<std::size_t>(u);
    return first_[i + 1] - first_[i];
  }
  int in_degree(int v) const {
    return in_degree_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<int> order_;
  std::vector<int> first_;  ///< u's targets are succ_[first_[u], first_[u+1])
  std::vector<int> succ_;
  std::vector<int> in_degree_;
};

/// Number of distinct directed paths from `from` to `to`: one DP,
/// O(V + E).
std::int64_t count_paths(const Mdag& g, int from, int to);

/// True when at most one path exists between every ordered vertex pair:
/// one DP per source, O(V (V + E)).
bool is_multitree(const Mdag& g);

/// Maximum number of internally-vertex-disjoint paths from `from` to `to`
/// (Menger's theorem via unit-capacity max-flow on the split graph): at
/// most min(out-degree(from), in-degree(to)) augmenting BFS passes, each
/// O(V + E).
int vertex_disjoint_paths(const Mdag& g, int from, int to);
/// The same count inside the subgraph induced by the nodes where
/// `within` is set.
int vertex_disjoint_paths(const Mdag& g, int from, int to,
                          const std::vector<bool>& within);

/// A vertex pair whose >= 2 vertex-disjoint paths make the composition
/// invalid for unbounded input sizes.
struct DisjointPairIssue {
  int from, to;
  int paths;
};

/// All pairs with >= 2 vertex-disjoint paths, ordered by `from`, then
/// `to`. One DP per source with out-degree >= 2; a flow only for pairs
/// with >= 2 paths where `to` also has in-degree >= 2, since the split
/// graph's unit edges bound the path count by both degrees.
std::vector<DisjointPairIssue> disjoint_path_issues(const Mdag& g);

/// Overall verdict following the paper's rules: the invalid edges, the
/// vertex-disjoint pairs and a readable summary. Channel depths that
/// would absorb the pairs' lag come from required_channel_depths()
/// (mdag/auto_partition.hpp). Costs one disjoint_path_issues() plus, for
/// a valid graph, one is_multitree().
struct Validity {
  bool valid;
  std::vector<EdgeIssue> edge_issues;
  std::vector<DisjointPairIssue> disjoint_issues;
  std::string summary;
};
Validity validate(const Mdag& g);

}  // namespace fblas::mdag
