#include "mdag/validity.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/error.hpp"

namespace fblas::mdag {

std::vector<EdgeIssue> validate_edges(const Mdag& g) {
  std::vector<EdgeIssue> issues;
  for (int i = 0; i < static_cast<int>(g.edges().size()); ++i) {
    const Edge& e = g.edge(i);
    if (e.produced.compatible(e.consumed)) continue;
    std::ostringstream os;
    os << "edge " << g.node(e.from).name << " -> " << g.node(e.to).name
       << ": ";
    if (e.produced.count != e.consumed.count) {
      os << "producer emits " << e.produced.count
         << " elements but consumer expects " << e.consumed.count
         << " (replaying data between computational modules is not "
            "allowed)";
    } else {
      os << "element orders differ (incompatible tiling schemes)";
    }
    issues.push_back({i, os.str()});
  }
  return issues;
}

PathIndex::PathIndex(const Mdag& g)
    : first_(g.nodes().size() + 1, 0),
      succ_(g.edges().size()),
      in_degree_(g.nodes().size(), 0) {
  // A counting sort of the edges by source keeps edge-id order per node.
  for (const Edge& e : g.edges()) {
    ++first_[static_cast<std::size_t>(e.from) + 1];
    ++in_degree_[static_cast<std::size_t>(e.to)];
  }
  for (std::size_t u = 1; u < first_.size(); ++u) first_[u] += first_[u - 1];
  std::vector<int> next(first_.begin(), first_.end() - 1);
  for (const Edge& e : g.edges()) {
    succ_[static_cast<std::size_t>(
        next[static_cast<std::size_t>(e.from)]++)] = e.to;
  }
  // Kahn's algorithm; order_ doubles as its queue.
  std::vector<int> indeg = in_degree_;
  for (int u = 0; u < g.node_count(); ++u) {
    if (indeg[static_cast<std::size_t>(u)] == 0) order_.push_back(u);
  }
  for (std::size_t qi = 0; qi < order_.size(); ++qi) {
    for (const int v : successors(order_[qi])) {
      if (--indeg[static_cast<std::size_t>(v)] == 0) order_.push_back(v);
    }
  }
  FBLAS_REQUIRE(order_.size() == g.nodes().size(),
                "MDAG contains a cycle; streaming compositions must be "
                "acyclic");
}

std::vector<std::int64_t> PathIndex::paths_from(int from) const {
  std::vector<std::int64_t> paths(in_degree_.size(), 0);
  paths[static_cast<std::size_t>(from)] = 1;
  for (const int u : order_) {
    const std::int64_t p = paths[static_cast<std::size_t>(u)];
    if (p == 0) continue;
    for (const int v : successors(u)) paths[static_cast<std::size_t>(v)] += p;
  }
  return paths;
}

std::int64_t count_paths(const Mdag& g, int from, int to) {
  return PathIndex(g).paths_from(from)[static_cast<std::size_t>(to)];
}

bool is_multitree(const Mdag& g) {
  const PathIndex index(g);
  for (int u = 0; u < g.node_count(); ++u) {
    const auto paths = index.paths_from(u);
    for (int v = 0; v < g.node_count(); ++v) {
      if (v != u && paths[static_cast<std::size_t>(v)] > 1) return false;
    }
  }
  return true;
}

namespace {

/// Unit-capacity max-flow (Edmonds-Karp) on the vertex-split graph:
/// every node x becomes x_in -> x_out with capacity 1 (infinite for the
/// terminals), every edge u -> v becomes u_out -> v_in. With `within`,
/// only edges between nodes where it is set take part.
class SplitFlow {
 public:
  SplitFlow(const Mdag& g, int s, int t, const std::vector<bool>* within) {
    const int n = g.node_count();
    node_count_ = 2 * n;
    for (int x = 0; x < n; ++x) {
      const int cap = (x == s || x == t) ? kInf : 1;
      add_edge(in(x), out(x), cap);
    }
    // Each physical channel can carry one path (paths sharing an edge
    // would share its endpoints anyway).
    for (const Edge& e : g.edges()) {
      if (within != nullptr &&
          !((*within)[static_cast<std::size_t>(e.from)] &&
            (*within)[static_cast<std::size_t>(e.to)])) {
        continue;
      }
      add_edge(out(e.from), in(e.to), 1);
    }
    s_ = out(s);
    t_ = in(t);
  }

  int max_flow() {
    int flow = 0;
    while (true) {
      // BFS for an augmenting path.
      std::vector<int> prev_edge(static_cast<std::size_t>(node_count_), -1);
      std::vector<bool> seen(static_cast<std::size_t>(node_count_), false);
      std::queue<int> q;
      q.push(s_);
      seen[static_cast<std::size_t>(s_)] = true;
      while (!q.empty() && !seen[static_cast<std::size_t>(t_)]) {
        const int u = q.front();
        q.pop();
        for (const int ei : adj_[static_cast<std::size_t>(u)]) {
          const FlowEdge& fe = edges_[static_cast<std::size_t>(ei)];
          if (fe.cap > 0 && !seen[static_cast<std::size_t>(fe.to)]) {
            seen[static_cast<std::size_t>(fe.to)] = true;
            prev_edge[static_cast<std::size_t>(fe.to)] = ei;
            q.push(fe.to);
          }
        }
      }
      if (!seen[static_cast<std::size_t>(t_)]) break;
      // Augment by 1 (all path capacities are >= 1).
      for (int v = t_; v != s_;) {
        const int ei = prev_edge[static_cast<std::size_t>(v)];
        edges_[static_cast<std::size_t>(ei)].cap -= 1;
        edges_[static_cast<std::size_t>(ei ^ 1)].cap += 1;
        v = edges_[static_cast<std::size_t>(ei ^ 1)].to;
      }
      ++flow;
      if (flow > 64) break;  // defensive cap; MDAGs are small
    }
    return flow;
  }

 private:
  static constexpr int kInf = 1 << 20;
  struct FlowEdge {
    int to;
    int cap;
  };

  int in(int x) const { return 2 * x; }
  int out(int x) const { return 2 * x + 1; }

  void add_edge(int u, int v, int cap) {
    adj_.resize(static_cast<std::size_t>(node_count_));
    adj_[static_cast<std::size_t>(u)].push_back(
        static_cast<int>(edges_.size()));
    edges_.push_back({v, cap});
    adj_[static_cast<std::size_t>(v)].push_back(
        static_cast<int>(edges_.size()));
    edges_.push_back({u, 0});
  }

  int node_count_;
  int s_, t_;
  std::vector<FlowEdge> edges_;
  std::vector<std::vector<int>> adj_;
};

}  // namespace

int vertex_disjoint_paths(const Mdag& g, int from, int to) {
  FBLAS_REQUIRE(from != to, "disjoint paths need distinct endpoints");
  SplitFlow flow(g, from, to, nullptr);
  return flow.max_flow();
}

int vertex_disjoint_paths(const Mdag& g, int from, int to,
                          const std::vector<bool>& within) {
  FBLAS_REQUIRE(from != to, "disjoint paths need distinct endpoints");
  SplitFlow flow(g, from, to, &within);
  return flow.max_flow();
}

std::vector<DisjointPairIssue> disjoint_path_issues(const Mdag& g) {
  // Every flow edge leaving u's split node and entering v's has capacity
  // 1, so at most min(out-degree(u), in-degree(v)) disjoint paths exist:
  // the flow runs only where both are >= 2.
  const PathIndex index(g);
  std::vector<DisjointPairIssue> issues;
  for (int u = 0; u < g.node_count(); ++u) {
    if (index.out_degree(u) < 2) continue;
    const auto paths = index.paths_from(u);
    for (int v = 0; v < g.node_count(); ++v) {
      if (u == v || paths[static_cast<std::size_t>(v)] < 2 ||
          index.in_degree(v) < 2) {
        continue;
      }
      const int k = vertex_disjoint_paths(g, u, v);
      if (k >= 2) issues.push_back({u, v, k});
    }
  }
  return issues;
}

Validity validate(const Mdag& g) {
  Validity v;
  v.edge_issues = validate_edges(g);
  v.disjoint_issues = disjoint_path_issues(g);
  v.valid = v.edge_issues.empty() && v.disjoint_issues.empty();
  std::ostringstream os;
  if (v.valid) {
    os << "valid streaming composition ("
       << (is_multitree(g) ? "multitree" : "single-path DAG") << ")";
  } else {
    for (const auto& ei : v.edge_issues) os << ei.reason << "\n";
    for (const auto& di : v.disjoint_issues) {
      os << g.node(di.from).name << " and " << g.node(di.to).name
         << " are connected by " << di.paths
         << " vertex-disjoint paths: the composition stalls forever unless "
            "a channel buffers the full lag (size >= input size), or the "
            "MDAG is split into sequential components\n";
    }
  }
  v.summary = os.str();
  return v;
}

}  // namespace fblas::mdag
