#include "mdag/auto_partition.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "mdag/io_volume.hpp"

namespace fblas::mdag {
namespace {

/// Number of compute vertices on the shortest path from `from` to every
/// node, -1 where unreachable (BFS; interface vertices are free).
std::vector<int> compute_hops(const Mdag& g, const PathIndex& index,
                              int from) {
  std::vector<int> dist(g.nodes().size(), -1);
  std::vector<int> queue{from};
  dist[static_cast<std::size_t>(from)] = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int u = queue[qi];
    for (const int v : index.successors(u)) {
      const int cost = g.node(v).type == NodeType::Compute ? 1 : 0;
      const int nd = dist[static_cast<std::size_t>(u)] + cost;
      auto& dv = dist[static_cast<std::size_t>(v)];
      if (dv == -1 || nd < dv) {
        dv = nd;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// True when a member of `part` reaches `v` through two vertex-disjoint
/// paths inside the nodes where `within` is set (`part` and `v`).
bool reconverges_at(const Mdag& g, const PathIndex& index,
                    const Component& part, const std::vector<bool>& within,
                    int v) {
  int fan_in = 0;
  for (const int u : part.nodes) {
    for (const int t : index.successors(u)) fan_in += t == v ? 1 : 0;
  }
  if (fan_in < 2) return false;
  for (const int u : part.nodes) {
    int fan_out = 0;
    for (const int t : index.successors(u)) {
      fan_out += within[static_cast<std::size_t>(t)] ? 1 : 0;
    }
    if (fan_out >= 2 && vertex_disjoint_paths(g, u, v, within) >= 2) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<ChannelSizing> required_channel_depths(const Mdag& g) {
  const PathIndex index(g);
  std::vector<ChannelSizing> sizings;
  std::vector<std::int64_t> paths;
  std::vector<int> hops;
  int source = -1;
  for (const DisjointPairIssue& issue : disjoint_path_issues(g)) {
    // Issues come grouped by source: one DP and one BFS per source.
    if (issue.from != source) {
      source = issue.from;
      paths = index.paths_from(source);
      hops = compute_hops(g, index, source);
    }
    // Among the sink's incoming edges reachable from the source, the one
    // on the path with the fewest compute vertices is the "early" stream
    // that must buffer while the other paths crunch their data.
    int best_edge = -1;
    int best_hops = 1 << 30;
    std::int64_t lag = 0;
    for (int ei = 0; ei < static_cast<int>(g.edges().size()); ++ei) {
      const Edge& e = g.edge(ei);
      if (e.to != issue.to) continue;
      if (paths[static_cast<std::size_t>(e.from)] == 0) continue;
      const int h = hops[static_cast<std::size_t>(e.from)];
      if (h < best_hops) {
        best_hops = h;
        best_edge = ei;
      }
      // The lag is set by the slowest sibling path's first output.
      lag = std::max(lag, e.produced.first_output_lag());
    }
    if (best_edge >= 0) {
      sizings.push_back({best_edge, lag});
    }
  }
  // Deduplicate edges, keeping the largest requirement.
  std::sort(sizings.begin(), sizings.end(),
            [](const ChannelSizing& a, const ChannelSizing& b) {
              return a.edge < b.edge ||
                     (a.edge == b.edge && a.min_depth > b.min_depth);
            });
  sizings.erase(std::unique(sizings.begin(), sizings.end(),
                            [](const ChannelSizing& a,
                               const ChannelSizing& b) {
                              return a.edge == b.edge;
                            }),
                sizings.end());
  return sizings;
}

Plan derive_plan(const Mdag& g, const PlanOptions& options) {
  const auto edge_issues = validate_edges(g);
  if (!edge_issues.empty()) {
    throw ConfigError(
        "composition has invalid edges (count/order mismatch); no schedule "
        "can fix it: " + edge_issues.front().reason);
  }
  Plan plan;
  const auto issues = disjoint_path_issues(g);
  if (issues.empty()) {
    // Already a valid streaming composition.
    Component all;
    for (int i = 0; i < g.node_count(); ++i) all.nodes.push_back(i);
    plan.feasible = true;
    plan.components = {all};
    plan.io_ops = total_io_ops(g);
    plan.cycles = streaming_cycles(g, options.width);
    plan.explanation = "composition is a valid multitree: fully streaming";
    return plan;
  }
  // Option (a): size the offending channels.
  if (options.prefer_sizing) {
    const auto sizings = required_channel_depths(g);
    const bool fits = std::all_of(
        sizings.begin(), sizings.end(), [&](const ChannelSizing& s) {
          return s.min_depth <= options.max_channel_depth;
        });
    if (fits && !sizings.empty()) {
      Component all;
      for (int i = 0; i < g.node_count(); ++i) all.nodes.push_back(i);
      plan.feasible = true;
      plan.sizings = sizings;
      plan.components = {all};
      plan.io_ops = total_io_ops(g);
      plan.cycles = streaming_cycles(g, options.width);
      std::ostringstream os;
      os << "fully streaming with " << sizings.size()
         << " sized channel(s):";
      for (const auto& s : sizings) {
        os << " [" << g.node(g.edge(s.edge).from).name << " -> "
           << g.node(g.edge(s.edge).to).name << "] >= " << s.min_depth;
      }
      plan.explanation = os.str();
      return plan;
    }
  }
  // Option (b): greedy topological split into valid components. Each
  // node follows every member of `current` in topological order, so it
  // is a sink of current + v and only pairs ending at it can be new. The
  // DRAM interfaces of a component's subgraph have one edge each and
  // never form such a pair, so `current` stays valid exactly while no
  // member reaches v through two vertex-disjoint paths among current + v.
  const PathIndex index(g);
  std::vector<bool> within(g.nodes().size(), false);
  std::vector<Component> parts;
  Component current;
  for (const int v : g.topo_order()) {
    within[static_cast<std::size_t>(v)] = true;
    if (reconverges_at(g, index, current, within, v)) {
      for (const int u : current.nodes) {
        within[static_cast<std::size_t>(u)] = false;
      }
      parts.push_back(std::move(current));
      current = Component{{v}};
    } else {
      current.nodes.push_back(v);
    }
  }
  if (!current.nodes.empty()) parts.push_back(current);
  const auto cost = partition_cost(g, parts, options.width);
  plan.feasible = true;
  plan.components = parts;
  plan.io_ops = cost.io_ops;
  plan.cycles = cost.cycles;
  std::ostringstream os;
  os << "split into " << parts.size()
     << " sequential streaming components (cut edges round-trip DRAM)";
  plan.explanation = os.str();
  return plan;
}

}  // namespace fblas::mdag
