#include "mdag/compile.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {
namespace {

bool supported_compute(RoutineKind k) {
  switch (k) {
    case RoutineKind::Gemv:
    case RoutineKind::Ger:
    case RoutineKind::Trsv:
    case RoutineKind::Axpy:
    case RoutineKind::Scal:
    case RoutineKind::Dot:
      return true;
    default:
      return false;
  }
}

std::int64_t per_pass(const StreamSig& s) {
  return s.repeat > 0 ? s.count / s.repeat : s.count;
}

/// A replay-only mismatch: the consumer wants the same per-pass stream
/// the producer emits, just replayed (or re-scheduled). No channel can
/// fix that — the paper's modules never replay between computes — so the
/// edge must round-trip through DRAM.
bool replay_mismatch(const Edge& e) {
  if (e.produced.compatible(e.consumed)) return false;
  if (e.produced.is_matrix != e.consumed.is_matrix) return false;
  if (per_pass(e.produced) != per_pass(e.consumed)) return false;
  if (e.produced.is_matrix &&
      (e.produced.rows != e.consumed.rows ||
       e.produced.cols != e.consumed.cols)) {
    return false;
  }
  return true;
}

std::string unique_name(std::set<std::string>& used, std::string base,
                        int edge) {
  if (!used.insert(base).second) {
    base += "#" + std::to_string(edge);
    used.insert(base);
  }
  return base;
}

}  // namespace

bool Compiled::has_trunk(int node) const {
  return std::find(fanout_nodes.begin(), fanout_nodes.end(), node) !=
         fanout_nodes.end();
}

const std::string& Compiled::trunk_of(int node) const {
  const auto it = std::find(fanout_nodes.begin(), fanout_nodes.end(), node);
  FBLAS_REQUIRE(it != fanout_nodes.end(), "node has no fan-out trunk");
  return trunk_name[static_cast<std::size_t>(it - fanout_nodes.begin())];
}

bool Compiled::has_zero(int node) const {
  return std::find(zero_nodes.begin(), zero_nodes.end(), node) !=
         zero_nodes.end();
}

std::size_t Compiled::zero_index(int node) const {
  const auto it = std::find(zero_nodes.begin(), zero_nodes.end(), node);
  FBLAS_REQUIRE(it != zero_nodes.end(), "node has no synthesized zero input");
  return static_cast<std::size_t>(it - zero_nodes.begin());
}

const CutEdge& Compiled::cut_of(int edge) const {
  for (const CutEdge& c : cuts) {
    if (c.edge == edge) return c;
  }
  throw ConfigError("edge " + std::to_string(edge) + " is not cut");
}

std::vector<int> Compiled::in_edges(const Mdag& g, int node) const {
  std::vector<int> out;
  for (int e = 0; e < static_cast<int>(g.edges().size()); ++e) {
    if (g.edge(e).to == node) out.push_back(e);
  }
  return out;
}

std::vector<int> Compiled::out_edges(const Mdag& g, int node) const {
  std::vector<int> out;
  for (int e = 0; e < static_cast<int>(g.edges().size()); ++e) {
    if (g.edge(e).from == node) out.push_back(e);
  }
  return out;
}

Compiled compile(const Mdag& g, const std::vector<NodeSemantics>& sem,
                 const CompileOptions& opts) {
  FBLAS_REQUIRE(static_cast<int>(sem.size()) == g.node_count(),
                "compile: one NodeSemantics per node required");
  const int nn = g.node_count();
  const int ne = static_cast<int>(g.edges().size());

  Compiled cp;
  cp.options = opts;
  cp.edge_cut.assign(static_cast<std::size_t>(ne), false);
  cp.edge_channel.assign(static_cast<std::size_t>(ne), std::string());
  cp.edge_depth.assign(static_cast<std::size_t>(ne), 0);

  // Shape checks the planner does not make.
  for (int u = 0; u < nn; ++u) {
    const Node& node = g.node(u);
    const NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto outs = cp.out_edges(g, u);
    if (node.type == NodeType::Compute) {
      if (!supported_compute(node.kind)) {
        throw ConfigError("compile: node '" + node.name + "' uses " +
                          std::string(routine_info(node.kind).name) +
                          ", which has no streaming-composition lowering");
      }
      if (outs.size() == 0) {
        throw ConfigError("compile: compute node '" + node.name +
                          "' has no output edge");
      }
      std::size_t want_min = 0, want_max = 0;
      switch (node.kind) {
        case RoutineKind::Gemv: want_min = 2; want_max = 3; break;
        case RoutineKind::Ger: want_min = want_max = 3; break;
        case RoutineKind::Trsv: want_min = want_max = 2; break;
        case RoutineKind::Axpy:
        case RoutineKind::Dot: want_min = want_max = 2; break;
        case RoutineKind::Scal: want_min = want_max = 1; break;
        default: break;
      }
      if (ins.size() < want_min || ins.size() > want_max) {
        throw ConfigError("compile: node '" + node.name + "' (" +
                          std::string(routine_info(node.kind).name) + ") has " +
                          std::to_string(ins.size()) + " input edges");
      }
    } else if (s.is_output) {
      if (ins.size() != 1 || !outs.empty()) {
        throw ConfigError("compile: interface writer '" + node.name +
                          "' must have exactly one input edge and no outputs");
      }
    } else if (!ins.empty()) {
      throw ConfigError("compile: interface reader '" + node.name +
                        "' cannot have input edges");
    }
  }

  // ---- 1/2. Forced cuts, then validity + partition of what can stream.
  std::vector<bool> forced(static_cast<std::size_t>(ne), false);
  for (int e = 0; e < ne; ++e) {
    if (replay_mismatch(g.edge(e))) forced[static_cast<std::size_t>(e)] = true;
  }

  Mdag sub;
  for (int u = 0; u < nn; ++u) {
    const Node& node = g.node(u);
    if (node.type == NodeType::Interface) {
      sub.add_interface(node.name);
    } else {
      sub.add_compute(node.name, node.kind, node.latency);
    }
  }
  std::vector<int> sub_to_orig;
  for (int e = 0; e < ne; ++e) {
    if (forced[static_cast<std::size_t>(e)]) continue;
    const Edge& edge = g.edge(e);
    sub.connect(edge.from, edge.to, edge.produced, edge.consumed,
                edge.channel_depth);
    sub_to_orig.push_back(e);
  }

  PlanOptions popt;
  popt.max_channel_depth = opts.max_channel_depth;
  popt.prefer_sizing = opts.prefer_sizing;
  popt.width = opts.width;
  cp.plan = derive_plan(sub, popt);  // throws ConfigError on invalid edges

  std::vector<std::vector<int>> comps;
  for (const Component& c : cp.plan.components) comps.push_back(c.nodes);
  if (comps.empty()) {
    std::vector<int> all(static_cast<std::size_t>(nn));
    for (int u = 0; u < nn; ++u) all[static_cast<std::size_t>(u)] = u;
    comps.push_back(std::move(all));
  }

  cp.component_of.assign(static_cast<std::size_t>(nn), -1);
  auto reindex = [&] {
    for (std::size_t c = 0; c < comps.size(); ++c) {
      for (int u : comps[c]) {
        cp.component_of[static_cast<std::size_t>(u)] = static_cast<int>(c);
      }
    }
  };
  reindex();

  // A forced cut sequences its consumer after its producer: the DRAM
  // round trip is only consistent once the producer's component has
  // drained. Split any component a forced cut lands inside, moving the
  // consumer and everything it feeds (within that component) later.
  for (bool changed = true; changed;) {
    changed = false;
    for (int e = 0; e < ne && !changed; ++e) {
      if (!forced[static_cast<std::size_t>(e)]) continue;
      const Edge& edge = g.edge(e);
      const int cf = cp.component_of[static_cast<std::size_t>(edge.from)];
      const int ct = cp.component_of[static_cast<std::size_t>(edge.to)];
      if (cf != ct) continue;
      const auto& nodes = comps[static_cast<std::size_t>(cf)];
      const std::set<int> members(nodes.begin(), nodes.end());
      std::set<int> moved{edge.to};
      for (bool grew = true; grew;) {
        grew = false;
        for (int e2 = 0; e2 < ne; ++e2) {
          if (forced[static_cast<std::size_t>(e2)]) continue;
          const Edge& s = g.edge(e2);
          if (moved.count(s.from) != 0 && members.count(s.to) != 0 &&
              moved.insert(s.to).second) {
            grew = true;
          }
        }
      }
      std::vector<int> keep, split;
      for (int u : nodes) {
        (moved.count(u) != 0 ? split : keep).push_back(u);
      }
      comps[static_cast<std::size_t>(cf)] = std::move(keep);
      comps.insert(comps.begin() + cf + 1, std::move(split));
      reindex();
      changed = true;
    }
  }

  for (int e = 0; e < ne; ++e) {
    const Edge& edge = g.edge(e);
    cp.edge_cut[static_cast<std::size_t>(e)] =
        forced[static_cast<std::size_t>(e)] ||
        cp.component_of[static_cast<std::size_t>(edge.from)] !=
            cp.component_of[static_cast<std::size_t>(edge.to)];
    if (cp.edge_cut[static_cast<std::size_t>(e)]) {
      FBLAS_REQUIRE(cp.component_of[static_cast<std::size_t>(edge.from)] <
                        cp.component_of[static_cast<std::size_t>(edge.to)],
                    "compile: cut edge must point to a later component");
    }
  }

  const bool needs_split =
      comps.size() > 1 ||
      std::any_of(cp.edge_cut.begin(), cp.edge_cut.end(),
                  [](bool b) { return b; });
  if (!opts.allow_split && needs_split) {
    const Validity v = validate(g);
    throw ConfigError(
        "compile: composition cannot execute as a single streaming "
        "component (channel depth budget " +
        std::to_string(opts.max_channel_depth) + "): " +
        (v.valid ? cp.plan.explanation : v.summary));
  }

  const auto topo = g.topo_order();
  cp.order.assign(comps.size(), {});
  for (int u : topo) {
    cp.order[static_cast<std::size_t>(
                 cp.component_of[static_cast<std::size_t>(u)])]
        .push_back(u);
  }

  // ---- 3. Lowering: cut materialization, fan-outs, zero inputs, FIFOs.
  for (int e = 0; e < ne; ++e) {
    if (!cp.edge_cut[static_cast<std::size_t>(e)]) continue;
    const Edge& edge = g.edge(e);
    CutEdge cut;
    cut.edge = e;
    const Node& prod = g.node(edge.from);
    if (prod.type == NodeType::Interface) {
      // A reader's stream is its operand: the later component re-reads it.
      cut.writer = edge.from;
    } else {
      for (int e2 : cp.out_edges(g, edge.from)) {
        if (e2 == e || cp.edge_cut[static_cast<std::size_t>(e2)]) continue;
        const Edge& sib = g.edge(e2);
        const Node& sink = g.node(sib.to);
        if (sink.type == NodeType::Interface &&
            sem[static_cast<std::size_t>(sib.to)].is_output &&
            per_pass(sib.produced) == per_pass(edge.produced)) {
          cut.writer = sib.to;
          break;
        }
      }
    }
    if (cut.writer < 0) cut.scratch_elems = per_pass(edge.produced);
    cp.cuts.push_back(cut);
  }

  std::set<std::string> used_names;
  const auto ename = [&](int e) {
    const Edge& edge = g.edge(e);
    return g.node(edge.from).name + "->" + g.node(edge.to).name;
  };

  // Replication branches per producer: streamed out-edges plus scratch
  // spills. One branch streams directly; two go through the fanout2
  // module; more have no lowering.
  std::vector<std::vector<int>> branches(static_cast<std::size_t>(nn));
  for (int u = 0; u < nn; ++u) {
    for (int e : cp.out_edges(g, u)) {
      const bool cut = cp.edge_cut[static_cast<std::size_t>(e)];
      if (!cut || cp.cut_of(e).writer < 0) {
        branches[static_cast<std::size_t>(u)].push_back(e);
      }
    }
    const auto& br = branches[static_cast<std::size_t>(u)];
    if (br.size() > 2) {
      throw ConfigError("compile: node '" + g.node(u).name + "' replicates " +
                        std::to_string(br.size()) +
                        " ways; only the 2-way fan-out module exists");
    }
    if (br.size() == 2) {
      const StreamSig& a = g.edge(br[0]).produced;
      const StreamSig& b = g.edge(br[1]).produced;
      if (!a.compatible(b)) {
        throw ConfigError("compile: fan-out of node '" + g.node(u).name +
                          "' would replicate two different streams");
      }
      cp.fanout_nodes.push_back(u);
      cp.trunk_name.push_back(
          unique_name(used_names, g.node(u).name + ".fan", br[0]));
    }
  }

  for (int u = 0; u < nn; ++u) {
    const Node& node = g.node(u);
    if (node.type != NodeType::Compute || node.kind != RoutineKind::Gemv) {
      continue;
    }
    const auto ins = cp.in_edges(g, u);
    if (ins.size() != 2) continue;
    const Edge& out = g.edge(cp.out_edges(g, u)[0]);
    cp.zero_nodes.push_back(u);
    cp.zero_name.push_back(
        unique_name(used_names, node.name + ".y0", cp.out_edges(g, u)[0]));
    cp.zero_count.push_back(per_pass(out.produced));
  }

  // Depths: the sized channels from the plan, a scalar FIFO for scalar
  // edges, and a component-wide default otherwise (wider when a matrix
  // streams through the component, matching the hand-tuned compositions).
  std::vector<bool> comp_has_matrix(comps.size(), false);
  for (int e = 0; e < ne; ++e) {
    const Edge& edge = g.edge(e);
    if (edge.produced.is_matrix || edge.consumed.is_matrix) {
      comp_has_matrix[static_cast<std::size_t>(
          cp.component_of[static_cast<std::size_t>(edge.from)])] = true;
      comp_has_matrix[static_cast<std::size_t>(
          cp.component_of[static_cast<std::size_t>(edge.to)])] = true;
    }
  }
  const auto default_depth = [&](int component, const StreamSig& sig) {
    if (sig.count == 1) return std::int64_t{2};
    const int mult = comp_has_matrix[static_cast<std::size_t>(component)] ? 4 : 2;
    return static_cast<std::int64_t>(std::max(64, mult * opts.width));
  };
  std::vector<std::int64_t> sized(static_cast<std::size_t>(ne), 0);
  for (const ChannelSizing& s : cp.plan.sizings) {
    const int orig = sub_to_orig[static_cast<std::size_t>(s.edge)];
    if (!cp.edge_cut[static_cast<std::size_t>(orig)]) {
      // Fan-out slack on top of the analysis bound, as the hand-tuned
      // ATAX composition allocates.
      sized[static_cast<std::size_t>(orig)] = s.min_depth + 4 * opts.width;
    }
  }
  for (int e = 0; e < ne; ++e) {
    if (cp.edge_cut[static_cast<std::size_t>(e)]) continue;
    const Edge& edge = g.edge(e);
    const int c = cp.component_of[static_cast<std::size_t>(edge.from)];
    std::int64_t depth = std::max(sized[static_cast<std::size_t>(e)],
                                  default_depth(c, edge.produced));
    depth = std::max(depth, edge.channel_depth);
    cp.edge_depth[static_cast<std::size_t>(e)] = depth;
    cp.edge_channel[static_cast<std::size_t>(e)] =
        unique_name(used_names, ename(e), e);
  }

  // ---- 4. Per-component FIFO/tap list in topological declaration order.
  cp.channels.assign(comps.size(), {});
  for (std::size_t c = 0; c < comps.size(); ++c) {
    auto& list = cp.channels[c];
    for (int u : cp.order[c]) {
      for (int e : cp.in_edges(g, u)) {
        if (!cp.edge_cut[static_cast<std::size_t>(e)]) continue;
        const Edge& edge = g.edge(e);
        list.push_back(CompiledChannel{
            CompiledChannel::Role::Readback, e,
            unique_name(used_names, "rb:" + ename(e), e),
            default_depth(static_cast<int>(c), edge.consumed)});
      }
      if (cp.has_zero(u)) {
        const std::size_t zi = cp.zero_index(u);
        list.push_back(CompiledChannel{CompiledChannel::Role::Zero, u,
                                       cp.zero_name[zi],
                                       default_depth(static_cast<int>(c),
                                                     StreamSig::vec(2))});
      }
      if (cp.has_trunk(u)) {
        const int e0 = branches[static_cast<std::size_t>(u)][0];
        list.push_back(CompiledChannel{
            CompiledChannel::Role::Trunk, u, cp.trunk_of(u),
            default_depth(static_cast<int>(c), g.edge(e0).produced)});
      }
      for (int e : cp.out_edges(g, u)) {
        if (!cp.edge_cut[static_cast<std::size_t>(e)]) {
          list.push_back(CompiledChannel{
              CompiledChannel::Role::Edge, e,
              cp.edge_channel[static_cast<std::size_t>(e)],
              cp.edge_depth[static_cast<std::size_t>(e)]});
        } else if (cp.cut_of(e).writer < 0) {
          const Edge& edge = g.edge(e);
          list.push_back(CompiledChannel{
              CompiledChannel::Role::Spill, e,
              unique_name(used_names, "spill:" + ename(e), e),
              default_depth(static_cast<int>(c), edge.produced)});
        }
      }
    }
  }

  // The frequency model sees the largest set of matrix modules resident
  // at once — a sequential split reconfigures between components, so the
  // count is the per-component maximum, not the whole-graph total (the
  // hand-tuned GEMVER clocks both of its graphs at the 3-module point).
  for (std::size_t c = 0; c < comps.size(); ++c) {
    int k = 0;
    for (int u : comps[c]) {
      const Node& node = g.node(u);
      if (node.type == NodeType::Compute &&
          routine_info(node.kind).level >= 2) {
        ++k;
      }
    }
    cp.matrix_modules = std::max(cp.matrix_modules, k);
  }
  return cp;
}

}  // namespace fblas::mdag
