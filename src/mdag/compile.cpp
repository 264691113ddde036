#include "mdag/compile.hpp"

#include <algorithm>
#include <set>
#include <string_view>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "mdag/auto_partition.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {
namespace {

/// In-port names of each routine with a streaming lowering, in in-edge
/// declaration order; empty for routines without one. A GEMV's y0 port
/// is optional (the compiler synthesizes a zero stream).
std::vector<std::string_view> ports_of(RoutineKind k) {
  switch (k) {
    case RoutineKind::Gemv: return {"A", "x", "y0"};
    case RoutineKind::Ger: return {"A0", "x", "y"};
    case RoutineKind::Trsv: return {"A", "b"};
    case RoutineKind::Axpy:
    case RoutineKind::Dot: return {"x", "y"};
    case RoutineKind::Scal: return {"x"};
    default: return {};
  }
}

bool is_compute(const Node& n, RoutineKind k) {
  return n.type == NodeType::Compute && n.kind == k;
}

/// op(A)'s stored triangle: the order a solve against it runs in.
Uplo op_uplo(const NodeSemantics& s) {
  if (s.trans == Transpose::None) return s.uplo;
  return s.uplo == Uplo::Lower ? Uplo::Upper : Uplo::Lower;
}

/// A replay-only mismatch: the consumer wants the same per-pass stream
/// the producer emits, just replayed (or re-scheduled). No channel can
/// fix that — the paper's modules never replay between computes — so the
/// edge must round-trip through DRAM.
bool replay_mismatch(const Edge& e) {
  if (e.produced.compatible(e.consumed)) return false;
  if (e.produced.is_matrix != e.consumed.is_matrix) return false;
  if (e.produced.per_pass() != e.consumed.per_pass()) return false;
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

/// Node shapes and port rules: what is illegal whatever the partition.
void check_ports(const Mdag& g, const std::vector<NodeSemantics>& sem,
                 const std::vector<PlanNode>& nodes) {
  for (int u = 0; u < g.node_count(); ++u) {
    const Node& node = g.node(u);
    const NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const PlanNode& nd = nodes[static_cast<std::size_t>(u)];
    if (node.type == NodeType::Interface) {
      if (s.is_output) {
        if (nd.ins.size() != 1 || !nd.outs.empty()) {
          throw ConfigError("compile: interface writer '" + node.name +
                            "' must have exactly one input edge and no "
                            "outputs");
        }
      } else if (!nd.ins.empty()) {
        throw ConfigError("compile: interface reader '" + node.name +
                          "' cannot have input edges");
      } else if (s.triangular && nd.outs.size() != 1) {
        throw ConfigError("compile: triangular reader '" + node.name +
                          "': a triangular reader feeds exactly one TRSV");
      }
      continue;
    }

    const auto ports = ports_of(node.kind);
    const std::string kind(routine_info(node.kind).name);
    if (ports.empty()) {
      throw ConfigError("compile: node '" + node.name + "' uses " + kind +
                        ", which has no streaming-composition lowering");
    }
    if (nd.outs.empty()) {
      throw ConfigError("compile: compute node '" + node.name +
                        "' has no output edge");
    }
    const std::size_t optional = node.kind == RoutineKind::Gemv ? 1 : 0;
    if (nd.ins.size() > ports.size() ||
        nd.ins.size() + optional < ports.size()) {
      throw ConfigError("compile: node '" + node.name + "' (" + kind +
                        ") has " + std::to_string(nd.ins.size()) +
                        " input edges");
    }
    for (std::size_t p = 0; p < nd.ins.size(); ++p) {
      const Edge& in = g.edge(nd.ins[p]);
      const auto port = [&] {
        return "compile: node '" + node.name + "' port " + std::to_string(p) +
               " (" + std::string(ports[p]) + ")";
      };
      const Node& from = g.node(in.from);
      const bool triangle = from.type == NodeType::Interface &&
                            sem[static_cast<std::size_t>(in.from)].triangular;
      const bool a_port = p == 0;
      if (node.kind == RoutineKind::Trsv && a_port && !triangle) {
        throw ConfigError(port() +
                          ": the TRSV A operand must come from a triangular "
                          "reader");
      }
      if (triangle && !(node.kind == RoutineKind::Trsv && a_port)) {
        throw ConfigError(port() + " cannot take triangular reader '" +
                          from.name + "': a triangular reader feeds exactly "
                          "one TRSV A port");
      }
      if (a_port && !in.consumed.is_matrix &&
          (node.kind == RoutineKind::Gemv || node.kind == RoutineKind::Ger)) {
        throw ConfigError(port() + " needs a matrix stream, not a vector");
      }
      if (node.kind == RoutineKind::Trsv && !a_port &&
          in.consumed.repeat != 1) {
        throw ConfigError(port() + ": a TRSV b stream cannot be replayed");
      }
    }
    for (int e : nd.outs) {
      const std::int64_t count = g.edge(e).produced.count;
      if (node.kind == RoutineKind::Dot && count != 1) {
        throw ConfigError("compile: node '" + node.name + "' output carries " +
                          std::to_string(count) +
                          " values; a DOT emits one");
      }
    }
  }
}

}  // namespace

Compiled compile(const Mdag& g, const std::vector<NodeSemantics>& sem,
                 const CompileOptions& opts) {
  FBLAS_REQUIRE(static_cast<int>(sem.size()) == g.node_count(),
                "compile: one NodeSemantics per node required");
  const int nn = g.node_count();
  const int ne = static_cast<int>(g.edges().size());

  Compiled cp;
  cp.options = opts;
  cp.nodes.resize(static_cast<std::size_t>(nn));
  cp.edges.resize(static_cast<std::size_t>(ne));
  const auto node = [&](int u) -> PlanNode& {
    return cp.nodes[static_cast<std::size_t>(u)];
  };
  const auto edge = [&](int e) -> PlanEdge& {
    return cp.edges[static_cast<std::size_t>(e)];
  };
  for (int e = 0; e < ne; ++e) {
    node(g.edge(e).from).outs.push_back(e);
    node(g.edge(e).to).ins.push_back(e);
  }
  check_ports(g, sem, cp.nodes);

  // ---- 1/2. Forced cuts, then validity + partition of what can stream.
  std::vector<bool> forced(static_cast<std::size_t>(ne), false);
  for (int e = 0; e < ne; ++e) {
    if (replay_mismatch(g.edge(e))) forced[static_cast<std::size_t>(e)] = true;
  }

  Mdag sub;
  for (int u = 0; u < nn; ++u) {
    const Node& n = g.node(u);
    if (n.type == NodeType::Interface) {
      sub.add_interface(n.name);
    } else {
      sub.add_compute(n.name, n.kind, n.latency);
    }
  }
  std::vector<int> sub_to_orig;
  for (int e = 0; e < ne; ++e) {
    if (forced[static_cast<std::size_t>(e)]) continue;
    const Edge& ed = g.edge(e);
    sub.connect(ed.from, ed.to, ed.produced, ed.consumed, ed.channel_depth);
    sub_to_orig.push_back(e);
  }

  PlanOptions popt;
  popt.max_channel_depth = opts.max_channel_depth;
  popt.prefer_sizing = opts.prefer_sizing;
  popt.width = opts.width;
  // The plan of the streamable subgraph (forced cuts removed); throws
  // ConfigError on invalid edges.
  const Plan plan = derive_plan(sub, popt);

  std::vector<std::vector<int>> comps;
  for (const Component& c : plan.components) comps.push_back(c.nodes);
  if (comps.empty()) {
    std::vector<int> all(static_cast<std::size_t>(nn));
    for (int u = 0; u < nn; ++u) all[static_cast<std::size_t>(u)] = u;
    comps.push_back(std::move(all));
  }

  auto reindex = [&] {
    for (std::size_t c = 0; c < comps.size(); ++c) {
      for (int u : comps[c]) node(u).component = static_cast<int>(c);
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
      const Edge& ed = g.edge(e);
      const int cf = node(ed.from).component;
      if (cf != node(ed.to).component) continue;
      const auto& nodes = comps[static_cast<std::size_t>(cf)];
      const std::set<int> members(nodes.begin(), nodes.end());
      std::set<int> moved{ed.to};
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

  bool any_cut = false;
  for (int e = 0; e < ne; ++e) {
    const Edge& ed = g.edge(e);
    const int cf = node(ed.from).component, ct = node(ed.to).component;
    edge(e).cut = forced[static_cast<std::size_t>(e)] || cf != ct;
    if (edge(e).cut) {
      FBLAS_REQUIRE(cf < ct,
                    "compile: cut edge must point to a later component");
      any_cut = true;
    }
  }

  if (!opts.allow_split && (comps.size() > 1 || any_cut)) {
    const Validity v = validate(g);
    throw ConfigError(
        "compile: composition cannot execute as a single streaming "
        "component (channel depth budget " +
        std::to_string(opts.max_channel_depth) + "): " +
        (v.valid ? plan.explanation : v.summary));
  }

  cp.order.assign(comps.size(), {});
  for (int u : g.topo_order()) {
    cp.order[static_cast<std::size_t>(node(u).component)].push_back(u);
  }

  // ---- 3. Lowering: the solves, cut materialization, fan-outs, FIFOs.
  for (int u = 0; u < nn; ++u) {
    if (!is_compute(g.node(u), RoutineKind::Trsv)) continue;
    PlanNode& t = node(u);
    t.solve_n = g.edge(t.outs[0]).produced.per_pass();
    t.solve_uplo = op_uplo(sem[static_cast<std::size_t>(u)]);
    const int a = t.ins[0];
    if (edge(a).cut) {
      throw ConfigError("compile: node '" + g.node(u).name +
                        "' port 0 (A): a triangular stream cannot "
                        "round-trip through DRAM");
    }
    PlanNode& reader = node(g.edge(a).from);
    reader.solve_n = t.solve_n;
    reader.solve_uplo = op_uplo(sem[static_cast<std::size_t>(g.edge(a).from)]);
    if (t.solve_uplo == Uplo::Lower) continue;
    // An upper solve runs in reversed natural order, and only a DRAM
    // mover reorders a stream: b comes from a reader of its own or
    // through DRAM, and x goes only to writers.
    const int b = t.ins[1];
    const int bf = g.edge(b).from;
    const auto streamed = std::count_if(
        node(bf).outs.begin(), node(bf).outs.end(),
        [&](int e) { return !edge(e).cut; });
    if (!edge(b).cut &&
        (g.node(bf).type != NodeType::Interface || streamed != 1)) {
      throw ConfigError("compile: node '" + g.node(u).name +
                        "' port 1 (b): an upper solve needs b in reversed "
                        "order, which only a DRAM reader of its own streams");
    }
    for (int e : t.outs) {
      const Node& to = g.node(g.edge(e).to);
      if (to.type != NodeType::Interface) {
        throw ConfigError("compile: node '" + g.node(u).name +
                          "' output feeds node '" + to.name +
                          "': an upper solve emits x in reversed order, "
                          "which only a DRAM writer restores");
      }
    }
  }
  for (int e = 0; e < ne; ++e) {
    const Edge& ed = g.edge(e);
    if (is_compute(g.node(ed.from), RoutineKind::Trsv)) {
      edge(e).pushed_order = node(ed.from).solve_uplo;
    }
    if (is_compute(g.node(ed.to), RoutineKind::Trsv) &&
        node(ed.to).ins[1] == e) {
      edge(e).popped_order = node(ed.to).solve_uplo;
    }
  }

  for (int e = 0; e < ne; ++e) {
    PlanEdge& cut = edge(e);
    if (!cut.cut) continue;
    const Edge& ed = g.edge(e);
    if (g.node(ed.from).type == NodeType::Interface) {
      // A reader's stream is its operand: the later component re-reads it.
      cut.writer = ed.from;
    } else {
      for (int e2 : node(ed.from).outs) {
        if (e2 == e || edge(e2).cut) continue;
        const Edge& sib = g.edge(e2);
        if (sem[static_cast<std::size_t>(sib.to)].is_output &&
            sib.produced.per_pass() == ed.produced.per_pass()) {
          cut.writer = sib.to;
          break;
        }
      }
    }
    if (cut.writer < 0) {
      cut.scratch = static_cast<int>(cp.scratch.size());
      cp.scratch.push_back(ed.produced.per_pass());
    }
  }

  std::set<std::string> used_names;
  const auto ename = [&](int e) {
    const Edge& ed = g.edge(e);
    return g.node(ed.from).name + "->" + g.node(ed.to).name;
  };

  // Replication branches per producer. One branch streams directly; two
  // go through the fanout2 module; more have no lowering.
  std::vector<std::string> trunk_name(static_cast<std::size_t>(nn));
  for (int u = 0; u < nn; ++u) {
    auto& br = node(u).branches;
    for (int e : node(u).outs) {
      if (!edge(e).cut || edge(e).scratch >= 0) br.push_back(e);
    }
    if (br.size() > 2) {
      throw ConfigError("compile: node '" + g.node(u).name + "' replicates " +
                        std::to_string(br.size()) +
                        " ways; only the 2-way fan-out module exists");
    }
    if (br.size() == 2) {
      if (!g.edge(br[0]).produced.compatible(g.edge(br[1]).produced)) {
        throw ConfigError("compile: fan-out of node '" + g.node(u).name +
                          "' would replicate two different streams");
      }
      trunk_name[static_cast<std::size_t>(u)] =
          unique_name(used_names, g.node(u).name + ".fan", br[0]);
    }
  }

  // GEMV nodes built without a y0 edge get a synthesized zero stream.
  std::vector<std::string> zero_name(static_cast<std::size_t>(nn));
  for (int u = 0; u < nn; ++u) {
    if (is_compute(g.node(u), RoutineKind::Gemv) && node(u).ins.size() == 2) {
      zero_name[static_cast<std::size_t>(u)] =
          unique_name(used_names, g.node(u).name + ".y0", node(u).outs[0]);
    }
  }

  // Depths: the sized channels from the plan, a scalar FIFO for scalar
  // edges, and a component-wide default otherwise (wider when a matrix
  // streams through the component, matching the hand-tuned compositions).
  std::vector<bool> comp_has_matrix(comps.size(), false);
  for (const Edge& ed : g.edges()) {
    if (ed.produced.is_matrix || ed.consumed.is_matrix) {
      comp_has_matrix[static_cast<std::size_t>(node(ed.from).component)] =
          true;
      comp_has_matrix[static_cast<std::size_t>(node(ed.to).component)] = true;
    }
  }
  const auto default_depth = [&](int component, const StreamSig& sig) {
    if (sig.count == 1) return std::int64_t{2};
    const int mult = comp_has_matrix[static_cast<std::size_t>(component)] ? 4 : 2;
    return static_cast<std::int64_t>(std::max(64, mult * opts.width));
  };
  std::vector<std::int64_t> depth(static_cast<std::size_t>(ne), 0);
  for (const ChannelSizing& s : plan.sizings) {
    const int orig = sub_to_orig[static_cast<std::size_t>(s.edge)];
    if (!edge(orig).cut) {
      // Fan-out slack on top of the analysis bound, as the hand-tuned
      // ATAX composition allocates.
      depth[static_cast<std::size_t>(orig)] = s.min_depth + 4 * opts.width;
    }
  }
  std::vector<std::string> edge_name(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    if (edge(e).cut) continue;
    const Edge& ed = g.edge(e);
    auto& d = depth[static_cast<std::size_t>(e)];
    d = std::max({d, default_depth(node(ed.from).component, ed.produced),
                  ed.channel_depth});
    edge_name[static_cast<std::size_t>(e)] =
        unique_name(used_names, ename(e), e);
  }

  // ---- 4. The FIFO/tap list: by component, in topological declaration
  // order. A channel carrying `repeat` passes of an edge is predicted as
  // that many copies of one pass.
  const auto add = [&](std::string name, std::int64_t d, int c, int e,
                       std::int64_t passes) {
    cp.channels.push_back(PlanChannel{std::move(name), d, c, e,
                                      std::max<std::int64_t>(1, passes)});
    return static_cast<int>(cp.channels.size()) - 1;
  };
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const int c = static_cast<int>(ci);
    for (int u : cp.order[ci]) {
      PlanNode& nd = node(u);
      for (int e : nd.ins) {
        if (!edge(e).cut) continue;
        const StreamSig& sig = g.edge(e).consumed;
        edge(e).pop = add(unique_name(used_names, "rb:" + ename(e), e),
                          default_depth(c, sig), c, e, sig.repeat);
      }
      if (const auto& z = zero_name[static_cast<std::size_t>(u)]; !z.empty()) {
        nd.zero = add(z, default_depth(c, StreamSig::vec(2)), c, -1,
                      g.edge(nd.outs[0]).produced.per_pass());
      }
      if (const auto& t = trunk_name[static_cast<std::size_t>(u)]; !t.empty()) {
        const StreamSig& sig = g.edge(nd.branches[0]).produced;
        nd.trunk = add(t, default_depth(c, sig), c, nd.branches[0],
                       sig.repeat);
      }
      for (int e : nd.outs) {
        const StreamSig& sig = g.edge(e).produced;
        PlanEdge& pe = edge(e);
        if (!pe.cut) {
          pe.push = pe.pop = add(edge_name[static_cast<std::size_t>(e)],
                                 depth[static_cast<std::size_t>(e)], c, e,
                                 sig.repeat);
        } else if (pe.scratch >= 0) {
          pe.push = add(unique_name(used_names, "spill:" + ename(e), e),
                        default_depth(c, sig), c, e, sig.repeat);
        }
      }
    }
  }

  for (PlanNode& nd : cp.nodes) {
    nd.push = nd.trunk >= 0 || nd.branches.empty()
                  ? nd.trunk
                  : edge(nd.branches[0]).push;
  }

  // The frequency model sees the largest set of matrix modules resident
  // at once — a sequential split reconfigures between components, so the
  // count is the per-component maximum, not the whole-graph total (the
  // hand-tuned GEMVER clocks both of its graphs at the 3-module point).
  for (const auto& members : comps) {
    int k = 0;
    for (int u : members) {
      const Node& n = g.node(u);
      if (n.type == NodeType::Compute && routine_info(n.kind).level >= 2) ++k;
    }
    cp.matrix_modules = std::max(cp.matrix_modules, k);
  }
  return cp;
}

}  // namespace fblas::mdag
