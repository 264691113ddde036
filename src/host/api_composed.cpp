// Context::run_composition — the generic interpreter behind the
// composition compiler. Everything the per-app composed paths used to
// hand-wire (channel creation, module spawning, fan-outs, zero inputs,
// DRAM round trips for cut edges, checksum predictions, the refblas
// fallback) is derived here from mdag::Compiled, so an app is nothing
// but a host::Composition description.
//
// Execution of one composition is ONE command on the fault-tolerance
// ladder: retries roll the write set back, verification compares every
// FIFO of every component against host-side predictions (localizing a
// divergence to the first corrupted edge), and the CPU fallback replays
// the MDAG node by node over refblas. The predictions are that same
// replay run in double: one interpreter of the node semantics, two
// precisions.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "common/types.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "mdag/compile.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "verify/abft.hpp"
#include "verify/graph_checker.hpp"

namespace fblas::host {
namespace {

using mdag::CompiledChannel;

std::int64_t per_pass(const mdag::StreamSig& s) {
  return s.repeat > 0 ? s.count / s.repeat : s.count;
}

Uplo op_uplo_of(const mdag::NodeSemantics& s) {
  if (s.trans == Transpose::None) return s.uplo;
  return s.uplo == Uplo::Lower ? Uplo::Upper : Uplo::Lower;
}

/// Everything a composed command carries across the executor hooks.
template <typename T>
struct ComposedState {
  explicit ComposedState(const Composition<T>& c) : comp(c) {}

  Composition<T> comp;  ///< the user's description, copied at enqueue
  mdag::Compiled cp;
  // DRAM materializations of cut edges without a sibling writer.
  std::vector<std::unique_ptr<Buffer<T>>> scratch;
  std::map<int, std::size_t> scratch_of;     ///< edge -> scratch index
  std::map<int, std::string> readback_name;  ///< cut edge -> consumer FIFO
  std::map<int, std::string> spill_name;     ///< cut edge -> producer FIFO
  // One checker per component: arm() rejects names foreign to a graph.
  std::vector<verify::GraphChecker> chk;
};

/// Buffer-writer audits: writer node -> predicted checksum of the
/// materialized output (catches corruption past the last FIFO tap).
using Audits = std::vector<std::pair<int, verify::ScalarCheck>>;

/// The trsv dimension: rows of the solve, read off the output stream.
std::int64_t trsv_dim(const mdag::Mdag& g, const mdag::Compiled& cp, int u) {
  const auto outs = cp.out_edges(g, u);
  return per_pass(g.edge(outs[0]).produced);
}

/// The TRSV node whose b port (port 1) edge `e` feeds, or -1. That stream
/// must arrive in solve order rather than natural order.
int trsv_b_consumer(const mdag::Mdag& g, const mdag::Compiled& cp, int e) {
  const mdag::Edge& edge = g.edge(e);
  const mdag::Node& to = g.node(edge.to);
  if (to.type != mdag::NodeType::Compute || to.kind != RoutineKind::Trsv) {
    return -1;
  }
  const auto ins = cp.in_edges(g, edge.to);
  return ins.size() == 2 && ins[1] == e ? edge.to : -1;
}

/// Out-edges of `u` that stream in u's own component (everything except
/// cut edges served by a sibling DRAM writer).
std::vector<int> stream_branches(const mdag::Mdag& g, const mdag::Compiled& cp,
                                 int u) {
  std::vector<int> br;
  for (int e : cp.out_edges(g, u)) {
    if (!cp.edge_cut[static_cast<std::size_t>(e)] || cp.cut_of(e).writer < 0) {
      br.push_back(e);
    }
  }
  return br;
}

template <typename T>
const Buffer<T>* cut_source(const ComposedState<T>& st, int edge) {
  const mdag::CutEdge& cut = st.cp.cut_of(edge);
  if (cut.writer >= 0) {
    const auto& b = st.comp.binding(cut.writer);
    return b.in != nullptr ? b.in : b.out;
  }
  return st.scratch[st.scratch_of.at(edge)].get();
}

/// The DRAM side of stream `sig` on buffer `src` (read) or `dst`
/// (written), moved by module `name`. A vector feeding (or produced by)
/// TRSV node `trsv` >= 0 moves in solve order instead of natural order.
template <typename T>
detail::Operand<T> dram_operand(const ComposedState<T>& st,
                                const std::string& name, const Buffer<T>* src,
                                Buffer<T>* dst, const mdag::StreamSig& sig,
                                int trsv) {
  detail::Operand<T> op{.chan = name.c_str(), .mover = name.c_str(),
                        .src = src, .dst = dst, .n = per_pass(sig),
                        .repeat = sig.repeat};
  if (sig.is_matrix) {
    op.how = detail::Movement::Matrix;
    op.n = sig.rows;
    op.cols = sig.cols;
    op.sched = sig.sched;
  } else if (trsv >= 0) {
    FBLAS_REQUIRE(dst != nullptr || sig.repeat == 1,
                  "composition: a TRSV b stream cannot be replayed");
    op.how = detail::Movement::SolveRows;
    op.uplo = op_uplo_of(st.comp.semantics()[static_cast<std::size_t>(trsv)]);
  }
  return op;
}

// ---- Streaming execution -------------------------------------------------

template <typename T>
void run_component(Context& ctx, ComposedState<T>& st, std::size_t c) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const auto& sem = st.comp.semantics();
  const int width = cp.options.width;
  if (cp.order[c].empty()) return;

  stream::Graph sg(ctx.mode());
  const auto f = sim::composition_frequency(
      cp.matrix_modules, PrecisionTraits<T>::value, ctx.device().spec());
  detail::BankSet banks(sg, ctx.device(), f.mhz);

  std::map<std::string, stream::Channel<T>*> ch;
  for (const CompiledChannel& cc : cp.channels[c]) {
    ch.emplace(cc.name,
               &sg.channel<T>(cc.name, static_cast<std::size_t>(cc.depth)));
  }
  const auto chan = [&](const std::string& name) -> stream::Channel<T>& {
    return *ch.at(name);
  };
  const auto branch_channel = [&](int e) -> stream::Channel<T>& {
    if (cp.edge_cut[static_cast<std::size_t>(e)]) {
      return chan(st.spill_name.at(e));
    }
    return chan(cp.edge_channel[static_cast<std::size_t>(e)]);
  };
  const auto in_channel = [&](int e) -> stream::Channel<T>& {
    if (cp.edge_cut[static_cast<std::size_t>(e)]) {
      return chan(st.readback_name.at(e));
    }
    return chan(cp.edge_channel[static_cast<std::size_t>(e)]);
  };

  for (int u : cp.order[c]) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto br = stream_branches(g, cp, u);

    // Consumer side of cut in-edges: re-read the materialized stream.
    for (int e : ins) {
      if (!cp.edge_cut[static_cast<std::size_t>(e)]) continue;
      const std::string& name = st.readback_name.at(e);
      detail::spawn_mover(sg, banks, width,
                          dram_operand<T>(st, name, cut_source(st, e),
                                          nullptr, g.edge(e).consumed,
                                          trsv_b_consumer(g, cp, e)),
                          chan(name));
    }

    if (cp.has_zero(u)) {
      const std::size_t zi = cp.zero_index(u);
      sg.spawn(cp.zero_name[zi],
               stream::generate<T>(cp.zero_count[zi], T(0), width,
                                   chan(cp.zero_name[zi])));
    }

    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      // All consumers may re-read the operand from DRAM directly.
      if (br.empty()) continue;
      stream::Channel<T>& dst =
          cp.has_trunk(u) ? chan(cp.trunk_of(u)) : branch_channel(br[0]);
      const Buffer<T>* buf = st.comp.binding(u).in;
      const char* name = node.name.c_str();
      detail::spawn_mover(
          sg, banks, width,
          s.triangular
              ? detail::Operand<T>{.chan = name, .mover = name,
                                   .how = detail::Movement::Triangular,
                                   .src = buf,
                                   .n = trsv_dim(g, cp, g.edge(br[0]).to),
                                   .uplo = op_uplo_of(s), .trans = s.trans}
              : dram_operand<T>(st, node.name, buf, nullptr,
                                g.edge(br[0]).produced,
                                br.size() == 1 ? trsv_b_consumer(g, cp, br[0])
                                               : -1),
          dst);
    } else if (node.type == mdag::NodeType::Interface) {
      // Writer: drain the in-stream into its binding.
      const int e = ins[0];
      const mdag::StreamSig& sig = g.edge(e).consumed;
      const auto& b = st.comp.binding(u);
      const int from = g.edge(e).from;
      const mdag::Node& prod = g.node(from);
      const bool from_trsv = prod.type == mdag::NodeType::Compute &&
                             prod.kind == RoutineKind::Trsv;
      const char* name = node.name.c_str();
      detail::spawn_mover(
          sg, banks, width,
          b.scalar != nullptr
              ? detail::Operand<T>{.chan = name, .mover = name,
                                   .value = b.scalar, .n = sig.count}
              : dram_operand<T>(st, node.name, nullptr, b.out, sig,
                                from_trsv ? from : -1),
          in_channel(e));
    } else {
      // Compute node.
      std::vector<stream::Channel<T>*> in_ch;
      for (int e : ins) in_ch.push_back(&in_channel(e));
      stream::Channel<T>& dst =
          cp.has_trunk(u) ? chan(cp.trunk_of(u)) : branch_channel(br[0]);
      const std::int64_t out_n = per_pass(g.edge(br[0]).produced);
      switch (node.kind) {
        case RoutineKind::Gemv: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          core::GemvConfig cfg;
          cfg.trans = s.trans;
          cfg.tiling = a.sched.tile_order == Order::RowMajor
                           ? core::MatrixTiling::TilesByRows
                           : core::MatrixTiling::TilesByCols;
          cfg.width = width;
          cfg.tile_rows = a.sched.tile_rows;
          cfg.tile_cols = a.sched.tile_cols;
          cfg.elem_order = a.sched.elem_order;
          const T beta = cp.has_zero(u) ? T(0) : st.comp.beta_of(u);
          stream::Channel<T>& y0 =
              cp.has_zero(u) ? chan(cp.zero_name[cp.zero_index(u)])
                             : *in_ch[2];
          sg.spawn(node.name,
                   core::gemv<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                 beta, *in_ch[0], *in_ch[1], y0, dst));
          break;
        }
        case RoutineKind::Ger: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          core::GerConfig cfg;
          cfg.tiling = a.sched.tile_order == Order::RowMajor
                           ? core::MatrixTiling::TilesByRows
                           : core::MatrixTiling::TilesByCols;
          cfg.width = width;
          cfg.tile_rows = a.sched.tile_rows;
          cfg.tile_cols = a.sched.tile_cols;
          cfg.elem_order = a.sched.elem_order;
          sg.spawn(node.name,
                   core::ger<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                *in_ch[0], *in_ch[1], *in_ch[2], dst));
          break;
        }
        case RoutineKind::Trsv: {
          const core::TrsvConfig cfg{op_uplo_of(s), s.diag, width};
          sg.spawn(node.name, core::trsv<T>(cfg, out_n, *in_ch[0], *in_ch[1],
                                            dst));
          break;
        }
        case RoutineKind::Axpy:
          sg.spawn(node.name, core::axpy<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in_ch[0], *in_ch[1], dst));
          break;
        case RoutineKind::Scal:
          sg.spawn(node.name, core::scal<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in_ch[0], dst));
          break;
        case RoutineKind::Dot: {
          const std::int64_t n = per_pass(g.edge(ins[0]).consumed);
          sg.spawn(node.name,
                   core::dot<T>({width}, n, *in_ch[0], *in_ch[1], dst));
          break;
        }
        default:
          throw ConfigError("composition: no lowering for node '" + node.name +
                            "'");
      }
    }

    if (cp.has_trunk(u)) {
      sg.spawn(node.name + ".fanout",
               stream::fanout2<T>(g.edge(br[0]).produced.count, width,
                                  chan(cp.trunk_of(u)), branch_channel(br[0]),
                                  branch_channel(br[1])));
    }

    // Producer side of scratch cuts: materialize the spill stream in
    // stream order (the readback replays it the same way).
    for (int e : cp.out_edges(g, u)) {
      if (!cp.edge_cut[static_cast<std::size_t>(e)] ||
          cp.cut_of(e).writer >= 0) {
        continue;
      }
      const std::string& name = st.spill_name.at(e);
      detail::spawn_mover(
          sg, banks, width,
          dram_operand<T>(st, name + ".w", nullptr,
                          st.scratch[st.scratch_of.at(e)].get(),
                          g.edge(e).produced, -1),
          chan(name));
    }
  }

  verify::GraphChecker* chk =
      c < st.chk.size() && st.chk[c].active() ? &st.chk[c] : nullptr;
  if (chk != nullptr) chk->arm(sg);
  ctx.run_graph(sg);
  if (chk != nullptr) chk->capture(sg);
}

// ---- Host replay: the CPU fallback and the checksum predictions ----------

/// Every edge's per-pass values after a topological replay of the MDAG
/// over refblas in precision U, with the accumulation length behind each
/// edge (what a checksum bound over that edge grows with). Matrices are
/// in row-major storage order.
template <typename U>
struct Replay {
  std::vector<std::vector<U>> vals;
  std::vector<std::int64_t> terms;
};

/// `a` in precision U: the view itself when U is T, otherwise a widened
/// copy held in `store`.
template <typename U, typename T>
MatrixView<const U> in_precision(MatrixView<const T> a,
                                 std::vector<U>& store) {
  if constexpr (std::is_same_v<U, T>) {
    return a;
  } else {
    store.clear();
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      for (std::int64_t j = 0; j < a.cols(); ++j) {
        store.push_back(static_cast<U>(a(i, j)));
      }
    }
    return MatrixView<const U>(store.data(), a.rows(), a.cols());
  }
}

/// One pass of what reader `u` streams on out-edge `e`: the bound operand
/// in storage order, or op(A)'s triangle for a TRSV A reader.
template <typename U, typename T>
std::vector<U> read_pass(const ComposedState<T>& st, int u, int e) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::NodeSemantics& s =
      st.comp.semantics()[static_cast<std::size_t>(u)];
  const Buffer<T>& buf = *st.comp.binding(u).in;
  std::vector<U> v;
  if (s.triangular) {
    const std::int64_t n = trsv_dim(g, st.cp, g.edge(e).to);
    const auto a = buf.cmat(n, n);
    const Uplo tri = op_uplo_of(s);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (tri == Uplo::Lower ? j > i : j < i) continue;
        v.push_back(static_cast<U>(s.trans == Transpose::None ? a(i, j)
                                                              : a(j, i)));
      }
    }
    return v;
  }
  const mdag::StreamSig& sig = g.edge(e).produced;
  const std::int64_t n = sig.is_matrix ? sig.rows * sig.cols : per_pass(sig);
  const auto view = buf.cvec(n);
  v.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<U>(view[i]);
  }
  return v;
}

template <typename U, typename T>
Replay<U> replay(const ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const auto& sem = st.comp.semantics();
  Replay<U> r;
  r.vals.resize(g.edges().size());
  r.terms.resize(g.edges().size());

  for (int u : g.topo_order()) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto outs = cp.out_edges(g, u);
    if (node.type == mdag::NodeType::Interface) {
      if (s.is_output) continue;  // writers only consume
      for (int e : outs) {
        auto& v = r.vals[static_cast<std::size_t>(e)];
        v = read_pass<U>(st, u, e);
        r.terms[static_cast<std::size_t>(e)] =
            static_cast<std::int64_t>(v.size());
      }
      continue;
    }

    const auto in = [&](std::size_t port) -> const std::vector<U>& {
      return r.vals[static_cast<std::size_t>(ins[port])];
    };
    const auto in_terms = [&](std::size_t port) {
      return r.terms[static_cast<std::size_t>(ins[port])];
    };
    const auto vec = [](const std::vector<U>& v) {
      return VectorView<const U>(v.data(), static_cast<std::int64_t>(v.size()));
    };
    const U alpha = static_cast<U>(st.comp.alpha_of(u));
    std::vector<U> out;
    std::int64_t terms = 0;
    switch (node.kind) {
      case RoutineKind::Gemv: {
        const mdag::StreamSig& a = g.edge(ins[0]).consumed;
        const std::int64_t on = s.trans == Transpose::None ? a.rows : a.cols;
        const std::int64_t in_n = s.trans == Transpose::None ? a.cols : a.rows;
        if (ins.size() == 3) {
          out = in(2);
        } else {
          out.assign(static_cast<std::size_t>(on), U(0));
        }
        const U beta =
            cp.has_zero(u) ? U(0) : static_cast<U>(st.comp.beta_of(u));
        ref::gemv<U>(s.trans, alpha,
                     MatrixView<const U>(in(0).data(), a.rows, a.cols),
                     VectorView<const U>(in(1).data(), in_n), beta,
                     VectorView<U>(out.data(), on));
        terms = a.rows * a.cols + in_terms(0) + in_terms(1) +
                (ins.size() == 3 ? in_terms(2) : on);
        break;
      }
      case RoutineKind::Ger: {
        const mdag::StreamSig& a = g.edge(ins[0]).consumed;
        out = in(0);
        ref::ger<U>(alpha, VectorView<const U>(in(1).data(), a.rows),
                    VectorView<const U>(in(2).data(), a.cols),
                    MatrixView<U>(out.data(), a.rows, a.cols));
        terms = in_terms(0) + in_terms(1) * in_terms(2);
        break;
      }
      case RoutineKind::Trsv: {
        // The solve reads the bound matrix; the A edge only carries the
        // triangle's checksum.
        const std::int64_t n = trsv_dim(g, cp, u);
        const Buffer<T>& a = *st.comp.binding(g.edge(ins[0]).from).in;
        std::vector<U> wide;
        out = in(1);
        ref::trsv<U>(s.uplo, s.trans, s.diag,
                     in_precision<U>(a.cmat(n, n), wide), VectorView<U>(out));
        terms = n * n + in_terms(1);
        break;
      }
      case RoutineKind::Axpy:
        out = in(1);
        ref::axpy<U>(alpha, vec(in(0)), VectorView<U>(out));
        terms = in_terms(0) + in_terms(1);
        break;
      case RoutineKind::Scal:
        out = in(0);
        ref::scal<U>(alpha, VectorView<U>(out));
        terms = in_terms(0);
        break;
      case RoutineKind::Dot:
        out = {ref::dot<U>(vec(in(0)), vec(in(1)))};
        terms = in_terms(0) + in_terms(1) +
                static_cast<std::int64_t>(in(0).size());
        break;
      default:
        throw ConfigError("composition: no host replay for node '" +
                          node.name + "'");
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const auto e = static_cast<std::size_t>(outs[i]);
      r.terms[e] = terms;
      r.vals[e] = i + 1 == outs.size() ? std::move(out) : out;
    }
  }
  return r;
}

/// The CPU fallback: the replay in T, written back to every writer.
template <typename T>
void run_fallback(ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const Replay<T> r = replay<T>(st);
  for (int u = 0; u < g.node_count(); ++u) {
    if (g.node(u).type != mdag::NodeType::Interface ||
        !st.comp.semantics()[static_cast<std::size_t>(u)].is_output) {
      continue;
    }
    const auto& b = st.comp.binding(u);
    const auto& v = r.vals[static_cast<std::size_t>(st.cp.in_edges(g, u)[0])];
    if (b.scalar != nullptr) {
      *b.scalar = v.at(0);
    } else {
      std::copy(v.begin(), v.end(),
                b.out->vec(static_cast<std::int64_t>(v.size())).data());
    }
  }
}

/// The checksum predictions: the replay in double, summed per edge. A
/// channel carrying `repeat` passes of an edge sees `repeat` copies.
/// Arms the per-component FIFO checkers and returns the writer audits.
template <typename T>
Audits prepare_predictions(ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  const Replay<double> r = replay<double>(st);

  std::vector<std::pair<double, double>> sums(g.edges().size());
  for (std::size_t e = 0; e < sums.size(); ++e) {
    for (double v : r.vals[e]) {
      sums[e].first += v;
      sums[e].second += std::abs(v);
    }
  }
  const auto scaled = [&](int e, std::int64_t repeat) {
    const auto [sum, mag] = sums[static_cast<std::size_t>(e)];
    const std::int64_t k = std::max<std::int64_t>(1, repeat);
    return verify::scalar_check(sum * static_cast<double>(k),
                                mag * static_cast<double>(k),
                                r.terms[static_cast<std::size_t>(e)] * k);
  };

  // A writer's buffer holds one pass of its in-edge, however often the
  // stream replays it.
  Audits audits;
  for (int u = 0; u < g.node_count(); ++u) {
    if (g.node(u).type == mdag::NodeType::Interface &&
        st.comp.binding(u).out != nullptr) {
      audits.emplace_back(u, scaled(cp.in_edges(g, u)[0], 1));
    }
  }

  // Expectations per component, in the compiler's tap order (topological:
  // check() reports the FIRST divergent FIFO).
  st.chk.assign(cp.channels.size(), verify::GraphChecker());
  for (std::size_t c = 0; c < cp.channels.size(); ++c) {
    st.chk[c].reset(st.comp.name());
    for (const CompiledChannel& cc : cp.channels[c]) {
      verify::ScalarCheck pred;
      switch (cc.role) {
        case CompiledChannel::Role::Edge:
        case CompiledChannel::Role::Spill:
          pred = scaled(cc.id, g.edge(cc.id).produced.repeat);
          break;
        case CompiledChannel::Role::Readback:
          pred = scaled(cc.id, g.edge(cc.id).consumed.repeat);
          break;
        case CompiledChannel::Role::Trunk: {
          const int e0 = stream_branches(g, cp, cc.id)[0];
          pred = scaled(e0, g.edge(e0).produced.repeat);
          break;
        }
        case CompiledChannel::Role::Zero:
          pred = verify::scalar_check(
              0.0, 0.0, cp.zero_count[cp.zero_index(cc.id)]);
          break;
      }
      st.chk[c].expect(cc.name, pred, eps);
    }
  }
  return audits;
}

template <typename T>
void check_results(const ComposedState<T>& st, const Audits& audits,
                   double scale) {
  for (const verify::GraphChecker& chk : st.chk) {
    if (chk.active()) chk.check(scale);
  }
  const mdag::Mdag& g = st.comp.graph();
  const std::string label = st.comp.name() + "_composed";
  for (const auto& [u, pred] : audits) {
    const mdag::Edge& e = g.edge(st.cp.in_edges(g, u)[0]);
    const std::int64_t n = e.consumed.is_matrix
                               ? e.consumed.rows * e.consumed.cols
                               : per_pass(e.consumed);
    verify::check_sum<T>(pred, label.c_str(),
                         st.comp.binding(u).out->cvec(n), scale);
  }
}

}  // namespace


// ---- Enqueue -------------------------------------------------------------

template <typename T>
Event Context::run_composition_async(const Composition<T>& comp) {
  // Validate the knobs before the compiler sizes FIFOs with them; a bad
  // one raises the ConfigError Context::enqueue would, naming the knob.
  const RoutineConfig& rc = config();
  rc.validate();
  mdag::CompileOptions co;
  co.width = rc.width;
  co.max_channel_depth = comp.max_channel_depth();
  co.prefer_sizing = !comp.split_preferred();
  co.allow_split = !comp.streaming_required();

  auto st = std::make_shared<ComposedState<T>>(comp);
  // Rejection happens HERE, at enqueue: an unexecutable description
  // throws ConfigError with the validity diagnostic before any command
  // is queued.
  st->cp = mdag::compile(comp.graph(), comp.semantics(), co);

  const mdag::Mdag& g = st->comp.graph();
  const auto& sem = st->comp.semantics();
  for (int u = 0; u < g.node_count(); ++u) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto& b = st->comp.binding(u);
    if (node.type != mdag::NodeType::Interface) {
      if (node.kind == RoutineKind::Trsv) {
        const auto ins = st->cp.in_edges(g, u);
        const mdag::Node& aprod = g.node(g.edge(ins[0]).from);
        FBLAS_REQUIRE(
            aprod.type == mdag::NodeType::Interface &&
                sem[static_cast<std::size_t>(g.edge(ins[0]).from)].triangular,
            "composition: the TRSV A operand must come from a triangular "
            "reader");
        FBLAS_REQUIRE(!st->cp.edge_cut[static_cast<std::size_t>(ins[0])],
                      "composition: a triangular stream cannot round-trip "
                      "through DRAM");
      }
      continue;
    }
    if (s.is_output) {
      FBLAS_REQUIRE(b.out != nullptr || b.scalar != nullptr,
                    "composition: writer '" + node.name + "' has no binding");
    } else {
      FBLAS_REQUIRE(b.in != nullptr,
                    "composition: reader '" + node.name + "' has no binding");
      if (s.triangular) {
        FBLAS_REQUIRE(st->cp.out_edges(g, u).size() == 1,
                      "composition: a triangular reader feeds exactly one "
                      "TRSV");
      }
    }
  }

  // Scratch buffers for cut edges no interface writer already carries.
  // They are DRAM plumbing, not part of the command's semantic write set:
  // every value that crosses them is covered by the spill/readback taps.
  for (const mdag::CutEdge& cut : st->cp.cuts) {
    if (cut.writer >= 0) continue;
    st->scratch_of[cut.edge] = st->scratch.size();
    st->scratch.push_back(std::make_unique<Buffer<T>>(
        device(), cut.scratch_elems,
        static_cast<int>(st->scratch.size()) % device().bank_count()));
  }
  for (const auto& list : st->cp.channels) {
    for (const CompiledChannel& cc : list) {
      if (cc.role == CompiledChannel::Role::Readback) {
        st->readback_name[cc.id] = cc.name;
      } else if (cc.role == CompiledChannel::Role::Spill) {
        st->spill_name[cc.id] = cc.name;
      }
    }
  }

  Command command;
  command.label = "composition";
  for (int u = 0; u < g.node_count(); ++u) {
    if (g.node(u).type != mdag::NodeType::Interface) continue;
    const auto& b = st->comp.binding(u);
    if (b.in != nullptr) command.reads.push_back(b.in);
    if (b.out != nullptr) command.writes.push_back(b.out);
    if (b.scalar != nullptr) command.writes.push_back(b.scalar);
  }
  command.work = [this, st] {
    for (std::size_t c = 0; c < st->cp.order.size(); ++c) {
      run_component<T>(*this, *st, c);
    }
  };
  command.fallback = [st] { run_fallback<T>(*st); };
  return enqueue(std::move(command), [st] {
    return [st, audits = prepare_predictions<T>(*st)](double scale) {
      check_results<T>(*st, audits, scale);
    };
  });
}

template Event Context::run_composition_async<float>(const Composition<float>&);
template Event Context::run_composition_async<double>(
    const Composition<double>&);

}  // namespace fblas::host
