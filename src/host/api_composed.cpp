// Context::run_composition — the generic interpreter behind the
// composition compiler. Everything the per-app composed paths used to
// hand-wire (channel creation, module spawning, fan-outs, zero inputs,
// DRAM round trips for cut edges, checksum predictions, the refblas
// fallback) is read here from the node, edge and channel records of
// mdag::Compiled, so an app is nothing but a host::Composition
// description. Which descriptions are legal is the compiler's call.
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
#include <memory>
#include <optional>
#include <sstream>
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

namespace fblas::host {
namespace {

/// One channel's checksum tap: its prediction (set once, when the
/// command's verification arms) and what the last attempt observed.
struct Tap {
  verify::ScalarCheck pred;
  bool captured = false;
  double got = 0.0;
  double got_mag = 0.0;
  std::uint64_t count = 0;
};

/// Everything a composed command carries across the executor hooks.
template <typename T>
struct ComposedState {
  explicit ComposedState(const Composition<T>& c) : comp(c) {}

  Composition<T> comp;  ///< the user's description, copied at enqueue
  mdag::Compiled cp;
  /// One buffer per scratch slot of the plan.
  std::vector<std::unique_ptr<Buffer<T>>> scratch;
  /// One per plan channel once verification armed; empty otherwise.
  std::vector<Tap> taps;
};

/// Buffer-writer audits: writer node -> predicted checksum of the
/// materialized output (catches corruption past the last FIFO tap).
using Audits = std::vector<std::pair<int, verify::ScalarCheck>>;

/// The DRAM side of stream `sig` on buffer `src` (read) or `dst`
/// (written), moved by module `name`: a tiled matrix, or a vector in
/// natural order or in `solve` order.
template <typename T>
detail::Operand<T> dram_operand(const std::string& name, const Buffer<T>* src,
                                Buffer<T>* dst, const mdag::StreamSig& sig,
                                std::optional<Uplo> solve) {
  detail::Operand<T> op{.chan = name.c_str(), .mover = name.c_str(),
                        .src = src, .dst = dst, .n = sig.per_pass(),
                        .repeat = sig.repeat};
  if (sig.is_matrix) {
    op.how = detail::Movement::Matrix;
    op.n = sig.rows;
    op.cols = sig.cols;
    op.sched = sig.sched;
  } else if (solve) {
    op.how = detail::Movement::SolveRows;
    op.uplo = *solve;
  }
  return op;
}

// ---- Streaming execution -------------------------------------------------

template <typename T>
void run_component(Context& ctx, ComposedState<T>& st, int c) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const auto& sem = st.comp.semantics();
  const int width = cp.options.width;
  if (cp.order[static_cast<std::size_t>(c)].empty()) return;

  stream::Graph sg(ctx.mode());
  const auto f = sim::composition_frequency(
      cp.matrix_modules, PrecisionTraits<T>::value, ctx.device().spec());
  detail::BankSet banks(sg, ctx.device(), f.mhz);

  // This component's channels, each tapped when verification armed.
  std::vector<stream::Channel<T>*> ch(cp.channels.size(), nullptr);
  for (std::size_t i = 0; i < cp.channels.size(); ++i) {
    const mdag::PlanChannel& pc = cp.channels[i];
    if (pc.component != c) continue;
    ch[i] = &sg.channel<T>(pc.name, static_cast<std::size_t>(pc.depth));
    if (!st.taps.empty()) ch[i]->arm_tap();
  }
  const auto chan = [&](int i) -> stream::Channel<T>& {
    return *ch[static_cast<std::size_t>(i)];
  };
  const auto edge = [&](int e) -> const mdag::PlanEdge& {
    return cp.edges[static_cast<std::size_t>(e)];
  };

  for (int u : cp.order[static_cast<std::size_t>(c)]) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const mdag::PlanNode& nd = cp.nodes[static_cast<std::size_t>(u)];
    const auto& br = nd.branches;

    // Consumer side of cut in-edges: re-read the materialized stream.
    for (int e : nd.ins) {
      const mdag::PlanEdge& pe = edge(e);
      if (!pe.cut) continue;
      const Buffer<T>* src;
      if (pe.scratch >= 0) {
        src = st.scratch[static_cast<std::size_t>(pe.scratch)].get();
      } else {
        const auto& b = st.comp.binding(pe.writer);
        src = b.in != nullptr ? b.in : b.out;
      }
      detail::spawn_mover(
          sg, banks, width,
          dram_operand<T>(cp.channels[static_cast<std::size_t>(pe.pop)].name,
                          src, nullptr, g.edge(e).consumed, pe.popped_order),
          chan(pe.pop));
    }

    if (nd.zero >= 0) {
      const auto& z = cp.channels[static_cast<std::size_t>(nd.zero)];
      sg.spawn(z.name,
               stream::generate<T>(z.passes, T(0), width, chan(nd.zero)));
    }

    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      // All consumers may re-read the operand from DRAM directly.
      if (br.empty()) continue;
      const Buffer<T>* buf = st.comp.binding(u).in;
      const char* name = node.name.c_str();
      detail::spawn_mover(
          sg, banks, width,
          s.triangular
              ? detail::Operand<T>{.chan = name, .mover = name,
                                   .how = detail::Movement::Triangular,
                                   .src = buf, .n = nd.solve_n,
                                   .uplo = nd.solve_uplo, .trans = s.trans}
              : dram_operand<T>(node.name, buf, nullptr,
                                g.edge(br[0]).produced,
                                br.size() == 1 ? edge(br[0]).popped_order
                                               : std::nullopt),
          chan(nd.push));
    } else if (node.type == mdag::NodeType::Interface) {
      // Writer: drain the in-stream into its binding.
      const int e = nd.ins[0];
      const auto& b = st.comp.binding(u);
      const char* name = node.name.c_str();
      detail::spawn_mover(
          sg, banks, width,
          b.scalar != nullptr
              ? detail::Operand<T>{.chan = name, .mover = name,
                                   .value = b.scalar,
                                   .n = g.edge(e).consumed.count}
              : dram_operand<T>(node.name, nullptr, b.out, g.edge(e).consumed,
                                edge(e).pushed_order),
          chan(edge(e).pop));
    } else {
      // Compute node.
      std::vector<stream::Channel<T>*> in;
      for (int e : nd.ins) in.push_back(&chan(edge(e).pop));
      stream::Channel<T>& dst = chan(nd.push);
      const std::int64_t out_n = g.edge(br[0]).produced.per_pass();
      const auto tiled = [&](auto& cfg) -> const mdag::StreamSig& {
        const mdag::StreamSig& a = g.edge(nd.ins[0]).consumed;
        cfg.tiling = a.sched.tile_order == Order::RowMajor
                         ? core::MatrixTiling::TilesByRows
                         : core::MatrixTiling::TilesByCols;
        cfg.width = width;
        cfg.tile_rows = a.sched.tile_rows;
        cfg.tile_cols = a.sched.tile_cols;
        cfg.elem_order = a.sched.elem_order;
        return a;
      };
      switch (node.kind) {
        case RoutineKind::Gemv: {
          core::GemvConfig cfg;
          cfg.trans = s.trans;
          const mdag::StreamSig& a = tiled(cfg);
          const bool zero = nd.zero >= 0;
          sg.spawn(node.name,
                   core::gemv<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                 zero ? T(0) : st.comp.beta_of(u), *in[0],
                                 *in[1], zero ? chan(nd.zero) : *in[2],
                                 dst));
          break;
        }
        case RoutineKind::Ger: {
          core::GerConfig cfg;
          const mdag::StreamSig& a = tiled(cfg);
          sg.spawn(node.name,
                   core::ger<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                *in[0], *in[1], *in[2], dst));
          break;
        }
        case RoutineKind::Trsv:
          sg.spawn(node.name,
                   core::trsv<T>({nd.solve_uplo, s.diag, width}, nd.solve_n,
                                 *in[0], *in[1], dst));
          break;
        case RoutineKind::Axpy:
          sg.spawn(node.name, core::axpy<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in[0], *in[1], dst));
          break;
        case RoutineKind::Scal:
          sg.spawn(node.name, core::scal<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in[0], dst));
          break;
        case RoutineKind::Dot:
          sg.spawn(node.name,
                   core::dot<T>({width}, g.edge(nd.ins[0]).consumed.per_pass(),
                                *in[0], *in[1], dst));
          break;
        default:
          throw ConfigError("composition: no lowering for node '" + node.name +
                            "'");
      }
    }

    if (nd.trunk >= 0) {
      sg.spawn(node.name + ".fanout",
               stream::fanout2<T>(g.edge(br[0]).produced.count, width,
                                  chan(nd.trunk), chan(edge(br[0]).push),
                                  chan(edge(br[1]).push)));
    }

    // Producer side of scratch cuts: materialize the spill stream in
    // stream order (the readback replays it the same way).
    for (int e : nd.outs) {
      const mdag::PlanEdge& pe = edge(e);
      if (pe.scratch < 0) continue;
      detail::spawn_mover(
          sg, banks, width,
          dram_operand<T>(
              cp.channels[static_cast<std::size_t>(pe.push)].name + ".w",
              nullptr, st.scratch[static_cast<std::size_t>(pe.scratch)].get(),
              g.edge(e).produced, std::nullopt),
          chan(pe.push));
    }
  }

  ctx.run_graph(sg);
  if (st.taps.empty()) return;
  // The graph dies with this body while the check runs after it.
  for (std::size_t i = 0; i < ch.size(); ++i) {
    if (ch[i] == nullptr) continue;
    st.taps[i] = Tap{st.taps[i].pred, true, ch[i]->tap_sum(), ch[i]->tap_mag(),
                     ch[i]->tap_count()};
  }
}

// ---- Host replay: the CPU fallback and the checksum predictions ----------

/// Every edge's per-pass values after a topological replay of the MDAG
/// over refblas in precision U, with the accumulation length behind each
/// edge (what a checksum bound over that edge grows with). Matrices are
/// in row-major storage order. Edges carrying the same pass (a node's
/// out-edges, a reader's out-edges of one length) share one entry of
/// `vals` and `terms`: edge e's is `pass[e]`.
template <typename U>
struct Replay {
  std::vector<std::vector<U>> vals;
  std::vector<std::int64_t> terms;
  std::vector<std::size_t> pass;

  const std::vector<U>& of(int e) const {
    return vals[pass[static_cast<std::size_t>(e)]];
  }
  std::int64_t terms_of(int e) const {
    return terms[pass[static_cast<std::size_t>(e)]];
  }
  std::size_t add(std::vector<U> v, std::int64_t t) {
    vals.push_back(std::move(v));
    terms.push_back(t);
    return vals.size() - 1;
  }
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
  const mdag::NodeSemantics& s =
      st.comp.semantics()[static_cast<std::size_t>(u)];
  const Buffer<T>& buf = *st.comp.binding(u).in;
  std::vector<U> v;
  if (s.triangular) {
    const mdag::PlanNode& nd = st.cp.nodes[static_cast<std::size_t>(u)];
    const std::int64_t n = nd.solve_n;
    const auto a = buf.cmat(n, n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (nd.solve_uplo == Uplo::Lower ? j > i : j < i) continue;
        v.push_back(static_cast<U>(s.trans == Transpose::None ? a(i, j)
                                                              : a(j, i)));
      }
    }
    return v;
  }
  const std::int64_t n = st.comp.graph().edge(e).produced.per_pass();
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
  const auto& sem = st.comp.semantics();
  Replay<U> r;
  r.pass.resize(g.edges().size());

  for (int u : g.topo_order()) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const mdag::PlanNode& nd = st.cp.nodes[static_cast<std::size_t>(u)];
    const auto& ins = nd.ins;
    if (node.type == mdag::NodeType::Interface) {
      if (s.is_output) continue;  // writers only consume
      for (auto e = nd.outs.begin(); e != nd.outs.end(); ++e) {
        // Out-edges of one length carry the same pass.
        const std::int64_t n = g.edge(*e).produced.per_pass();
        const auto same = std::find_if(nd.outs.begin(), e, [&](int f) {
          return g.edge(f).produced.per_pass() == n;
        });
        if (same != e) {
          r.pass[static_cast<std::size_t>(*e)] =
              r.pass[static_cast<std::size_t>(*same)];
          continue;
        }
        std::vector<U> v = read_pass<U>(st, u, *e);
        const auto terms = static_cast<std::int64_t>(v.size());
        r.pass[static_cast<std::size_t>(*e)] = r.add(std::move(v), terms);
      }
      continue;
    }

    const auto in = [&](std::size_t port) -> const std::vector<U>& {
      return r.of(ins[port]);
    };
    const auto in_terms = [&](std::size_t port) {
      return r.terms_of(ins[port]);
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
            nd.zero >= 0 ? U(0) : static_cast<U>(st.comp.beta_of(u));
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
        const std::int64_t n = nd.solve_n;
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
    const std::size_t id = r.add(std::move(out), terms);
    for (int e : nd.outs) r.pass[static_cast<std::size_t>(e)] = id;
  }
  return r;
}

/// The in-edge of writer `u`.
template <typename T>
int writer_edge(const ComposedState<T>& st, int u) {
  return st.cp.nodes[static_cast<std::size_t>(u)].ins[0];
}

/// The CPU fallback: the replay in T, written back to every writer.
template <typename T>
void run_fallback(ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const Replay<T> r = replay<T>(st);
  for (int u = 0; u < g.node_count(); ++u) {
    const auto& b = st.comp.binding(u);
    if (b.out == nullptr && b.scalar == nullptr) continue;
    const auto& v = r.of(writer_edge(st, u));
    if (b.scalar != nullptr) {
      *b.scalar = v.at(0);
    } else {
      std::copy(v.begin(), v.end(),
                b.out->vec(static_cast<std::int64_t>(v.size())).data());
    }
  }
}

/// The checksum predictions: the replay in double, summed once per
/// distinct pass; a channel carrying `passes` copies of an edge sees that
/// many sums. One per plan channel, in plan order, and the writer audits.
template <typename T>
std::pair<std::vector<verify::ScalarCheck>, Audits> predict(
    const ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const Replay<double> r = replay<double>(st);

  std::vector<std::pair<double, double>> sums(r.vals.size());
  for (std::size_t p = 0; p < sums.size(); ++p) {
    for (double v : r.vals[p]) {
      sums[p].first += v;
      sums[p].second += std::abs(v);
    }
  }
  const auto scaled = [&](int e, std::int64_t passes) {
    const auto [sum, mag] = sums[r.pass[static_cast<std::size_t>(e)]];
    const auto k = static_cast<double>(passes);
    return verify::scalar_check(sum * k, mag * k, r.terms_of(e) * passes);
  };

  // A writer's buffer holds one pass of its in-edge, however often the
  // stream replays it.
  Audits audits;
  for (int u = 0; u < g.node_count(); ++u) {
    if (st.comp.binding(u).out != nullptr) {
      audits.emplace_back(u, scaled(writer_edge(st, u), 1));
    }
  }

  std::vector<verify::ScalarCheck> preds;
  for (const mdag::PlanChannel& pc : st.cp.channels) {
    preds.push_back(pc.edge < 0 ? verify::scalar_check(0.0, 0.0, pc.passes)
                                : scaled(pc.edge, pc.passes));
  }
  return {std::move(preds), std::move(audits)};
}

/// Arms one tap per plan channel with its prediction and returns the
/// writer audits.
template <typename T>
Audits prepare_predictions(ComposedState<T>& st) {
  auto [preds, audits] = predict(st);
  st.taps.assign(preds.size(), Tap{});
  for (std::size_t i = 0; i < preds.size(); ++i) st.taps[i].pred = preds[i];
  return audits;
}

/// Compares every tap against its prediction in plan order — topological
/// within each component — and throws on the FIRST divergent channel,
/// localizing a corruption to the edge it entered; then audits the
/// writers' buffers. The per-tap bound is rel_bound<T>(terms,
/// tol_scale) * magnitude, with the magnitude taken as max(predicted,
/// observed) so a corrupted huge value cannot widen its own acceptance.
template <typename T>
void check_results(const ComposedState<T>& st, const Audits& audits,
                   double scale) {
  const std::string& name = st.comp.name();
  for (std::size_t i = 0; i < st.taps.size(); ++i) {
    const Tap& t = st.taps[i];
    const std::string& channel = st.cp.channels[i].name;
    if (!t.captured) {
      throw VerificationError(
          "composition '" + name + "': edge '" + channel +
          "' was never captured (graph did not run to completion?)");
    }
    // Non-finite data poisons the checksum comparison either way; that is
    // the taint channel's diagnosis, not the checksum's.
    if (t.pred.skip) continue;
    const double bound = verify::rel_bound<T>(t.pred.terms, scale) *
                         std::max(t.pred.mag, t.got_mag);
    const double diff = std::abs(t.got - t.pred.pred);
    if (std::isfinite(diff) && diff <= bound) continue;
    std::ostringstream os;
    os << "composition '" << name << "': checksum mismatch on edge '"
       << channel << "' (observed " << t.got << ", predicted " << t.pred.pred
       << ", |diff| " << diff << " > bound " << bound << " over " << t.count
       << " streamed elements) — first divergent edge; earlier edges are "
          "clean";
    throw VerificationError(os.str());
  }
  const mdag::Mdag& g = st.comp.graph();
  const std::string label = name + "_composed";
  for (const auto& [u, pred] : audits) {
    const std::int64_t n = g.edge(writer_edge(st, u)).consumed.per_pass();
    verify::check_sum<T>(pred, label.c_str(),
                         st.comp.binding(u).out->cvec(n), scale);
  }
}

/// The plan `comp` runs under with the knobs of `rc`.
template <typename T>
mdag::Compiled compile_plan(const Composition<T>& comp,
                            const RoutineConfig& rc) {
  // Validate the knobs before the compiler sizes FIFOs with them; a bad
  // one raises the ConfigError Context::enqueue would, naming the knob.
  rc.validate();
  mdag::CompileOptions co;
  co.width = rc.width;
  co.max_channel_depth = comp.max_channel_depth();
  co.prefer_sizing = !comp.split_preferred();
  co.allow_split = !comp.streaming_required();
  return mdag::compile(comp.graph(), comp.semantics(), co);
}

}  // namespace


// ---- Enqueue -------------------------------------------------------------

template <typename T>
Event Context::run_composition_async(const Composition<T>& comp) {
  auto st = std::make_shared<ComposedState<T>>(comp);
  // Rejection happens HERE, at enqueue: an unexecutable description
  // throws ConfigError naming the node and port, or with the validity
  // diagnostic, before any command is queued.
  st->cp = compile_plan(comp, config());

  Command command;
  command.label = "composition";
  const mdag::Mdag& g = st->comp.graph();
  for (int u = 0; u < g.node_count(); ++u) {
    if (g.node(u).type != mdag::NodeType::Interface) continue;
    const auto& b = st->comp.binding(u);
    const bool writer =
        st->comp.semantics()[static_cast<std::size_t>(u)].is_output;
    FBLAS_REQUIRE(writer ? b.out != nullptr || b.scalar != nullptr
                         : b.in != nullptr,
                  "composition: " + std::string(writer ? "writer" : "reader") +
                      " '" + g.node(u).name + "' has no binding");
    if (b.in != nullptr) command.reads.push_back(b.in);
    if (b.out != nullptr) command.writes.push_back(b.out);
    if (b.scalar != nullptr) command.writes.push_back(b.scalar);
  }

  // Scratch buffers for cut edges no interface buffer already carries.
  // They are DRAM plumbing, not part of the command's semantic write set:
  // every value that crosses them is covered by the spill/readback taps.
  for (const std::int64_t elems : st->cp.scratch) {
    st->scratch.push_back(std::make_unique<Buffer<T>>(
        device(), elems,
        static_cast<int>(st->scratch.size()) % device().bank_count()));
  }

  command.work = [this, st] {
    for (std::size_t c = 0; c < st->cp.order.size(); ++c) {
      run_component<T>(*this, *st, static_cast<int>(c));
    }
  };
  command.fallback = [st] { run_fallback<T>(*st); };
  return enqueue(std::move(command), [st] {
    return [st, audits = prepare_predictions<T>(*st)](double scale) {
      check_results<T>(*st, audits, scale);
    };
  });
}

template <typename T>
std::vector<verify::ScalarCheck> Context::composition_checksums(
    const Composition<T>& comp) const {
  ComposedState<T> st(comp);
  st.cp = compile_plan(comp, config());
  auto [checks, audits] = predict(st);
  for (const auto& audit : audits) checks.push_back(audit.second);
  return checks;
}

template Event Context::run_composition_async<float>(const Composition<float>&);
template Event Context::run_composition_async<double>(
    const Composition<double>&);
template std::vector<verify::ScalarCheck>
Context::composition_checksums<float>(const Composition<float>&) const;
template std::vector<verify::ScalarCheck>
Context::composition_checksums<double>(const Composition<double>&) const;

}  // namespace fblas::host
