#include "codegen/runner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fblas/level1.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::codegen {
namespace {

/// Typed implementation; the design's precision picks T. One channel and
/// one feed or collect per stream of the design, then the module.
template <typename T>
Level1Result run_typed(const GeneratedDesign& design, stream::Mode mode,
                       const Level1Inputs& in) {
  const RoutineSpec& spec = design.spec;
  const RoutineInfo& info = routine_info(spec.kind);
  if (info.level != 1) {
    throw ConfigError("run_level1 supports Level-1 routines only; '" +
                      std::string(info.name) + "' is Level " +
                      std::to_string(info.level));
  }
  const core::Level1Config cfg = design.level1_config();
  const std::int64_t n = static_cast<std::int64_t>(in.x.size());
  const std::size_t cap =
      static_cast<std::size_t>(std::max(64, 2 * cfg.width));
  // The setup routines take their scalars from the front of x (ROTG: a,
  // b; ROTMG: d1, d2, x1, y1) and return twice as many values.
  const std::size_t setup = spec.kind == RoutineKind::Rotg    ? 2
                            : spec.kind == RoutineKind::Rotmg ? 4
                                                              : 0;
  const bool reduce = info.circuit == CircuitClass::MapReduce;
  std::vector<T> x(in.x.begin(), in.x.end());
  std::vector<T> y(in.y.begin(), in.y.end());
  if (setup != 0) {
    if (x.size() < setup) {
      throw ConfigError(std::string(info.name) + " reads " +
                        std::to_string(setup) + " scalars from x");
    }
    x.resize(setup);
  }
  const T alpha = static_cast<T>(in.alpha);

  stream::Graph g(mode);
  const Streams io = streams(spec);
  std::vector<stream::Channel<T>*> ci, co;
  stream::Channel<std::int64_t>* index = nullptr;
  for (const std::string& s : io.in) {
    ci.push_back(&g.channel<T>(s, setup != 0 ? 4 : cap));
  }
  for (const std::string& s : io.out) {
    if (spec.kind == RoutineKind::Iamax) {
      index = &g.channel<std::int64_t>(s, 2);
    } else {
      co.push_back(&g.channel<T>(s, setup != 0 ? 8 : reduce ? 2 : cap));
    }
  }
  for (std::size_t i = 0; i < ci.size(); ++i) {
    g.spawn("feed_" + io.in[i], stream::feed(io.in[i] == "y" ? y : x, *ci[i]));
  }
  const T c = static_cast<T>(in.c), s = static_cast<T>(in.s);
  g.spawn(spec.user_name, [&]() -> stream::Task {
    switch (spec.kind) {
      case RoutineKind::Scal:
        return core::scal<T>(cfg, n, alpha, *ci[0], *co[0]);
      case RoutineKind::Copy:
        return core::copy<T>(cfg, n, *ci[0], *co[0]);
      case RoutineKind::Axpy:
        return core::axpy<T>(cfg, n, alpha, *ci[0], *ci[1], *co[0]);
      case RoutineKind::Swap:
        return core::swap<T>(cfg, n, *ci[0], *ci[1], *co[0], *co[1]);
      case RoutineKind::Rot:
        return core::rot<T>(cfg, n, c, s, *ci[0], *ci[1], *co[0], *co[1]);
      case RoutineKind::Rotm:
        return core::rotm<T>(cfg, n, {T(0), T(0), -s, s, T(0)}, *ci[0],
                             *ci[1], *co[0], *co[1]);
      case RoutineKind::Dot:
        return core::dot<T>(cfg, n, *ci[0], *ci[1], *co[0]);
      case RoutineKind::Sdsdot:
        if constexpr (std::is_same_v<T, float>) {
          return core::sdsdot(cfg, n, alpha, *ci[0], *ci[1], *co[0]);
        }
        throw ConfigError("sdsdot is a single-precision routine");
      case RoutineKind::Nrm2:
        return core::nrm2<T>(cfg, n, *ci[0], *co[0]);
      case RoutineKind::Asum:
        return core::asum<T>(cfg, n, *ci[0], *co[0]);
      case RoutineKind::Iamax:
        return core::iamax<T>(cfg, n, *ci[0], *index);
      case RoutineKind::Rotg:
        return core::rotg<T>(*ci[0], *co[0]);
      default:  // ROTMG, the last Level-1 kind
        return core::rotmg<T>(*ci[0], *co[0]);
    }
  }());
  // Each output lands where the BLAS routine writes it: AXPY's and a
  // pair's second output in y, a reduction's in the scalar or the index.
  std::vector<T> ox, oy, scalar;
  std::vector<std::int64_t> index_out;
  const std::int64_t count = setup != 0 ? 2 * setup : reduce ? 1 : n;
  for (std::size_t i = 0; i < co.size(); ++i) {
    std::vector<T>& dst = reduce ? scalar
                          : i == 1 || spec.kind == RoutineKind::Axpy ? oy
                                                                     : ox;
    g.spawn("collect_" + io.out[i], stream::collect<T>(count, *co[i], dst));
  }
  if (index != nullptr) {
    g.spawn("collect_" + io.out[0],
            stream::collect<std::int64_t>(1, *index, index_out));
  }
  g.run();

  Level1Result result;
  result.cycles = g.cycles();
  result.out_x.assign(ox.begin(), ox.end());
  result.out_y.assign(oy.begin(), oy.end());
  if (!scalar.empty()) result.scalar = scalar[0];
  if (!index_out.empty()) result.index = index_out[0];
  return result;
}

}  // namespace

Level1Result run_level1(const GeneratedDesign& design, stream::Mode mode,
                        const Level1Inputs& inputs) {
  if (design.spec.precision == Precision::Single) {
    return run_typed<float>(design, mode, inputs);
  }
  return run_typed<double>(design, mode, inputs);
}

}  // namespace fblas::codegen
