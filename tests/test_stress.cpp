// Randomized stress tests: seeded random pipelines of Level-1 modules
// with random widths and channel capacities must always complete (no
// false deadlocks), conserve every element, and compute exactly what the
// composed oracle computes — in both scheduler modes, bit for bit alike.
// The reduction sweep runs DOT, SDSDOT, NRM2, ASUM and IAMAX over widths,
// channel capacities and lengths that leave ragged batches, in both modes,
// against oracles that fold W-aligned chunks the way the modules do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/workload.hpp"
#include "fblas/level1.hpp"
#include "refblas/level1.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

struct StageSpec {
  enum Kind { Scal, Copy, AxpyWithConst } kind;
  int width;
  std::size_t capacity;
  double alpha;
};

/// Builds a random pipeline description from the seed.
std::vector<StageSpec> random_stages(Workload& wl, int count) {
  std::vector<StageSpec> stages;
  for (int i = 0; i < count; ++i) {
    StageSpec s;
    const auto r = wl.next_u64();
    s.kind = static_cast<StageSpec::Kind>(r % 3);
    const int widths[] = {1, 2, 3, 5, 8, 16, 33, 64};
    s.width = widths[(r >> 8) % 8];
    const std::size_t caps[] = {1, 2, 7, 16, 64, 300};
    s.capacity = caps[(r >> 16) % 6];
    s.alpha = 0.5 + static_cast<double>((r >> 24) % 100) / 100.0;
    stages.push_back(s);
  }
  return stages;
}

/// Oracle for the pipeline (axpy stages add a constant vector of 1s).
std::vector<double> oracle(const std::vector<double>& input,
                           const std::vector<StageSpec>& stages) {
  std::vector<double> v = input;
  for (const auto& s : stages) {
    switch (s.kind) {
      case StageSpec::Scal:
        for (auto& x : v) x *= s.alpha;
        break;
      case StageSpec::Copy:
        break;
      case StageSpec::AxpyWithConst:
        for (auto& x : v) x = s.alpha * 1.0 + x;
        break;
    }
  }
  return v;
}

/// Runs the seeded pipeline in `mode`, checks it against the oracle and
/// returns its output.
std::vector<double> run_pipeline(std::uint64_t seed, Mode mode) {
  Workload wl(seed);
  const int n_stages = 2 + static_cast<int>(wl.next_u64() % 6);
  const std::int64_t n = 1 + static_cast<std::int64_t>(wl.next_u64() % 700);
  const auto stages = random_stages(wl, n_stages);
  auto input = wl.vector<double>(n);

  Graph g(mode);
  std::vector<stream::Channel<double>*> chans;
  chans.push_back(&g.channel<double>("c0", stages[0].capacity));
  g.spawn("feed", stream::feed(input, *chans[0]));
  for (int i = 0; i < n_stages; ++i) {
    const auto& s = stages[static_cast<std::size_t>(i)];
    chans.push_back(&g.channel<double>("c" + std::to_string(i + 1),
                                       s.capacity));
    auto& in = *chans[static_cast<std::size_t>(i)];
    auto& out = *chans[static_cast<std::size_t>(i + 1)];
    switch (s.kind) {
      case StageSpec::Scal:
        g.spawn("scal" + std::to_string(i),
                scal<double>({s.width}, n, s.alpha, in, out));
        break;
      case StageSpec::Copy:
        g.spawn("copy" + std::to_string(i),
                copy<double>({s.width}, n, in, out));
        break;
      case StageSpec::AxpyWithConst: {
        auto& ones = g.channel<double>("ones" + std::to_string(i),
                                       s.capacity);
        g.spawn("gen" + std::to_string(i),
                stream::generate<double>(n, 1.0, s.width, ones));
        g.spawn("axpy" + std::to_string(i),
                axpy<double>({s.width}, n, s.alpha, ones, in, out));
        break;
      }
    }
  }
  std::vector<double> got;
  g.spawn("collect", stream::collect<double>(n, *chans.back(), got));
  g.run();
  for (const auto& ch : g.channels()) {
    EXPECT_EQ(ch->total_pushed(), ch->total_popped())
        << "seed=" << seed << " channel=" << ch->name();
  }
  const auto expect = oracle(input, stages);
  EXPECT_LT(rel_error(got, expect), 1e-9)
      << "seed=" << seed << " stages=" << n_stages << " n=" << n;
  return got;
}

TEST(Stress, RandomPipelinesFunctional) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_pipeline(seed, Mode::Functional);
  }
}

TEST(Stress, RandomPipelinesCycle) {
  for (std::uint64_t seed = 100; seed <= 130; ++seed) {
    run_pipeline(seed, Mode::Cycle);
  }
}

TEST(Stress, CycleAndFunctionalAgreeBitExactly) {
  // Same seed, both modes: execution order must not change the values
  // (module-local accumulation orders are fixed by the design).
  for (std::uint64_t seed = 500; seed <= 510; ++seed) {
    const auto functional = run_pipeline(seed, Mode::Functional);
    const auto cycle = run_pipeline(seed, Mode::Cycle);
    ASSERT_EQ(functional.size(), cycle.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(functional[i]),
                std::bit_cast<std::uint64_t>(cycle[i]))
          << "seed=" << seed << " element " << i;
    }
  }
}

enum class Reduction { Dot, Sdsdot, Nrm2, Asum, Iamax };

const char* reduction_name(Reduction r) {
  switch (r) {
    case Reduction::Dot: return "dot";
    case Reduction::Sdsdot: return "sdsdot";
    case Reduction::Nrm2: return "nrm2";
    case Reduction::Asum: return "asum";
    case Reduction::Iamax: return "iamax";
  }
  return "?";
}

/// The bits of a reduction's result (IAMAX: its index).
template <typename R>
std::uint64_t result_bits(R v) {
  if constexpr (std::is_same_v<R, float>) {
    return std::bit_cast<std::uint32_t>(v);
  } else if constexpr (std::is_same_v<R, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

constexpr float kSb = 0.25f;  // SDSDOT's offset

/// Runs reduction `r` at width `w` on x (and y) fed through channels of
/// `cap` slots in `mode`; returns the result's bits.
template <typename T>
std::uint64_t run_reduction(Reduction r, Mode mode, int w, std::size_t cap,
                            const std::vector<T>& x, const std::vector<T>& y,
                            float sb = kSb) {
  const auto n = static_cast<std::int64_t>(x.size());
  Graph g(mode);
  auto& cx = g.channel<T>("x", cap);
  auto& cy = g.channel<T>("y", cap);
  g.spawn("feed_x", stream::feed(x, cx));
  const Level1Config cfg{w};
  std::vector<T> res;
  std::vector<std::int64_t> idx;
  if (r == Reduction::Iamax) {
    auto& out = g.channel<std::int64_t>("res", 1);
    g.spawn("iamax", iamax<T>(cfg, n, cx, out));
    g.spawn("collect", stream::collect<std::int64_t>(1, out, idx));
  } else {
    auto& out = g.channel<T>("res", 1);
    if (r == Reduction::Dot || r == Reduction::Sdsdot) {
      g.spawn("feed_y", stream::feed(y, cy));
    }
    switch (r) {
      case Reduction::Dot:
        g.spawn("dot", dot<T>(cfg, n, cx, cy, out));
        break;
      case Reduction::Sdsdot:
        if constexpr (std::is_same_v<T, float>) {
          g.spawn("sdsdot", sdsdot(cfg, n, sb, cx, cy, out));
        }
        break;
      case Reduction::Nrm2:
        g.spawn("nrm2", nrm2<T>(cfg, n, cx, out));
        break;
      case Reduction::Asum:
        g.spawn("asum", asum<T>(cfg, n, cx, out));
        break;
      case Reduction::Iamax:  // wired above, on an index channel
        break;
    }
    g.spawn("collect", stream::collect<T>(1, out, res));
  }
  g.run();
  return r == Reduction::Iamax ? result_bits(idx.at(0))
                               : result_bits(res.at(0));
}

/// What reduction `r` at width `w` computes: each W-aligned chunk folded
/// on its own (DOT, SDSDOT, ASUM), then added to the running result.
template <typename T>
std::uint64_t reduction_oracle(Reduction r, int w, const std::vector<T>& x,
                               const std::vector<T>& y, float sb = kSb) {
  const auto n = static_cast<std::int64_t>(x.size());
  const VectorView<const T> xv(x.data(), n);
  if (r == Reduction::Nrm2) return result_bits(ref::nrm2<T>(xv));
  if (r == Reduction::Iamax) return result_bits(ref::iamax<T>(xv));
  using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
  T res = T(0);
  Acc wide = r == Reduction::Sdsdot ? static_cast<Acc>(sb) : Acc(0);
  for (std::int64_t c = 0; c < n; c += w) {
    T acc = T(0);
    Acc wide_acc = Acc(0);
    for (std::int64_t i = c; i < std::min<std::int64_t>(c + w, n); ++i) {
      const auto k = static_cast<std::size_t>(i);
      if (r == Reduction::Dot) acc += x[k] * y[k];
      if (r == Reduction::Asum) acc += std::abs(x[k]);
      if (r == Reduction::Sdsdot) {
        wide_acc += static_cast<Acc>(x[k]) * static_cast<Acc>(y[k]);
      }
    }
    res += acc;
    wide += wide_acc;
  }
  return r == Reduction::Sdsdot ? result_bits(static_cast<T>(wide))
                                : result_bits(res);
}

/// Random x and y in which every seventh element starts a pair of large
/// cancelling products (x, -x at equal y): the running sum drops low bits
/// of what it held, so folding other chunks changes the result's bits,
/// even for SDSDOT's double sum rounded to float.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> cancelling_pairs(Workload& wl,
                                                           std::int64_t n) {
  auto x = wl.vector<T>(n), y = wl.vector<T>(n);
  for (std::size_t k = 0; k + 1 < x.size(); k += 7) {
    x[k] *= T(0x1p40);
    x[k + 1] = -x[k];
    y[k + 1] = y[k];
  }
  return {x, y};
}

/// Every reduction over widths {1, 3, 8, 16, 33} and capacities
/// {1, 7, 16, 64, 300}, at seeded lengths in 1..700: both modes agree bit
/// for bit with each other and with the W-chunk oracle. Then, at widths
/// {1, 3, 16} and capacities {1, 7, 64, 4096}, the lengths around four
/// chunks and a few 4096-value steps, where a functional step hands a
/// fold many whole chunks at once, and SDSDOT's sb = -0.0f over none.
template <typename T>
void sweep_reductions(std::uint64_t seed) {
  Workload wl(seed);
  std::vector<Reduction> kinds{Reduction::Dot, Reduction::Nrm2,
                               Reduction::Asum, Reduction::Iamax};
  if constexpr (std::is_same_v<T, float>) kinds.push_back(Reduction::Sdsdot);
  for (const int w : {1, 3, 8, 16, 33}) {
    for (const std::size_t cap : {1, 7, 16, 64, 300}) {
      for (int rep = 0; rep < 8; ++rep) {
        const auto n = 1 + static_cast<std::int64_t>(wl.next_u64() % 700);
        const auto [x, y] = cancelling_pairs<T>(wl, n);
        for (const Reduction r : kinds) {
          const std::uint64_t want = reduction_oracle<T>(r, w, x, y);
          for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
            EXPECT_EQ(run_reduction<T>(r, mode, w, cap, x, y), want)
                << reduction_name(r) << " W=" << w << " cap=" << cap
                << " n=" << n << " mode="
                << (mode == Mode::Cycle ? "cycle" : "functional");
          }
        }
      }
    }
  }
  for (const int w : {1, 3, 16}) {
    for (const std::int64_t n :
         {0, 1, w - 1, 4 * w - 1, 4 * w + 1, 3 * 4096 + 5}) {
      const auto [x, y] = cancelling_pairs<T>(wl, n);
      for (const std::size_t cap : {1, 7, 64, 4096}) {
        for (const Reduction r : kinds) {
          const std::uint64_t want = reduction_oracle<T>(r, w, x, y);
          for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
            EXPECT_EQ(run_reduction<T>(r, mode, w, cap, x, y), want)
                << reduction_name(r) << " W=" << w << " cap=" << cap
                << " n=" << n << " mode="
                << (mode == Mode::Cycle ? "cycle" : "functional");
            if (r == Reduction::Sdsdot && n == 0) {
              EXPECT_EQ(run_reduction<T>(r, mode, w, cap, x, y, -0.0f),
                        result_bits(-0.0f))
                  << "sdsdot sb = -0.0f W=" << w << " cap=" << cap;
            }
          }
        }
      }
    }
  }
}

TEST(Stress, ReductionsFoldWAlignedChunksInBothModes) {
  sweep_reductions<float>(700);
  sweep_reductions<double>(701);
}

TEST(Stress, ManyModulesOneGraph) {
  // A wide graph: 64 independent scal lanes in one scheduler.
  Workload wl(999);
  const std::int64_t n = 128;
  Graph g(Mode::Cycle);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> outputs(64);
  inputs.reserve(64);
  for (int lane = 0; lane < 64; ++lane) {
    inputs.push_back(wl.vector<double>(n));
    auto& cin = g.channel<double>("in" + std::to_string(lane), 8);
    auto& cout = g.channel<double>("out" + std::to_string(lane), 8);
    g.spawn("feed" + std::to_string(lane), stream::feed(inputs.back(), cin));
    g.spawn("scal" + std::to_string(lane),
            scal<double>({4}, n, 2.0, cin, cout));
    g.spawn("collect" + std::to_string(lane),
            stream::collect<double>(n, cout, outputs[
                static_cast<std::size_t>(lane)]));
  }
  g.run();
  for (int lane = 0; lane < 64; ++lane) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(outputs[static_cast<std::size_t>(lane)]
                               [static_cast<std::size_t>(i)],
                       2.0 * inputs[static_cast<std::size_t>(lane)]
                                   [static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(g.scheduler().module_count(), 64u * 3u);
}

}  // namespace
}  // namespace fblas::core
