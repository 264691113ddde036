// Streaming HLS modules for the BLAS Level-1 routines.
//
// Each module is a coroutine with the same structure as the paper's
// OpenCL kernels (Fig. 4 for SCAL, Fig. 5 for DOT): an outer loop over
// N/W iterations, an inner "unrolled" loop of width W processing one
// batch per clock cycle, channels for every vector operand. In cycle mode
// a module therefore consumes `operands_per_width * W` values per cycle,
// which is exactly the arrival-rate model of Sec. IV-B. In functional mode
// a step moves up to a channel's worth (stream::step_width); the
// reductions still fold W-aligned chunks, so both modes push the same
// bits.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "refblas/level1.hpp"
#include "stream/channel.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::Channel;
using stream::next_cycle;
using stream::Task;

/// Vectorization width of a Level-1 module (the unroll factor W).
struct Level1Config {
  int width = 16;

  void validate() const {
    FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  }
};

// The element-wise modules are the one lockstep body stream::elementwise:
// each W-wide batch moves through their channels in lockstep, as many
// elements as every port can take at once, or one element step when a
// port would suspend.

/// SCAL: out = alpha * x (Fig. 4 of the paper).
template <typename T>
Task scal(Level1Config cfg, std::int64_t n, T alpha, Channel<T>& ch_x,
          Channel<T>& ch_out) {
  return stream::elementwise<T, 1, 1>(
      n, cfg.width,
      [alpha](std::array<T, 1> v) { return std::array<T, 1>{alpha * v[0]}; },
      {&ch_x}, {&ch_out});
}

/// COPY: out = x.
template <typename T>
Task copy(Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
          Channel<T>& ch_out) {
  return stream::elementwise<T, 1, 1>(
      n, cfg.width, [](std::array<T, 1> v) { return v; }, {&ch_x}, {&ch_out});
}

/// AXPY: out = alpha * x + y.
template <typename T>
Task axpy(Level1Config cfg, std::int64_t n, T alpha, Channel<T>& ch_x,
          Channel<T>& ch_y, Channel<T>& ch_out) {
  return stream::elementwise<T, 2, 1>(
      n, cfg.width,
      [alpha](std::array<T, 2> v) {
        return std::array<T, 1>{alpha * v[0] + v[1]};
      },
      {&ch_x, &ch_y}, {&ch_out});
}

/// SWAP: (out_x, out_y) = (y, x).
template <typename T>
Task swap(Level1Config cfg, std::int64_t n, Channel<T>& ch_x, Channel<T>& ch_y,
          Channel<T>& ch_out_x, Channel<T>& ch_out_y) {
  return stream::elementwise<T, 2, 2>(
      n, cfg.width,
      [](std::array<T, 2> v) { return std::array<T, 2>{v[1], v[0]}; },
      {&ch_x, &ch_y}, {&ch_out_x, &ch_out_y});
}

/// ROT: applies a plane rotation [c s; -s c] element-wise to (x, y).
template <typename T>
Task rot(Level1Config cfg, std::int64_t n, T c, T s, Channel<T>& ch_x,
         Channel<T>& ch_y, Channel<T>& ch_out_x, Channel<T>& ch_out_y) {
  return stream::elementwise<T, 2, 2>(
      n, cfg.width,
      [c, s](std::array<T, 2> v) {
        return std::array<T, 2>{c * v[0] + s * v[1], c * v[1] - s * v[0]};
      },
      {&ch_x, &ch_y}, {&ch_out_x, &ch_out_y});
}

/// ROTM: applies a modified Givens rotation element-wise to (x, y).
template <typename T>
Task rotm(Level1Config cfg, std::int64_t n, ref::RotmParam<T> p,
          Channel<T>& ch_x, Channel<T>& ch_y, Channel<T>& ch_out_x,
          Channel<T>& ch_out_y) {
  // Expand H once (the hardware specializes on the flag at synthesis).
  const auto [h11, h12, h21, h22] = p.matrix();
  return stream::elementwise<T, 2, 2>(
      n, cfg.width,
      [h11, h12, h21, h22](std::array<T, 2> v) {
        return std::array<T, 2>{h11 * v[0] + h12 * v[1],
                                h21 * v[0] + h22 * v[1]};
      },
      {&ch_x, &ch_y}, {&ch_out_x, &ch_out_y});
}

/// The one scalar-setup body (ROTG, ROTMG): pops its I inputs, maps them
/// through the refblas setup `f` and pushes its O outputs.
template <typename T, std::size_t I, typename F>
Task setup(F f, Channel<T>& ch_in, Channel<T>& ch_out) {
  std::array<T, I> in;
  for (T& v : in) v = co_await ch_in.pop();
  const auto out = f(in);
  for (const T& v : out) co_await ch_out.push(v);
  co_await next_cycle();
}

/// ROTG: scalar Givens setup. Pops (a, b), pushes (r, z, c, s).
template <typename T>
Task rotg(Channel<T>& ch_in, Channel<T>& ch_out) {
  return setup<T, 2>(
      [](std::array<T, 2> v) {
        const auto g = ref::rotg(v[0], v[1]);  // a := r, b := z
        return std::array<T, 4>{v[0], v[1], g.c, g.s};
      },
      ch_in, ch_out);
}

/// ROTMG: scalar modified-Givens setup. Pops (d1, d2, x1, y1), pushes
/// (flag, h11, h21, h12, h22, d1', d2', x1').
template <typename T>
Task rotmg(Channel<T>& ch_in, Channel<T>& ch_out) {
  return setup<T, 4>(
      [](std::array<T, 4> v) {
        const auto p = ref::rotmg(v[0], v[1], v[2], v[3]);
        return std::array<T, 8>{p.flag, p.h11, p.h21, p.h12,
                                p.h22,  v[0],  v[1],  v[2]};
      },
      ch_in, ch_out);
}

namespace detail {

/// Folds the `s` elements at `p` (one pointer per input), elements
/// e..e+s-1 of `n`, into `res` by W-aligned chunks: every run of whole
/// chunks that lies in `p`, elements first..first+len-1, with one call
/// `fold(p..., len, first)`. A chunk that does not lie whole in `p` is
/// finished in `carry` (W values per input), which holds `have` elements
/// of the chunk before e, and folded alone. A plain function, so its
/// locals stay out of the coroutine frame.
template <typename T, typename R, std::size_t I, typename Fold>
void fold_chunks(Fold& fold, R& res, std::array<const T*, I> p,
                 std::int64_t s, std::int64_t e, std::int64_t n,
                 std::int64_t W, const std::array<T*, I>& carry,
                 std::int64_t& have) {
  auto fold_at = [&](const auto& q, std::int64_t len, std::int64_t first) {
    res = std::apply([&](auto... b) { return fold(b..., len, first); }, q);
  };
  for (std::int64_t k = 0; k < s;) {
    const std::int64_t first = e + k - have;
    if (have == 0) {
      // The whole chunks from here: to n when it lies in `p`.
      const std::int64_t run =
          s - k >= n - first ? n - first : (s - k) / W * W;
      if (run > 0) {
        fold_at(p, run, first);
        for (const T*& q : p) q += run;
        k += run;
        continue;
      }
    }
    const std::int64_t len = std::min(W, n - first);
    const std::int64_t t = std::min(len - have, s - k);
    for (std::size_t c = 0; c < I; ++c) {
      std::copy_n(p[c], t, carry[c] + have);
      p[c] += t;
    }
    have += t;
    k += t;
    if (have == len) {
      fold_at(carry, len, first);
      have = 0;
    }
  }
}

/// The step of reduce that suspends nowhere: folds `m` elements, from
/// element e, out of the front windows of `in` (fold_chunks), a piece at
/// a time, split only where a ring wraps. Each piece drops the inputs in
/// port order.
template <typename T, typename R, std::size_t I, typename Fold>
void fold_windows(Fold& fold, R& res, const std::array<Channel<T>*, I>& in,
                  std::int64_t m, std::int64_t e, std::int64_t n,
                  std::int64_t W, const std::array<T*, I>& carry,
                  std::int64_t& have) {
  std::array<const T*, I> p;
  while (m > 0) {
    auto s = static_cast<std::size_t>(m);
    for (std::size_t c = 0; c < I; ++c) {
      const std::span<const T> w = in[c]->front(s);
      p[c] = w.data();
      s = w.size();
    }
    const auto len = static_cast<std::int64_t>(s);
    fold_chunks(fold, res, p, len, e, n, W, carry, have);
    for (Channel<T>* c : in) c->drop(s);
    e += len;
    m -= len;
  }
}

}  // namespace detail

/// The one reduction body (DOT, SDSDOT, NRM2, ASUM, IAMAX), the map-reduce
/// of Fig. 5: pops `n` elements from each channel of `in`, a W-wide batch
/// per cycle, and pushes what `fold` returned last, the result so far.
/// `fold(p..., len, first)` folds elements first..first+len-1, one
/// pointer per input, into the result: a run of whole W-aligned chunks
/// (the last one ends at n), each chunk the unrolled tree, then the
/// accumulator; fold(p..., 0, 0) is the result of no elements. Each step
/// pops as many elements as every input holds (lockstep), from each input
/// in port order, as stream::elementwise does, and folds each chunk at the
/// step that completes it: the whole chunks of a step in the inputs' front
/// windows, in one call, and a chunk split by a ring wrap or by a forced
/// one-element step in a carry of W values per input. In functional mode
/// a step pops as many whole W-aligned chunks as the inputs hold
/// (step_width rounded down to a multiple of W). Either way `fold` sees
/// the same chunks, by element index, in both modes. Every whole step left
/// is one the body repeats, so that is its horizon; a fast-forward grant
/// of d steps folds d steps' elements at once, the same chunks.
template <typename T, typename R, std::size_t I, typename Fold>
Task reduce(Level1Config cfg, std::int64_t n, Fold fold,
            std::array<Channel<T>*, I> in, Channel<R>& ch_res) {
  cfg.validate();
  const std::int64_t W = cfg.width;
  std::array<const stream::ChannelBase*, I> ports;
  std::copy(in.begin(), in.end(), ports.begin());
  const std::array<const stream::ChannelBase*, 1> res_port{&ch_res};
  co_await stream::declare_ports(ports, res_port);
  const std::int64_t step = stream::step_width(W, ports) / W * W;
  std::array<std::vector<T>, I> v;
  std::array<T*, I> carry;
  std::array<T, I> one{};
  std::array<const T*, I> one_p;
  for (std::size_t c = 0; c < I; ++c) {
    v[c] = stream::lanes<T>(W);
    carry[c] = v[c].data();
    one_p[c] = &one[c];
  }
  R res = std::apply([&](auto... b) { return fold(b..., 0, 0); }, one_p);
  std::int64_t have = 0;
  std::int64_t d = 1;  // steps this resume moves
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min(step * d, n - it);
    for (std::int64_t i = 0; i < batch;) {
      const std::size_t m =
          stream::lockstep(static_cast<std::size_t>(batch - i), ports, {});
      if (stream::moves_now(m, ports, {})) {
        detail::fold_windows(fold, res, in, static_cast<std::int64_t>(m),
                             it + i, n, W, carry, have);
      } else {
        for (std::size_t c = 0; c < I; ++c) {
          co_await in[c]->pop_some(&one[c], 1);
        }
        detail::fold_chunks(fold, res, one_p, 1, it + i, n, W, carry, have);
      }
      i += static_cast<std::int64_t>(m);
    }
    it += batch;
    d = co_await next_cycle(n - it, step);
  }
  co_await ch_res.push(res);
}

namespace detail {

/// Adds the sums of the W-chunks of elements 0..len-1 to `res` in chunk
/// order; each chunk's sum starts from zero and adds term(i) in ascending
/// i (the unrolled tree of Fig. 5). Four chunks are summed side by side,
/// each its own chain, so no bit moves. A plain function.
template <typename A, typename Term>
void add_chunk_sums(A& res, std::int64_t len, std::int64_t W, Term term) {
  std::int64_t c = 0;
  for (; len - c >= 4 * W; c += 4 * W) {
    A s0 = A(0), s1 = A(0), s2 = A(0), s3 = A(0);
    for (std::int64_t i = c; i < c + W; ++i) {
      s0 += term(i);
      s1 += term(i + W);
      s2 += term(i + 2 * W);
      s3 += term(i + 3 * W);
    }
    res += s0;
    res += s1;
    res += s2;
    res += s3;
  }
  for (; c < len; c += W) {
    A acc = A(0);
    for (std::int64_t i = c; i < std::min(c + W, len); ++i) acc += term(i);
    res += acc;
  }
}

}  // namespace detail

/// The fold of DOT and SDSDOT over W-wide chunks: sums each chunk's
/// products in `res`'s type A (the unrolled tree), adds the sum to `res`
/// (the accumulator) and returns it as T. No elements add nothing, so
/// sb = -0.0f stays so.
template <typename T, typename A>
auto dot_fold(A res, std::int64_t W) {
  return [res, W](const T* x, const T* y, std::int64_t len,
                  std::int64_t) mutable {
    detail::add_chunk_sums(res, len, W, [x, y](std::int64_t i) {
      return static_cast<A>(x[i]) * static_cast<A>(y[i]);
    });
    return static_cast<T>(res);
  };
}

/// DOT: pushes the single value x . y (Fig. 5 of the paper).
template <typename T>
Task dot(Level1Config cfg, std::int64_t n, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_res) {
  return reduce<T, T, 2>(cfg, n, dot_fold<T>(T(0), cfg.width), {&ch_x, &ch_y},
                         ch_res);
}

/// SDSDOT: single-precision inputs, double-precision accumulation plus an
/// offset sb (the one mixed-precision routine in the BLAS).
inline Task sdsdot(Level1Config cfg, std::int64_t n, float sb,
                   Channel<float>& ch_x, Channel<float>& ch_y,
                   Channel<float>& ch_res) {
  return reduce<float, float, 2>(cfg, n, dot_fold<float>(double{sb}, cfg.width),
                                 {&ch_x, &ch_y}, ch_res);
}

/// NRM2: pushes ||x||_2 via the scaled sum-of-squares recurrence (LAPACK
/// slassq): the running state is (scale, ssq) with scale = max |x_i| seen
/// and sum x_i^2 = scale^2 * ssq, so the result is scale * sqrt(ssq).
/// Naive x_i^2 accumulation overflows at |x_i| ~ sqrt(max) and flushes
/// denormal inputs to zero; the recurrence is exact up to rounding over
/// the full exponent range, matching refblas::nrm2 bit-for-bit behavior
/// class (a streaming circuit pays one divide + two multiplies per lane).
template <typename T>
Task nrm2(Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
          Channel<T>& ch_res) {
  auto fold = [scale = T(0), ssq = T(1)](const T* v, std::int64_t len,
                                         std::int64_t) mutable {
    for (std::int64_t i = 0; i < len; ++i) {
      const T x = v[i];
      if (x == T(0)) continue;
      const T absxi = std::abs(x);
      if (scale < absxi) {
        const T r = scale / absxi;
        ssq = T(1) + ssq * r * r;
        scale = absxi;
      } else {
        const T r = absxi / scale;
        ssq += r * r;
      }
    }
    return scale * std::sqrt(ssq);
  };
  return reduce<T, T, 1>(cfg, n, fold, {&ch_x}, ch_res);
}

/// ASUM: pushes sum |x_i|.
template <typename T>
Task asum(Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
          Channel<T>& ch_res) {
  auto fold = [res = T(0), W = std::int64_t{cfg.width}](
                  const T* v, std::int64_t len, std::int64_t) mutable {
    detail::add_chunk_sums(res, len, W,
                           [v](std::int64_t i) { return std::abs(v[i]); });
    return res;
  };
  return reduce<T, T, 1>(cfg, n, fold, {&ch_x}, ch_res);
}

/// IAMAX: pushes the (0-based) index of the first maximal |x_i|; -1 when
/// the stream is empty.
template <typename T>
Task iamax(Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
           Channel<std::int64_t>& ch_res) {
  auto fold = [best = std::int64_t{n > 0 ? 0 : -1}, best_abs = T(0),
               first = true](const T* v, std::int64_t len,
                             std::int64_t it) mutable {
    for (std::int64_t i = 0; i < len; ++i) {
      const T a = std::abs(v[i]);
      if (first || a > best_abs) {
        best_abs = a;
        best = it + i;
        first = false;
      }
    }
    return best;
  };
  return reduce<T, std::int64_t, 1>(cfg, n, fold, {&ch_x}, ch_res);
}

}  // namespace fblas::core
