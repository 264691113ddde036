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

/// ROTG: scalar Givens setup. Pops (a, b), pushes (r, z, c, s).
template <typename T>
Task rotg(Channel<T>& ch_in, Channel<T>& ch_out) {
  T a = co_await ch_in.pop();
  T b = co_await ch_in.pop();
  const auto g = ref::rotg(a, b);  // a := r, b := z
  co_await ch_out.push(a);
  co_await ch_out.push(b);
  co_await ch_out.push(g.c);
  co_await ch_out.push(g.s);
  co_await next_cycle();
}

/// ROTMG: scalar modified-Givens setup. Pops (d1, d2, x1, y1), pushes
/// (flag, h11, h21, h12, h22, d1', d2', x1').
template <typename T>
Task rotmg(Channel<T>& ch_in, Channel<T>& ch_out) {
  T d1 = co_await ch_in.pop();
  T d2 = co_await ch_in.pop();
  T x1 = co_await ch_in.pop();
  const T y1 = co_await ch_in.pop();
  const auto p = ref::rotmg(d1, d2, x1, y1);
  co_await ch_out.push(p.flag);
  co_await ch_out.push(p.h11);
  co_await ch_out.push(p.h21);
  co_await ch_out.push(p.h12);
  co_await ch_out.push(p.h22);
  co_await ch_out.push(d1);
  co_await ch_out.push(d2);
  co_await ch_out.push(x1);
  co_await next_cycle();
}

namespace detail {

/// Adds term(0), ..., term(m - 1), the terms of elements e..e+m-1 of an
/// n-element reduction, into `acc` in order, and folds `acc` into `res`
/// at the end of every W-aligned chunk and at element n. The chunks are
/// chosen by element index, so the result is the same bits however the
/// elements arrive in steps.
template <typename A, typename Term>
void fold_chunks(std::int64_t m, std::int64_t e, std::int64_t W,
                 std::int64_t n, A& acc, A& res, Term term) {
  for (std::int64_t k = 0; k < m;) {
    const std::int64_t end = std::min(m, k + W - (e + k) % W);
    for (; k < end; ++k) acc += term(k);
    if ((e + k) % W == 0 || e + k == n) {
      res += acc;
      acc = A(0);
    }
  }
}

}  // namespace detail

/// DOT: pushes the single value x . y (Fig. 5 of the paper). Each
/// W-aligned chunk of elements is reduced first (the unrolled tree), then
/// added to the running accumulator, mirroring the two-stage accumulation
/// of the hardware. A step moves up to step_width elements (W in cycle
/// mode, a channel's worth in functional mode); the chunks are chosen by
/// element index (see detail::fold_chunks), so both modes push the same
/// bits.
template <typename T>
Task dot(Level1Config cfg, std::int64_t n, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_res) {
  cfg.validate();
  const std::array<const stream::ChannelBase*, 2> in{&ch_x, &ch_y};
  const std::int64_t w = stream::step_width(cfg.width, in);
  std::vector<T> x = stream::lanes<T>(std::min(w, n)), y = x;
  T res = T(0), acc = T(0);
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min(w, n - it);
    for (std::int64_t i = 0; i < batch;) {
      if (ch_x.empty() || ch_y.empty()) {
        // One element step in the element-wise form, which waits for both
        // inputs before popping either.
        const T term = co_await ch_x.pop() * co_await ch_y.pop();
        detail::fold_chunks(1, it + i, cfg.width, n, acc, res,
                            [term](std::int64_t) { return term; });
        ++i;
        continue;
      }
      const std::size_t m = stream::lockstep(
          static_cast<std::size_t>(batch - i), in, {});
      ch_x.take_some(x.data(), m);
      ch_y.take_some(y.data(), m);
      detail::fold_chunks(static_cast<std::int64_t>(m), it + i, cfg.width, n,
                          acc, res, [&x, &y](std::int64_t k) {
                            return x[static_cast<std::size_t>(k)] *
                                   y[static_cast<std::size_t>(k)];
                          });
      i += static_cast<std::int64_t>(m);
    }
    it += batch;
    co_await next_cycle();
  }
  co_await ch_res.push(res);
}

/// SDSDOT: single-precision inputs, double-precision accumulation plus an
/// offset sb (the one mixed-precision routine in the BLAS). It steps and
/// folds its W-aligned chunks as DOT does.
Task sdsdot(Level1Config cfg, std::int64_t n, float sb, Channel<float>& ch_x,
            Channel<float>& ch_y, Channel<float>& ch_res);

/// The one single-input reduction body (NRM2, ASUM, IAMAX): pops `n`
/// elements of ch_x, a W-wide batch per cycle, folds each batch into
/// `fold(batch, len, index of its first element)` and pushes what `fold`
/// returned last, the result so far (fold(batch, 0, 0) for no elements).
/// In functional mode a step pops as many whole W-aligned batches as
/// ch_x holds (step_width rounded down to a multiple of W) and folds them
/// one by one, so `fold` sees the same batches in both modes.
template <typename T, typename R, typename Fold>
Task reduce(Level1Config cfg, std::int64_t n, Fold fold, Channel<T>& ch_x,
            Channel<R>& ch_res) {
  cfg.validate();
  const std::int64_t W = cfg.width;
  const std::array<const stream::ChannelBase*, 1> in{&ch_x};
  const std::int64_t step = stream::step_width(W, in) / W * W;
  std::vector<T> v = stream::lanes<T>(std::min(step, n));
  R res = fold(v.data(), 0, 0);
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min(step, n - it);
    for (std::int64_t i = 0; i < batch;) {
      i += static_cast<std::int64_t>(co_await ch_x.pop_some(
          v.data() + i, static_cast<std::size_t>(batch - i)));
    }
    for (std::int64_t c = 0; c < batch; c += W) {
      res = fold(v.data() + c, std::min(W, batch - c), it + c);
    }
    it += batch;
    co_await next_cycle();
  }
  co_await ch_res.push(res);
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
  return reduce<T, T>(cfg, n, fold, ch_x, ch_res);
}

/// ASUM: pushes sum |x_i|.
template <typename T>
Task asum(Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
          Channel<T>& ch_res) {
  auto fold = [res = T(0)](const T* v, std::int64_t len,
                           std::int64_t) mutable {
    T acc = T(0);
    for (std::int64_t i = 0; i < len; ++i) acc += std::abs(v[i]);
    return res += acc;
  };
  return reduce<T, T>(cfg, n, fold, ch_x, ch_res);
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
  return reduce<T, std::int64_t>(cfg, n, fold, ch_x, ch_res);
}

}  // namespace fblas::core
