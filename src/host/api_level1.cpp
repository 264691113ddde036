// Level-1 host API lowerings: reader -> module -> writer graphs.
//
// Each async routine lists its DRAM operands and its module;
// detail::stream_command derives the Command from them (hazard sets,
// channels, readers and writers), capturing the RoutineConfig knobs by
// value so commands in flight are unaffected by later config changes.
// Every routine attaches its refblas CPU reference path as the
// `fallback`, the graceful-degradation target once the RetryPolicy
// exhausts device retries, and its ABFT checker (built only when the
// captured config enables verification). SCAL, COPY and AXPY predict
// their output sum with verify's one linear sum a*sum(x0) + b*sum(y0);
// ROT, ROTM and SWAP use it once per output through the shared 2x2-map
// checker (ROTM expands H per flag). SDSDOT is checked like DOT, offset
// by sb.
#include <array>
#include <string>
#include <vector>

#include "fblas/level1.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

namespace {

/// Runs a scalar setup routine through its streaming module for
/// fidelity: feeds `in` through channel `in_name` into `module`, run as
/// `name`, and returns the `outs` values it pushes into `out_name`. It
/// runs synchronously, not as a command, so it refuses a call from inside
/// a command body itself, as enqueue does.
template <typename T, typename Module>
std::vector<T> run_setup(Context& ctx, const char* name, const char* in_name,
                         const char* out_name, std::vector<T> in,
                         std::int64_t outs, Module module) {
  refuse_inside_command_body();
  stream::Graph g(ctx.mode());
  auto& ch_in = g.channel<T>(in_name, 4);
  auto& ch_out = g.channel<T>(out_name, 8);
  std::vector<T> result;
  g.spawn("feed", stream::feed(std::move(in), ch_in));
  g.spawn(name, module(ch_in, ch_out));
  g.spawn("collect", stream::collect<T>(outs, ch_out, result));
  ctx.run_graph(g);
  return result;
}

/// The checker of a routine mapping (x, y) in place through the fixed
/// 2x2 map `h`: predicts both new sums, then checks each against them.
template <typename T>
auto pair_checker(std::array<T, 4> h, std::string name, std::int64_t n,
                  const Buffer<T>& x, std::int64_t incx, const Buffer<T>& y,
                  std::int64_t incy) {
  return [=, &x, &y]() -> ResultCheck {
    const verify::PairCheck chk =
        verify::pair_prepare<T>(x.cvec(n, incx), y.cvec(n, incy), h);
    return [=, &x, &y](double scale) {
      verify::check_sum<T>(chk.x, (name + "(x)").c_str(), x.cvec(n, incx),
                           scale);
      verify::check_sum<T>(chk.y, (name + "(y)").c_str(), y.cvec(n, incy),
                           scale);
    };
  };
}

}  // namespace

template <typename T>
ref::Givens<T> Context::rotg(T& a, T& b) {
  const std::vector<T> r =
      run_setup<T>(*this, "rotg", "ab", "rzcs", {a, b}, 4, core::rotg<T>);
  a = r[0];
  b = r[1];
  return {r[2], r[3]};
}

template <typename T>
ref::RotmParam<T> Context::rotmg(T& d1, T& d2, T& x1, T y1) {
  const std::vector<T> r = run_setup<T>(*this, "rotmg", "in", "out",
                                        {d1, d2, x1, y1}, 8, core::rotmg<T>);
  d1 = r[5];
  d2 = r[6];
  x1 = r[7];
  return {r[0], r[1], r[2], r[3], r[4]};
}

template <typename T>
Event Context::rot_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& y, std::int64_t incy, T c, T s) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Rot, "rot",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx,
        .in_place = true},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy,
        .in_place = true},
       {.chan = "ox", .mover = "write_x", .dst = &x, .n = n, .inc = incx},
       {.chan = "oy", .mover = "write_y", .dst = &y, .n = n, .inc = incy}},
      [=](const auto& p) {
        return core::rot<T>({p.width}, n, c, s, p[0], p[1], p[2], p[3]);
      },
      [=, &x, &y] { ref::rot(x.vec(n, incx), y.vec(n, incy), c, s); });
  return enqueue(std::move(cmd),
                 pair_checker<T>({c, s, -s, c}, "rot", n, x, incx, y, incy));
}

template <typename T>
Event Context::rotm_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy,
                          ref::RotmParam<T> p) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Rotm, "rotm",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx,
        .in_place = true},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy,
        .in_place = true},
       {.chan = "ox", .mover = "write_x", .dst = &x, .n = n, .inc = incx},
       {.chan = "oy", .mover = "write_y", .dst = &y, .n = n, .inc = incy}},
      [=](const auto& c) {
        return core::rotm<T>({c.width}, n, p, c[0], c[1], c[2], c[3]);
      },
      [=, &x, &y] { ref::rotm(x.vec(n, incx), y.vec(n, incy), p); });
  return enqueue(std::move(cmd),
                 pair_checker<T>(p.matrix(), "rotm", n, x, incx, y, incy));
}

template <typename T>
Event Context::swap_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Swap, "swap",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx,
        .in_place = true},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy,
        .in_place = true},
       {.chan = "ox", .mover = "write_x", .dst = &x, .n = n, .inc = incx},
       {.chan = "oy", .mover = "write_y", .dst = &y, .n = n, .inc = incy}},
      [=](const auto& p) {
        return core::swap<T>({p.width}, n, p[0], p[1], p[2], p[3]);
      },
      [=, &x, &y] { ref::swap(x.vec(n, incx), y.vec(n, incy)); });
  return enqueue(std::move(cmd),
                 pair_checker<T>({0, 1, 1, 0}, "swap", n, x, incx, y, incy));
}

template <typename T>
Event Context::scal_async(std::int64_t n, T alpha, Buffer<T>& x,
                          std::int64_t incx) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Scal, "scal",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx,
        .in_place = true},
       {.chan = "out", .mover = "write_x", .dst = &x, .n = n, .inc = incx}},
      [=](const auto& p) {
        return core::scal<T>({p.width}, n, alpha, p[0], p[1]);
      },
      [=, &x] { ref::scal(alpha, x.vec(n, incx)); });
  return enqueue(std::move(cmd), [=, &x] {
    return [chk = verify::scal_prepare<T>(alpha, x.cvec(n, incx)), n, &x,
            incx](double scale) {
      verify::check_sum<T>(chk, "scal", x.cvec(n, incx), scale);
    };
  });
}

template <typename T>
Event Context::copy_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Copy, "copy",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "out", .mover = "write_y", .dst = &y, .n = n, .inc = incy}},
      [=](const auto& p) { return core::copy<T>({p.width}, n, p[0], p[1]); },
      [=, &x, &y] { ref::copy(x.cvec(n, incx), y.vec(n, incy)); });
  return enqueue(std::move(cmd), [=, &x, &y] {
    return [chk = verify::copy_prepare<T>(x.cvec(n, incx)), n, &y,
            incy](double scale) {
      verify::check_sum<T>(chk, "copy", y.cvec(n, incy), scale);
    };
  });
}

template <typename T>
Event Context::axpy_async(std::int64_t n, T alpha, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Axpy, "axpy",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy,
        .in_place = true},
       {.chan = "out", .mover = "write_y", .dst = &y, .n = n, .inc = incy}},
      [=](const auto& p) {
        return core::axpy<T>({p.width}, n, alpha, p[0], p[1], p[2]);
      },
      [=, &x, &y] { ref::axpy(alpha, x.cvec(n, incx), y.vec(n, incy)); });
  return enqueue(std::move(cmd), [=, &x, &y] {
    return [chk = verify::axpy_prepare<T>(alpha, x.cvec(n, incx),
                                          y.cvec(n, incy)),
            n, &y, incy](double scale) {
      verify::check_sum<T>(chk, "axpy", y.cvec(n, incy), scale);
    };
  });
}

// The scalar-result routines below are checked single-phase: their
// inputs are untouched, so the check recomputes from them after the fact.

template <typename T>
Event Context::dot_async(std::int64_t n, const Buffer<T>& x,
                         std::int64_t incx, const Buffer<T>& y,
                         std::int64_t incy, T* result) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Dot, "dot",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy},
       {.chan = "res", .mover = "collect", .value = result}},
      [=](const auto& p) {
        return core::dot<T>({p.width}, n, p[0], p[1], p[2]);
      },
      [=, &x, &y] { *result = ref::dot(x.cvec(n, incx), y.cvec(n, incy)); });
  return enqueue(std::move(cmd), [=, &x, &y] {
    return [=, &x, &y](double scale) {
      verify::dot_check<T>(x.cvec(n, incx), y.cvec(n, incy), *result, scale);
    };
  });
}

Event Context::sdsdot_async(std::int64_t n, float sb, const Buffer<float>& x,
                            std::int64_t incx, const Buffer<float>& y,
                            std::int64_t incy, float* result) {
  Command cmd = detail::stream_command<float>(
      *this, RoutineKind::Sdsdot, "sdsdot",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "y", .mover = "read_y", .src = &y, .n = n, .inc = incy},
       {.chan = "res", .mover = "collect", .value = result}},
      [=](const auto& p) {
        return core::sdsdot({p.width}, n, sb, p[0], p[1], p[2]);
      },
      [=, &x, &y] {
        *result = ref::sdsdot(sb, x.cvec(n, incx), y.cvec(n, incy));
      });
  return enqueue(std::move(cmd), [=, &x, &y] {
    return [=, &x, &y](double scale) {
      verify::dot_check<float>(x.cvec(n, incx), y.cvec(n, incy), *result,
                               scale, sb);
    };
  });
}

template <typename T>
Event Context::nrm2_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Nrm2, "nrm2",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "res", .mover = "collect", .value = result}},
      [=](const auto& p) { return core::nrm2<T>({p.width}, n, p[0], p[1]); },
      [=, &x] { *result = ref::nrm2(x.cvec(n, incx)); });
  return enqueue(std::move(cmd), [=, &x] {
    return [=, &x](double scale) {
      verify::nrm2_check<T>(x.cvec(n, incx), *result, scale);
    };
  });
}

template <typename T>
Event Context::asum_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Asum, "asum",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "res", .mover = "collect", .value = result}},
      [=](const auto& p) { return core::asum<T>({p.width}, n, p[0], p[1]); },
      [=, &x] { *result = ref::asum(x.cvec(n, incx)); });
  return enqueue(std::move(cmd), [=, &x] {
    return [=, &x](double scale) {
      verify::asum_check<T>(x.cvec(n, incx), *result, scale);
    };
  });
}

template <typename T>
Event Context::iamax_async(std::int64_t n, const Buffer<T>& x,
                           std::int64_t incx, std::int64_t* result) {
  Command cmd = detail::stream_command<T>(
      *this, RoutineKind::Iamax, "iamax",
      {{.chan = "x", .mover = "read_x", .src = &x, .n = n, .inc = incx},
       {.chan = "res", .mover = "collect", .index = result}},
      [=](const auto& p) {
        return core::iamax<T>({p.width}, n, p[0], p.index(1));
      },
      [=, &x] { *result = ref::iamax(x.cvec(n, incx)); });
  return enqueue(std::move(cmd), [=, &x] {
    return [=, &x](double) {
      verify::iamax_check<T>(x.cvec(n, incx), *result);
    };
  });
}

// Explicit instantiations for the two supported precisions.
#define FBLAS_HOST_L1_INSTANTIATE(T)                                          \
  template ref::Givens<T> Context::rotg<T>(T&, T&);                           \
  template ref::RotmParam<T> Context::rotmg<T>(T&, T&, T&, T);                \
  template Event Context::rot_async<T>(std::int64_t, Buffer<T>&,              \
                                       std::int64_t, Buffer<T>&,              \
                                       std::int64_t, T, T);                   \
  template Event Context::rotm_async<T>(std::int64_t, Buffer<T>&,             \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t, ref::RotmParam<T>);     \
  template Event Context::swap_async<T>(std::int64_t, Buffer<T>&,             \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::scal_async<T>(std::int64_t, T, Buffer<T>&,          \
                                        std::int64_t);                        \
  template Event Context::copy_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::axpy_async<T>(std::int64_t, T, const Buffer<T>&,    \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::dot_async<T>(std::int64_t, const Buffer<T>&,        \
                                       std::int64_t, const Buffer<T>&,        \
                                       std::int64_t, T*);                     \
  template Event Context::nrm2_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, T*);                    \
  template Event Context::asum_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, T*);                    \
  template Event Context::iamax_async<T>(std::int64_t, const Buffer<T>&,      \
                                         std::int64_t, std::int64_t*);

FBLAS_HOST_L1_INSTANTIATE(float)
FBLAS_HOST_L1_INSTANTIATE(double)
#undef FBLAS_HOST_L1_INSTANTIATE

}  // namespace fblas::host
