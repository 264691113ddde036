// Level-1 host API lowerings: reader -> module -> writer graphs.
//
// Each async routine enqueues a Command that declares its buffer read and
// write sets (hazard tracking) and captures the RoutineConfig knobs it
// uses by value, so commands in flight are unaffected by later config
// changes. Every
// routine also attaches its refblas CPU reference path as the Command's
// `fallback`, the graceful-degradation target once the RetryPolicy
// exhausts device retries, and (when the captured config enables
// verification) its ABFT checksum checkers. rotm and sdsdot carry no
// checker: rotm's modified-rotation flag cases have no single linear
// checksum identity, and sdsdot's mixed-precision accumulation has no
// tight double-precision bound — both stay covered by fault *detection*
// (taint, watchdog) rather than result verification.
#include "fblas/level1.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

template <typename T>
ref::Givens<T> Context::rotg(T& a, T& b) {
  // Scalar setup routines run through the streaming module for fidelity.
  stream::Graph g(mode_);
  auto& in = g.channel<T>("ab", 4);
  auto& out = g.channel<T>("rzcs", 8);
  std::vector<T> result;
  g.spawn("feed", stream::feed(std::vector<T>{a, b}, in));
  g.spawn("rotg", core::rotg<T>(in, out));
  g.spawn("collect", stream::collect<T>(4, out, result));
  run_graph(g);
  a = result[0];
  b = result[1];
  return {result[2], result[3]};
}

template <typename T>
ref::RotmParam<T> Context::rotmg(T& d1, T& d2, T& x1, T y1) {
  stream::Graph g(mode_);
  auto& in = g.channel<T>("in", 4);
  auto& out = g.channel<T>("out", 8);
  std::vector<T> result;
  g.spawn("feed", stream::feed(std::vector<T>{d1, d2, x1, y1}, in));
  g.spawn("rotmg", core::rotmg<T>(in, out));
  g.spawn("collect", stream::collect<T>(8, out, result));
  run_graph(g);
  d1 = result[5];
  d2 = result[6];
  x1 = result[7];
  return {result[0], result[1], result[2], result[3], result[4]};
}

template <typename T>
Event Context::rot_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& y, std::int64_t incy, T c, T s) {
  Command cmd;
  cmd.label = "rot";
  cmd.reads = {&x, &y};
  cmd.writes = {&x, &y};
  cmd.work = [this, W = cfg_.width, n, &x, incx, &y, incy, c, s] {
    detail::launch<T>(*this, RoutineKind::Rot, [&](stream::Graph& g,
                                                   detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& ox = g.channel<T>("ox", detail::chan_cap(W));
      auto& oy = g.channel<T>("oy", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(n, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("rot", core::rot<T>({W}, n, c, s, cx, cy, ox, oy));
      g.spawn("write_x", stream::write_vector<T>(x.vec(n, incx), 1, W, ox,
                                                 banks.at(x.bank())));
      g.spawn("write_y", stream::write_vector<T>(y.vec(n, incy), 1, W, oy,
                                                 banks.at(y.bank())));
    });
  };
  cmd.fallback = [n, &x, incx, &y, incy, c, s] {
    ref::rot(x.vec(n, incx), y.vec(n, incy), c, s);
  };
  return enqueue(std::move(cmd), [n, &x, incx, &y, incy, c, s] {
    return [chk = verify::rot_prepare<T>(x.cvec(n, incx), y.cvec(n, incy), c,
                                         s),
            n, &x, incx, &y, incy](double scale) {
      verify::check_sum<T>(chk.x, "rot(x)", x.cvec(n, incx), scale);
      verify::check_sum<T>(chk.y, "rot(y)", y.cvec(n, incy), scale);
    };
  });
}

template <typename T>
Event Context::rotm_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy,
                          ref::RotmParam<T> p) {
  Command cmd;
  cmd.label = "rotm";
  cmd.reads = {&x, &y};
  cmd.writes = {&x, &y};
  cmd.work = [this, W = cfg_.width, n, &x, incx, &y, incy, p] {
    detail::launch<T>(*this, RoutineKind::Rotm, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& ox = g.channel<T>("ox", detail::chan_cap(W));
      auto& oy = g.channel<T>("oy", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(n, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("rotm", core::rotm<T>({W}, n, p, cx, cy, ox, oy));
      g.spawn("write_x", stream::write_vector<T>(x.vec(n, incx), 1, W, ox,
                                                 banks.at(x.bank())));
      g.spawn("write_y", stream::write_vector<T>(y.vec(n, incy), 1, W, oy,
                                                 banks.at(y.bank())));
    });
  };
  cmd.fallback = [n, &x, incx, &y, incy, p] {
    ref::rotm(x.vec(n, incx), y.vec(n, incy), p);
  };
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::swap_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy) {
  Command cmd;
  cmd.label = "swap";
  cmd.reads = {&x, &y};
  cmd.writes = {&x, &y};
  cmd.work = [this, W = cfg_.width, n, &x, incx, &y, incy] {
    detail::launch<T>(*this, RoutineKind::Swap, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& ox = g.channel<T>("ox", detail::chan_cap(W));
      auto& oy = g.channel<T>("oy", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(n, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("swap", core::swap<T>({W}, n, cx, cy, ox, oy));
      g.spawn("write_x", stream::write_vector<T>(x.vec(n, incx), 1, W, ox,
                                                 banks.at(x.bank())));
      g.spawn("write_y", stream::write_vector<T>(y.vec(n, incy), 1, W, oy,
                                                 banks.at(y.bank())));
    });
  };
  cmd.fallback = [n, &x, incx, &y, incy] {
    ref::swap(x.vec(n, incx), y.vec(n, incy));
  };
  return enqueue(std::move(cmd), [n, &x, incx, &y, incy] {
    return [chk = verify::swap_prepare<T>(x.cvec(n, incx), y.cvec(n, incy)),
            n, &x, incx, &y, incy](double scale) {
      verify::check_sum<T>(chk.x, "swap(x)", x.cvec(n, incx), scale);
      verify::check_sum<T>(chk.y, "swap(y)", y.cvec(n, incy), scale);
    };
  });
}

template <typename T>
Event Context::scal_async(std::int64_t n, T alpha, Buffer<T>& x,
                          std::int64_t incx) {
  Command cmd;
  cmd.label = "scal";
  cmd.reads = {&x};
  cmd.writes = {&x};
  cmd.work = [this, W = cfg_.width, n, alpha, &x, incx] {
    detail::launch<T>(*this, RoutineKind::Scal, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cin = g.channel<T>("x", detail::chan_cap(W));
      auto& cout = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cin,
                                               banks.at(x.bank())));
      g.spawn("scal", core::scal<T>({W}, n, alpha, cin, cout));
      g.spawn("write_x", stream::write_vector<T>(x.vec(n, incx), 1, W, cout,
                                                 banks.at(x.bank())));
    });
  };
  cmd.fallback = [n, alpha, &x, incx] { ref::scal(alpha, x.vec(n, incx)); };
  return enqueue(std::move(cmd), [n, alpha, &x, incx] {
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
  Command cmd;
  cmd.label = "copy";
  cmd.reads = {&x};
  cmd.writes = {&y};
  cmd.work = [this, W = cfg_.width, n, &x, incx, &y, incy] {
    detail::launch<T>(*this, RoutineKind::Copy, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cin = g.channel<T>("x", detail::chan_cap(W));
      auto& cout = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cin,
                                               banks.at(x.bank())));
      g.spawn("copy", core::copy<T>({W}, n, cin, cout));
      g.spawn("write_y", stream::write_vector<T>(y.vec(n, incy), 1, W, cout,
                                                 banks.at(y.bank())));
    });
  };
  cmd.fallback = [n, &x, incx, &y, incy] {
    ref::copy(x.cvec(n, incx), y.vec(n, incy));
  };
  return enqueue(std::move(cmd), [n, &x, incx, &y, incy] {
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
  Command cmd;
  cmd.label = "axpy";
  cmd.reads = {&x, &y};
  cmd.writes = {&y};
  cmd.work = [this, W = cfg_.width, n, alpha, &x, incx, &y, incy] {
    detail::launch<T>(*this, RoutineKind::Axpy, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& cout = g.channel<T>("out", detail::chan_cap(W));
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(n, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("axpy", core::axpy<T>({W}, n, alpha, cx, cy, cout));
      g.spawn("write_y", stream::write_vector<T>(y.vec(n, incy), 1, W, cout,
                                                 banks.at(y.bank())));
    });
  };
  cmd.fallback = [n, alpha, &x, incx, &y, incy] {
    ref::axpy(alpha, x.cvec(n, incx), y.vec(n, incy));
  };
  return enqueue(std::move(cmd), [n, alpha, &x, incx, &y, incy] {
    return [chk = verify::axpy_prepare<T>(alpha, x.cvec(n, incx),
                                          y.cvec(n, incy)),
            n, &y, incy](double scale) {
      verify::check_sum<T>(chk, "axpy", y.cvec(n, incy), scale);
    };
  });
}

template <typename T>
Event Context::dot_async(std::int64_t n, const Buffer<T>& x,
                         std::int64_t incx, const Buffer<T>& y,
                         std::int64_t incy, T* result) {
  Command cmd;
  cmd.label = "dot";
  cmd.reads = {&x, &y};
  cmd.writes = {result};
  cmd.work = [this, W = cfg_.width, n, &x, incx, &y, incy, result] {
    std::vector<T> out;
    detail::launch<T>(*this, RoutineKind::Dot, [&](stream::Graph& g,
                                                   detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& cy = g.channel<T>("y", detail::chan_cap(W));
      auto& res = g.channel<T>("res", 2);
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<T>(y.cvec(n, incy), 1, W, cy,
                                               banks.at(y.bank())));
      g.spawn("dot", core::dot<T>({W}, n, cx, cy, res));
      g.spawn("collect", stream::collect<T>(1, res, out));
    });
    *result = out[0];
  };
  cmd.fallback = [n, &x, incx, &y, incy, result] {
    *result = ref::dot(x.cvec(n, incx), y.cvec(n, incy));
  };
  // Single-phase: the inputs are untouched, so the check recomputes the
  // reduction in double after the fact — nothing to capture up front.
  return enqueue(std::move(cmd), [n, &x, incx, &y, incy, result] {
    return [n, &x, incx, &y, incy, result](double scale) {
      verify::dot_check<T>(x.cvec(n, incx), y.cvec(n, incy), *result, scale);
    };
  });
}

Event Context::sdsdot_async(std::int64_t n, float sb, const Buffer<float>& x,
                            std::int64_t incx, const Buffer<float>& y,
                            std::int64_t incy, float* result) {
  Command cmd;
  cmd.label = "sdsdot";
  cmd.reads = {&x, &y};
  cmd.writes = {result};
  cmd.work = [this, W = cfg_.width, n, sb, &x, incx, &y, incy, result] {
    std::vector<float> out;
    detail::launch<float>(*this, RoutineKind::Sdsdot,
                          [&](stream::Graph& g, detail::BankSet& banks) {
      auto& cx = g.channel<float>("x", detail::chan_cap(W));
      auto& cy = g.channel<float>("y", detail::chan_cap(W));
      auto& res = g.channel<float>("res", 2);
      g.spawn("read_x", stream::read_vector<float>(x.cvec(n, incx), 1, W, cx,
                                                   banks.at(x.bank())));
      g.spawn("read_y", stream::read_vector<float>(y.cvec(n, incy), 1, W, cy,
                                                   banks.at(y.bank())));
      g.spawn("sdsdot", core::sdsdot({W}, n, sb, cx, cy, res));
      g.spawn("collect", stream::collect<float>(1, res, out));
    });
    *result = out[0];
  };
  cmd.fallback = [n, sb, &x, incx, &y, incy, result] {
    *result = ref::sdsdot(sb, x.cvec(n, incx), y.cvec(n, incy));
  };
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::nrm2_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd;
  cmd.label = "nrm2";
  cmd.reads = {&x};
  cmd.writes = {result};
  cmd.work = [this, W = cfg_.width, n, &x, incx, result] {
    std::vector<T> out;
    detail::launch<T>(*this, RoutineKind::Nrm2, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& res = g.channel<T>("res", 2);
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("nrm2", core::nrm2<T>({W}, n, cx, res));
      g.spawn("collect", stream::collect<T>(1, res, out));
    });
    *result = out[0];
  };
  cmd.fallback = [n, &x, incx, result] { *result = ref::nrm2(x.cvec(n, incx)); };
  return enqueue(std::move(cmd), [n, &x, incx, result] {
    return [n, &x, incx, result](double scale) {
      verify::nrm2_check<T>(x.cvec(n, incx), *result, scale);
    };
  });
}

template <typename T>
Event Context::asum_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd;
  cmd.label = "asum";
  cmd.reads = {&x};
  cmd.writes = {result};
  cmd.work = [this, W = cfg_.width, n, &x, incx, result] {
    std::vector<T> out;
    detail::launch<T>(*this, RoutineKind::Asum, [&](stream::Graph& g,
                                                    detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& res = g.channel<T>("res", 2);
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("asum", core::asum<T>({W}, n, cx, res));
      g.spawn("collect", stream::collect<T>(1, res, out));
    });
    *result = out[0];
  };
  cmd.fallback = [n, &x, incx, result] { *result = ref::asum(x.cvec(n, incx)); };
  return enqueue(std::move(cmd), [n, &x, incx, result] {
    return [n, &x, incx, result](double scale) {
      verify::asum_check<T>(x.cvec(n, incx), *result, scale);
    };
  });
}

template <typename T>
Event Context::iamax_async(std::int64_t n, const Buffer<T>& x,
                           std::int64_t incx, std::int64_t* result) {
  Command cmd;
  cmd.label = "iamax";
  cmd.reads = {&x};
  cmd.writes = {result};
  cmd.work = [this, W = cfg_.width, n, &x, incx, result] {
    std::vector<std::int64_t> out;
    detail::launch<T>(*this, RoutineKind::Iamax, [&](stream::Graph& g,
                                                     detail::BankSet& banks) {
      auto& cx = g.channel<T>("x", detail::chan_cap(W));
      auto& res = g.channel<std::int64_t>("res", 2);
      g.spawn("read_x", stream::read_vector<T>(x.cvec(n, incx), 1, W, cx,
                                               banks.at(x.bank())));
      g.spawn("iamax", core::iamax<T>({W}, n, cx, res));
      g.spawn("collect", stream::collect<std::int64_t>(1, res, out));
    });
    *result = out[0];
  };
  cmd.fallback = [n, &x, incx, result] {
    *result = ref::iamax(x.cvec(n, incx));
  };
  return enqueue(std::move(cmd), [n, &x, incx, result] {
    return [n, &x, incx, result](double) {
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
