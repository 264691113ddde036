#include "apps/axpydot.hpp"

#include <vector>

#include "apps/upload.hpp"
#include "host/composition.hpp"
#include "refblas/level1.hpp"

namespace fblas::apps {

template <typename T>
AxpydotResult<T> axpydot_host_layer(host::Context& ctx,
                                    VectorView<const T> w,
                                    VectorView<const T> v,
                                    VectorView<const T> u, T alpha) {
  const std::int64_t n = w.size();
  host::Device& dev = ctx.device();
  // w, v, u on their own banks; the COPY target z shares w's bank, so the
  // AXPY phase reads and writes z through one memory module.
  host::Buffer<T> bw(dev, n, 0);
  host::Buffer<T> bv(dev, n, 1 % dev.bank_count());
  host::Buffer<T> bu(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bz(dev, n, 0);
  upload(bw, w);
  upload(bv, v);
  upload(bu, u);
  std::uint64_t cycles = 0;
  ctx.copy<T>(n, bw, 1, bz, 1);
  cycles += ctx.last_cycles();
  ctx.axpy<T>(n, -alpha, bv, 1, bz, 1);
  cycles += ctx.last_cycles();
  const T beta = ctx.dot<T>(n, bz, 1, bu, 1);
  cycles += ctx.last_cycles();
  return {beta, cycles};
}

template <typename T>
host::Event axpydot_composed_async(host::Context& ctx, std::int64_t n,
                                   const host::Buffer<T>& w,
                                   const host::Buffer<T>& v,
                                   const host::Buffer<T>& u, T alpha,
                                   T* beta) {
  // A pure description: the compiler derives the channels, the checksum
  // taps on every FIFO, and the refblas fallback.
  host::Composition<T> c("axpydot");
  const int rv = c.input("read_v", v);
  const int rw = c.input("read_w", w);
  const int ru = c.input("read_u", u);
  const int wb = c.output_scalar("write_beta", beta);
  const int ax = c.axpy("axpy", -alpha);  // z = w - alpha v
  const int dt = c.dot("dot");
  c.connect(rv, ax, mdag::StreamSig::vec(n));
  c.connect(rw, ax, mdag::StreamSig::vec(n));
  c.connect(ax, dt, mdag::StreamSig::vec(n));
  c.connect(ru, dt, mdag::StreamSig::vec(n));
  c.connect(dt, wb, mdag::StreamSig::vec(1));
  return ctx.run_composition_async(c);
}

template <typename T>
T axpydot_cpu(VectorView<const T> w, VectorView<const T> v,
              VectorView<const T> u, T alpha) {
  const std::int64_t n = w.size();
  std::vector<T> z(static_cast<std::size_t>(n));
  ref::copy<T>(w, VectorView<T>(z.data(), n));
  ref::axpy<T>(-alpha, v, VectorView<T>(z.data(), n));
  return ref::dot<T>(VectorView<const T>(z.data(), n), u);
}

mdag::Mdag axpydot_mdag(std::int64_t n) {
  mdag::Mdag g;
  const int rv = g.add_interface("read_v");
  const int rw = g.add_interface("read_w");
  const int ru = g.add_interface("read_u");
  const int wb = g.add_interface("write_beta");
  const int axpy = g.add_compute("axpy", RoutineKind::Axpy, 12);
  const int dot = g.add_compute("dot", RoutineKind::Dot, 30);
  g.connect(rv, axpy, mdag::StreamSig::vec(n));
  g.connect(rw, axpy, mdag::StreamSig::vec(n));
  g.connect(axpy, dot, mdag::StreamSig::vec(n));
  g.connect(ru, dot, mdag::StreamSig::vec(n));
  g.connect(dot, wb, mdag::StreamSig::vec(1));
  return g;
}

#define FBLAS_APP_AXPYDOT_INSTANTIATE(T)                                     \
  template AxpydotResult<T> axpydot_host_layer<T>(                           \
      host::Context&, VectorView<const T>, VectorView<const T>,              \
      VectorView<const T>, T);                                               \
  template host::Event axpydot_composed_async<T>(                            \
      host::Context&, std::int64_t, const host::Buffer<T>&,                  \
      const host::Buffer<T>&, const host::Buffer<T>&, T, T*);                \
  template T axpydot_cpu<T>(VectorView<const T>, VectorView<const T>,        \
                            VectorView<const T>, T);

FBLAS_APP_AXPYDOT_INSTANTIATE(float)
FBLAS_APP_AXPYDOT_INSTANTIATE(double)
#undef FBLAS_APP_AXPYDOT_INSTANTIATE

}  // namespace fblas::apps
