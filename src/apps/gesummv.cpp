#include "apps/gesummv.hpp"

#include "apps/upload.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"

namespace fblas::apps {

template <typename T>
GesummvResult<T> gesummv_host_layer(host::Context& ctx, T alpha, T beta,
                                    MatrixView<const T> A,
                                    MatrixView<const T> B,
                                    VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  host::Device& dev = ctx.device();
  host::Buffer<T> ba(dev, n * m, 0);
  host::Buffer<T> bb(dev, n * m, 1 % dev.bank_count());
  host::Buffer<T> bx(dev, m, 2 % dev.bank_count());
  host::Buffer<T> bq(dev, n, 3 % dev.bank_count());
  host::Buffer<T> bs(dev, n, 3 % dev.bank_count());
  upload(ba, A);
  upload(bb, B);
  upload(bx, x);
  std::uint64_t cycles = 0;
  ctx.gemv<T>(Transpose::None, n, m, alpha, ba, bx, 1, T(0), bq, 1);
  cycles += ctx.last_cycles();
  ctx.gemv<T>(Transpose::None, n, m, beta, bb, bx, 1, T(0), bs, 1);
  cycles += ctx.last_cycles();
  ctx.axpy<T>(n, T(1), bq, 1, bs, 1);
  cycles += ctx.last_cycles();
  return {bs.to_host(), cycles};
}

template <typename T>
host::Event gesummv_composed_async(host::Context& ctx, std::int64_t n,
                                   std::int64_t m, T alpha, T beta,
                                   const host::Buffer<T>& a,
                                   const host::Buffer<T>& b,
                                   const host::Buffer<T>& x,
                                   host::Buffer<T>& y) {
  // A pure description of the Fig. 7 shared-interface pattern: x is read
  // once and broadcast on chip to both GEMVs. The graph is a
  // non-multitree, but the two sibling x-paths have identical lag, so
  // the compiler keeps it fully streaming (sizing the reconvergent
  // channel) instead of splitting.
  const host::RoutineConfig& rc = ctx.config();
  const core::GemvConfig cfg{Transpose::None,
                             core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  host::Composition<T> c("gesummv");
  const int ra = c.input("read_A", a);
  const int rb = c.input("read_B", b);
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int g1 = c.gemv("gemv_A", alpha, T(0));
  const int g2 = c.gemv("gemv_B", beta, T(0));
  const int ad = c.axpy("add", T(1));
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
  const auto x_sig =
      mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m));
  c.connect(ra, g1, a_sig);
  c.connect(rb, g2, a_sig);
  c.connect(rx, g1, x_sig);
  c.connect(rx, g2, x_sig);
  // y = 1 * q + s: the AXPY's x port is the alpha-scaled GEMV.
  c.connect(g1, ad, mdag::StreamSig::vec(n));
  c.connect(g2, ad, mdag::StreamSig::vec(n));
  c.connect(ad, wy, mdag::StreamSig::vec(n));
  return ctx.run_composition_async(c);
}

template <typename T>
std::vector<T> gesummv_cpu(T alpha, T beta, MatrixView<const T> A,
                           MatrixView<const T> B, VectorView<const T> x) {
  const std::int64_t n = A.rows();
  std::vector<T> q(static_cast<std::size_t>(n), T(0));
  std::vector<T> s(static_cast<std::size_t>(n), T(0));
  ref::gemv<T>(Transpose::None, alpha, A, x, T(0), VectorView<T>(q.data(), n));
  ref::gemv<T>(Transpose::None, beta, B, x, T(0), VectorView<T>(s.data(), n));
  ref::axpy<T>(T(1), VectorView<const T>(q.data(), n),
               VectorView<T>(s.data(), n));
  return s;
}

mdag::Mdag gesummv_mdag(std::int64_t n, std::int64_t m, std::int64_t tile) {
  mdag::Mdag g;
  const int ra = g.add_interface("read_A");
  const int rb = g.add_interface("read_B");
  const int rx = g.add_interface("read_x");
  const int wy = g.add_interface("write_y");
  const int g1 = g.add_compute("gemv_A", RoutineKind::Gemv, 40);
  const int g2 = g.add_compute("gemv_B", RoutineKind::Gemv, 40);
  const int add = g.add_compute("add", RoutineKind::Axpy, 12);
  const stream::TileSchedule sched{Order::RowMajor, Order::RowMajor, tile,
                                   tile};
  const std::int64_t xr = ceil_div(n, tile);
  g.connect(ra, g1, mdag::StreamSig::mat(n, m, sched));
  g.connect(rb, g2, mdag::StreamSig::mat(n, m, sched));
  g.connect(rx, g1, mdag::StreamSig::vec(m, xr));
  g.connect(rx, g2, mdag::StreamSig::vec(m, xr));
  g.connect(g1, add, mdag::StreamSig::vec(n));
  g.connect(g2, add, mdag::StreamSig::vec(n));
  g.connect(add, wy, mdag::StreamSig::vec(n));
  return g;
}

#define FBLAS_APP_GESUMMV_INSTANTIATE(T)                                     \
  template GesummvResult<T> gesummv_host_layer<T>(                           \
      host::Context&, T, T, MatrixView<const T>, MatrixView<const T>,        \
      VectorView<const T>);                                                  \
  template host::Event gesummv_composed_async<T>(                            \
      host::Context&, std::int64_t, std::int64_t, T, T,                      \
      const host::Buffer<T>&, const host::Buffer<T>&,                        \
      const host::Buffer<T>&, host::Buffer<T>&);                             \
  template std::vector<T> gesummv_cpu<T>(T, T, MatrixView<const T>,          \
                                         MatrixView<const T>,                \
                                         VectorView<const T>);

FBLAS_APP_GESUMMV_INSTANTIATE(float)
FBLAS_APP_GESUMMV_INSTANTIATE(double)
#undef FBLAS_APP_GESUMMV_INSTANTIATE

}  // namespace fblas::apps
