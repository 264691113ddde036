#include "apps/bicg.hpp"

#include "apps/upload.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "refblas/level2.hpp"

namespace fblas::apps {

template <typename T>
BicgResult<T> bicg_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> p, VectorView<const T> r) {
  const std::int64_t n = A.rows(), m = A.cols();
  host::Device& dev = ctx.device();
  host::Buffer<T> ba(dev, n * m, 0);
  host::Buffer<T> bp(dev, m, 1 % dev.bank_count());
  host::Buffer<T> br(dev, n, 1 % dev.bank_count());
  host::Buffer<T> bq(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bs(dev, m, 3 % dev.bank_count());
  upload(ba, A);
  upload(bp, p);
  upload(br, r);
  std::uint64_t cycles = 0;
  ctx.gemv<T>(Transpose::None, n, m, T(1), ba, bp, 1, T(0), bq, 1);
  cycles += ctx.last_cycles();
  ctx.gemv<T>(Transpose::Trans, n, m, T(1), ba, br, 1, T(0), bs, 1);
  cycles += ctx.last_cycles();
  return {bq.to_host(), bs.to_host(), cycles};
}

template <typename T>
host::Composition<T> bicg_composition(const host::RoutineConfig& rc,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& p,
                                      const host::Buffer<T>& r,
                                      host::Buffer<T>& q, host::Buffer<T>& s) {
  // A pure description. The two GEMVs consume A in the identical tiling
  // schedule, so the compiler reads A once and synthesizes the on-chip
  // fan-out (Fig. 7), plus the zero q0/s0 streams and the per-FIFO
  // checksum taps.
  const core::GemvConfig cfg_n{Transpose::None,
                               core::MatrixTiling::TilesByRows, rc.width,
                               rc.tile_rows, rc.tile_rows};
  const core::GemvConfig cfg_t{Transpose::Trans,
                               core::MatrixTiling::TilesByRows, rc.width,
                               rc.tile_rows, rc.tile_rows};
  host::Composition<T> c("bicg");
  const int ra = c.input("read_A", a);
  const int rp = c.input("read_p", p);
  const int rr = c.input("read_r", r);
  const int wq = c.output("store_q", q);
  const int ws = c.output("store_s", s);
  const int g1 = c.gemv("gemv", T(1), T(0));
  const int g2 = c.gemv("gemv_T", T(1), T(0), Transpose::Trans);
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg_n));
  c.connect(ra, g1, a_sig);
  c.connect(ra, g2, a_sig);
  c.connect(rp, g1,
            mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg_n, n, m)));
  c.connect(rr, g2,
            mdag::StreamSig::vec(n, core::gemv_x_repeat(cfg_t, n, m)));
  c.connect(g1, wq, mdag::StreamSig::vec(n));
  c.connect(g2, ws, mdag::StreamSig::vec(m));
  return c;
}

template <typename T>
BicgResult<T> bicg_cpu(MatrixView<const T> A, VectorView<const T> p,
                       VectorView<const T> r) {
  const std::int64_t n = A.rows(), m = A.cols();
  BicgResult<T> out;
  out.q.assign(static_cast<std::size_t>(n), T(0));
  out.s.assign(static_cast<std::size_t>(m), T(0));
  ref::gemv<T>(Transpose::None, T(1), A, p, T(0),
               VectorView<T>(out.q.data(), n));
  ref::gemv<T>(Transpose::Trans, T(1), A, r, T(0),
               VectorView<T>(out.s.data(), m));
  return out;
}

mdag::Mdag bicg_mdag(std::int64_t n, std::int64_t m, std::int64_t tile) {
  mdag::Mdag g;
  const int ra = g.add_interface("read_A");
  const int rp = g.add_interface("read_p");
  const int rr = g.add_interface("read_r");
  const int wq = g.add_interface("write_q");
  const int ws = g.add_interface("write_s");
  const int gemv = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int gemvt = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const stream::TileSchedule sched{Order::RowMajor, Order::RowMajor, tile,
                                   tile};
  const auto a_sig = mdag::StreamSig::mat(n, m, sched);
  g.connect(ra, gemv, a_sig);
  g.connect(ra, gemvt, a_sig);
  g.connect(rp, gemv, mdag::StreamSig::vec(m, ceil_div(n, tile)));
  g.connect(rr, gemvt, mdag::StreamSig::vec(n));
  g.connect(gemv, wq, mdag::StreamSig::vec(n));
  g.connect(gemvt, ws, mdag::StreamSig::vec(m));
  return g;
}

#define FBLAS_APP_BICG_INSTANTIATE(T)                                        \
  template BicgResult<T> bicg_host_layer<T>(                                 \
      host::Context&, MatrixView<const T>, VectorView<const T>,              \
      VectorView<const T>);                                                  \
  template host::Composition<T> bicg_composition<T>(                         \
      const host::RoutineConfig&, std::int64_t, std::int64_t,                \
      const host::Buffer<T>&, const host::Buffer<T>&,                        \
      const host::Buffer<T>&, host::Buffer<T>&, host::Buffer<T>&);           \
  template BicgResult<T> bicg_cpu<T>(MatrixView<const T>,                    \
                                     VectorView<const T>,                    \
                                     VectorView<const T>);

FBLAS_APP_BICG_INSTANTIATE(float)
FBLAS_APP_BICG_INSTANTIATE(double)
#undef FBLAS_APP_BICG_INSTANTIATE

}  // namespace fblas::apps
