#include "apps/gemver.hpp"

#include "apps/upload.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "refblas/level2.hpp"

namespace fblas::apps {

template <typename T>
GemverResult<T> gemver_host_layer(host::Context& ctx, T alpha, T beta,
                                  MatrixView<const T> A,
                                  VectorView<const T> u1,
                                  VectorView<const T> v1,
                                  VectorView<const T> u2,
                                  VectorView<const T> v2,
                                  VectorView<const T> y,
                                  VectorView<const T> z) {
  const std::int64_t n = A.rows();
  host::Device& dev = ctx.device();
  host::Buffer<T> ba(dev, n * n, 0);
  host::Buffer<T> bb(dev, n * n, 1 % dev.bank_count());
  host::Buffer<T> bu1(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bv1(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bu2(dev, n, 2 % dev.bank_count());
  host::Buffer<T> bv2(dev, n, 2 % dev.bank_count());
  host::Buffer<T> by(dev, n, 3 % dev.bank_count());
  host::Buffer<T> bx(dev, n, 3 % dev.bank_count());
  host::Buffer<T> bw(dev, n, 3 % dev.bank_count());
  upload(ba, A);
  upload(bu1, u1);
  upload(bv1, v1);
  upload(bu2, u2);
  upload(bv2, v2);
  upload(by, y);
  upload(bx, z);  // x starts as z: gemv accumulates beta*B^T y onto it
  std::uint64_t cycles = 0;
  ctx.copy<T>(n * n, ba, 1, bb, 1);
  cycles += ctx.last_cycles();
  ctx.ger<T>(n, n, T(1), bu1, 1, bv1, 1, bb);
  cycles += ctx.last_cycles();
  ctx.ger<T>(n, n, T(1), bu2, 1, bv2, 1, bb);
  cycles += ctx.last_cycles();
  ctx.gemv<T>(Transpose::Trans, n, n, beta, bb, by, 1, T(1), bx, 1);
  cycles += ctx.last_cycles();
  std::vector<T> zero(static_cast<std::size_t>(n), T(0));
  bw.write(zero);
  ctx.gemv<T>(Transpose::None, n, n, alpha, bb, bx, 1, T(0), bw, 1);
  cycles += ctx.last_cycles();
  return {bb.to_host(), bx.to_host(), bw.to_host(), cycles};
}

template <typename T>
host::Composition<T> gemver_composition(
    const host::RoutineConfig& rc, std::int64_t n, T alpha, T beta,
    const host::Buffer<T>& a, const host::Buffer<T>& u1,
    const host::Buffer<T>& v1, const host::Buffer<T>& u2,
    const host::Buffer<T>& v2, const host::Buffer<T>& y,
    const host::Buffer<T>& z, host::Buffer<T>& b, host::Buffer<T>& x,
    host::Buffer<T>& w) {
  // The full MDAG is the invalid non-multitree of Fig. 9: B reaches the
  // w-GEMV both directly and through the x-GEMV. prefer_split makes the
  // compiler cut both in-edges of that GEMV through DRAM — reusing the
  // B and x output buffers as the round-trip carriers — instead of
  // buffering a row of B tiles on chip, reproducing the paper's
  // two-component schedule (~3N^2 I/O, ~2N^2 completion).
  const core::GerConfig gcfg{core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  const core::GemvConfig tcfg{Transpose::Trans,
                              core::MatrixTiling::TilesByRows, rc.width,
                              rc.tile_rows, rc.tile_rows};
  const core::GemvConfig ncfg{Transpose::None,
                              core::MatrixTiling::TilesByRows, rc.width,
                              rc.tile_rows, rc.tile_rows};
  host::Composition<T> c("gemver");
  c.prefer_split();
  const int ra = c.input("read_A", a);
  const int ru1 = c.input("read_u1", u1);
  const int rv1 = c.input("read_v1", v1);
  const int ru2 = c.input("read_u2", u2);
  const int rv2 = c.input("read_v2", v2);
  const int ry = c.input("read_y", y);
  const int rz = c.input("read_z", z);
  const int wb = c.output("store_B", b);
  const int wx = c.output("store_x", x);
  const int ww = c.output("store_w", w);
  const int g1 = c.ger("ger1", T(1));
  const int g2 = c.ger("ger2", T(1));
  const int gt = c.gemv("gemv_T", beta, T(1), Transpose::Trans);
  const int gw = c.gemv("gemv_w", alpha, T(0));
  const auto m_sig =
      mdag::StreamSig::mat(n, n, core::ger_a_schedule(gcfg));
  c.connect(ra, g1, m_sig);
  c.connect(ru1, g1,
            mdag::StreamSig::vec(n, core::ger_x_repeat(gcfg, n, n)));
  c.connect(rv1, g1,
            mdag::StreamSig::vec(n, core::ger_y_repeat(gcfg, n, n)));
  c.connect(g1, g2, m_sig);
  c.connect(ru2, g2,
            mdag::StreamSig::vec(n, core::ger_x_repeat(gcfg, n, n)));
  c.connect(rv2, g2,
            mdag::StreamSig::vec(n, core::ger_y_repeat(gcfg, n, n)));
  // B's fan-out: DRAM first, then the transposed GEMV — the declaration
  // order fixes the replication module's branch order.
  c.connect(g2, wb, m_sig);
  c.connect(g2, gt, m_sig);
  c.connect(ry, gt,
            mdag::StreamSig::vec(n, core::gemv_x_repeat(tcfg, n, n)));
  c.connect(rz, gt, mdag::StreamSig::vec(n));
  c.connect(g2, gw, m_sig);
  // x re-enters with a per-tile-row replay the x-GEMV cannot get from a
  // FIFO — a forced DRAM cut whenever n spans multiple tiles.
  c.connect(gt, gw, mdag::StreamSig::vec(n),
            mdag::StreamSig::vec(n, core::gemv_x_repeat(ncfg, n, n)));
  c.connect(gt, wx, mdag::StreamSig::vec(n));
  c.connect(gw, ww, mdag::StreamSig::vec(n));
  return c;
}

template <typename T>
GemverResult<T> gemver_cpu(T alpha, T beta, MatrixView<const T> A,
                           VectorView<const T> u1, VectorView<const T> v1,
                           VectorView<const T> u2, VectorView<const T> v2,
                           VectorView<const T> y, VectorView<const T> z) {
  const std::int64_t n = A.rows();
  GemverResult<T> out;
  out.b.assign(static_cast<std::size_t>(n * n), T(0));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      out.b[static_cast<std::size_t>(i * n + j)] = A(i, j);
    }
  }
  MatrixView<T> B(out.b.data(), n, n);
  ref::ger<T>(T(1), u1, v1, B);
  ref::ger<T>(T(1), u2, v2, B);
  out.x.assign(static_cast<std::size_t>(n), T(0));
  for (std::int64_t i = 0; i < n; ++i) out.x[static_cast<std::size_t>(i)] = z[i];
  ref::gemv<T>(Transpose::Trans, beta, MatrixView<const T>(out.b.data(), n, n),
               y, T(1), VectorView<T>(out.x.data(), n));
  out.w.assign(static_cast<std::size_t>(n), T(0));
  ref::gemv<T>(Transpose::None, alpha,
               MatrixView<const T>(out.b.data(), n, n),
               VectorView<const T>(out.x.data(), n), T(0),
               VectorView<T>(out.w.data(), n));
  return out;
}

mdag::Mdag gemver_mdag(std::int64_t n, std::int64_t tile) {
  mdag::Mdag g;
  const int ra = g.add_interface("read_A");
  const int ruv1 = g.add_interface("read_u1v1");
  const int ruv2 = g.add_interface("read_u2v2");
  const int ryz = g.add_interface("read_y_z");
  const int wx = g.add_interface("write_x");
  const int ww = g.add_interface("write_w");
  const int ger1 = g.add_compute("ger1", RoutineKind::Ger, 20);
  const int ger2 = g.add_compute("ger2", RoutineKind::Ger, 20);
  const int gemvt = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const int gemvw = g.add_compute("gemv_w", RoutineKind::Gemv, 40);
  const stream::TileSchedule sched{Order::RowMajor, Order::RowMajor, tile,
                                   tile};
  const auto m = mdag::StreamSig::mat(n, n, sched);
  g.connect(ra, ger1, m);
  g.connect(ruv1, ger1, mdag::StreamSig::vec(2 * n));
  g.connect(ger1, ger2, m);
  g.connect(ruv2, ger2, mdag::StreamSig::vec(2 * n));
  g.connect(ger2, gemvt, m);
  g.connect(ger2, gemvw, m);
  g.connect(ryz, gemvt, mdag::StreamSig::vec(2 * n));
  g.connect(gemvt, gemvw, mdag::StreamSig::vec(n));
  g.connect(gemvt, wx, mdag::StreamSig::vec(n));
  g.connect(gemvw, ww, mdag::StreamSig::vec(n));
  return g;
}

#define FBLAS_APP_GEMVER_INSTANTIATE(T)                                      \
  template GemverResult<T> gemver_host_layer<T>(                             \
      host::Context&, T, T, MatrixView<const T>, VectorView<const T>,        \
      VectorView<const T>, VectorView<const T>, VectorView<const T>,         \
      VectorView<const T>, VectorView<const T>);                             \
  template host::Composition<T> gemver_composition<T>(                       \
      const host::RoutineConfig&, std::int64_t, T, T,                        \
      const host::Buffer<T>&, const host::Buffer<T>&,                        \
      const host::Buffer<T>&, const host::Buffer<T>&,                        \
      const host::Buffer<T>&, const host::Buffer<T>&,                        \
      const host::Buffer<T>&, host::Buffer<T>&, host::Buffer<T>&,            \
      host::Buffer<T>&);                                                     \
  template GemverResult<T> gemver_cpu<T>(                                    \
      T, T, MatrixView<const T>, VectorView<const T>, VectorView<const T>,   \
      VectorView<const T>, VectorView<const T>, VectorView<const T>,         \
      VectorView<const T>);

FBLAS_APP_GEMVER_INSTANTIATE(float)
FBLAS_APP_GEMVER_INSTANTIATE(double)
#undef FBLAS_APP_GEMVER_INSTANTIATE

}  // namespace fblas::apps
