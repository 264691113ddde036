#include "apps/atax.hpp"

#include "apps/upload.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "refblas/level2.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::apps {
namespace {

template <typename T>
core::GemvConfig atax_cfg(Transpose tr, int width, std::int64_t tile) {
  return core::GemvConfig{tr, core::MatrixTiling::TilesByRows, width, tile,
                          tile};
}

}  // namespace

std::int64_t atax_min_channel_depth(std::int64_t m, std::int64_t tile,
                                    int width) {
  // One full row of tiles (M*TN elements, Sec. V-B) plus fan-out slack.
  return m * tile + 4 * width;
}

template <typename T>
AtaxResult<T> atax_streaming(const sim::DeviceSpec& dev, stream::Mode mode,
                             int width, std::int64_t tile,
                             std::int64_t a_channel_depth,
                             MatrixView<const T> A, VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  FBLAS_REQUIRE(x.size() == m, "atax: shape mismatch");
  const auto cfg_n = atax_cfg<T>(Transpose::None, width, tile);
  const auto cfg_t = atax_cfg<T>(Transpose::Trans, width, tile);
  stream::Graph g(mode);
  const auto f = sim::composition_frequency(2, PrecisionTraits<T>::value, dev);
  const double bpc = dev.bank_bandwidth_gbs * 1e9 / (f.mhz * 1e6);
  auto& bank_a = g.bank("ddr0", bpc);
  auto& bank_vec = g.bank("ddr1", bpc);
  const std::size_t cap = static_cast<std::size_t>(std::max(64, 4 * width));
  auto& ca = g.channel<T>("A", cap);
  auto& ca1 = g.channel<T>("A_gemv", cap);
  // The direct A channel into the transposed GEMV: its depth decides
  // whether the non-multitree composition can make progress.
  auto& ca2 = g.channel<T>("A_gemvT",
                           static_cast<std::size_t>(a_channel_depth));
  auto& cx = g.channel<T>("x", cap);
  auto& cq0 = g.channel<T>("q0", cap);
  auto& cy0 = g.channel<T>("y0", cap);
  auto& cq = g.channel<T>("q", cap);
  auto& cy = g.channel<T>("y", cap);
  AtaxResult<T> result;
  g.spawn("read_A", stream::read_matrix<T>(A, core::gemv_a_schedule(cfg_n), 1,
                                           width, ca, &bank_a));
  g.spawn("fanout_A", stream::fanout2<T>(n * m, width, ca, ca1, ca2));
  g.spawn("read_x", stream::read_vector<T>(x, core::gemv_x_repeat(cfg_n, n, m),
                                           width, cx, &bank_vec));
  g.spawn("zero_q", stream::generate<T>(n, T(0), width, cq0));
  g.spawn("zero_y", stream::generate<T>(m, T(0), width, cy0));
  g.spawn("gemv", core::gemv<T>(cfg_n, n, m, T(1), T(0), ca1, cx, cq0, cq));
  // q is streamed straight into the transposed GEMV (no replay allowed
  // between computational modules).
  g.spawn("gemv_T", core::gemv<T>(cfg_t, n, m, T(1), T(0), ca2, cq, cy0, cy));
  g.spawn("collect_y", stream::collect<T>(m, cy, result.y));
  g.run();
  result.cycles = g.cycles();
  return result;
}

template <typename T>
AtaxResult<T> atax_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  host::Device& dev = ctx.device();
  host::Buffer<T> ba(dev, n * m, 0);
  host::Buffer<T> bx(dev, m, 1 % dev.bank_count());
  host::Buffer<T> bq(dev, n, 2 % dev.bank_count());
  host::Buffer<T> by(dev, m, 3 % dev.bank_count());
  upload(ba, A);
  upload(bx, x);
  std::uint64_t cycles = 0;
  ctx.gemv<T>(Transpose::None, n, m, T(1), ba, bx, 1, T(0), bq, 1);
  cycles += ctx.last_cycles();
  ctx.gemv<T>(Transpose::Trans, n, m, T(1), ba, bq, 1, T(0), by, 1);
  cycles += ctx.last_cycles();
  return {by.to_host(), cycles};
}

template <typename T>
host::Composition<T> atax_composition(const host::RoutineConfig& rc,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& x,
                                      host::Buffer<T>& y) {
  // A pure description. The compiler detects the two vertex-disjoint
  // A-paths into the transposed GEMV and sizes the direct channel to one
  // full row of tiles (the atax_min_channel_depth analysis), synthesizes
  // the A fan-out and the zero q0/y0 inputs, and derives the per-FIFO
  // checksum plan.
  const auto cfg = atax_cfg<T>(Transpose::None, rc.width, rc.tile_rows);
  host::Composition<T> c("atax");
  const int ra = c.input("read_A", a);
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int g1 = c.gemv("gemv", T(1), T(0));
  const int g2 = c.gemv("gemv_T", T(1), T(0), Transpose::Trans);
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
  c.connect(ra, g1, a_sig);
  c.connect(ra, g2, a_sig);
  c.connect(rx, g1,
            mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
  c.connect(g1, g2, mdag::StreamSig::vec(n));
  c.connect(g2, wy, mdag::StreamSig::vec(m));
  return c;
}

template <typename T>
std::vector<T> atax_cpu(MatrixView<const T> A, VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  std::vector<T> q(static_cast<std::size_t>(n), T(0));
  std::vector<T> y(static_cast<std::size_t>(m), T(0));
  ref::gemv<T>(Transpose::None, T(1), A, x, T(0), VectorView<T>(q.data(), n));
  ref::gemv<T>(Transpose::Trans, T(1), A,
               VectorView<const T>(q.data(), n), T(0),
               VectorView<T>(y.data(), m));
  return y;
}

mdag::Mdag atax_mdag(std::int64_t n, std::int64_t m, std::int64_t tile) {
  mdag::Mdag g;
  const int ra = g.add_interface("read_A");
  const int rx = g.add_interface("read_x");
  const int wy = g.add_interface("write_y");
  const int g1 = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int g2 = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const stream::TileSchedule sched{Order::RowMajor, Order::RowMajor, tile,
                                   tile};
  const auto a_sig = mdag::StreamSig::mat(n, m, sched);
  g.connect(ra, g1, a_sig);
  g.connect(ra, g2, a_sig);
  g.connect(rx, g1, mdag::StreamSig::vec(m, ceil_div(n, tile)));
  g.connect(g1, g2, mdag::StreamSig::vec(n));
  g.connect(g2, wy, mdag::StreamSig::vec(m));
  return g;
}

#define FBLAS_APP_ATAX_INSTANTIATE(T)                                        \
  template AtaxResult<T> atax_streaming<T>(                                  \
      const sim::DeviceSpec&, stream::Mode, int, std::int64_t, std::int64_t, \
      MatrixView<const T>, VectorView<const T>);                             \
  template AtaxResult<T> atax_host_layer<T>(host::Context&,                  \
                                            MatrixView<const T>,             \
                                            VectorView<const T>);            \
  template host::Composition<T> atax_composition<T>(                         \
      const host::RoutineConfig&, std::int64_t, std::int64_t,                \
      const host::Buffer<T>&, const host::Buffer<T>&, host::Buffer<T>&);     \
  template std::vector<T> atax_cpu<T>(MatrixView<const T>,                   \
                                      VectorView<const T>);

FBLAS_APP_ATAX_INSTANTIATE(float)
FBLAS_APP_ATAX_INSTANTIATE(double)
#undef FBLAS_APP_ATAX_INSTANTIATE

}  // namespace fblas::apps
