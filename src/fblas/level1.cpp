#include "fblas/level1.hpp"

namespace fblas::core {

Task sdsdot(Level1Config cfg, std::int64_t n, float sb, Channel<float>& ch_x,
            Channel<float>& ch_y, Channel<float>& ch_res) {
  cfg.validate();
  const std::array<const stream::ChannelBase*, 2> in{&ch_x, &ch_y};
  const std::int64_t w = stream::step_width(cfg.width, in);
  std::vector<float> x = stream::lanes<float>(std::min(w, n)), y = x;
  double res = static_cast<double>(sb), acc = 0.0;
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min(w, n - it);
    for (std::int64_t i = 0; i < batch;) {
      const std::size_t m = stream::lockstep(
          static_cast<std::size_t>(batch - i), in, {});
      co_await ch_x.pop_some(x.data(), m);
      co_await ch_y.pop_some(y.data(), m);
      detail::fold_chunks(static_cast<std::int64_t>(m), it + i, cfg.width, n,
                          acc, res, [&x, &y](std::int64_t k) {
                            const auto u = static_cast<std::size_t>(k);
                            return static_cast<double>(x[u]) *
                                   static_cast<double>(y[u]);
                          });
      i += static_cast<std::int64_t>(m);
    }
    it += batch;
    co_await next_cycle();
  }
  co_await ch_res.push(static_cast<float>(res));
}

}  // namespace fblas::core
