#include "fblas/level1.hpp"

namespace fblas::core {

Task sdsdot(Level1Config cfg, std::int64_t n, float sb, Channel<float>& ch_x,
            Channel<float>& ch_y, Channel<float>& ch_res) {
  cfg.validate();
  std::vector<float> x = stream::lanes<float>(cfg.width), y = x;
  const std::array<const stream::ChannelBase*, 2> in{&ch_x, &ch_y};
  double res = static_cast<double>(sb);
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min<std::int64_t>(cfg.width, n - it);
    double acc = 0.0;
    for (std::int64_t i = 0; i < batch;) {
      const std::size_t m = stream::lockstep(
          static_cast<std::size_t>(batch - i), in, {});
      co_await ch_x.pop_some(x.data(), m);
      co_await ch_y.pop_some(y.data(), m);
      for (std::size_t k = 0; k < m; ++k) {
        acc += static_cast<double>(x[k]) * static_cast<double>(y[k]);
      }
      i += static_cast<std::int64_t>(m);
    }
    res += acc;
    it += batch;
    co_await next_cycle();
  }
  co_await ch_res.push(static_cast<float>(res));
}

}  // namespace fblas::core
