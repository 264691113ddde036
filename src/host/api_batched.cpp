// Batched fully-unrolled host API lowerings (the Table V designs).
#include "fblas/batched.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "sim/frequency_model.hpp"

namespace fblas::host {
template <typename T>
Event Context::gemm_batched_async(std::int64_t size, std::int64_t batch,
                                  T alpha, const Buffer<T>& a,
                                  const Buffer<T>& b, Buffer<T>& c) {
  Command command;
  command.label = "gemm_batched";
  command.reads = {&a, &b, &c};
  command.writes = {&c};
  command.work = [this, size, batch, alpha, &a, &b, &c] {
    FBLAS_REQUIRE(a.size() >= batch * size * size &&
                      b.size() >= batch * size * size &&
                      c.size() >= batch * size * size,
                  "gemm_batched: buffers too small for the batch");
    const double mhz =
        sim::unrolled_frequency(PrecisionTraits<T>::value, dev_->spec()).mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
      const core::BatchedConfig cfg{size};
      const std::int64_t elems = size * size;
      const std::size_t cap = static_cast<std::size_t>(4 * elems);
      auto& ca = g.channel<T>("A", cap);
      auto& cb = g.channel<T>("B", cap);
      auto& cc = g.channel<T>("C", cap);
      g.spawn("read_A",
              core::read_batched<T>(a.cvec(batch * elems).data(), elems,
                                    batch, ca, banks.at(a.bank())));
      g.spawn("read_B",
              core::read_batched<T>(b.cvec(batch * elems).data(), elems,
                                    batch, cb, banks.at(b.bank())));
      g.spawn("gemm_batched",
              core::gemm_batched_unrolled<T>(cfg, batch, alpha, ca, cb, cc));
      g.spawn("store_C",
              core::write_batched<T>(c.vec(batch * elems).data(), elems,
                                     batch, cc, banks.at(c.bank())));
    });
  };
  return enqueue(std::move(command));
}

template <typename T>
Event Context::trsm_batched_async(std::int64_t size, std::int64_t batch,
                                  T alpha, const Buffer<T>& a,
                                  Buffer<T>& x) {
  Command command;
  command.label = "trsm_batched";
  command.reads = {&a, &x};
  command.writes = {&x};
  command.work = [this, size, batch, alpha, &a, &x] {
    FBLAS_REQUIRE(a.size() >= batch * size * size &&
                      x.size() >= batch * size * size,
                  "trsm_batched: buffers too small for the batch");
    const double mhz =
        sim::unrolled_frequency(PrecisionTraits<T>::value, dev_->spec()).mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
      const core::BatchedConfig cfg{size};
      const std::int64_t elems = size * size;
      const std::size_t cap = static_cast<std::size_t>(4 * elems);
      auto& ca = g.channel<T>("A", cap);
      auto& cb = g.channel<T>("B", cap);
      auto& cx = g.channel<T>("X", cap);
      g.spawn("read_A",
              core::read_batched_triangles<T>(a.cvec(batch * elems).data(),
                                              size, batch, ca,
                                              banks.at(a.bank())));
      g.spawn("read_B",
              core::read_batched<T>(x.cvec(batch * elems).data(), elems,
                                    batch, cb, banks.at(x.bank())));
      g.spawn("trsm_batched",
              core::trsm_batched_unrolled<T>(cfg, batch, alpha, ca, cb, cx));
      g.spawn("store_X",
              core::write_batched<T>(x.vec(batch * elems).data(), elems,
                                     batch, cx, banks.at(x.bank())));
    });
  };
  return enqueue(std::move(command));
}

#define FBLAS_HOST_BATCHED_INSTANTIATE(T)                                    \
  template Event Context::gemm_batched_async<T>(                             \
      std::int64_t, std::int64_t, T, const Buffer<T>&, const Buffer<T>&,     \
      Buffer<T>&);                                                           \
  template Event Context::trsm_batched_async<T>(                             \
      std::int64_t, std::int64_t, T, const Buffer<T>&, Buffer<T>&);

FBLAS_HOST_BATCHED_INSTANTIATE(float)
FBLAS_HOST_BATCHED_INSTANTIATE(double)
#undef FBLAS_HOST_BATCHED_INSTANTIATE

}  // namespace fblas::host
