// Batched fully-unrolled host API lowerings (the Table V designs).
//
// Each batch is `batch` square problems of `size` stored contiguously, so
// a buffer reads as one (batch·size) x size matrix whose row block i is
// problem i. Both routines attach their refblas batched routine as the
// CPU fallback and check every problem with the Level-3 checker of its
// routine: GEMM's row and column checksums, TRSM's residual. The size is
// validated at enqueue, before any channel is sized from it.
#include <vector>

#include "fblas/batched.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/batched.hpp"
#include "sim/frequency_model.hpp"
#include "verify/abft.hpp"

namespace fblas::host {
namespace {

/// Problem i of a batch: row block i of the buffer read as one
/// (batch·size) x size matrix.
template <typename T>
MatrixView<const T> problem(const Buffer<T>& buf, std::int64_t size,
                            std::int64_t batch, std::int64_t i) {
  return buf.cmat(batch * size, size).block(i * size, 0, size, size);
}

}  // namespace

template <typename T>
Event Context::gemm_batched_async(std::int64_t size, std::int64_t batch,
                                  T alpha, const Buffer<T>& a,
                                  const Buffer<T>& b, Buffer<T>& c) {
  const core::BatchedConfig cfg{size};
  cfg.validate();
  Command command;
  command.label = "gemm_batched";
  command.reads = {&a, &b, &c};
  command.writes = {&c};
  command.work = [this, cfg, size, batch, alpha, &a, &b, &c] {
    FBLAS_REQUIRE(a.size() >= batch * size * size &&
                      b.size() >= batch * size * size &&
                      c.size() >= batch * size * size,
                  "gemm_batched: buffers too small for the batch");
    const double mhz =
        sim::unrolled_frequency(PrecisionTraits<T>::value, dev_->spec()).mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
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
  command.fallback = [size, batch, alpha, &a, &b, &c] {
    const std::int64_t elems = batch * size * size;
    ref::gemm_batched<T>(batch, size, alpha, a.cvec(elems).data(),
                         b.cvec(elems).data(), T(0), c.vec(elems).data());
  };
  return enqueue(std::move(command), [size, batch, alpha, &a, &b, &c] {
    std::vector<verify::GemmCheck> chks;
    for (std::int64_t i = 0; i < batch; ++i) {
      chks.push_back(verify::gemm_prepare<T>(
          Transpose::None, Transpose::None, size, size, size, alpha,
          problem(a, size, batch, i), problem(b, size, batch, i), T(0), {}));
    }
    return [chks = std::move(chks), size, batch, &c](double scale) {
      for (std::int64_t i = 0; i < batch; ++i) {
        verify::gemm_check<T>(chks[static_cast<std::size_t>(i)],
                              problem(c, size, batch, i), scale);
      }
    };
  });
}

template <typename T>
Event Context::trsm_batched_async(std::int64_t size, std::int64_t batch,
                                  T alpha, const Buffer<T>& a,
                                  Buffer<T>& x) {
  const core::BatchedConfig cfg{size};
  cfg.validate();
  Command command;
  command.label = "trsm_batched";
  command.reads = {&a, &x};
  command.writes = {&x};
  command.work = [this, cfg, size, batch, alpha, &a, &x] {
    FBLAS_REQUIRE(a.size() >= batch * size * size &&
                      x.size() >= batch * size * size,
                  "trsm_batched: buffers too small for the batch");
    const double mhz =
        sim::unrolled_frequency(PrecisionTraits<T>::value, dev_->spec()).mhz;
    detail::launch(*this, mhz, [&](stream::Graph& g, detail::BankSet& banks) {
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
  command.fallback = [size, batch, alpha, &a, &x] {
    const std::int64_t elems = batch * size * size;
    ref::trsm_batched<T>(batch, size, alpha, a.cvec(elems).data(),
                         x.vec(elems).data());
  };
  return enqueue(std::move(command), [size, batch, alpha, &a, &x] {
    std::vector<verify::RowSumCheck> chks;
    for (std::int64_t i = 0; i < batch; ++i) {
      chks.push_back(verify::trsm_prepare<T>(Side::Left, size, size, alpha,
                                             problem(x, size, batch, i)));
    }
    return [chks = std::move(chks), size, batch, &a, &x](double scale) {
      for (std::int64_t i = 0; i < batch; ++i) {
        verify::trsm_check<T>(chks[static_cast<std::size_t>(i)], Side::Left,
                              Uplo::Lower, Transpose::None, Diag::NonUnit,
                              size, size, problem(a, size, batch, i),
                              problem(x, size, batch, i), scale);
      }
    };
  });
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
