// BICG (Sec. V-A, Fig. 7): q = A p and s = A^T r, the two independent
// matrix-vector products of the biconjugate gradient method. The
// streaming composition reads A from DRAM once and broadcasts it on chip
// to a GEMV and a transposed GEMV that share the same tiling schedule,
// halving the dominant I/O term (2NM -> NM).
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"

namespace fblas::apps {

template <typename T>
struct BicgResult {
  std::vector<T> q;  ///< A p   (n elements)
  std::vector<T> s;  ///< A^T r (m elements)
  std::uint64_t cycles = 0;
};

/// Host-layer baseline: two independent GEMV launches (A read twice).
template <typename T>
BicgResult<T> bicg_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> p, VectorView<const T> r);

/// The description bicg_composed_async runs, with the knobs of `rc`.
template <typename T>
host::Composition<T> bicg_composition(const host::RoutineConfig& rc,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& p,
                                      const host::Buffer<T>& r,
                                      host::Buffer<T>& q, host::Buffer<T>& s);

/// Streaming composition as ONE host command: A is read once and
/// broadcast on chip, q and s land straight in their device buffers, and
/// the command carries the executor's fault-tolerance ladder plus — when
/// the captured verify::Options enable it — per-channel checksum taps,
/// compared in the compiled plan's order, that localize mid-pipeline
/// corruption to the first divergent channel. `a` is n x m row-major,
/// `p` length m, `r` length n, `q` length n, `s` length m.
template <typename T>
host::Event bicg_composed_async(host::Context& ctx, std::int64_t n,
                                std::int64_t m, const host::Buffer<T>& a,
                                const host::Buffer<T>& p,
                                const host::Buffer<T>& r, host::Buffer<T>& q,
                                host::Buffer<T>& s) {
  return ctx.run_composition_async(
      bicg_composition(ctx.config(), n, m, a, p, r, q, s));
}
template <typename T>
void bicg_composed(host::Context& ctx, std::int64_t n, std::int64_t m,
                   const host::Buffer<T>& a, const host::Buffer<T>& p,
                   const host::Buffer<T>& r, host::Buffer<T>& q,
                   host::Buffer<T>& s) {
  bicg_composed_async(ctx, n, m, a, p, r, q, s).wait();
}

/// CPU reference.
template <typename T>
BicgResult<T> bicg_cpu(MatrixView<const T> A, VectorView<const T> p,
                       VectorView<const T> r);

/// The MDAG of the streaming composition.
mdag::Mdag bicg_mdag(std::int64_t n, std::int64_t m, std::int64_t tile);

}  // namespace fblas::apps
