// AXPYDOT (Sec. V-A, Fig. 6): z = w - alpha*v followed by beta = z^T u.
// The streaming composition chains AXPY into DOT through an on-chip
// channel, eliminating the COPY and the DRAM round trip of z
// (7N -> 3N+1 I/O operations) and running both modules in pipeline
// parallel. The host-layer baseline calls COPY, AXPY and DOT one by one;
// its z vector lives in a single DDR bank whose read+write contention is
// what pushes the measured speedup to ~4 (Sec. VI-C).
#pragma once

#include <cstdint>

#include "common/view.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"

namespace fblas::apps {

template <typename T>
struct AxpydotResult {
  T beta = T(0);
  std::uint64_t cycles = 0;  ///< simulated cycles (cycle mode only)
};

/// Host-layer baseline: COPY + AXPY + DOT through the Context queue.
/// Returns the summed cycle count of the three launches.
template <typename T>
AxpydotResult<T> axpydot_host_layer(host::Context& ctx,
                                    VectorView<const T> w,
                                    VectorView<const T> v,
                                    VectorView<const T> u, T alpha);

/// Streaming composition as ONE host command: AXPY chains into DOT on
/// chip (z never materializes) and the result lands in `*beta`. The
/// command gets the executor's fault-tolerance ladder and — when the
/// captured verify::Options enable it — per-channel checksum taps: the z
/// and beta edges are predicted by replaying AXPY and DOT in double over
/// the host operands. All vectors
/// have length n.
template <typename T>
host::Event axpydot_composed_async(host::Context& ctx, std::int64_t n,
                                   const host::Buffer<T>& w,
                                   const host::Buffer<T>& v,
                                   const host::Buffer<T>& u, T alpha,
                                   T* beta);
template <typename T>
T axpydot_composed(host::Context& ctx, std::int64_t n,
                   const host::Buffer<T>& w, const host::Buffer<T>& v,
                   const host::Buffer<T>& u, T alpha) {
  T beta{};
  axpydot_composed_async(ctx, n, w, v, u, alpha, &beta).wait();
  return beta;
}

/// CPU reference.
template <typename T>
T axpydot_cpu(VectorView<const T> w, VectorView<const T> v,
              VectorView<const T> u, T alpha);

/// The MDAG of the streaming composition (for validity/I/O analysis).
mdag::Mdag axpydot_mdag(std::int64_t n);

}  // namespace fblas::apps
