// ATAX (Sec. V-B, Fig. 8): y = A^T (A x). The natural full-streaming
// composition shares the A interface between the two GEMVs *and* chains
// the first GEMV's output into the second — a non-multitree with two
// vertex-disjoint paths from the A reader to the transposed GEMV. The
// composition stalls forever unless the direct A channel can buffer an
// entire row of tiles (>= M*TN elements); with dynamic N it is invalid.
// The fallback splits the MDAG: each GEMV reads A independently (same
// I/O as the non-streamed version, but still pipelined).
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"
#include "sim/device.hpp"
#include "stream/scheduler.hpp"

namespace fblas::apps {

template <typename T>
struct AtaxResult {
  std::vector<T> y;
  std::uint64_t cycles = 0;
};

/// Fully-streaming composition with a caller-chosen depth for the direct
/// A channel into the transposed GEMV. Depths below M*TN elements
/// deadlock (stream::DeadlockError), reproducing the paper's analysis;
/// depths >= M*TN complete.
template <typename T>
AtaxResult<T> atax_streaming(const sim::DeviceSpec& dev, stream::Mode mode,
                             int width, std::int64_t tile,
                             std::int64_t a_channel_depth,
                             MatrixView<const T> A, VectorView<const T> x);

/// Minimum direct-channel depth that makes the full streaming
/// composition valid for an n x m matrix (one full row of tiles plus the
/// fan-out slack).
std::int64_t atax_min_channel_depth(std::int64_t m, std::int64_t tile,
                                    int width);

/// Host-layer baseline: two GEMV launches through the Context.
template <typename T>
AtaxResult<T> atax_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> x);

/// The description atax_composed_async runs, with the knobs of `rc`.
template <typename T>
host::Composition<T> atax_composition(const host::RoutineConfig& rc,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& x,
                                      host::Buffer<T>& y);

/// Fully-streaming composition as ONE host command: the whole two-GEMV
/// graph runs inside a single Command, so the intermediate q never
/// round-trips DRAM, yet the command still gets the executor's full
/// fault-tolerance ladder (snapshot, rollback, retry, CPU fallback) and —
/// when the captured verify::Options enable it — end-to-end checksum
/// verification of every streaming channel in the compiled plan's order,
/// which localizes silent mid-pipeline corruption to the first divergent
/// channel. `a` is n x m row-major, `x` length m, `y` length m.
template <typename T>
host::Event atax_composed_async(host::Context& ctx, std::int64_t n,
                                std::int64_t m, const host::Buffer<T>& a,
                                const host::Buffer<T>& x, host::Buffer<T>& y) {
  return ctx.run_composition_async(
      atax_composition(ctx.config(), n, m, a, x, y));
}
template <typename T>
void atax_composed(host::Context& ctx, std::int64_t n, std::int64_t m,
                   const host::Buffer<T>& a, const host::Buffer<T>& x,
                   host::Buffer<T>& y) {
  atax_composed_async(ctx, n, m, a, x, y).wait();
}

/// CPU reference.
template <typename T>
std::vector<T> atax_cpu(MatrixView<const T> A, VectorView<const T> x);

/// The (invalid) fully-streaming MDAG.
mdag::Mdag atax_mdag(std::int64_t n, std::int64_t m, std::int64_t tile);

}  // namespace fblas::apps
