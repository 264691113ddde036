// GESUMMV: y = alpha * A * x + beta * B * x — another kernel from the
// updated BLAS set of Blackford et al. that the paper's Sec. V draws its
// case studies from (an extension beyond the paper's four examples,
// following the same methodology).
//
// The streaming composition runs two GEMV modules in pipeline parallel,
// broadcasts the shared x on chip (one DRAM read instead of two), and
// fuses the scaled results in an elementwise ADD without materializing
// either intermediate vector: I/O drops from 2NM + 5N (host layer, with
// an intermediate round trip) to 2NM + N*repeat + N.
//
// Composition-theory note: the MDAG is a *non-multitree* (x reaches the
// ADD through both GEMVs), so the conservative Sec. V analysis flags it —
// yet it streams correctly with small channels because the two sibling
// paths have identical first-output lag and never build unbounded
// backlog. See tests/test_apps.cpp for the precise statement.
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"

namespace fblas::apps {

template <typename T>
struct GesummvResult {
  std::vector<T> y;
  std::uint64_t cycles = 0;
};

/// Host-layer baseline: GEMV, GEMV, AXPY through the Context.
template <typename T>
GesummvResult<T> gesummv_host_layer(host::Context& ctx, T alpha, T beta,
                                    MatrixView<const T> A,
                                    MatrixView<const T> B,
                                    VectorView<const T> x);

/// Fault-tolerant composed command through the generic MDAG compiler.
/// The compiler proves the non-multitree streams with bounded channels
/// (equal first-output lag on the two sibling x-paths), synthesizes the
/// x broadcast and both zero y0 streams, and taps every FIFO. `a` and
/// `b` are n x m row-major, `x` length m, `y` length n.
template <typename T>
host::Event gesummv_composed_async(host::Context& ctx, std::int64_t n,
                                   std::int64_t m, T alpha, T beta,
                                   const host::Buffer<T>& a,
                                   const host::Buffer<T>& b,
                                   const host::Buffer<T>& x,
                                   host::Buffer<T>& y);
template <typename T>
void gesummv_composed(host::Context& ctx, std::int64_t n, std::int64_t m,
                      T alpha, T beta, const host::Buffer<T>& a,
                      const host::Buffer<T>& b, const host::Buffer<T>& x,
                      host::Buffer<T>& y) {
  gesummv_composed_async(ctx, n, m, alpha, beta, a, b, x, y).wait();
}

/// CPU reference.
template <typename T>
std::vector<T> gesummv_cpu(T alpha, T beta, MatrixView<const T> A,
                           MatrixView<const T> B, VectorView<const T> x);

/// The MDAG of the streaming composition.
mdag::Mdag gesummv_mdag(std::int64_t n, std::int64_t m, std::int64_t tile);

}  // namespace fblas::apps
