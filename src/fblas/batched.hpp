// Fully-unrolled small-size batched modules (Sec. III-A / Table V): when
// the input size is small and known a priori, the routine loops unroll
// completely and the module starts a new problem every clock cycle, at
// the cost of size^3-scale resources. The paper evaluates GEMM and TRSM
// of size 4 against MKL's batched routines; these are the corresponding
// streaming modules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::Channel;
using stream::next_cycle;
using stream::Task;

struct BatchedConfig {
  std::int64_t size = 4;  ///< matrix dimension (compile-time on the FPGA)

  void validate() const {
    FBLAS_REQUIRE(size >= 1 && size <= 32,
                  "batched size " + std::to_string(size) +
                      " is out of range: fully-unrolled batched modules are "
                      "for small sizes (1..32); larger problems belong to "
                      "the tiled routines");
  }
};

/// Batched GEMM: for each of `batch` problems pops size^2 elements of A
/// then size^2 of B (row-major), pushes size^2 of C = alpha * A * B.
/// One whole problem is processed per clock cycle (fully unrolled).
template <typename T>
Task gemm_batched_unrolled(BatchedConfig cfg, std::int64_t batch, T alpha,
                           Channel<T>& ch_a, Channel<T>& ch_b,
                           Channel<T>& ch_c) {
  cfg.validate();
  const std::int64_t s = cfg.size;
  const std::int64_t s2 = s * s;
  std::vector<T> a(static_cast<std::size_t>(s2));
  std::vector<T> b(static_cast<std::size_t>(s2));
  std::vector<T> c(static_cast<std::size_t>(s2));
  for (std::int64_t inv = 0; inv < batch; ++inv) {
    for (std::int64_t k = 0; k < s2;) {
      k += co_await ch_a.pop_some(a.data() + k, s2 - k);
    }
    for (std::int64_t k = 0; k < s2;) {
      k += co_await ch_b.pop_some(b.data() + k, s2 - k);
    }
    // The fully-unrolled multiply: on hardware, s^3 parallel MACs.
    for (std::int64_t i = 0; i < s; ++i) {
      for (std::int64_t j = 0; j < s; ++j) {
        T acc = T(0);
        for (std::int64_t k = 0; k < s; ++k) {
          acc += a[static_cast<std::size_t>(i * s + k)] *
                 b[static_cast<std::size_t>(k * s + j)];
        }
        c[static_cast<std::size_t>(i * s + j)] = alpha * acc;
      }
    }
    for (std::int64_t k = 0; k < s2;) {
      k += co_await ch_c.push_some(c.data() + k, s2 - k);
    }
    co_await next_cycle();  // a new problem enters every cycle
  }
}

/// Batched TRSM (left, lower, non-unit): for each problem pops the lower
/// triangle of A row-major (size*(size+1)/2 elements) then size^2 of B,
/// pushes X = alpha * inv(A) * B. One problem per cycle.
template <typename T>
Task trsm_batched_unrolled(BatchedConfig cfg, std::int64_t batch, T alpha,
                           Channel<T>& ch_a, Channel<T>& ch_b,
                           Channel<T>& ch_x) {
  cfg.validate();
  const std::int64_t s = cfg.size;
  std::vector<T> a(static_cast<std::size_t>(s * s), T(0));
  std::vector<T> x(static_cast<std::size_t>(s * s));
  const std::int64_t s2 = s * s;
  for (std::int64_t inv = 0; inv < batch; ++inv) {
    for (std::int64_t i = 0; i < s; ++i) {
      for (std::int64_t j = 0; j <= i;) {
        j += co_await ch_a.pop_some(a.data() + i * s + j, i + 1 - j);
      }
    }
    for (std::int64_t k = 0; k < s2;) {
      k += co_await ch_b.pop_some(x.data() + k, s2 - k);
    }
    for (auto& v : x) v = alpha * v;
    // Forward substitution, fully unrolled on hardware.
    for (std::int64_t i = 0; i < s; ++i) {
      for (std::int64_t c = 0; c < s; ++c) {
        T acc = x[static_cast<std::size_t>(i * s + c)];
        for (std::int64_t k = 0; k < i; ++k) {
          acc -= a[static_cast<std::size_t>(i * s + k)] *
                 x[static_cast<std::size_t>(k * s + c)];
        }
        x[static_cast<std::size_t>(i * s + c)] =
            acc / a[static_cast<std::size_t>(i * s + i)];
      }
    }
    for (std::int64_t k = 0; k < s2;) {
      k += co_await ch_x.push_some(x.data() + k, s2 - k);
    }
    co_await next_cycle();
  }
}

/// Streams `batch` contiguous size x size problems from memory (the
/// Read-A/Read-B helper for the batched modules): the bulk reader at one
/// problem per pass and per cycle, metered against the bank. Every caller
/// moves size^2 >= 1 elements per problem, so no pass is empty.
template <typename T>
Task read_batched(const T* data, std::int64_t elems_per_problem,
                  std::int64_t batch, Channel<T>& out,
                  stream::DramBank* bank = nullptr) {
  return stream::read_bulk<T>(
      batch, elems_per_problem, elems_per_problem,
      [=](std::int64_t r, std::int64_t k, T* dst, std::int64_t m) {
        std::copy_n(data + r * elems_per_problem + k, m, dst);
      },
      out, bank);
}

/// Stores `batch` contiguous problems (the Store-C helper).
template <typename T>
Task write_batched(T* data, std::int64_t elems_per_problem,
                   std::int64_t batch, Channel<T>& in,
                   stream::DramBank* bank = nullptr) {
  return stream::write_bulk<T>(
      batch, elems_per_problem, elems_per_problem,
      [=](std::int64_t r, std::int64_t k, const T* src, std::int64_t m) {
        std::copy_n(src, m, data + r * elems_per_problem + k);
      },
      in, bank);
}

/// Streams the lower triangles of `batch` dense size x size matrices, a
/// row of a triangle per run and a whole problem per cycle.
template <typename T>
Task read_batched_triangles(const T* data, std::int64_t size,
                            std::int64_t batch, Channel<T>& out,
                            stream::DramBank* bank = nullptr) {
  return stream::read_granted<T>(
      stream::runs<const T>(batch * size,
                            [=](std::int64_t k) -> stream::Run<const T> {
                              const std::int64_t i = k % size;
                              return {data + k * size, 1, i + 1};
                            }),
      size * (size + 1) / 2, out, bank);
}

}  // namespace fblas::core
