// Deterministic synthetic workload generation for tests and benchmarks.
// The paper generates input data directly on the FPGA for the scaling
// experiments; here a seeded PRNG plays that role.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/view.hpp"

namespace fblas {

/// Deterministic workload generator (splitmix64, common/mix64.hpp).
class Workload {
 public:
  explicit Workload(std::uint64_t seed = 0x5eed'f0f0'1234'5678ULL)
      : state_(seed) {}

  /// Uniform value in [lo, hi).
  double uniform(double lo = -1.0, double hi = 1.0);

  /// Vector of n uniform values.
  template <typename T>
  std::vector<T> vector(std::int64_t n, double lo = -1.0, double hi = 1.0) {
    std::vector<T> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = static_cast<T>(uniform(lo, hi));
    return v;
  }

  /// Row-major rows x cols matrix of uniform values.
  template <typename T>
  std::vector<T> matrix(std::int64_t rows, std::int64_t cols,
                        double lo = -1.0, double hi = 1.0) {
    return vector<T>(rows * cols, lo, hi);
  }

  /// A well-conditioned triangular matrix (unit-dominant diagonal) stored
  /// dense row-major; entries outside the triangle are zeroed. Suitable for
  /// TRSV/TRSM tests without catastrophic growth.
  template <typename T>
  std::vector<T> triangular(std::int64_t n, Uplo uplo, Diag diag);

  std::uint64_t next_u64();

 private:
  std::uint64_t state_;
};

/// Max |a - b| over two equally-sized ranges.
template <typename T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - b[i]);
    if (d > m) m = d;
  }
  return m;
}

/// Relative infinity-norm error: max|a-b| / max(1, max|b|).
template <typename T>
double rel_error(const std::vector<T>& a, const std::vector<T>& b) {
  double diff = 0, scale = 1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff,
                    std::abs(static_cast<double>(a[i]) - b[i]));
    scale = std::max(scale, std::abs(static_cast<double>(b[i])));
  }
  return diff / scale;
}

}  // namespace fblas
