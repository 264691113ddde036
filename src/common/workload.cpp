#include "common/workload.hpp"

#include <cmath>

#include "common/mix64.hpp"

namespace fblas {

std::uint64_t Workload::next_u64() {
  const std::uint64_t z = mix64(state_);
  state_ += kMix64Gamma;
  return z;
}

double Workload::uniform(double lo, double hi) {
  return lo + unit_interval(next_u64()) * (hi - lo);
}

template <typename T>
std::vector<T> Workload::triangular(std::int64_t n, Uplo uplo, Diag diag) {
  std::vector<T> a(static_cast<std::size_t>(n * n), T(0));
  MatrixView<T> A(a.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) {
      A(i, j) = static_cast<T>(uniform(-0.5, 0.5) / static_cast<double>(n));
    }
    // Dominant diagonal keeps the solve stable.
    A(i, i) = diag == Diag::Unit ? T(1) : static_cast<T>(1.0 + uniform(0, 1));
  }
  return a;
}

template std::vector<float> Workload::triangular<float>(std::int64_t, Uplo,
                                                        Diag);
template std::vector<double> Workload::triangular<double>(std::int64_t, Uplo,
                                                          Diag);

}  // namespace fblas
