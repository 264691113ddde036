// Host-to-device uploads of the apps' host-layer baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/buffer.hpp"

namespace fblas::apps {

/// Writes `A` into `b` densely, row by row; `b` holds rows * cols values.
template <typename T>
void upload(host::Buffer<T>& b, MatrixView<const T> A) {
  std::vector<T> host;
  host.reserve(static_cast<std::size_t>(A.rows() * A.cols()));
  for (std::int64_t i = 0; i < A.rows(); ++i) {
    for (std::int64_t j = 0; j < A.cols(); ++j) host.push_back(A(i, j));
  }
  b.write(host);
}

/// Writes `v` into `b` densely; `b` holds v.size() values.
template <typename T>
void upload(host::Buffer<T>& b, VectorView<const T> v) {
  upload(b, MatrixView<const T>(v.data(), v.size(), 1, v.inc()));
}

}  // namespace fblas::apps
