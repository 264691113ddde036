#include "mdag/graph.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "mdag/validity.hpp"

namespace fblas::mdag {

bool StreamSig::compatible(const StreamSig& other) const {
  if (count != other.count) return false;  // condition (1): same volume
  if (is_matrix != other.is_matrix) return false;
  if (is_matrix) {
    // Condition (2): same order — tiling schemes must match exactly.
    return sched == other.sched && repeat == other.repeat;
  }
  return repeat == other.repeat;
}

StreamSig StreamSig::vec(std::int64_t n, std::int64_t repeat) {
  StreamSig s;
  s.count = n * repeat;
  s.repeat = repeat;
  return s;
}

StreamSig StreamSig::mat(std::int64_t rows, std::int64_t cols,
                         stream::TileSchedule sched, std::int64_t repeat) {
  StreamSig s;
  s.count = rows * cols * repeat;
  s.is_matrix = true;
  s.sched = sched;
  s.repeat = repeat;
  s.rows = rows;
  s.cols = cols;
  return s;
}

std::int64_t StreamSig::first_output_lag() const {
  if (!is_matrix) return count;
  if (sched.tile_order == Order::RowMajor) {
    // An entire row of tiles must pass before the first output block.
    return cols * std::min(sched.tile_rows, rows);
  }
  return rows * std::min(sched.tile_cols, cols);
}

int Mdag::add_interface(std::string name) {
  nodes_.push_back(Node{std::move(name), NodeType::Interface,
                        RoutineKind::Copy, 0});
  return static_cast<int>(nodes_.size()) - 1;
}

int Mdag::add_compute(std::string name, RoutineKind kind, double latency) {
  nodes_.push_back(Node{std::move(name), NodeType::Compute, kind, latency});
  return static_cast<int>(nodes_.size()) - 1;
}

int Mdag::connect(int from, int to, StreamSig produced, StreamSig consumed,
                  std::int64_t channel_depth) {
  FBLAS_REQUIRE(from >= 0 && from < node_count() && to >= 0 &&
                    to < node_count(),
                "edge endpoints must be existing nodes");
  FBLAS_REQUIRE(from != to, "self-loops are not valid MDAG edges");
  edges_.push_back(Edge{from, to, produced, consumed, channel_depth});
  return static_cast<int>(edges_.size()) - 1;
}

int Mdag::connect(int from, int to, StreamSig sig,
                  std::int64_t channel_depth) {
  return connect(from, to, sig, sig, channel_depth);
}

std::vector<int> Mdag::topo_order() const {
  return PathIndex(*this).order();
}

}  // namespace fblas::mdag
