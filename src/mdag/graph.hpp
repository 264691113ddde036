// Module DAG (MDAG) representation of a streaming composition (Sec. V):
// vertices are interface modules (off-chip memory readers/writers, drawn
// as circles in the paper) or computational modules (FBLAS routines);
// edges are FIFO channels carrying a typed stream with a definite element
// count and order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/routines.hpp"
#include "stream/streamers.hpp"

namespace fblas::mdag {

/// The order signature of a stream crossing an edge: either a (possibly
/// replayed) vector or a tiled matrix traversal. Two signatures are
/// compatible when both the element count and the order match — the two
/// conditions for a valid edge in Sec. V.
struct StreamSig {
  std::int64_t count = 0;  ///< total elements crossing the edge
  bool is_matrix = false;
  stream::TileSchedule sched{};  ///< tile schedule (matrices only)
  std::int64_t repeat = 1;       ///< vector replay count
  std::int64_t rows = 0;         ///< matrix shape (matrices only)
  std::int64_t cols = 0;

  bool compatible(const StreamSig& other) const;

  /// Elements of one pass (a matrix pass is rows x cols).
  std::int64_t per_pass() const {
    return repeat > 0 ? count / repeat : count;
  }

  /// Elements a consumer must ingest before a downstream tiled module can
  /// emit its first output block: one row (or column) of tiles for a
  /// matrix stream, the full stream for a vector. This is the channel
  /// depth the ATAX analysis requires (Sec. V-B: >= N*TN).
  std::int64_t first_output_lag() const;

  /// A vector of n elements streamed `repeat` times.
  static StreamSig vec(std::int64_t n, std::int64_t repeat = 1);
  /// A rows x cols matrix in the given tile schedule, `repeat` passes.
  static StreamSig mat(std::int64_t rows, std::int64_t cols,
                       stream::TileSchedule sched, std::int64_t repeat = 1);
};

enum class NodeType { Interface, Compute };

struct Node {
  std::string name;
  NodeType type;
  RoutineKind kind;       ///< meaningful for Compute nodes
  double latency = 0;     ///< pipeline latency L of the module (cycles)
};

struct Edge {
  int from;
  int to;
  StreamSig produced;   ///< what the producer emits
  StreamSig consumed;   ///< what the consumer expects
  std::int64_t channel_depth = 16;  ///< FIFO capacity in elements
};

class Mdag {
 public:
  /// Adds an off-chip interface module (reader or writer).
  int add_interface(std::string name);
  /// Adds a computational module implementing `kind`.
  int add_compute(std::string name, RoutineKind kind, double latency = 0);

  /// Connects from -> to; returns the edge id.
  int connect(int from, int to, StreamSig produced, StreamSig consumed,
              std::int64_t channel_depth = 16);
  /// Convenience when both endpoints agree on the signature.
  int connect(int from, int to, StreamSig sig,
              std::int64_t channel_depth = 16);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Edge& edge(int id) { return edges_[static_cast<std::size_t>(id)]; }
  const Edge& edge(int id) const { return edges_[static_cast<std::size_t>(id)]; }

  int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Topological order; throws ConfigError if the graph has a cycle.
  std::vector<int> topo_order() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace fblas::mdag
