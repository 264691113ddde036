// End-to-end checksum verification of a streaming composition.
//
// A GraphChecker pairs per-edge *predictions* with per-edge
// *observations* (the channel taps armed on the graph's channels). The
// composition interpreter predicts every edge by replaying the module DAG
// forward over the DRAM inputs in double precision — the same node-by-node
// replay its CPU fallback runs in the stream precision — and summing each
// edge's values. Nothing the device streams is stored for the checker:
// the taps accumulate in flight.
//
// Lifecycle, matching the command's checker hook (the streaming graph is
// rebuilt inside the command body on every attempt and destroyed when
// the body returns):
//
//   checker          reset(name); expect(edge, prediction) per edge
//                    -- runs only when the command's verification armed,
//                       so unverified runs never pay for taps
//   work body        if (chk->active()) chk->arm(graph);
//                    graph.run();
//                    if (chk->active()) chk->capture(graph);
//   check            chk->check(tol_scale)
//                    -- throws VerificationError naming the composition
//                       and the FIRST divergent edge in declaration
//                       (topological) order, so a mismatch is localized
//                       to the edge the corruption entered, not just
//                       rejected wholesale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stream/graph.hpp"
#include "verify/abft.hpp"

namespace fblas::verify {

class GraphChecker {
 public:
  /// Starts a fresh prediction set for composition `name` and marks the
  /// checker active (the work body's cue to arm taps).
  void reset(std::string name);
  bool active() const { return active_; }
  const std::string& composition() const { return name_; }

  /// Declares an edge (channel `channel` of the graph) with its predicted
  /// checksum: the sum of the values that cross it, the matching
  /// magnitude sum and the accumulation length the bound grows with. A
  /// `skip` prediction (non-finite) is not compared. Declare edges in
  /// topological order: check() reports the first divergent one. `eps`
  /// is the unit roundoff of the stream's element type
  /// (std::numeric_limits<T>::epsilon()), which the acceptance bound
  /// grows from.
  void expect(std::string channel, ScalarCheck pred, double eps);

  /// Arms a checksum tap on every expected channel of `g`. Unknown
  /// channel names are a caller bug and throw ConfigError.
  void arm(stream::Graph& g);
  /// Copies the taps' accumulators out of `g` (which dies with the
  /// command body, while the check runs after it).
  void capture(stream::Graph& g);

  /// Compares every captured edge against its prediction, in declaration
  /// order, and throws VerificationError on the first divergence. The
  /// per-edge bound is rel_bound<eps>(terms, tol_scale) * magnitude, with
  /// the magnitude taken as max(predicted, observed) so a corrupted huge
  /// value cannot widen its own acceptance into a miss.
  void check(double tol_scale) const;

 private:
  struct Edge {
    std::string channel;
    ScalarCheck pred;
    double eps = 0.0;
    bool captured = false;
    double got = 0.0;
    double got_mag = 0.0;
    std::uint64_t count = 0;
  };

  std::string name_;
  bool active_ = false;
  std::vector<Edge> edges_;
};

}  // namespace fblas::verify
