// Hazard tracking for the out-of-order host runtime: each enqueued
// command declares the buffers it reads and writes, and the tracker
// derives the data dependencies that force program order —
//
//   RAW  a command reading a buffer waits for its last writer,
//   WAR  a command writing a buffer waits for every reader since the
//        last write (they must observe the old contents),
//   WAW  a command writing a buffer waits for its last writer.
//
// Commands whose sets touch disjoint buffers get no edges and may run
// concurrently; conflicting commands retain program order, so results
// are bit-identical to the serial schedule (Sec. II-B semantics).
//
// Resources are identified by opaque pointers: Buffer addresses for
// device data and host pointers for scalar results. Not thread-safe;
// the Context serializes enqueues.
//
// A buffer read by many commands between two writes would give the next
// writer one edge per reader. Whenever a reader list has doubled since
// its last fold, the `fold` hook drops the readers that already retired
// but keeps the two a later dependent still reads: the latest-finishing
// one (its start time) and the lowest-seq failed one (its poisoning).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fblas::host {

class DepGraph {
 public:
  /// Thins a reader list in place (see above); empty = never fold.
  using Fold = std::function<void(std::vector<std::uint64_t>&)>;

  explicit DepGraph(Fold fold = {}) : fold_(std::move(fold)) {}

  /// Registers command `seq` (1-based, strictly increasing) with its
  /// declared sets and returns the commands it must wait for, deduplicated
  /// and in ascending order. A `barrier` command (one with undeclared
  /// effects, e.g. a raw user closure) orders after every earlier command
  /// and before every later one.
  std::vector<std::uint64_t> add(std::uint64_t seq,
                                 std::span<const void* const> reads,
                                 std::span<const void* const> writes,
                                 bool barrier = false);

 private:
  struct Resource {
    std::uint64_t last_writer = 0;              // 0 = never written
    std::vector<std::uint64_t> readers_since_write;
    std::size_t fold_at = 16;  // reader count that triggers the next fold
  };

  Resource& at(const void* key) { return resources_[key]; }

  Fold fold_;
  std::unordered_map<const void*, Resource> resources_;
};

}  // namespace fblas::host
