#include "host/dep_graph.hpp"

#include <algorithm>

namespace fblas::host {
namespace {

// Sentinel resource implicitly read by every command and written by
// barriers: a barrier orders after all earlier commands (WAR against
// their sentinel reads) and before all later ones (RAW on its write).
const char kGlobalOrder = 0;

}  // namespace

std::vector<std::uint64_t> DepGraph::add(std::uint64_t seq,
                                         std::span<const void* const> reads,
                                         std::span<const void* const> writes,
                                         bool barrier) {
  std::vector<std::uint64_t> deps;

  auto read = [&](const void* key) {
    Resource& r = at(key);
    if (r.last_writer != 0) deps.push_back(r.last_writer);  // RAW
    auto& readers = r.readers_since_write;
    readers.push_back(seq);
    if (fold_ && readers.size() >= r.fold_at) {
      fold_(readers);
      r.fold_at = 2 * std::max<std::size_t>(readers.size(), 8);
    }
  };
  auto write = [&](const void* key) {
    Resource& r = at(key);
    if (r.last_writer != 0) deps.push_back(r.last_writer);  // WAW
    for (std::uint64_t reader : r.readers_since_write) {
      if (reader != seq) deps.push_back(reader);  // WAR
    }
    r.last_writer = seq;
    r.readers_since_write.clear();
    r.fold_at = 16;
  };

  for (const void* key : reads) read(key);
  for (const void* key : writes) write(key);
  if (barrier) {
    write(&kGlobalOrder);
  } else {
    read(&kGlobalOrder);
  }

  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

}  // namespace fblas::host
