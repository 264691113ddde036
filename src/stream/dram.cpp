#include "stream/dram.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "stream/scheduler.hpp"

namespace fblas::stream {

DramBank::DramBank(Scheduler* sched, std::string name, double bytes_per_cycle)
    : sched_(sched),
      name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle),
      available_(bytes_per_cycle) {
  FBLAS_REQUIRE(bytes_per_cycle > 0, "bank bandwidth must be positive");
  sched_->register_bank(this);
}

std::int64_t DramBank::grant_elems(std::int64_t want, std::size_t elem_bytes,
                                   std::int64_t steps) {
  if (want <= 0) return 0;
  if (!sched_->cycle_mode()) {
    total_bytes_ += static_cast<std::uint64_t>(want) * elem_bytes;
    return want;
  }
  const auto affordable =
      static_cast<std::int64_t>(available_ / static_cast<double>(elem_bytes));
  const std::int64_t granted = std::min(want, affordable);
  if (granted > 0) {
    available_ -= static_cast<double>(granted * elem_bytes);
    total_bytes_ += static_cast<std::uint64_t>(granted * steps) * elem_bytes;
  }
  short_ = short_ || granted < want;
  return granted;
}

}  // namespace fblas::stream
