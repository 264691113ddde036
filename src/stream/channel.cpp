#include "stream/channel.hpp"

namespace fblas::stream {

ChannelBase::ChannelBase(Scheduler* sched, std::string name,
                         std::size_t capacity)
    : sched_(sched), name_(std::move(name)), capacity_(capacity) {
  FBLAS_REQUIRE(capacity >= 1, "channel '" + name_ + "' needs capacity >= 1");
  sched_->register_channel(this);
}

}  // namespace fblas::stream
