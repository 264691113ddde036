#include "verify/graph_checker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace fblas::verify {
namespace {

stream::ChannelBase* find_channel(stream::Graph& g, const std::string& name) {
  for (const auto& ch : g.channels()) {
    if (ch->name() == name) return ch.get();
  }
  return nullptr;
}

}  // namespace

void GraphChecker::reset(std::string name) {
  name_ = std::move(name);
  active_ = true;
  edges_.clear();
}

void GraphChecker::expect(std::string channel, ScalarCheck pred, double eps) {
  Edge e;
  e.channel = std::move(channel);
  e.pred = pred;
  e.eps = eps;
  edges_.push_back(std::move(e));
}

void GraphChecker::arm(stream::Graph& g) {
  for (Edge& e : edges_) {
    stream::ChannelBase* ch = find_channel(g, e.channel);
    FBLAS_REQUIRE(ch != nullptr, "GraphChecker: composition '" + name_ +
                                     "' has no channel '" + e.channel + "'");
    ch->arm_tap();
  }
}

void GraphChecker::capture(stream::Graph& g) {
  for (Edge& e : edges_) {
    stream::ChannelBase* ch = find_channel(g, e.channel);
    if (ch == nullptr || !ch->tap_armed()) continue;
    e.captured = true;
    e.got = ch->tap_sum();
    e.got_mag = ch->tap_mag();
    e.count = ch->tap_count();
  }
}

void GraphChecker::check(double tol_scale) const {
  for (const Edge& e : edges_) {
    if (!e.captured) {
      throw VerificationError(
          "composition '" + name_ + "': edge '" + e.channel +
          "' was never captured (graph did not run to completion?)");
    }
    // Non-finite data poisons the checksum comparison either way; that is
    // the taint channel's diagnosis, not the checker's.
    if (e.pred.skip) continue;
    const double mag = std::max(e.pred.mag, e.got_mag);
    const double bound =
        tol_scale * (static_cast<double>(e.pred.terms) + 8.0) * e.eps * mag;
    const double diff = std::abs(e.got - e.pred.pred);
    if (std::isfinite(diff) && diff <= bound) continue;
    std::ostringstream os;
    os << "composition '" << name_ << "': checksum mismatch on edge '"
       << e.channel << "' (observed " << e.got << ", predicted "
       << e.pred.pred << ", |diff| " << diff << " > bound " << bound
       << " over " << e.count
       << " streamed elements) — first divergent edge; earlier edges are "
          "clean";
    throw VerificationError(os.str());
  }
}

}  // namespace fblas::verify
