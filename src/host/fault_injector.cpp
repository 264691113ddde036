#include "host/fault_injector.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/mix64.hpp"

namespace fblas::host {
namespace {

std::uint64_t draw(std::uint64_t seed, std::uint64_t seq, int attempt,
                   std::uint64_t stream) {
  std::uint64_t h = mix64(seed ^ 0xa0761d6478bd642fULL);
  h = mix64(h ^ seq);
  h = mix64(h ^ (static_cast<std::uint64_t>(attempt) + 1));
  return mix64(h ^ stream);
}

// The probe decision stream; decide() uses 0, corrupt_offset 1, and the
// systolic fault plan 2-8, so probes never perturb real draws.
constexpr std::uint64_t kProbeStream = 15;

void check_rate(double rate, const char* knob) {
  if (std::isnan(rate) || rate < 0.0 || rate > 1.0) {
    std::ostringstream os;
    os << "FaultConfig." << knob << " must be within [0, 1] (got " << rate
       << ")";
    throw ConfigError(os.str());
  }
}

}  // namespace

void FaultConfig::validate() const {
  check_rate(launch_fail_rate, "launch_fail_rate");
  check_rate(corrupt_rate, "corrupt_rate");
  check_rate(wedge_rate, "wedge_rate");
  check_rate(silent_corrupt_rate, "silent_corrupt_rate");
  check_rate(channel_corrupt_rate, "channel_corrupt_rate");
  check_rate(pe_fault_rate, "pe_fault_rate");
  const DeviceFaultWindow& w = device_fault_window;
  if (w.end < w.begin) {
    std::ostringstream os;
    os << "FaultConfig.device_fault_window must not be inverted (begin "
       << w.begin << " > end " << w.end << ")";
    throw ConfigError(os.str());
  }
  if (std::isnan(w.multiplier) || std::isinf(w.multiplier) ||
      w.multiplier < 0.0) {
    std::ostringstream os;
    os << "FaultConfig.device_fault_window.multiplier must be finite and "
          ">= 0 (got "
       << w.multiplier << ")";
    throw ConfigError(os.str());
  }
}

void FaultInjector::configure(const FaultConfig& cfg) {
  cfg_ = cfg;
  injected_.store(0, std::memory_order_relaxed);
  sick_faults_.store(0, std::memory_order_relaxed);
  budget_.store(cfg.max_faults, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::disable() {
  enabled_.store(false, std::memory_order_release);
}

namespace {

// Shared edge walk for decide() and probe(): the cumulative-rate check
// with the sick-window multiplier applied to the board-sickness modes
// (launch / corrupt / wedge / silent); channel and PE faults model
// pipeline damage, not board health, and keep their base rates.
FaultKind classify(const FaultConfig& cfg, double u, double mult) {
  double edge = cfg.launch_fail_rate * mult;
  if (u < edge) return FaultKind::LaunchFail;
  if (u < (edge += cfg.corrupt_rate * mult)) return FaultKind::CorruptTransfer;
  if (u < (edge += cfg.wedge_rate * mult)) return FaultKind::Wedge;
  if (u < (edge += cfg.silent_corrupt_rate * mult)) {
    return FaultKind::SilentCorrupt;
  }
  if (u < (edge += cfg.channel_corrupt_rate)) return FaultKind::ChannelCorrupt;
  if (u < (edge += cfg.pe_fault_rate)) return FaultKind::PeFault;
  return FaultKind::None;
}

bool in_window(const FaultConfig& cfg, std::uint64_t seq) {
  const DeviceFaultWindow& w = cfg.device_fault_window;
  return w.active() && seq >= w.begin && seq < w.end;
}

}  // namespace

FaultKind FaultInjector::decide(std::uint64_t seq, int attempt) {
  if (!enabled_.load(std::memory_order_acquire)) return FaultKind::None;
  const double u = unit_interval(draw(cfg_.seed, seq, attempt, 0));
  const bool sick = in_window(cfg_, seq);
  const FaultKind kind =
      classify(cfg_, u, sick ? cfg_.device_fault_window.multiplier : 1.0);
  if (kind == FaultKind::None) return kind;
  // Consume the fault budget; a drawn fault past the budget fires as None
  // so long runs stay bounded. Budget < 0 means unlimited.
  int budget = budget_.load(std::memory_order_relaxed);
  while (budget >= 0) {
    if (budget == 0) return FaultKind::None;
    if (budget_.compare_exchange_weak(budget, budget - 1,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  if (sick) sick_faults_.fetch_add(1, std::memory_order_relaxed);
  return kind;
}

FaultKind FaultInjector::probe(std::uint64_t seq) const {
  if (!enabled_.load(std::memory_order_acquire)) return FaultKind::None;
  // An exhausted budget means no further fault can fire — a probe would
  // launch clean, so report that instead of keeping the breaker open.
  if (budget_.load(std::memory_order_relaxed) == 0) return FaultKind::None;
  const double u = unit_interval(draw(cfg_.seed, seq, 0, kProbeStream));
  const bool sick = in_window(cfg_, seq);
  return classify(cfg_, u, sick ? cfg_.device_fault_window.multiplier : 1.0);
}

void FaultInjector::retract() {
  injected_.fetch_sub(1, std::memory_order_relaxed);
  int budget = budget_.load(std::memory_order_relaxed);
  while (budget >= 0 &&
         !budget_.compare_exchange_weak(budget, budget + 1,
                                        std::memory_order_relaxed)) {
  }
}

std::uint64_t FaultInjector::corrupt_offset(std::uint64_t seq, int attempt,
                                            std::uint64_t size) const {
  if (size == 0) return 0;
  return draw(cfg_.seed, seq, attempt, 1) % size;
}

std::uint64_t FaultInjector::pick(std::uint64_t seq, int attempt,
                                  std::uint64_t stream,
                                  std::uint64_t bound) const {
  if (bound == 0) return 0;
  return draw(cfg_.seed, seq, attempt, stream) % bound;
}

void FaultInjector::record_victim(const std::string& channel) {
  std::lock_guard<std::mutex> lk(victim_mu_);
  last_victim_ = channel;
}

std::string FaultInjector::last_victim() const {
  std::lock_guard<std::mutex> lk(victim_mu_);
  return last_victim_;
}

void FaultInjector::record_pe_victim(const PeVictim& victim) {
  std::lock_guard<std::mutex> lk(victim_mu_);
  last_pe_victim_ = victim;
}

PeVictim FaultInjector::last_pe_victim() const {
  std::lock_guard<std::mutex> lk(victim_mu_);
  return last_pe_victim_;
}

}  // namespace fblas::host
