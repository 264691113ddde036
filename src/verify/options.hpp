// Unified verification options: one value type collecting every knob of
// the ABFT result-verification layer (policy, sampling, tolerance, seed,
// taint trap, adaptive sampling), with a fluent builder:
//
//   ctx.config().verification = verify::Options::always()
//                                   .tolerance_scale(4)
//                                   .trap_nonfinite();
//
// The same type configures both single-routine commands and the
// checksum-carrying streaming compositions (apps/*_composed_async), so a
// policy decided once applies uniformly across the whole runtime.
//
// Accessor convention: every knob is a setter/getter pair under one name
// — `o.sample_rate(0.5)` sets (and returns Options& for chaining),
// `o.sample_rate()` reads. The boolean knobs' setters default their
// argument to true so `.trap_nonfinite()` reads naturally in a builder
// chain; read those knobs through a *const* Options (or const reference)
// so overload resolution picks the getter.
#pragma once

#include <cstdint>

#include "verify/policy.hpp"

namespace fblas::verify {

class Options {
 public:
  Options() = default;

  // --- named constructors ------------------------------------------------
  /// Verification disabled (the default).
  static Options off() { return Options(); }
  /// Check every command that has a checker.
  static Options always() {
    Options o;
    o.policy_ = VerifyPolicy::Always;
    return o;
  }
  /// Check a deterministic pseudo-random fraction of commands.
  static Options sampled(double rate) {
    Options o;
    o.policy_ = VerifyPolicy::Sampled;
    o.sample_rate_ = rate;
    return o;
  }

  // --- fluent knobs (setter returns *this; getter on const) --------------
  Options& policy(VerifyPolicy p) {
    policy_ = p;
    return *this;
  }
  VerifyPolicy policy() const { return policy_; }

  /// Fraction of commands verified under VerifyPolicy::Sampled, in
  /// [0, 1]. The per-command choice is a pure hash of (seed, command
  /// seq), identical across executor policies and re-runs.
  Options& sample_rate(double rate) {
    sample_rate_ = rate;
    return *this;
  }
  double sample_rate() const { return sample_rate_; }

  /// Multiplier on the analytic floating-point error bound used as the
  /// checksum comparison tolerance. Must be > 0.
  Options& tolerance_scale(double scale) {
    tolerance_scale_ = scale;
    return *this;
  }
  double tolerance_scale() const { return tolerance_scale_; }

  /// Seed for the Sampled-mode selection hash.
  Options& seed(std::uint64_t s) {
    seed_ = s;
    return *this;
  }
  std::uint64_t seed() const { return seed_; }

  /// Arms the streaming taint trap: a module pushing NaN/Inf into a
  /// channel raises TaintError (deterministic, non-retryable) naming the
  /// module, instead of silently poisoning everything downstream.
  Options& trap_nonfinite(bool on) {
    trap_nonfinite_ = on;
    return *this;
  }
  Options& trap_nonfinite() { return trap_nonfinite(true); }
  bool trap_nonfinite() const { return trap_nonfinite_; }

  /// Runs verification *inside* the systolic engine (gemm_systolic): the
  /// grid carries a checksum row/column rank that detects a corrupted
  /// accumulator as the tile drains and localizes it to the offending PE
  /// — instead of re-deriving Huang–Abraham checksums from DRAM after
  /// the fact. Off (the default), systolic commands use the host-side
  /// GEMM checkers like every other routine. The rank is hardware that is
  /// either present or not: once armed it checks every tile, so under
  /// VerifyPolicy::Sampled only the reject-and-retry hook is sampled.
  Options& in_grid(bool on) {
    in_grid_ = on;
    return *this;
  }
  Options& in_grid() { return in_grid(true); }
  bool in_grid() const { return in_grid_; }

  /// Lets the in-grid checksum rank *correct* a single-fault tile in
  /// place (replaying the victim PE's dot product — bit-identical to a
  /// fault-free run) instead of rejecting the result: the cheapest rung
  /// of the recovery ladder. Multi-fault tiles always reject and fall
  /// back to rollback -> retry -> CPU fallback. On by default; only
  /// meaningful with in_grid().
  Options& correct_single_faults(bool on) {
    correct_single_faults_ = on;
    return *this;
  }
  Options& correct_single_faults() { return correct_single_faults(true); }
  bool correct_single_faults() const { return correct_single_faults_; }

  /// Auto-tunes the effective Sampled rate online: every caught silent
  /// corruption multiplies the rate (the device is misbehaving — look
  /// harder), every clean check decays it back toward a floor of
  /// max(0.01, sample_rate/4). Only meaningful under
  /// VerifyPolicy::Sampled; the effective rate is reported in
  /// ExecStats::adaptive_sample_rate.
  Options& adaptive(bool on) {
    adaptive_ = on;
    return *this;
  }
  Options& adaptive() { return adaptive(true); }
  bool adaptive() const { return adaptive_; }

  /// Feeds checker verdicts into the device-fleet circuit breakers: a
  /// rejection counts as a failure sample against the device that ran
  /// the attempt (silent corruption is a board-health signal), a clean
  /// check as a success. On by default. Turn it off to keep numerically
  /// marginal ABFT rejections from opening breakers — per-device
  /// verify_rejects stats are recorded either way.
  Options& breaker_feedback(bool on) {
    breaker_feedback_ = on;
    return *this;
  }
  Options& breaker_feedback() { return breaker_feedback(true); }
  bool breaker_feedback() const { return breaker_feedback_; }

  /// True when any verification work can arm (policy != Off).
  bool enabled() const { return policy_ != VerifyPolicy::Off; }

  /// Rejects out-of-range knobs (sample rate outside [0, 1], tolerance
  /// scale <= 0) with a ConfigError naming the offending knob.
  void validate() const;

  friend bool operator==(const Options&, const Options&) = default;

 private:
  VerifyPolicy policy_ = VerifyPolicy::Off;
  double sample_rate_ = 0.25;
  double tolerance_scale_ = 32.0;
  std::uint64_t seed_ = 0;
  bool trap_nonfinite_ = false;
  bool adaptive_ = false;
  bool in_grid_ = false;
  bool correct_single_faults_ = true;
  bool breaker_feedback_ = true;
};

}  // namespace fblas::verify
