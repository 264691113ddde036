// Verification policy for the host runtime: whether (and how often) a
// command's result is checked by the ABFT layer, and how the acceptance
// tolerance is derived from a per-routine floating-point error bound.
//
// The checkers in verify/abft.hpp are two-phase: a command's checker hook
// runs once, right after the write-set snapshot and before the first
// device attempt, captures input checksums (`*_prepare`) and returns the
// check, which runs after every device attempt that reports success and
// throws VerificationError on mismatch. The executor treats that rejection
// exactly like a detected transient device fault — rollback, retry under
// the RetryPolicy, degrade to the CPU fallback once retries are
// exhausted — so silent data corruption flows through the same recovery
// machinery as self-reported faults.
#pragma once

#include <cstdint>
#include <limits>

#include "common/mix64.hpp"

namespace fblas::verify {

/// Per-context verification policy, carried on host::RoutineConfig.
enum class VerifyPolicy : std::uint8_t {
  Off,      ///< never check (today's behavior)
  Sampled,  ///< check a deterministic pseudo-random fraction of commands
  Always,   ///< check every command that has a checker
};

/// Deterministic sampling decision for command `seq` under
/// VerifyPolicy::Sampled. Pure in (seed, seq) (common/mix64.hpp).
inline bool sampled(std::uint64_t seed, std::uint64_t seq, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  return unit_interval(mix64(mix64(seed ^ 0x5645524946594aULL) ^ seq)) < rate;
}

/// Relative acceptance bound for a checksum accumulated over `terms`
/// products in precision T: scale * (terms + 8) * u, the standard
/// gamma_n ~ n*u forward-error growth with a small constant floor and a
/// user-tunable safety factor (verify::Options::tolerance_scale).
/// Checkers compare |got - predicted| against this bound times a
/// magnitude checksum (the same sum over absolute values), so the test
/// is relative to the data that actually flowed through the routine.
template <typename T>
double rel_bound(std::int64_t terms, double scale) {
  const double u = static_cast<double>(std::numeric_limits<T>::epsilon());
  return scale * (static_cast<double>(terms) + 8.0) * u;
}

}  // namespace fblas::verify
