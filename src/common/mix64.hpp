// splitmix64, the one mixer behind every seeded draw: the Workload
// generator, fault decisions, retry jitter and verification sampling.
// Each draw is a pure hash of its inputs, so it is identical under the
// serial and worker-pool executors.
#pragma once

#include <cstdint>

namespace fblas {

/// splitmix64's increment, the 64-bit golden ratio.
inline constexpr std::uint64_t kMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output of the state x + kMix64Gamma (public-domain
/// constants).
inline std::uint64_t mix64(std::uint64_t x) {
  x += kMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The top 53 bits of h as a uniform double in [0, 1).
inline double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace fblas
