// Observable per-command outcome for the fault-tolerant host runtime.
// Shared by Executor (which tracks it) and Event (which exposes it), so
// async callers can inspect failures without wait() throwing being the
// only signal.
#pragma once

#include <cstdint>
#include <string>

namespace fblas::host {

enum class CommandState : std::uint8_t {
  Pending,   ///< submitted, not yet started
  Running,   ///< currently executing (possibly in a retry attempt)
  Ok,        ///< completed on the device path
  Failed,    ///< exhausted retries (or non-retryable error); wait() throws
  Degraded,  ///< device path failed; result produced by the CPU fallback
};

struct CommandStatus {
  CommandState state = CommandState::Ok;
  /// For Failed: the final error. For Degraded: the device error that
  /// forced the CPU fallback. Empty otherwise.
  std::string message;
  /// Attempts whose device-reported-Ok result was rejected by the ABFT
  /// verifier (silent data corruption caught and recovered via retry,
  /// fallback, or ultimately surfaced as Failed).
  std::uint32_t verify_rejections = 0;
  /// Pool index of the device the command's *last* attempt was placed on
  /// (recorded by the Executor when the command completes). -1 for
  /// barriers, commands never placed and commands not yet completed; for
  /// Degraded commands it names the device whose failure forced the CPU
  /// fallback.
  int device = -1;

  bool ok() const { return state == CommandState::Ok; }
  bool failed() const { return state == CommandState::Failed; }
  bool degraded() const { return state == CommandState::Degraded; }
};

}  // namespace fblas::host
