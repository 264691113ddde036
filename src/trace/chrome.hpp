// Chrome trace-event export: renders a Recorder's event ring as the JSON
// object format chrome://tracing (and Perfetto's legacy loader) accepts.
// Every entry is one fblas::Json value, dumped as soon as it is built.
//
// Track layout — the two-clock span model:
//   pid 1 "host runtime"              one row per worker thread; complete
//                                     (X) spans for attempts and verify
//                                     checks, async (b/e) spans covering
//                                     each command from enqueue to its
//                                     terminal state, instants for
//                                     retries/fallbacks, and the
//                                     adaptive-sample-rate counter track.
//   pid 2 "devices (wall clock)"      one row per pool device; the same
//                                     attempts re-plotted by placement,
//                                     plus placement/migration/probe
//                                     instants and one breaker-state
//                                     counter track per device.
//   pid 3 "devices (simulated cycles)" one row per device on the
//                                     *simulated* clock: each completed
//                                     command as an X span from its
//                                     start_cycles to finish_cycles, one
//                                     microsecond per cycle — the
//                                     critical-path (makespan) picture,
//                                     visually independent of host wall
//                                     time.
//
// All timestamps are microseconds; wall rows use Recorder-epoch-relative
// wall time, the cycle rows reuse the µs axis as a cycle axis.
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace fblas::trace {

/// The full trace as a Chrome trace-event JSON object string. Its entries
/// come from one snapshot of `rec`'s ring, read in place under the
/// recorder's lock: threads still emitting into `rec` wait until they are
/// written.
std::string chrome_json(const Recorder& rec);

/// Writes chrome_json(rec) to `path`, one entry at a time (emitters into
/// `rec` wait the same way). Throws Error on I/O failure.
void export_chrome(const Recorder& rec, const std::string& path);

}  // namespace fblas::trace
