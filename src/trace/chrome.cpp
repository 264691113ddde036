#include "trace/chrome.hpp"

#include <bit>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace fblas::trace {
namespace {

constexpr int kHostPid = 1;
constexpr int kDeviceWallPid = 2;
constexpr int kDeviceCyclePid = 3;

Json num(std::uint64_t v) { return Json::number(static_cast<double>(v)); }

/// Recorder nanoseconds on the format's microsecond axis.
Json us(std::uint64_t ns) {
  return Json::number(static_cast<double>(ns) / 1000.0);
}

Json str(std::string s) { return Json::string(std::move(s)); }

Json args(std::initializer_list<std::pair<const char*, Json>> kv) {
  Json a = Json::object();
  for (const auto& [k, v] : kv) a[k] = v;
  return a;
}

/// One trace entry of phase `ph` on row (pid, tid); metadata rows pass a
/// null `ts`.
Json entry(const char* ph, std::string name, int pid, std::uint64_t tid,
           Json ts, Json entry_args) {
  Json e = Json::object();
  e["ph"] = str(ph);
  e["name"] = str(std::move(name));
  e["pid"] = num(static_cast<std::uint64_t>(pid));
  e["tid"] = num(tid);
  if (!ts.is_null()) e["ts"] = std::move(ts);
  e["args"] = std::move(entry_args);
  return e;
}

/// A thread-scoped instant.
Json instant(std::string name, int pid, std::uint64_t tid,
             std::uint64_t wall_ns, Json entry_args) {
  Json e = entry("i", std::move(name), pid, tid, us(wall_ns),
                 std::move(entry_args));
  e["s"] = str("t");
  return e;
}

/// A complete span of `dur` starting at `ts`.
Json span(std::string name, int pid, std::uint64_t tid, Json ts, Json dur,
          Json entry_args) {
  Json e = entry("X", std::move(name), pid, tid, std::move(ts),
                 std::move(entry_args));
  e["dur"] = std::move(dur);
  return e;
}

/// One end of a command's async span (`ph` "b" or "e").
Json command_end(const char* ph, std::string name, const Event& ev,
                 Json entry_args) {
  Json e = entry(ph, std::move(name), kHostPid, ev.worker, us(ev.wall_ns),
                 std::move(entry_args));
  e["cat"] = str("command");
  e["id"] = num(ev.seq);
  return e;
}

const char* state_name(std::uint16_t command_state) {
  switch (command_state) {
    case 2: return "ok";
    case 3: return "failed";
    case 4: return "degraded";
    default: return "?";
  }
}

const char* outcome_name(std::uint16_t attempt_outcome) {
  switch (attempt_outcome) {
    case kAttemptOk: return "ok";
    case kAttemptVerifyReject: return "verify-reject";
    default: return "error";
  }
}

/// Writes the traceEvents entries of the time-ordered `ring` to `os`, each
/// as soon as it is built, so a file export holds one entry at a time however
/// large the ring. It passes over the ring twice, for the labels and for
/// the entries.
void write_entries(std::span<const Event* const> ring, std::ostream& os) {
  // seq -> routine label (from the Enqueue event, which may have been
  // overwritten in a wrapped ring — fall back to "cmd <seq>").
  std::map<std::uint64_t, std::string> labels;
  std::set<std::uint16_t> workers;
  std::set<int> devices;
  for (const Event* ep : ring) {
    const Event& e = *ep;
    if (e.kind == EventKind::Enqueue) {
      std::string label(e.name_view());
      if (label.empty()) label = "cmd";
      labels[e.seq] = std::move(label);
    }
    workers.insert(e.worker);
    if (e.device >= 0) devices.insert(e.device);
  }
  auto label_of = [&labels](std::uint64_t seq) -> std::string {
    auto it = labels.find(seq);
    if (it != labels.end()) return it->second;
    return "cmd " + std::to_string(seq);
  };

  bool first = true;
  auto write = [&os, &first](const Json& e) {
    if (!first) os << ",\n";
    first = false;
    os << e.dump();
  };

  // Metadata rows: name the processes (the three tracks of the two-clock
  // model) and every worker/device thread that appears.
  struct Meta {
    int pid;
    const char* name;
  };
  for (const Meta m : {Meta{kHostPid, "host runtime"},
                       Meta{kDeviceWallPid, "devices (wall clock)"},
                       Meta{kDeviceCyclePid, "devices (simulated cycles)"}}) {
    write(entry("M", "process_name", m.pid, 0, Json(),
                args({{"name", str(m.name)}})));
    write(entry("M", "process_sort_index", m.pid, 0, Json(),
                args({{"sort_index", num(static_cast<std::uint64_t>(m.pid))}})));
  }
  for (const std::uint16_t worker : workers) {
    write(entry("M", "thread_name", kHostPid, worker, Json(),
                args({{"name", str(worker == 0 ? std::string("caller")
                                               : "worker " +
                                                     std::to_string(worker))}})));
  }
  for (const int dev : devices) {
    for (const int pid : {kDeviceWallPid, kDeviceCyclePid}) {
      write(entry("M", "thread_name", pid, static_cast<std::uint64_t>(dev),
                  Json(), args({{"name", str("device " + std::to_string(dev))}})));
    }
  }

  for (const Event* ep : ring) {
    const Event& e = *ep;
    const auto dev = static_cast<std::uint64_t>(e.device);
    switch (e.kind) {
      case EventKind::Enqueue:
        write(command_end("b", label_of(e.seq), e,
                          args({{"seq", num(e.seq)},
                                {"barrier", Json::boolean(e.flags != 0)}})));
        break;
      case EventKind::DepsReady:
        write(instant("deps-ready", kHostPid, e.worker, e.wall_ns,
                      args({{"seq", num(e.seq)}})));
        break;
      case EventKind::Placed:
        if (e.device >= 0) {
          write(instant("place " + label_of(e.seq), kDeviceWallPid, dev,
                        e.wall_ns,
                        args({{"seq", num(e.seq)},
                              {"attempt", num(e.attempt)}})));
        }
        break;
      case EventKind::Attempt: {
        const Json a = args({{"seq", num(e.seq)},
                             {"attempt", num(e.attempt)},
                             {"device", Json::number(e.device)},
                             {"cycles", num(e.b)},
                             {"outcome", str(outcome_name(e.flags))}});
        write(span(label_of(e.seq), kHostPid, e.worker, us(e.wall_ns),
                   us(e.a), a));
        if (e.device >= 0) {
          write(span(label_of(e.seq), kDeviceWallPid, dev, us(e.wall_ns),
                     us(e.a), a));
        }
        break;
      }
      case EventKind::Retry:
        write(instant("retry " + label_of(e.seq), kHostPid, e.worker,
                      e.wall_ns,
                      args({{"seq", num(e.seq)},
                            {"attempt", num(e.attempt)},
                            {"backoff_us", num(e.a)}})));
        break;
      case EventKind::Verify:
        write(span("verify " + label_of(e.seq), kHostPid, e.worker,
                   us(e.wall_ns), us(e.a),
                   args({{"seq", num(e.seq)},
                         {"device", Json::number(e.device)},
                         {"rejected", Json::boolean(e.flags != 0)}})));
        break;
      case EventKind::Fallback:
        write(instant("cpu-fallback " + label_of(e.seq), kHostPid, e.worker,
                      e.wall_ns, args({{"seq", num(e.seq)}})));
        break;
      case EventKind::Complete:
        write(command_end("e", label_of(e.seq), e,
                          args({{"state", str(state_name(e.flags))},
                                {"start_cycles", num(e.a)},
                                {"finish_cycles", num(e.b)}})));
        // The simulated-cycle row: the same command plotted on the
        // makespan axis (1 µs per cycle), on the device that ran it.
        if (e.device >= 0 && e.b > e.a) {
          write(span(label_of(e.seq), kDeviceCyclePid, dev, num(e.a),
                     num(e.b - e.a),
                     args({{"seq", num(e.seq)},
                           {"state", str(state_name(e.flags))}})));
        }
        break;
      case EventKind::Migrate:
        if (e.device >= 0) {
          write(instant("migrate", kDeviceWallPid, dev, e.wall_ns,
                        args({{"from", num(e.flags)}, {"bytes", num(e.a)}})));
        }
        break;
      case EventKind::BreakerTransition:
        if (e.device >= 0) {
          write(entry("C", "breaker[" + std::to_string(e.device) + "]",
                      kDeviceWallPid, dev, us(e.wall_ns),
                      args({{"state", num(e.flags)}})));
        }
        break;
      case EventKind::Probe:
        if (e.device >= 0) {
          write(instant(e.flags ? "probe (failed)" : "probe (ok)",
                        kDeviceWallPid, dev, e.wall_ns,
                        args({{"seq", num(e.seq)}})));
        }
        break;
      case EventKind::RateSample:
        write(entry("C", "adaptive_sample_rate", kHostPid, 0, us(e.wall_ns),
                    args({{"rate", Json::number(std::bit_cast<double>(e.a))}})));
        break;
      case EventKind::ChannelStats:
        write(instant("chan " + std::string(e.name_view()), kHostPid,
                      e.worker, e.wall_ns,
                      args({{"peak", num(e.a)},
                            {"stalls", num(e.b)},
                            {"capacity", num(e.flags)}})));
        break;
      case EventKind::GraphStats:
        write(instant("graph-run", kHostPid, e.worker, e.wall_ns,
                      args({{"cycles", num(e.a)},
                            {"stall_module_cycles", num(e.b)}})));
        break;
      case EventKind::PeStats:
        write(instant("pe(" + std::to_string(e.attempt) + "," +
                          std::to_string(e.flags) + ")",
                      kHostPid, e.worker, e.wall_ns,
                      args({{"macs", num(e.a)}, {"faults", num(e.b)}})));
        break;
    }
  }
}

/// Writes the export of `rec` to `os` from one snapshot of its ring, which
/// it reads in place: emitters into `rec` wait until the entries are out.
void write_chrome(const Recorder& rec, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  rec.visit([&os](std::span<const Event* const> ring) {
    write_entries(ring, os);
  });
  const MetricsSnapshot m = rec.metrics();
  os << "\n],\"otherData\":"
     << args({{"recorded", num(m.recorded)}, {"dropped", num(m.dropped)}})
            .dump()
     << "}\n";
}

}  // namespace

std::string chrome_json(const Recorder& rec) {
  std::ostringstream os;
  write_chrome(rec, os);
  return std::move(os).str();
}

void export_chrome(const Recorder& rec, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("trace::export_chrome: cannot open '" + path + "'");
  write_chrome(rec, out);
  out.flush();
  if (!out) throw Error("trace::export_chrome: write to '" + path +
                        "' failed");
}

}  // namespace fblas::trace
