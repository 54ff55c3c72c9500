// Internal interface between the recorder (obs.cc) and the export
// sinks (export.cc). Not included outside src/obs/.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace slumber::obs::detail {

enum class EventKind : std::uint8_t { kSpan = 0, kCounter = 1, kInstant = 2 };

/// One recorded event. `cat`/`name` point at string literals supplied
/// by the call sites, so storing the pointer is safe for the process
/// lifetime. Timestamps are nanoseconds on the recorder's steady
/// clock (0 = recorder start).
struct Event {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  const char* cat = nullptr;
  const char* name = nullptr;
  double value = 0.0;
  std::uint64_t arg = 0;
  std::uint32_t lane = 0;
  std::uint32_t tid = 0;
  EventKind kind = EventKind::kSpan;
};

/// Merged, finalized run data handed to the writers.
struct Dump {
  /// All events, sorted by (ts_ns, tid) at merge time.
  std::vector<Event> events;
  /// Events discarded because a thread hit its event cap.
  std::uint64_t dropped = 0;
  /// Recorder lifetime.
  std::uint64_t wall_ns = 0;
  /// Wall-clock start of the run (Unix epoch ms) for the manifest.
  std::uint64_t start_unix_ms = 0;
  /// Peak RSS observed (max of sampler readings and final VmHWM), kB.
  std::uint64_t peak_rss_kb = 0;
  /// Total frames counted via progress_frame().
  std::uint64_t frames = 0;
  /// (lane, busy_ns) for every lane that did pool work, sorted by lane.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> lane_busy_ns;
  /// (tid, label) thread names for the trace sink, sorted by tid.
  std::vector<std::pair<std::uint32_t, std::string>> threads;
  /// Caller-provided manifest entries (Session::set_info), sorted by
  /// key for stable output.
  std::vector<std::pair<std::string, std::string>> info;
};

/// Writes the slumber-obs-v1 JSONL event stream. Returns false on I/O
/// failure (reported to stderr by the caller).
bool write_jsonl(const std::string& path, const Dump& dump);

/// Writes the Chrome trace-event file (Perfetto-loadable). Returns
/// false on I/O failure.
bool write_trace(const std::string& path, const Dump& dump);

}  // namespace slumber::obs::detail
