// Run telemetry: phase spans, counters, and live progress — strictly
// out-of-band with respect to simulation state.
//
// The contract that makes this layer safe to wire into deterministic
// code is one-directional data flow: timestamps and /proc readings are
// *written into* the recorder and exported after the run; nothing the
// recorder measures can be read back by src/ code, so telemetry can
// never feed an RNG, a schedule, or any decided output
// (tests/obs_test.cc pins bitwise-identical trial output with obs on
// vs off at every lane count, and tools/lint/slumber_checks.py bans
// both wall-clock reads outside src/obs/ and obs readback inside
// src/). Wall-clock calls live only in src/obs/*.cc, under a scoped
// slumber-d1 allowlist.
//
// Zero overhead when off: every hook reduces to one relaxed atomic
// load and a predictable branch (enabled()); no Session installed
// means no recorder, no buffers, no sampler thread. When on, events
// append to per-thread buffers (registered under a mutex once per
// thread, then lock-free) and are merged, aggregated, and exported by
// Session teardown behind the stable `slumber-obs-v1` schema:
//
//   --obs-out run.jsonl    JSONL event stream: manifest line (git sha,
//                          build type, host, caller-set info), one line
//                          per span/counter/instant, footer line with
//                          run aggregates (peak RSS, per-lane busy
//                          time, chunk-imbalance stats).
//   --obs-trace trace.json Chrome trace-event file; load in Perfetto
//                          (ui.perfetto.dev) or chrome://tracing.
//   --progress             live stderr heartbeat with phase, virtual
//                          round progress, frame count, RSS, and ETA.
//
// Finalization contract: destroy the Session only when no thread can
// still be inside an instrumented region (after pools have gone idle
// or been destroyed). The front ends get this for free by declaring
// the Session above the pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace slumber::obs {

/// Export + progress configuration (parsed from the shared TrialSpec
/// flag grammar: --obs-out / --obs-trace / --progress).
struct Options {
  /// JSONL event-stream path; empty disables the sink.
  std::string jsonl_path;
  /// Chrome trace-event path; empty disables the sink.
  std::string trace_path;
  /// Live stderr heartbeat.
  bool progress = false;

  bool any() const {
    return progress || !jsonl_path.empty() || !trace_path.empty();
  }
};

namespace detail {

class Recorder;

// Non-null while a Session is installed. Relaxed is sufficient: the
// hooks only need an eventually-visible on/off flag, and Session
// install/teardown happens while no instrumented region is running.
extern std::atomic<Recorder*> g_recorder;

/// Opaque span start stamp (nanoseconds on the recorder's clock). Only
/// Span ever holds one, and it flows back into the recorder — never
/// into caller code.
std::uint64_t span_begin();
void span_end(const char* cat, const char* name, std::uint64_t arg,
              std::uint64_t start_ns);

}  // namespace detail

/// True while a Session is recording. The entire cost of a disabled
/// hook is this load and a branch.
inline bool enabled() {
  return detail::g_recorder.load(std::memory_order_relaxed) != nullptr;
}

/// RAII phase span. `cat` and `name` must be string literals (they are
/// stored by pointer). Passing cat == nullptr disarms the span — the
/// idiom for call sites that gate tracing on a size threshold:
///
///   obs::Span span(total >= cutoff ? "engine" : nullptr, "scan", id);
class Span {
 public:
  explicit Span(const char* cat, const char* name, std::uint64_t arg = 0)
      : cat_(cat),
        name_(name),
        arg_(arg),
        armed_(cat != nullptr && enabled()),
        start_ns_(armed_ ? detail::span_begin() : 0) {}
  ~Span() {
    if (armed_) detail::span_end(cat_, name_, arg_, start_ns_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t arg_;
  bool armed_;
  std::uint64_t start_ns_;
};

/// Records a gauge sample (`name` must be a string literal). No-op
/// when disabled.
void counter(const char* name, double value);

/// Records a zero-duration marker. No-op when disabled.
void instant(const char* cat, const char* name, std::uint64_t arg = 0);

/// Tags the calling thread as pool lane `lane` for event attribution
/// (lane 0 = the fork-join caller; workers are 1..N-1). Sticky per
/// thread, independent of any recorder's lifetime.
void set_lane(unsigned lane);

/// Pool-lane busy bracketing (called by ThreadPool::drain_batch). The
/// duration never leaves the obs layer: it is accumulated internally
/// into the per-lane busy totals reported in the export footer.
void lane_work_begin();
void lane_work_end();

// --- live progress ---------------------------------------------------
// All writes into relaxed atomics read only by the sampler thread.
// Virtual rounds are passed as double (the engine's clock is 128-bit;
// ETA math is approximate by nature).

/// Names the current phase for the heartbeat line.
void progress_phase(const char* phase);
/// Latest virtual round reached.
void progress_round(double round);
/// Total virtual rounds the run will span (ETA denominator).
void progress_total(double total);
/// Counts one recursion frame / outer iteration.
void progress_frame();

/// Peak RSS (VmHWM) in kB from /proc/self/status; 0 where unsupported.
/// This is a *telemetry readback* and is lint-banned in src/ outside
/// src/obs/ — call it from bench/ and tools/ only.
std::uint64_t peak_rss_kb();

/// Installs a recorder for the lifetime of the object (when
/// options.any()), finalizes and exports on destruction. At most one
/// Session may be active at a time; a second concurrent Session
/// degrades to inactive.
class Session {
 public:
  explicit Session(Options options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// True when this Session installed a recorder.
  bool active() const { return recorder_ != nullptr; }

  /// Adds a key/value pair to the export manifest (TrialSpec fields,
  /// seeds, tool name). Callable any time before destruction.
  void set_info(const std::string& key, const std::string& value);

 private:
  std::unique_ptr<detail::Recorder> recorder_;
};

}  // namespace slumber::obs
