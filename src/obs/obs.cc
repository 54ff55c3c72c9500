// Recorder core for the telemetry layer: per-thread event buffers, the
// lane busy accounting, the progress/heartbeat sampler thread, and the
// Session lifecycle. All wall-clock reads in the repo's src/ tree live
// in src/obs/*.cc (scoped slumber-d1 allowlist); nothing measured here
// is readable from simulation code.
#include "obs/obs.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/proc_stats.h"

namespace slumber::obs {
namespace detail {

std::atomic<Recorder*> g_recorder{nullptr};

namespace {

// Lanes at or above the cap alias into the last busy slot; the repo
// never runs pools anywhere near this wide.
constexpr std::uint32_t kMaxLanes = 1024;

// Per-thread event cap; events beyond it are counted as dropped in the
// footer instead of growing without bound.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

// Sampler cadence for the heartbeat and the RSS timeline.
constexpr std::chrono::milliseconds kHeartbeat{500};

/// One thread's append-only event log. Registered once per thread per
/// recorder (under the recorder mutex), then written lock-free by its
/// owning thread only.
struct ThreadBuffer {
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
  std::uint32_t lane = 0;
  const char* label = nullptr;  // overrides "lane N" when set
};

struct TlsState {
  // Recorder identity `buffer` was registered under. A generation
  // counter, not the Recorder*, because a later session's recorder can
  // be allocated at the freed predecessor's address — an address match
  // would then revive a dangling buffer pointer.
  std::uint64_t owner_id = 0;
  ThreadBuffer* buffer = nullptr;  // cached registration
  std::uint32_t lane = 0;          // sticky pool-lane tag
  std::uint64_t busy_start_ns = 0;
  unsigned busy_depth = 0;
};

thread_local TlsState t_state;

// 0 is reserved as "no owner" in TlsState.
std::atomic<std::uint64_t> g_recorder_generation{0};

}  // namespace

class Recorder {
 public:
  explicit Recorder(Options options)
      : options_(std::move(options)),
        id_(g_recorder_generation.fetch_add(1, std::memory_order_relaxed) +
            1) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder() = default;

  void start() {
    start_ = std::chrono::steady_clock::now();
    start_unix_ms_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    g_recorder.store(this, std::memory_order_relaxed);
    sampler_ = std::thread([this] { sampler_loop(); });
  }

  /// Uninstalls the recorder, joins the sampler, merges every thread
  /// buffer, and writes the export sinks. Caller guarantees no thread
  /// is still inside an instrumented region (Session contract).
  void finalize() {
    g_recorder.store(nullptr, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sampler_mutex_);
      stop_ = true;
    }
    sampler_cv_.notify_all();
    if (sampler_.joinable()) sampler_.join();
    const std::uint64_t wall_ns = now_ns();

    Dump dump;
    dump.wall_ns = wall_ns;
    dump.start_unix_ms = start_unix_ms_;
    dump.frames = frames_.load(std::memory_order_relaxed);
    dump.peak_rss_kb = std::max(sampled_peak_rss_kb_, proc::peak_rss_kb());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::size_t total = 0;
      for (const auto& buffer : buffers_) total += buffer->events.size();
      dump.events.reserve(total);
      for (const auto& buffer : buffers_) {
        for (Event event : buffer->events) {
          event.tid = buffer->tid;
          dump.events.push_back(event);
        }
        dump.dropped += buffer->dropped;
        std::string label;
        if (buffer->label != nullptr) {
          label = buffer->label;
        } else {
          label = "lane " + std::to_string(buffer->lane);
        }
        dump.threads.emplace_back(buffer->tid, std::move(label));
      }
      for (const auto& [key, value] : info_) dump.info.emplace_back(key,
                                                                    value);
    }
    std::sort(dump.events.begin(), dump.events.end(),
              [](const Event& a, const Event& b) {
                if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                return a.tid < b.tid;
              });
    std::sort(dump.threads.begin(), dump.threads.end());
    for (std::uint32_t lane = 0; lane < kMaxLanes; ++lane) {
      const std::uint64_t busy =
          lane_busy_ns_[lane].load(std::memory_order_relaxed);
      if (busy != 0) dump.lane_busy_ns.emplace_back(lane, busy);
    }

    if (!options_.jsonl_path.empty() &&
        !write_jsonl(options_.jsonl_path, dump)) {
      std::fprintf(stderr, "[obs] error: cannot write %s\n",
                   options_.jsonl_path.c_str());
    }
    if (!options_.trace_path.empty() &&
        !write_trace(options_.trace_path, dump)) {
      std::fprintf(stderr, "[obs] error: cannot write %s\n",
                   options_.trace_path.c_str());
    }
    if (options_.progress) {
      std::fprintf(
          stderr,
          "[obs] done: %.1fs, %llu events (%llu dropped), %llu frames, "
          "peak rss %llu MB\n",
          static_cast<double>(wall_ns) / 1e9,
          static_cast<unsigned long long>(dump.events.size()),
          static_cast<unsigned long long>(dump.dropped),
          static_cast<unsigned long long>(dump.frames),
          static_cast<unsigned long long>(dump.peak_rss_kb / 1024));
    }
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  void record(Event event) {
    event.lane = t_state.lane;
    ThreadBuffer* buffer = thread_buffer();
    if (buffer->events.size() >= kMaxEventsPerThread) {
      ++buffer->dropped;
      return;
    }
    buffer->events.push_back(event);
  }

  void add_lane_busy(std::uint32_t lane, std::uint64_t busy_ns) {
    const std::uint32_t slot = std::min(lane, kMaxLanes - 1);
    lane_busy_ns_[slot].fetch_add(busy_ns, std::memory_order_relaxed);
  }

  void set_info(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mutex_);
    info_[key] = value;
  }

  void set_phase(const char* phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }
  void set_round(double round) {
    round_.store(round, std::memory_order_relaxed);
  }
  void set_round_total(double total) {
    round_total_.store(total, std::memory_order_relaxed);
  }
  void add_frame() { frames_.fetch_add(1, std::memory_order_relaxed); }

 private:
  ThreadBuffer* thread_buffer() {
    if (t_state.owner_id == id_ && t_state.buffer != nullptr) {
      return t_state.buffer;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    ThreadBuffer* buffer = buffers_.back().get();
    buffer->tid = next_tid_++;
    buffer->lane = t_state.lane;
    t_state.owner_id = id_;
    t_state.buffer = buffer;
    return buffer;
  }

  void sampler_loop() {
    thread_buffer()->label = "sampler";
    while (true) {
      {
        std::unique_lock<std::mutex> lock(sampler_mutex_);
        sampler_cv_.wait_for(lock, kHeartbeat, [this] { return stop_; });
        if (stop_) return;
      }
      sample();
    }
  }

  void sample() {
    const std::uint64_t rss_kb = proc::current_rss_kb();
    sampled_peak_rss_kb_ = std::max(sampled_peak_rss_kb_, rss_kb);
    Event event;
    event.kind = EventKind::kCounter;
    event.name = "rss_mb";
    event.ts_ns = now_ns();
    event.value = static_cast<double>(rss_kb) / 1024.0;
    record(event);
    if (!options_.progress) return;

    const char* phase = phase_.load(std::memory_order_relaxed);
    const double round = round_.load(std::memory_order_relaxed);
    const double total = round_total_.load(std::memory_order_relaxed);
    const double elapsed_s = static_cast<double>(event.ts_ns) / 1e9;
    std::string line = "[obs] phase=";
    line += phase != nullptr ? phase : "-";
    char buf[160];
    if (total > 0.0) {
      const double frac =
          std::min(1.0, round > 0.0 ? round / total : 0.0);
      std::snprintf(buf, sizeof buf, " round=%.3g/%.3g (%.0f%%)", round,
                    total, frac * 100.0);
      line += buf;
      if (round > 0.0) {
        const double eta_s = elapsed_s * (total - round) / round;
        std::snprintf(buf, sizeof buf, " eta=%.1fs", eta_s);
        line += buf;
      }
    }
    std::snprintf(buf, sizeof buf, " frames=%llu rss=%lluMB elapsed=%.1fs",
                  static_cast<unsigned long long>(
                      frames_.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(rss_kb / 1024), elapsed_s);
    line += buf;
    line += '\n';
    std::fputs(line.c_str(), stderr);
  }

  Options options_;
  const std::uint64_t id_;  // session generation; see TlsState::owner_id
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t start_unix_ms_ = 0;

  std::mutex mutex_;  // guards buffers_, next_tid_, info_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 0;
  std::map<std::string, std::string> info_;

  std::array<std::atomic<std::uint64_t>, kMaxLanes> lane_busy_ns_{};

  // Progress state: relaxed stores from instrumented threads, read
  // only by the sampler (values are advisory display data).
  std::atomic<const char*> phase_{nullptr};
  std::atomic<double> round_{0.0};
  std::atomic<double> round_total_{0.0};
  std::atomic<std::uint64_t> frames_{0};

  // Sampler-thread-private until finalize() joins the sampler.
  std::uint64_t sampled_peak_rss_kb_ = 0;

  std::thread sampler_;
  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool stop_ = false;  // guarded by sampler_mutex_
};

std::uint64_t span_begin() {
  Recorder* recorder = g_recorder.load(std::memory_order_relaxed);
  return recorder != nullptr ? recorder->now_ns() : 0;
}

void span_end(const char* cat, const char* name, std::uint64_t arg,
              std::uint64_t start_ns) {
  Recorder* recorder = g_recorder.load(std::memory_order_relaxed);
  if (recorder == nullptr) return;
  Event event;
  event.kind = EventKind::kSpan;
  event.cat = cat;
  event.name = name;
  event.arg = arg;
  event.ts_ns = start_ns;
  const std::uint64_t end_ns = recorder->now_ns();
  event.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  recorder->record(event);
}

}  // namespace detail

void counter(const char* name, double value) {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder == nullptr) return;
  detail::Event event;
  event.kind = detail::EventKind::kCounter;
  event.name = name;
  event.value = value;
  event.ts_ns = recorder->now_ns();
  recorder->record(event);
}

void instant(const char* cat, const char* name, std::uint64_t arg) {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder == nullptr) return;
  detail::Event event;
  event.kind = detail::EventKind::kInstant;
  event.cat = cat;
  event.name = name;
  event.arg = arg;
  event.ts_ns = recorder->now_ns();
  recorder->record(event);
}

void set_lane(unsigned lane) { detail::t_state.lane = lane; }

void lane_work_begin() {
  if (detail::t_state.busy_depth++ != 0) return;
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  detail::t_state.busy_start_ns =
      recorder != nullptr ? recorder->now_ns() : 0;
}

void lane_work_end() {
  if (--detail::t_state.busy_depth != 0) return;
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  const std::uint64_t start_ns = detail::t_state.busy_start_ns;
  detail::t_state.busy_start_ns = 0;
  if (recorder == nullptr || start_ns == 0) return;
  const std::uint64_t end_ns = recorder->now_ns();
  if (end_ns > start_ns) {
    recorder->add_lane_busy(detail::t_state.lane, end_ns - start_ns);
  }
}

void progress_phase(const char* phase) {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder->set_phase(phase);
}

void progress_round(double round) {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder->set_round(round);
}

void progress_total(double total) {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder->set_round_total(total);
}

void progress_frame() {
  detail::Recorder* recorder =
      detail::g_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder->add_frame();
}

std::uint64_t peak_rss_kb() { return proc::peak_rss_kb(); }

Session::Session(Options options) {
  if (!options.any()) return;
  // A second concurrent Session degrades to inactive rather than
  // fighting over the global recorder slot.
  if (detail::g_recorder.load(std::memory_order_relaxed) != nullptr) return;
  recorder_ = std::make_unique<detail::Recorder>(std::move(options));
  recorder_->start();
}

Session::~Session() {
  if (recorder_ != nullptr) recorder_->finalize();
}

void Session::set_info(const std::string& key, const std::string& value) {
  if (recorder_ != nullptr) recorder_->set_info(key, value);
}

}  // namespace slumber::obs
