// Must-flag fixture for slumber-d1 telemetry leakage: src/ code
// outside src/obs/ reading the wall clock or consuming a telemetry
// value (a slumber-d1 finding per read), and the functions holding a
// telemetry read (slumber-d8) — measurements steering computation would
// make trial output machine-dependent.
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace slumber::obs {
std::uint64_t peak_rss_kb();
namespace proc {
std::uint64_t current_rss_kb();
}  // namespace proc
}  // namespace slumber::obs

namespace fixture {

std::size_t bad_adaptive_cutoff() {
  const auto start = std::chrono::steady_clock::now();  // MUST-FLAG(slumber-d1)
  return static_cast<std::size_t>(start.time_since_epoch().count() & 0xff);
}

std::size_t bad_rss_steered_chunks(std::size_t n) {  // MUST-FLAG(slumber-d8)
  if (slumber::obs::peak_rss_kb() > 1000000) {  // MUST-FLAG(slumber-d1)
    return n / 2;
  }
  return n;
}

std::uint64_t bad_proc_readback() {  // MUST-FLAG(slumber-d8)
  return slumber::obs::proc::current_rss_kb();  // MUST-FLAG(slumber-d1)
}

}  // namespace fixture
