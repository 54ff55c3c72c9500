// slumber-d8 must-flag fixture: a helper outside src/obs/ that reads
// telemetry state (a D1 finding too), and a caller tainted through it.

std::uint64_t fx_rss_floor() {  // MUST-FLAG(slumber-d8)
  return obs::peak_rss_kb() / 2;  // MUST-FLAG(slumber-d1)
}

std::uint64_t fx_budget_gate(std::uint64_t n) {  // MUST-FLAG(slumber-d8)
  return n < fx_rss_floor() ? 1 : 0;
}
