// E1 -- Reproduces the paper's Table 1: the four complexity measures for
// the prior-work baselines (Luby-A, Luby-B, CRT randomized greedy,
// Ghaffari) versus Algorithm 1 (SleepingMIS) and Algorithm 2
// (Fast-SleepingMIS).
//
// Paper claims (Table 1), by node-averaged and worst-case awake
// complexity and worst-case and node-averaged round complexity:
//                    avg awake | worst awake | worst rounds  | avg rounds
//   prior algorithms n/a (always awake)        O(log n)        O(log n)
//   SleepingMIS      O(1)      | O(log n)    | O(n^3)        | O(n^3)
//   Fast-SleepingMIS O(1)      | O(log n)    | O(log^3.41 n) | O(log^3.41 n)
//
// We print measured values per n on G(n, 8/n) plus growth-rate fits:
// the awake average should be flat for the sleeping algorithms, the
// makespan should fit ~n^3 for Algorithm 1 and ~log^3.41 n for
// Algorithm 2.
#include <cmath>
#include <iostream>
#include <map>

#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "graph/generators.h"

namespace {

using namespace slumber;
using analysis::MisEngine;

constexpr std::uint32_t kSeeds = 5;

}  // namespace

int main() {
  const std::vector<VertexId> sizes = {64, 128, 256, 512, 1024};
  std::cout << analysis::banner(
      "E1 / Table 1: complexity measures on G(n, 8/n), " +
      std::to_string(kSeeds) + " seeds per cell");

  std::map<MisEngine, std::vector<double>> avg_awake;
  std::map<MisEngine, std::vector<double>> worst_rounds;
  std::vector<double> ns(sizes.begin(), sizes.end());

  for (const VertexId n : sizes) {
    analysis::Table table({"algorithm", "node-avg awake", "worst awake",
                           "worst rounds", "node-avg rounds", "invalid"});
    for (const MisEngine engine : analysis::all_engines()) {
      const auto agg = analysis::aggregate_mis(
          engine,
          [n](std::uint64_t seed) {
            return gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
          },
          10 * n, kSeeds);
      avg_awake[engine].push_back(agg.node_avg_awake_mean);
      worst_rounds[engine].push_back(agg.worst_rounds_mean);
      table.add_row({analysis::engine_name(engine),
                     analysis::Table::num(agg.node_avg_awake_mean) + " +- " +
                         analysis::Table::num(agg.node_avg_awake_ci95),
                     analysis::Table::num(agg.worst_awake_mean, 1),
                     analysis::Table::num(agg.worst_rounds_mean, 0),
                     analysis::Table::num(agg.node_avg_rounds_mean, 0),
                     analysis::Table::num(agg.invalid_runs)});
    }
    std::cout << "\nn = " << n << "\n" << table.render();
  }

  std::cout << analysis::banner("growth fits across n");
  analysis::Table fits({"algorithm", "awake-avg vs log2(n) slope",
                        "makespan power-law exponent", "paper prediction"});
  for (const MisEngine engine : analysis::all_engines()) {
    const auto awake_fit = analysis::log_fit(ns, avg_awake[engine]);
    const auto span_fit = analysis::power_fit(ns, worst_rounds[engine]);
    std::string prediction;
    switch (engine) {
      case MisEngine::kSleeping:
        prediction = "awake slope ~0 (O(1)); exponent ~3 (n^3)";
        break;
      case MisEngine::kFastSleeping:
        prediction = "awake slope ~0 (O(1)); exponent ~0 (polylog)";
        break;
      default:
        prediction = "awake grows with n; makespan O(log n)";
        break;
    }
    fits.add_row({analysis::engine_name(engine),
                  analysis::Table::num(awake_fit.slope, 3),
                  analysis::Table::num(span_fit.slope, 3), prediction});
  }
  std::cout << fits.render();
  std::cout << "\nReading: 'worst rounds' for SleepingMIS equals "
               "T(ceil(3 log2 n)) = 3(2^K - 1) exactly (Lemma 10); "
               "Fast-SleepingMIS equals T2(K2) with base budget "
               "6 log2 n (Theorem 2).\n";
  return 0;
}
