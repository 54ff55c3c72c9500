// E12 -- Ablation of Algorithm 2's truncation depth. The paper picks
// K2 = ceil(ell log log n) with ell = 1/log2(4/3) so that the expected
// base-level population is n/log n, exactly cancelling the O(log n)
// greedy base cost. Truncating shallower pushes more nodes into the
// expensive base; truncating deeper adds makespan (each extra level
// doubles T2). This bench sweeps K2 around the paper's choice.
#include <iostream>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/verify.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;

constexpr VertexId kN = 1024;
constexpr std::uint32_t kSeeds = 6;
}  // namespace

int main() {
  const std::uint32_t paper_k2 = core::fast_recursion_depth(kN);
  std::cout << analysis::banner(
      "E12 / ablation: truncation depth K2, Fast-SleepingMIS on G(" +
      std::to_string(kN) + ", 8/n); paper K2 = " + std::to_string(paper_k2));

  analysis::Table table({"K2", "node-avg awake", "worst awake",
                         "base population", "makespan T2(K2)", "invalid"});
  for (std::uint32_t k2 = 1; k2 <= paper_k2 + 4; ++k2) {
    std::vector<double> avg_awake;
    std::vector<double> worst_awake;
    double base_pop = 0.0;
    std::uint32_t invalid = 0;
    std::uint64_t makespan = 0;
    for (std::uint32_t s = 0; s < kSeeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(kN, 8.0, 500 + s);
      core::RecursionTrace trace;
      core::FastSleepingMisOptions options;
      options.levels = k2;
      sim::NetworkOptions net_options;
      net_options.max_message_bits = sim::congest_bits_for(kN);
      auto [metrics, outputs] = sim::run_protocol(
          g, 700 + s, core::fast_sleeping_mis(options, &trace), net_options);
      if (!analysis::check_mis(g, outputs).ok()) {
        ++invalid;
        continue;
      }
      avg_awake.push_back(metrics.node_avg_awake());
      worst_awake.push_back(static_cast<double>(metrics.worst_awake()));
      base_pop += static_cast<double>(trace.z_by_level()[0]);
      makespan = metrics.makespan;
    }
    const auto row_tag = k2 == paper_k2 ? " (paper)" : "";
    table.add_row(
        {analysis::Table::num(std::uint64_t{k2}) + row_tag,
         analysis::Table::num(analysis::summarize(avg_awake).mean),
         analysis::Table::num(analysis::summarize(worst_awake).mean, 1),
         analysis::Table::num(base_pop / kSeeds, 1),
         analysis::Table::num(makespan),
         analysis::Table::num(std::uint64_t{invalid})});
  }
  std::cout << table.render();
  std::cout << "\nReading: K2 = 1 puts nearly all n nodes through the "
               "O(log n) greedy base (awake average inflates toward "
               "O(log n)); K2 past the paper's choice doubles the makespan "
               "per level for shrinking awake savings.\n";
  return 0;
}
