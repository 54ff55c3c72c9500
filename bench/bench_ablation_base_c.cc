// E25 -- Ablation: the base-case budget constant c of Fast-SleepingMIS.
// Algorithm 2 runs the greedy base cases for EXACTLY c*log n rounds so
// all cells finish simultaneously (the paper requires "some large but
// fixed constant c > 0" for the Fischer-Noever w.h.p. bound to kick
// in). Too small a c truncates the greedy before it decides everyone
// (correctness loss, the Monte-Carlo failure mode the paper accepts
// with small probability); larger c buys reliability with makespan and
// a slightly higher awake bill for base-level nodes. The sweep
// quantifies both sides and shows why the library defaults to c = 6.
#include <iostream>

#include "analysis/table.h"
#include "analysis/verify.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E25 / Fast-SleepingMIS base budget c in {0.2..6}, G(1024, 8/n), "
      "20 seeds: validity rate, awake average, makespan");

  const VertexId n = 1024;
  const std::uint32_t seeds = 20;
  analysis::Table table({"levels", "c", "base rounds", "valid runs",
                         "avg awake", "worst awake", "makespan"});

  // levels = 0 is the paper's depth (base cells are near-singletons and
  // any c works); levels = 3 truncates aggressively so base cells hold
  // ~(3/4)^3 * n / 8 ~ 54 nodes and genuinely need the greedy budget.
  for (const std::uint32_t levels : {0u, 3u}) {
    for (const double c : {0.2, 0.4, 0.6, 1.0, 2.0, 4.0, 6.0}) {
      std::uint32_t valid = 0;
      double awake_total = 0.0;
      double worst_total = 0.0;
      double makespan_total = 0.0;
      const std::uint64_t base_rounds = core::greedy_base_rounds(n, c);
      for (std::uint32_t s = 0; s < seeds; ++s) {
        const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
        core::FastSleepingMisOptions options;
        options.levels = levels;
        options.base_c = c;
        sim::NetworkOptions net_options;
        net_options.max_message_bits = sim::congest_bits_for(n);
        auto [metrics, outputs] = sim::run_protocol(
            g, 7 * n + s, core::fast_sleeping_mis(options), net_options);
        if (analysis::check_mis(g, outputs).ok()) ++valid;
        awake_total += metrics.node_avg_awake();
        worst_total += static_cast<double>(metrics.worst_awake());
        makespan_total += static_cast<double>(metrics.makespan);
      }
      table.add_row(
          {levels == 0 ? "paper" : analysis::Table::num(std::uint64_t{levels}),
           analysis::Table::num(c, 1), analysis::Table::num(base_rounds),
           analysis::Table::num(std::uint64_t{valid}) + "/" +
               analysis::Table::num(std::uint64_t{seeds}),
           analysis::Table::num(awake_total / seeds),
           analysis::Table::num(worst_total / seeds, 1),
           analysis::Table::num(makespan_total / seeds, 0)});
    }
  }
  std::cout << table.render();
  std::cout << "\nReading: at the paper's depth the base cells are "
               "near-singletons, so even c = 0.2 is valid -- the 'large "
               "fixed constant' is a worst-case guarantee, and its only "
               "cost is the linear-in-c makespan. The levels = 3 rows "
               "recreate the worst case: cells of ~50 nodes genuinely "
               "need Theta(log n) greedy rounds, and small c strands "
               "undecided cells (invalid runs).\n";
  return 0;
}
