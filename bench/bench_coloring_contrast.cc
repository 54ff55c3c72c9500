// E10 -- The paper's Section 1.5 contrast: Luby's (Delta+1)-coloring
// already achieves O(1) node-averaged round complexity in the
// *traditional* model (a constant fraction of nodes finishes per
// iteration), while no MIS algorithm is known to -- that asymmetry is
// what motivates the sleeping model. We measure the node-averaged
// decision round of coloring vs the MIS baselines across n.
#include <iostream>

#include "algos/greedy_coloring.h"
#include "algos/luby_coloring.h"
#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;
using analysis::MisEngine;
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E10 / node-averaged DECISION round (traditional model), G(n, 8/n), "
      "5 seeds: coloring is O(1), MIS baselines grow");

  analysis::Table table({"n", "Luby coloring", "greedy coloring",
                         "Luby-A MIS", "CRT-greedy MIS", "Ghaffari MIS"});
  std::vector<double> ns;
  std::vector<double> coloring_avg;
  std::vector<double> luby_avg;
  for (const VertexId n : {64u, 256u, 1024u, 4096u}) {
    double coloring_total = 0.0;
    const std::uint32_t seeds = 5;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
      sim::NetworkOptions options;
      options.max_message_bits = sim::congest_bits_for(n);
      auto [metrics, outputs] =
          sim::run_protocol(g, 2 * n + s, algos::luby_coloring(), options);
      if (!analysis::check_coloring(g, outputs)) {
        std::cerr << "INVALID coloring at n=" << n << "\n";
        return 1;
      }
      coloring_total += metrics.node_avg_decided();
    }
    const double coloring_mean = coloring_total / seeds;

    double greedy_coloring_total = 0.0;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
      sim::NetworkOptions options;
      options.max_message_bits = sim::congest_bits_for(n);
      auto [metrics, outputs] =
          sim::run_protocol(g, 2 * n + s, algos::greedy_coloring(), options);
      if (!analysis::check_coloring(g, outputs)) {
        std::cerr << "INVALID greedy coloring at n=" << n << "\n";
        return 1;
      }
      greedy_coloring_total += metrics.node_avg_decided();
    }
    const double greedy_coloring_mean = greedy_coloring_total / seeds;

    auto mis_avg = [&](MisEngine engine) {
      double total = 0.0;
      for (std::uint32_t s = 0; s < seeds; ++s) {
        const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
        const auto run = analysis::run_mis(engine, g, 2 * n + s);
        total += run.metrics.node_avg_decided();
      }
      return total / seeds;
    };
    const double luby = mis_avg(MisEngine::kLubyA);
    ns.push_back(n);
    coloring_avg.push_back(coloring_mean);
    luby_avg.push_back(luby);
    table.add_row({analysis::Table::num(std::uint64_t{n}),
                   analysis::Table::num(coloring_mean),
                   analysis::Table::num(greedy_coloring_mean),
                   analysis::Table::num(luby),
                   analysis::Table::num(mis_avg(MisEngine::kGreedy)),
                   analysis::Table::num(mis_avg(MisEngine::kGhaffari))});
  }
  std::cout << table.render();

  const auto coloring_fit = analysis::log_fit(ns, coloring_avg);
  const auto luby_fit = analysis::log_fit(ns, luby_avg);
  std::cout << "\nslope vs log2(n): coloring = "
            << analysis::Table::num(coloring_fit.slope, 3)
            << " (paper: O(1) -> ~0), Luby-A MIS = "
            << analysis::Table::num(luby_fit.slope, 3)
            << " (grows: no O(1) traditional-model MIS bound known).\n";
  return 0;
}
