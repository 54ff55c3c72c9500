// E19 -- (2*Delta - 1)-edge-coloring via Luby coloring of the line
// graph (the third member of the Barenboim-Tzur problem family,
// paper Section 1.5). Since Luby coloring finishes a constant fraction
// of L(G)-vertices per iteration, the node-averaged DECISION round on
// the line graph is O(1) -- the same contrast the paper draws for
// vertex coloring -- and the palette never exceeds 2*Delta - 1.
#include <iostream>

#include "algos/edge_coloring.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "graph/generators.h"

namespace {
using namespace slumber;
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E19 / (2D-1)-edge-coloring on G(n, 8/n), 5 seeds: colors vs the "
      "2*Delta-1 bound, O(1) node-averaged decision");

  const std::uint32_t seeds = 5;
  analysis::Table table({"n", "Delta", "2D-1 bound", "colors used",
                         "avg decided (L)", "worst rounds (L)", "valid"});
  std::vector<double> ns;
  std::vector<double> avg_decided;

  for (const VertexId n : {64u, 256u, 1024u, 4096u}) {
    double delta_total = 0.0;
    double bound_total = 0.0;
    double used_total = 0.0;
    double decided_total = 0.0;
    double worst_total = 0.0;
    bool all_valid = true;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n * 3 + s);
      const auto result = algos::edge_coloring_via_line_graph(g, n + s);
      all_valid = all_valid && algos::check_edge_coloring(g, result.colors);
      delta_total += g.max_degree();
      bound_total += 2.0 * g.max_degree() - 1.0;
      used_total += static_cast<double>(result.colors_used);
      decided_total += result.line_graph_metrics.node_avg_decided();
      worst_total +=
          static_cast<double>(result.line_graph_metrics.worst_finish());
    }
    if (!all_valid) {
      std::cerr << "INVALID edge coloring at n=" << n << "\n";
      return 1;
    }
    ns.push_back(n);
    avg_decided.push_back(decided_total / seeds);
    table.add_row({analysis::Table::num(std::uint64_t{n}),
                   analysis::Table::num(delta_total / seeds, 1),
                   analysis::Table::num(bound_total / seeds, 1),
                   analysis::Table::num(used_total / seeds, 1),
                   analysis::Table::num(decided_total / seeds),
                   analysis::Table::num(worst_total / seeds, 1), "yes"});
  }
  std::cout << table.render();

  const auto fit = analysis::log_fit(ns, avg_decided);
  std::cout << "\nnode-averaged decision slope vs log2(n): "
            << analysis::Table::num(fit.slope, 3)
            << " (O(1), matching the coloring contrast of Section 1.5).\n";
  return 0;
}
