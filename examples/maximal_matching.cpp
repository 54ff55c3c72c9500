// Maximal matching through the library's MIS engines.
//
// The classical reduction (also the Barenboim-Tzur problem family the
// paper compares against): a maximal matching of G is a maximal
// independent set of the line graph L(G). Any engine in the library --
// including the sleeping algorithms -- therefore doubles as a maximal
// matching engine. This example matches a communication schedule for a
// switch fabric: ports are vertices, requested circuits are edges, a
// matching is a set of non-conflicting circuits.
#include <iostream>
#include <vector>

#include "algos/matching.h"
#include "analysis/table.h"
#include "graph/generators.h"

int main() {
  using namespace slumber;

  // A 48-port switch with random circuit requests (G(48, avg deg 5)).
  const Graph requests = gen::gnp_avg_degree_sharded_csr(48, 5.0, 3);
  std::cout << "circuit requests: " << requests.summary() << " (line graph: "
            << requests.line_graph().summary() << ")\n\n";

  analysis::Table table({"engine", "circuits granted", "valid & maximal",
                         "line-graph mean awake", "line-graph rounds"});
  for (const auto engine :
       {algos::MisEngine::kSleeping, algos::MisEngine::kFastSleeping,
        algos::MisEngine::kLubyA, algos::MisEngine::kGreedy}) {
    const auto result = algos::maximal_matching_via_mis(requests, 11, engine);
    const bool ok = algos::is_maximal_matching(requests, result.matched_edges);
    std::string name;
    switch (engine) {
      case algos::MisEngine::kSleeping: name = "SleepingMIS"; break;
      case algos::MisEngine::kFastSleeping: name = "Fast-SleepingMIS"; break;
      case algos::MisEngine::kLubyA: name = "Luby-A"; break;
      default: name = "CRT-greedy"; break;
    }
    table.add_row({name, analysis::Table::num(result.matched_edges.size()),
                   ok ? "yes" : "NO",
                   analysis::Table::num(
                       result.line_graph_metrics.node_avg_awake()),
                   analysis::Table::num(result.line_graph_metrics.makespan)});
    if (!ok) return 1;
  }
  std::cout << table.render();

  // Show one concrete schedule.
  const auto result = algos::maximal_matching_via_mis(
      requests, 11, algos::MisEngine::kSleeping);
  std::cout << "\ngranted circuits (SleepingMIS): ";
  const std::vector<Edge> circuits = requests.edges();
  for (EdgeId e : result.matched_edges) {
    const Edge edge = circuits[e];
    std::cout << edge.u << "-" << edge.v << " ";
  }
  std::cout << "\n";
  return 0;
}
