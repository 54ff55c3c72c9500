// TDMA slot assignment for a wireless mesh: a proper edge coloring IS a
// collision-free transmission schedule -- all links of one color can
// fire in the same slot because no radio is an endpoint of two of them.
//
//   $ ./tdma_scheduling
//
// The example builds a unit-disk mesh, computes a (2*Delta - 1)-edge-
// coloring with the library's line-graph reduction (Luby coloring on
// L(G), the Barenboim-Tzur problem family), verifies it, and prints the
// resulting slot table plus its utilization against the trivial
// one-link-per-slot schedule.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <vector>

#include "algos/edge_coloring.h"
#include "graph/generators.h"
#include "sim/network.h"

int main() {
  using namespace slumber;

  // 1. A 64-radio mesh with ~8 links per radio.
  const std::uint64_t seed = 7;
  Rng rng(seed);
  const VertexId n = 64;
  const double radius = std::sqrt(8.0 / (3.14159 * n)) * 1.8;
  const Graph g = gen::random_geometric(n, radius, rng);
  std::cout << "mesh: " << g.summary() << "\n";

  // 2. Color the links.
  const auto result = algos::edge_coloring_via_line_graph(g, seed);
  if (!algos::check_edge_coloring(g, result.colors)) {
    std::cerr << "edge coloring invalid\n";
    return 1;
  }

  // 3. Colors -> slots.
  std::map<std::int64_t, std::vector<EdgeId>> slots;
  for (EdgeId e = 0; e < result.colors.size(); ++e) {
    slots[result.colors[e]].push_back(e);
  }
  std::cout << "links: " << g.num_edges() << ", slots: " << slots.size()
            << " (bound 2*Delta-1 = " << 2 * g.max_degree() - 1 << ")\n\n";

  std::cout << "slot table (first 8 slots):\n";
  const std::vector<Edge> links = g.edges();
  std::size_t shown = 0;
  for (const auto& [color, edges] : slots) {
    if (shown++ == 8) break;
    std::cout << "  slot " << color << ": " << edges.size() << " links |";
    for (std::size_t i = 0; i < std::min<std::size_t>(edges.size(), 6); ++i) {
      const Edge edge = links[edges[i]];
      std::cout << " " << edge.u << "-" << edge.v;
    }
    if (edges.size() > 6) std::cout << " ...";
    std::cout << "\n";
  }

  // 4. Utilization: schedule length vs firing each link alone.
  const double speedup =
      static_cast<double>(g.num_edges()) / static_cast<double>(slots.size());
  std::cout << "\nschedule length " << slots.size() << " slots vs "
            << g.num_edges() << " naive slots -> " << speedup
            << "x spatial reuse\n";

  // 5. The distributed cost of computing the schedule (on L(G)):
  std::cout << "computed distributedly in "
            << result.line_graph_metrics.worst_finish()
            << " rounds, node-averaged decision "
            << result.line_graph_metrics.node_avg_decided()
            << " rounds per link (O(1), Section 1.5 contrast).\n";
  return 0;
}
