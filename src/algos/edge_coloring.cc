#include "algos/edge_coloring.h"

#include <algorithm>
#include <vector>

#include "algos/luby_coloring.h"

namespace slumber::algos {

EdgeColoringResult edge_coloring_via_line_graph(const Graph& g,
                                                std::uint64_t seed) {
  const Graph line = g.line_graph();
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(
      std::max<std::uint64_t>(line.num_vertices(), 2));
  auto [metrics, outputs] =
      sim::run_protocol(line, seed, luby_coloring(), options);

  EdgeColoringResult result;
  result.colors = std::move(outputs);
  result.line_graph_metrics = std::move(metrics);
  // Distinct-color count via sort+unique on a flat vector: same result
  // as a hash set, no implementation-defined container involved (lint
  // rule slumber-d2).
  std::vector<std::int64_t> palette_used;
  palette_used.reserve(result.colors.size());
  for (std::int64_t c : result.colors) {
    if (c >= 0) palette_used.push_back(c);
  }
  std::sort(palette_used.begin(), palette_used.end());
  palette_used.erase(std::unique(palette_used.begin(), palette_used.end()),
                     palette_used.end());
  result.colors_used = palette_used.size();
  return result;
}

bool check_edge_coloring(const Graph& g,
                         const std::vector<std::int64_t>& colors) {
  if (colors.size() != g.num_edges()) return false;
  const std::int64_t palette =
      std::max<std::int64_t>(2 * static_cast<std::int64_t>(g.max_degree()) - 1,
                             1);
  for (std::int64_t c : colors) {
    if (c < 0 || c >= palette) return false;
  }
  // Adjacent edges (sharing an endpoint) must differ. Scan per vertex
  // with a direct-indexed stamp array over the (bounded) palette — the
  // colors were range-checked above, so colors[eid] indexes safely.
  // stamp[c] == v + 1 means color c was already seen at vertex v.
  std::vector<VertexId> stamp(static_cast<std::size_t>(palette), 0);
  const std::vector<Edge> edges = g.edges();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      const Edge e = u < v ? Edge{u, v} : Edge{v, u};
      const auto it = std::lower_bound(edges.begin(), edges.end(), e);
      const auto eid = static_cast<EdgeId>(it - edges.begin());
      const auto c = static_cast<std::size_t>(colors[eid]);
      if (stamp[c] == v + 1) return false;
      stamp[c] = v + 1;
    }
  }
  return true;
}

}  // namespace slumber::algos
