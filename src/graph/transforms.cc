#include "graph/transforms.h"

#include <queue>
#include <stdexcept>
#include <vector>

namespace slumber {

Graph power(const Graph& g, std::uint32_t k) {
  const VertexId n = g.num_vertices();
  if (k == 0) return Graph(n, {});
  if (k == 1) return g;

  std::vector<Edge> edges;
  // BFS to depth k from every vertex; distances are reset lazily via a
  // visit stamp so the scratch arrays are allocated once.
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<VertexId> stamp(n, kInvalidVertex);
  std::queue<VertexId> frontier;
  for (VertexId s = 0; s < n; ++s) {
    stamp[s] = s;
    dist[s] = 0;
    frontier.push(s);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      if (dist[u] == k) continue;
      for (const VertexId w : g.neighbors(u)) {
        if (stamp[w] == s) continue;
        stamp[w] = s;
        dist[w] = dist[u] + 1;
        frontier.push(w);
        if (w > s) edges.push_back({s, w});  // each pair once
      }
    }
  }
  return Graph(n, std::move(edges));
}

Graph complement(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = g.neighbors(u);  // sorted ascending
    std::size_t i = 0;
    for (VertexId v = u + 1; v < n; ++v) {
      while (i < nbrs.size() && nbrs[i] < v) ++i;
      if (i < nbrs.size() && nbrs[i] == v) continue;
      edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph disjoint_union(std::span<const Graph> parts) {
  std::uint64_t total = 0;
  for (const Graph& part : parts) total += part.num_vertices();
  if (total > static_cast<std::uint64_t>(kInvalidVertex)) {
    throw std::invalid_argument("disjoint_union: too many vertices");
  }
  std::vector<Edge> edges;
  VertexId offset = 0;
  for (const Graph& part : parts) {
    part.for_each_edge([&](VertexId u, VertexId v) {
      edges.push_back({u + offset, v + offset});
    });
    offset += part.num_vertices();
  }
  return Graph(static_cast<VertexId>(total), std::move(edges));
}

Graph subdivision(const Graph& g) {
  const VertexId n = g.num_vertices();
  const auto m = static_cast<VertexId>(g.num_edges());
  std::vector<Edge> edges;
  VertexId x = n;  // the vertex subdividing edge e is n + e
  g.for_each_edge([&](VertexId u, VertexId v) {
    edges.push_back({u, x});
    edges.push_back({x, v});
    ++x;
  });
  return Graph(n + m, std::move(edges));
}

Graph mycielski(const Graph& g) {
  const VertexId n = g.num_vertices();
  const VertexId apex = 2 * n;
  std::vector<Edge> edges;
  g.for_each_edge([&](VertexId u, VertexId v) {
    edges.push_back({u, v});      // original edge
    edges.push_back({n + u, v});  // shadow(u) - v
    edges.push_back({u, n + v});  // u - shadow(v)
  });
  for (VertexId v = 0; v < n; ++v) edges.push_back({n + v, apex});
  return Graph(2 * n + 1, std::move(edges));
}

}  // namespace slumber
