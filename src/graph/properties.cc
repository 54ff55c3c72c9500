#include "graph/properties.h"

#include <algorithm>
#include <queue>

namespace slumber {

Components connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  Components result;
  result.component_of.assign(n, kInvalidVertex);
  std::vector<VertexId> stack;
  for (VertexId start = 0; start < n; ++start) {
    if (result.component_of[start] != kInvalidVertex) continue;
    const VertexId comp = result.count++;
    stack.push_back(start);
    result.component_of[start] = comp;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g.neighbors(v)) {
        if (result.component_of[u] == kInvalidVertex) {
          result.component_of[u] = comp;
          stack.push_back(u);
        }
      }
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  return connected_components(g).count <= 1;
}

std::vector<std::int64_t> bfs_distances(const Graph& g, VertexId source) {
  std::vector<std::int64_t> dist(g.num_vertices(), -1);
  std::queue<VertexId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (VertexId u : g.neighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        queue.push(u);
      }
    }
  }
  return dist;
}

bool is_bipartite(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::int8_t> side(n, -1);
  std::queue<VertexId> queue;
  for (VertexId start = 0; start < n; ++start) {
    if (side[start] >= 0) continue;
    side[start] = 0;
    queue.push(start);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      for (VertexId u : g.neighbors(v)) {
        if (side[u] < 0) {
          side[u] = static_cast<std::int8_t>(1 - side[v]);
          queue.push(u);
        } else if (side[u] == side[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::int64_t eccentricity(const Graph& g, VertexId source) {
  std::int64_t ecc = 0;
  for (std::int64_t d : bfs_distances(g, source)) ecc = std::max(ecc, d);
  return ecc;
}

std::int64_t diameter(const Graph& g) {
  if (g.num_vertices() == 0) return -1;
  std::int64_t diam = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    diam = std::max(diam, eccentricity(g, v));
  }
  return diam;
}

DegeneracyResult degeneracy_order(const Graph& g) {
  const VertexId n = g.num_vertices();
  DegeneracyResult result;
  result.order.reserve(n);
  std::vector<std::uint32_t> deg(n);
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  // Bucket queue over current degrees.
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::uint32_t cursor = 0;
  for (VertexId removed_count = 0; removed_count < n; ++removed_count) {
    while (cursor <= max_deg && buckets[cursor].empty()) ++cursor;
    // The bucket queue is lazy: entries may be stale, skip them.
    while (true) {
      if (buckets[cursor].empty()) {
        ++cursor;
        continue;
      }
      const VertexId v = buckets[cursor].back();
      buckets[cursor].pop_back();
      if (removed[v] || deg[v] != cursor) continue;
      removed[v] = true;
      result.order.push_back(v);
      result.degeneracy = std::max(result.degeneracy, cursor);
      for (VertexId u : g.neighbors(v)) {
        if (!removed[u]) {
          --deg[u];
          buckets[deg[u]].push_back(u);
          if (deg[u] < cursor) cursor = deg[u];
        }
      }
      break;
    }
  }
  return result;
}

ArboricityBounds arboricity_bounds(const Graph& g) {
  ArboricityBounds bounds;
  const auto n = g.num_vertices();
  const auto m = g.num_edges();
  if (n >= 2 && m > 0) {
    bounds.lower = static_cast<std::uint32_t>((m + n - 2) / (n - 1));
  }
  bounds.upper = degeneracy_order(g).degeneracy;
  bounds.lower = std::min(bounds.lower, bounds.upper);
  return bounds;
}

std::uint64_t triangle_count(const Graph& g) {
  std::uint64_t triangles = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    auto nu = g.neighbors(u);
    auto nv = g.neighbors(v);
    // Count common neighbors w > v to count each triangle once.
    auto iu = std::lower_bound(nu.begin(), nu.end(), v + 1);
    auto iv = std::lower_bound(nv.begin(), nv.end(), v + 1);
    while (iu != nu.end() && iv != nv.end()) {
      if (*iu < *iv) {
        ++iu;
      } else if (*iv < *iu) {
        ++iv;
      } else {
        ++triangles;
        ++iu;
        ++iv;
      }
    }
  });
  return triangles;
}

double average_degree(const Graph& g) {
  if (g.num_vertices() == 0) return 0.0;
  return static_cast<double>(g.degree_sum()) /
         static_cast<double>(g.num_vertices());
}

}  // namespace slumber
