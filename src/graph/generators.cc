#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace slumber::gen {

Graph empty(VertexId n) { return Graph(n, {}); }

Graph complete(VertexId n) {
  const std::uint64_t m =
      n < 2 ? 0 : checked_edge_count(std::uint64_t{n} * (n - 1) / 2,
                                     "complete");
  std::vector<Edge> edges;
  edges.reserve(m);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph(n, std::move(edges));
}

Graph cycle(VertexId n) {
  if (n < 3) throw std::invalid_argument("cycle: need n >= 3");
  std::vector<Edge> edges;
  edges.reserve(n);
  for (VertexId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return Graph(n, std::move(edges));
}

Graph path(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph(n, std::move(edges));
}

Graph star(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v});
  return Graph(n, std::move(edges));
}

Graph complete_bipartite(VertexId a, VertexId b) {
  const VertexId n =
      checked_vertex_count(std::uint64_t{a} + b, "complete_bipartite");
  std::vector<Edge> edges;
  edges.reserve(
      checked_edge_count(std::uint64_t{a} * b, "complete_bipartite"));
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) edges.push_back({u, a + v});
  }
  return Graph(n, std::move(edges));
}

Graph grid(VertexId rows, VertexId cols) {
  const VertexId n = checked_vertex_count(std::uint64_t{rows} * cols, "grid");
  std::vector<Edge> edges;
  if (rows > 0 && cols > 0) {
    edges.reserve(std::uint64_t{rows} * (cols - 1) +
                  std::uint64_t{rows - 1} * cols);
  }
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph(n, std::move(edges));
}

Graph torus(VertexId rows, VertexId cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("torus: need >= 3x3");
  const VertexId n =
      checked_vertex_count(std::uint64_t{rows} * cols, "torus");
  std::vector<Edge> edges;
  edges.reserve(2 * std::uint64_t{rows} * cols);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      edges.push_back({id(r, c), id(r, (c + 1) % cols)});
      edges.push_back({id(r, c), id((r + 1) % rows, c)});
    }
  }
  return Graph(n, std::move(edges));
}

Graph hypercube(std::uint32_t d) {
  if (d >= 32) throw std::overflow_error("hypercube: 2^d overflows VertexId");
  const VertexId n = VertexId{1} << d;
  std::vector<Edge> edges;
  edges.reserve(std::uint64_t{n} * d / 2);
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < d; ++bit) {
      const VertexId u = v ^ (VertexId{1} << bit);
      if (u > v) edges.push_back({v, u});
    }
  }
  return Graph(n, std::move(edges));
}

Graph binary_tree(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId v = 1; v < n; ++v) edges.push_back({v, (v - 1) / 2});
  return Graph(n, std::move(edges));
}

Graph lollipop(VertexId n, VertexId clique_size) {
  if (clique_size > n) throw std::invalid_argument("lollipop: clique > n");
  std::vector<Edge> edges;
  edges.reserve(checked_edge_count(
      (clique_size < 2 ? 0
                       : std::uint64_t{clique_size} * (clique_size - 1) / 2) +
          (n - clique_size),
      "lollipop"));
  for (VertexId u = 0; u < clique_size; ++u) {
    for (VertexId v = u + 1; v < clique_size; ++v) edges.push_back({u, v});
  }
  for (VertexId v = clique_size; v < n; ++v) edges.push_back({v - 1, v});
  return Graph(n, std::move(edges));
}

Graph caterpillar(VertexId spine, VertexId legs) {
  const VertexId n = checked_vertex_count(
      std::uint64_t{spine} * (std::uint64_t{legs} + 1), "caterpillar");
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId s = 0; s + 1 < spine; ++s) edges.push_back({s, s + 1});
  for (VertexId s = 0; s < spine; ++s) {
    for (VertexId leg = 0; leg < legs; ++leg) {
      edges.push_back({s, spine + s * legs + leg});
    }
  }
  return Graph(n, std::move(edges));
}

Graph clique_chain(VertexId n, VertexId clique_size) {
  if (clique_size == 0) throw std::invalid_argument("clique_chain: k == 0");
  std::vector<Edge> edges;
  {
    const std::uint64_t k = clique_size;
    const std::uint64_t full = n / clique_size;
    const std::uint64_t rest = n % clique_size;
    edges.reserve(checked_edge_count(
        full * (k * (k - 1) / 2) + rest * (rest - (rest > 0 ? 1 : 0)) / 2,
        "clique_chain"));
  }
  for (VertexId base = 0; base < n; base += clique_size) {
    const VertexId end = std::min<VertexId>(base + clique_size, n);
    for (VertexId u = base; u < end; ++u) {
      for (VertexId v = u + 1; v < end; ++v) edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

double gnp_probability_for_avg_degree(VertexId n, double avg_deg) {
  return std::min(1.0, avg_deg / static_cast<double>(n - 1));
}

Graph random_tree(VertexId n, Rng& rng) {
  if (n == 0) return empty(0);
  if (n == 1) return empty(1);
  if (n == 2) return path(2);
  // Pruefer decoding.
  std::vector<VertexId> pruefer(n - 2);
  for (auto& x : pruefer) x = static_cast<VertexId>(rng.below(n));
  std::vector<std::uint32_t> deg(n, 1);
  for (VertexId x : pruefer) ++deg[x];
  std::set<VertexId> leaves;
  for (VertexId v = 0; v < n; ++v) {
    if (deg[v] == 1) leaves.insert(v);
  }
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId x : pruefer) {
    const VertexId leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    edges.push_back({leaf, x});
    if (--deg[x] == 1) leaves.insert(x);
  }
  const VertexId u = *leaves.begin();
  const VertexId v = *std::next(leaves.begin());
  edges.push_back({u, v});
  return Graph(n, std::move(edges));
}

Graph random_regular(VertexId n, std::uint32_t d, Rng& rng) {
  if (static_cast<std::uint64_t>(n) * d % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  if (d >= n) throw std::invalid_argument("random_regular: need d < n");
  // Configuration model with rejection: retry until the multigraph is simple.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<VertexId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * d);
    for (VertexId v = 0; v < n; ++v) {
      for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
    }
    rng.shuffle(stubs);
    bool simple = true;
    std::set<Edge> edge_set;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      VertexId u = stubs[i];
      VertexId v = stubs[i + 1];
      if (u == v) {
        simple = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!edge_set.insert({u, v}).second) {
        simple = false;
        break;
      }
    }
    if (!simple) continue;
    return Graph(n, std::vector<Edge>(edge_set.begin(), edge_set.end()));
  }
  throw std::runtime_error("random_regular: too many rejections");
}

Graph barabasi_albert(VertexId n, std::uint32_t m, Rng& rng) {
  if (n == 0) return empty(0);
  const VertexId seed_size = std::max<VertexId>(m + 1, 2);
  if (n <= seed_size) return complete(n);
  std::vector<Edge> edges;
  edges.reserve(std::uint64_t{seed_size} * (seed_size - 1) / 2 +
                std::uint64_t{n - seed_size} * m);
  // Repeated-endpoint list: attachment proportional to degree.
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(std::uint64_t{seed_size} * (seed_size - 1) +
                        2 * std::uint64_t{n - seed_size} * m);
  for (VertexId u = 0; u < seed_size; ++u) {
    for (VertexId v = u + 1; v < seed_size; ++v) {
      edges.push_back({u, v});
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  for (VertexId v = seed_size; v < n; ++v) {
    std::set<VertexId> targets;
    while (targets.size() < m) {
      targets.insert(endpoint_pool[rng.below(endpoint_pool.size())]);
    }
    for (VertexId t : targets) {
      edges.push_back({v, t});
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(t);
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_geometric(VertexId n, double radius, Rng& rng,
                       std::vector<std::pair<double, double>>* coords_out) {
  std::vector<std::pair<double, double>> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform()};
  // Cell grid for near-linear neighbor search.
  const double cell = std::max(radius, 1e-9);
  const auto cells_per_side =
      static_cast<std::int64_t>(std::floor(1.0 / cell)) + 1;
  auto cell_of = [&](double x) {
    return std::min<std::int64_t>(static_cast<std::int64_t>(x / cell),
                                  cells_per_side - 1);
  };
  std::vector<std::vector<VertexId>> buckets(
      static_cast<std::size_t>(cells_per_side * cells_per_side));
  for (VertexId v = 0; v < n; ++v) {
    buckets[static_cast<std::size_t>(cell_of(pts[v].first) * cells_per_side +
                                     cell_of(pts[v].second))]
        .push_back(v);
  }
  const double r2 = radius * radius;
  std::vector<Edge> edges;
  // Expected |E| ~ C(n,2) * pi r^2 (slight overestimate near the border).
  edges.reserve(static_cast<std::size_t>(
      0.5 * static_cast<double>(n) * static_cast<double>(n) *
          std::min(1.0, 3.14159265358979323846 * r2) +
      16.0));
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t cx = cell_of(pts[v].first);
    const std::int64_t cy = cell_of(pts[v].second);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const std::int64_t bx = cx + dx;
        const std::int64_t by = cy + dy;
        if (bx < 0 || by < 0 || bx >= cells_per_side || by >= cells_per_side) {
          continue;
        }
        for (VertexId u :
             buckets[static_cast<std::size_t>(bx * cells_per_side + by)]) {
          if (u <= v) continue;
          const double ddx = pts[u].first - pts[v].first;
          const double ddy = pts[u].second - pts[v].second;
          if (ddx * ddx + ddy * ddy <= r2) edges.push_back({v, u});
        }
      }
    }
  }
  if (coords_out != nullptr) *coords_out = std::move(pts);
  return Graph(n, std::move(edges));
}

std::vector<Family> all_families() {
  return {Family::kEmpty,        Family::kComplete,      Family::kCycle,
          Family::kPath,         Family::kStar,          Family::kGrid,
          Family::kTorus,        Family::kHypercube,     Family::kBinaryTree,
          Family::kLollipop,     Family::kCaterpillar,   Family::kCliqueChain,
          Family::kGnpSparse,    Family::kGnpDense,      Family::kRandomTree,
          Family::kRandomRegular, Family::kBarabasiAlbert, Family::kUnitDisk};
}

std::vector<Family> core_families() {
  return {Family::kCycle,         Family::kStar,       Family::kGrid,
          Family::kLollipop,      Family::kGnpSparse,  Family::kGnpDense,
          Family::kRandomTree,    Family::kRandomRegular,
          Family::kBarabasiAlbert, Family::kUnitDisk};
}

std::string family_name(Family family) {
  switch (family) {
    case Family::kEmpty: return "empty";
    case Family::kComplete: return "complete";
    case Family::kCycle: return "cycle";
    case Family::kPath: return "path";
    case Family::kStar: return "star";
    case Family::kGrid: return "grid";
    case Family::kTorus: return "torus";
    case Family::kHypercube: return "hypercube";
    case Family::kBinaryTree: return "binary_tree";
    case Family::kLollipop: return "lollipop";
    case Family::kCaterpillar: return "caterpillar";
    case Family::kCliqueChain: return "clique_chain";
    case Family::kGnpSparse: return "gnp_sparse";
    case Family::kGnpDense: return "gnp_dense";
    case Family::kRandomTree: return "random_tree";
    case Family::kRandomRegular: return "random_regular";
    case Family::kBarabasiAlbert: return "barabasi_albert";
    case Family::kUnitDisk: return "unit_disk";
  }
  return "unknown";
}

Graph make(Family family, VertexId n, std::uint64_t seed,
           util::ThreadPool* pool) {
  Rng rng(seed);
  const auto side = static_cast<VertexId>(std::max(
      2.0, std::round(std::sqrt(static_cast<double>(n)))));
  switch (family) {
    case Family::kEmpty: return empty(n);
    case Family::kComplete: return complete(n);
    case Family::kCycle: return cycle(std::max<VertexId>(n, 3));
    case Family::kPath: return path(n);
    case Family::kStar: return star(n);
    case Family::kGrid: return grid(side, side);
    case Family::kTorus: return torus(std::max<VertexId>(side, 3),
                                      std::max<VertexId>(side, 3));
    case Family::kHypercube: {
      std::uint32_t d = 0;
      while ((VertexId{1} << (d + 1)) <= n) ++d;
      return hypercube(d);
    }
    case Family::kBinaryTree: return binary_tree(n);
    case Family::kLollipop:
      return lollipop(n, std::max<VertexId>(2, n / 4));
    case Family::kCaterpillar:
      return caterpillar(std::max<VertexId>(1, n / 4), 3);
    case Family::kCliqueChain: return clique_chain(n, 8);
    case Family::kGnpSparse:
      return gnp_avg_degree_sharded_csr(n, 8.0, seed, {.pool = pool});
    case Family::kGnpDense:
      return gnp_sharded_csr(n, 0.5, seed, {.pool = pool});
    case Family::kRandomTree: return random_tree(n, rng);
    case Family::kRandomRegular:
      return random_regular(n % 2 == 0 ? n : n + 1, 4, rng);
    case Family::kBarabasiAlbert: return barabasi_albert(n, 3, rng);
    case Family::kUnitDisk: {
      const double radius =
          std::sqrt(12.0 / (3.14159265358979323846 * std::max<VertexId>(n, 1)));
      return random_geometric(n, radius, rng);
    }
  }
  throw std::invalid_argument("make: unknown family");
}

}  // namespace slumber::gen
