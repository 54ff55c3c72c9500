// Tests for the MIS / coloring verifiers themselves.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/verify.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace slumber::analysis {
namespace {

TEST(VerifyTest, AcceptsValidMis) {
  const Graph g = gen::path(4);
  const std::vector<std::int64_t> outputs = {1, 0, 1, 0};
  const MisCheck check = check_mis(g, outputs);
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(check.describe(), "valid MIS");
}

TEST(VerifyTest, RejectsAdjacentPair) {
  const Graph g = gen::path(3);
  const std::vector<std::int64_t> outputs = {1, 1, 0};
  const MisCheck check = check_mis(g, outputs);
  EXPECT_FALSE(check.is_independent);
  EXPECT_NE(check.describe().find("not-independent"), std::string::npos);
}

TEST(VerifyTest, RejectsNonMaximal) {
  const Graph g = gen::path(5);
  const std::vector<std::int64_t> outputs = {1, 0, 0, 0, 1};
  const MisCheck check = check_mis(g, outputs);
  EXPECT_TRUE(check.is_independent);
  EXPECT_FALSE(check.is_maximal);  // vertex 2 undominated
}

TEST(VerifyTest, RejectsUndecided) {
  const Graph g = gen::path(2);
  const std::vector<std::int64_t> outputs = {1, -1};
  const MisCheck check = check_mis(g, outputs);
  EXPECT_FALSE(check.all_decided);
  EXPECT_FALSE(check.ok());
}

TEST(VerifyTest, EmptyGraphEmptySetIsMis) {
  const Graph g = gen::empty(0);
  EXPECT_TRUE(check_mis(g, {}).ok());
}

TEST(VerifyTest, ColoringChecks) {
  const Graph g = gen::path(3);
  EXPECT_TRUE(check_coloring(g, {0, 1, 0}));
  EXPECT_FALSE(check_coloring(g, {0, 0, 1}));   // adjacent same color
  EXPECT_FALSE(check_coloring(g, {0, 5, 0}));   // out of palette (deg+1)
  EXPECT_FALSE(check_coloring(g, {0, -1, 0}));  // negative
}

TEST(VerifyTest, MisVerticesExtractsSet) {
  const std::vector<std::int64_t> outputs = {1, 0, 0, 1, 1};
  const auto vertices = mis_vertices(outputs);
  EXPECT_EQ(vertices, (std::vector<VertexId>{0, 3, 4}));
}

/// The two-pass byte-vector verifier that check_mis replaced, with the
/// mask rule of the alive-subgraph check it also replaced: dead nodes
/// are skipped, and an alive undecided node counts as out of the MIS.
/// An empty mask means every node is alive.
MisCheck reference_check(const Graph& g,
                         const std::vector<std::int64_t>& outputs,
                         const std::vector<std::uint8_t>& alive) {
  const VertexId n = g.num_vertices();
  const auto up = [&](VertexId v) { return alive.empty() || alive[v] != 0; };
  MisCheck check;
  check.all_decided = true;
  check.is_independent = true;
  check.is_maximal = true;
  std::vector<std::uint8_t> in_mis(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!up(v)) continue;
    if (outputs[v] != 0 && outputs[v] != 1) {
      check.all_decided = false;
    } else {
      in_mis[v] = static_cast<std::uint8_t>(outputs[v]);
    }
  }
  for (VertexId v = 0; v < n && check.is_independent; ++v) {
    if (!in_mis[v]) continue;
    for (VertexId u : g.neighbors(v)) {
      if (u > v && in_mis[u]) {
        check.is_independent = false;
        break;
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!up(v) || in_mis[v]) continue;
    bool dominated = false;
    for (VertexId u : g.neighbors(v)) {
      if (in_mis[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      check.is_maximal = false;
      break;
    }
  }
  return check;
}

struct Case {
  std::string name;
  std::vector<std::int64_t> outputs;
  std::vector<std::uint8_t> alive;
};

/// Sequential greedy MIS of the alive subgraph in vertex order. Dead
/// nodes get junk outputs (1, -1 or 0 by v mod 3) that must not count.
std::vector<std::int64_t> greedy_outputs(
    const Graph& g, const std::vector<std::uint8_t>& alive) {
  const VertexId n = g.num_vertices();
  std::vector<std::int64_t> out(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!alive.empty() && alive[v] == 0) {
      out[v] = v % 3 == 0 ? 1 : v % 3 == 1 ? -1 : 0;
      continue;
    }
    bool taken = false;
    for (const VertexId u : g.neighbors(v)) {
      taken |= u < v && out[u] == 1 && (alive.empty() || alive[u] != 0);
    }
    out[v] = taken ? 0 : 1;
  }
  return out;
}

/// The greedy MIS under `alive`, then one corruption at a time at each
/// of the word and block edges (and the last vertex).
std::vector<Case> corrupted_cases(const Graph& g,
                                  const std::vector<std::uint8_t>& alive) {
  const VertexId n = g.num_vertices();
  const std::vector<std::int64_t> base = greedy_outputs(g, alive);
  const std::vector<std::uint8_t> all_alive(n, 1);
  const std::vector<std::uint8_t>& mask = alive.empty() ? all_alive : alive;
  const auto up = [&](VertexId v) { return mask[v] != 0; };
  const auto mis = [&](VertexId v) { return up(v) && base[v] == 1; };
  std::vector<Case> cases = {{"greedy", base, alive}};
  std::vector<VertexId> sites = {63, 64, 4095, 4096, n - 1};
  std::erase_if(sites, [n](VertexId p) { return p >= n; });
  for (const VertexId p : sites) {
    const auto nbrs = g.neighbors(p);
    const std::string at = " at " + std::to_string(p);
    {
      Case c{"adjacent MIS pair" + at, base, mask};
      c.outputs[p] = 1;
      c.alive[p] = 1;
      if (!nbrs.empty()) {
        c.outputs[nbrs[0]] = 1;
        c.alive[nbrs[0]] = 1;
      }
      cases.push_back(std::move(c));
    }
    {
      Case c{"undominated node" + at, base, mask};
      c.outputs[p] = 0;
      c.alive[p] = 1;
      for (const VertexId u : nbrs) c.outputs[u] = 0;
      cases.push_back(std::move(c));
    }
    {
      Case c{"alive undecided node" + at, base, mask};
      c.outputs[p] = -1;
      c.alive[p] = 1;
      cases.push_back(std::move(c));
    }
    {
      Case c{"dead undecided node" + at, base, mask};
      c.outputs[p] = 2;
      c.alive[p] = 0;
      cases.push_back(std::move(c));
    }
    VertexId partner = kInvalidVertex;  // p's first alive MIS neighbor
    for (const VertexId u : nbrs) {
      if (mis(u)) {
        partner = u;
        break;
      }
    }
    // An alive MIS node at or next to p whose removal can leave its
    // neighbors undominated.
    const VertexId dominator = mis(p) ? p : partner;
    if (dominator != kInvalidVertex) {
      Case c{"dead only dominator" + at, base, mask};
      c.alive[dominator] = 0;
      cases.push_back(std::move(c));
    }
    // A dead 1 next to an alive MIS node: p itself when it is a
    // dominated non-member, else p's first neighbor.
    const bool p_dies = !mis(p) && partner != kInvalidVertex;
    if (p_dies || (mis(p) && !nbrs.empty())) {
      const VertexId dead = p_dies ? p : nbrs[0];
      Case c{"dead 1 next to an MIS node" + at, base, mask};
      c.outputs[dead] = 1;
      c.alive[dead] = 0;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

void expect_matches_reference(const Graph& g, const Case& c,
                              util::ThreadPool* pool, const char* lanes) {
  const MisCheck want = reference_check(g, c.outputs, c.alive);
  const MisCheck got = check_mis(g, c.outputs, pool, c.alive);
  EXPECT_EQ(got.all_decided, want.all_decided) << c.name << ", " << lanes;
  EXPECT_EQ(got.is_independent, want.is_independent)
      << c.name << ", " << lanes;
  EXPECT_EQ(got.is_maximal, want.is_maximal) << c.name << ", " << lanes;
}

// check_mis against the reference, field by field, across sizes that
// straddle the 64-bit words and 4096-vertex blocks, four masks, a
// corruption of each kind at the word and block edges, and lane counts
// that do and do not divide the block count.
TEST(VerifyParallel, MatchesTwoPassReference) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const unsigned lanes : {1u, 2u, 3u, 8u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(lanes));
  }
  const auto check_all_lanes = [&](const Graph& g, const Case& c) {
    expect_matches_reference(g, c, nullptr, "no pool");
    for (const auto& pool : pools) {
      const std::string lanes = std::to_string(pool->num_threads()) + " lanes";
      expect_matches_reference(g, c, pool.get(), lanes.c_str());
    }
  };
  // Each verdict field must come out false somewhere, or the matrix
  // proves nothing about it.
  std::uint64_t undecided = 0;
  std::uint64_t dependent = 0;
  std::uint64_t undominated = 0;
  std::uint64_t valid = 0;
  for (const VertexId n :
       {0u, 1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 8193u, 20000u}) {
    const Graph graphs[] = {gen::gnp_avg_degree_sharded_csr(n, 8.0, n + 1),
                            gen::star(n), gen::path(n)};
    for (const Graph& g : graphs) {
      SCOPED_TRACE(g.summary());
      Rng rng(n);
      std::vector<std::uint8_t> some_dead(n, 1);
      for (VertexId v = 0; v < n; ++v) {
        if (rng.below(10) == 0) some_dead[v] = 0;
      }
      const std::vector<std::uint8_t> masks[] = {
          {}, std::vector<std::uint8_t>(n, 1), some_dead,
          std::vector<std::uint8_t>(n, 0)};
      for (const auto& alive : masks) {
        for (const Case& c : corrupted_cases(g, alive)) {
          check_all_lanes(g, c);
          const MisCheck want = reference_check(g, c.outputs, c.alive);
          undecided += want.all_decided ? 0 : 1;
          dependent += want.is_independent ? 0 : 1;
          undominated += want.is_maximal ? 0 : 1;
          valid += want.ok() ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(undecided, 0u);
  EXPECT_GT(dependent, 0u);
  EXPECT_GT(undominated, 0u);
  EXPECT_GT(valid, 0u);

  // The 0/1 indicator rows on a 6-cycle.
  const Graph cycle = gen::cycle(6);
  const Case alternating{"cycle alternating", {1, 0, 1, 0, 1, 0}, {}};
  const Case pair{"cycle adjacent pair", {1, 1, 0, 0, 0, 0}, {}};
  check_all_lanes(cycle, alternating);
  check_all_lanes(cycle, pair);
  EXPECT_TRUE(check_mis(cycle, alternating.outputs).ok());
  EXPECT_FALSE(check_mis(cycle, pair.outputs).is_independent);
}

TEST(VerifyParallel, SizeMismatchThrows) {
  const Graph g = gen::path(5);
  util::ThreadPool pool(2);
  const std::vector<std::int64_t> ok = {1, 0, 1, 0, 1};
  EXPECT_THROW(check_mis(g, {1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(check_mis(g, {1, 0, 1, 0, 1, 0}, &pool),
               std::invalid_argument);
  const std::vector<std::uint8_t> short_mask = {1, 1, 1, 1};
  EXPECT_THROW(check_mis(g, ok, nullptr, short_mask), std::invalid_argument);
  EXPECT_THROW(check_mis(g, ok, &pool, short_mask), std::invalid_argument);
  EXPECT_TRUE(check_mis(g, ok, &pool, std::vector<std::uint8_t>(5, 1)).ok());
}

}  // namespace
}  // namespace slumber::analysis
