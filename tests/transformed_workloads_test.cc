// Structured-adversarial workload sweep: every MIS engine must stay
// valid on the derived graphs the transforms module produces --
// triangle-free but high-chromatic (Mycielski), bipartite blowups
// (subdivision), densified powers, complements, and disjoint unions
// with isolated parts. These shapes exercise code paths the plain
// family sweep does not: shadow/apex asymmetry, degree-2 chains,
// dense-after-sparse adjacency, and multi-component isolation.
#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "graph/transforms.h"

namespace slumber::analysis {
namespace {

enum class Shape {
  kMycielskiCycle,
  kMycielskiGnp,
  kSubdivisionComplete,
  kSubdivisionGnp,
  kCycleSquared,
  kGnpSquared,
  kComplementSparse,
  kUnionWithIsolates,
};

Graph make_shape(Shape shape, std::uint64_t seed) {
  switch (shape) {
    case Shape::kMycielskiCycle: return mycielski(gen::cycle(21));
    case Shape::kMycielskiGnp:
      return mycielski(gen::gnp_avg_degree_sharded_csr(40, 4.0, seed));
    case Shape::kSubdivisionComplete: return subdivision(gen::complete(10));
    case Shape::kSubdivisionGnp:
      return subdivision(gen::gnp_avg_degree_sharded_csr(40, 5.0, seed));
    case Shape::kCycleSquared: return power(gen::cycle(30), 2);
    case Shape::kGnpSquared:
      return power(gen::gnp_avg_degree_sharded_csr(50, 3.0, seed), 2);
    case Shape::kComplementSparse:
      return complement(gen::gnp_avg_degree_sharded_csr(40, 4.0, seed));
    case Shape::kUnionWithIsolates: {
      std::array<Graph, 3> parts = {gen::complete(8), gen::empty(6),
                                    gen::cycle(11)};
      return disjoint_union(parts);
    }
  }
  throw std::logic_error("unknown shape");
}

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kMycielskiCycle: return "MycielskiCycle";
    case Shape::kMycielskiGnp: return "MycielskiGnp";
    case Shape::kSubdivisionComplete: return "SubdivisionComplete";
    case Shape::kSubdivisionGnp: return "SubdivisionGnp";
    case Shape::kCycleSquared: return "CycleSquared";
    case Shape::kGnpSquared: return "GnpSquared";
    case Shape::kComplementSparse: return "ComplementSparse";
    case Shape::kUnionWithIsolates: return "UnionWithIsolates";
  }
  return "?";
}

using Param = std::tuple<MisEngine, Shape>;

class TransformedWorkloads : public ::testing::TestWithParam<Param> {};

TEST_P(TransformedWorkloads, EveryEngineValid) {
  const auto [engine, shape] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = make_shape(shape, seed);
    const MisRun run = run_mis(engine, g, 1009 * seed + 7);
    ASSERT_TRUE(run.valid)
        << engine_name(engine) << " on " << shape_name(shape) << " seed "
        << seed << ": " << check_mis(g, run.outputs).describe();
    EXPECT_EQ(run.metrics.congest_violations, 0u);
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [engine, shape] = info.param;
  std::string name = engine_name(engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + shape_name(shape);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransformedWorkloads,
    ::testing::Combine(
        ::testing::Values(MisEngine::kSleeping, MisEngine::kFastSleeping,
                          MisEngine::kLubyA, MisEngine::kLubyB,
                          MisEngine::kGreedy, MisEngine::kGhaffari),
        ::testing::Values(Shape::kMycielskiCycle, Shape::kMycielskiGnp,
                          Shape::kSubdivisionComplete, Shape::kSubdivisionGnp,
                          Shape::kCycleSquared, Shape::kGnpSquared,
                          Shape::kComplementSparse,
                          Shape::kUnionWithIsolates)),
    param_name);

// On the union-with-isolates shape, the isolated vertices MUST be in
// every MIS; check that explicitly (isolation handling is the paper's
// "first isolated node detection", lines 13-16 of Algorithm 1).
TEST(TransformedWorkloads, IsolatedVerticesAlwaysJoin) {
  std::array<Graph, 3> parts = {gen::complete(8), gen::empty(6),
                                gen::cycle(11)};
  const Graph g = disjoint_union(parts);
  for (const MisEngine engine : all_engines()) {
    const MisRun run = run_mis(engine, g, 55);
    ASSERT_TRUE(run.valid);
    for (VertexId v = 8; v < 14; ++v) {
      EXPECT_EQ(run.outputs[v], 1)
          << engine_name(engine) << " left isolated vertex " << v << " out";
    }
  }
}

}  // namespace
}  // namespace slumber::analysis
