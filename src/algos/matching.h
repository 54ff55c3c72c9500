// Maximal matching via MIS on the line graph.
//
// The classical reduction: a matching of G is an independent set of the
// line graph L(G), and it is maximal iff the independent set is maximal.
// Barenboim-Tzur study maximal matching alongside MIS under
// node-averaged complexity; this module lets every MIS engine in the
// library double as a maximal-matching engine (see
// examples/maximal_matching.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/network.h"

namespace slumber::core {
struct RecursionTrace;
}  // namespace slumber::core

namespace slumber::algos {

/// Which MIS engine drives the reduction.
enum class MisEngine {
  kSleeping,      // Algorithm 1
  kFastSleeping,  // Algorithm 2
  kLubyA,
  kLubyB,
  kGreedy,
  kGhaffari,
};

/// Protocol factory for an engine; used by analysis::run_mis, the
/// matching and ruling-set reductions and the engine-comparison benches.
/// `trace`, when non-null, collects the recursion trace of the two
/// sleeping engines (borrowed); the others ignore it.
sim::Protocol mis_protocol(MisEngine engine,
                           core::RecursionTrace* trace = nullptr);

struct MatchingResult {
  /// Edge ids of g forming a maximal matching.
  std::vector<EdgeId> matched_edges;
  /// Metrics of the MIS run on the line graph.
  sim::Metrics line_graph_metrics;
};

/// Runs `engine` on L(g) and translates the MIS back to edges of g.
MatchingResult maximal_matching_via_mis(const Graph& g, std::uint64_t seed,
                                        MisEngine engine);

/// True iff `matched_edges` is a valid maximal matching of g (false on
/// an id that is not an edge of g).
bool is_maximal_matching(const Graph& g,
                         const std::vector<EdgeId>& matched_edges);

}  // namespace slumber::algos
