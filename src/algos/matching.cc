#include "algos/matching.h"

#include "algos/ghaffari.h"
#include "algos/greedy.h"
#include "algos/luby.h"
#include "core/fast_sleeping_mis.h"
#include "core/sleeping_mis.h"

namespace slumber::algos {

sim::Protocol mis_protocol(MisEngine engine, core::RecursionTrace* trace) {
  switch (engine) {
    case MisEngine::kSleeping: return core::sleeping_mis({}, trace);
    case MisEngine::kFastSleeping: return core::fast_sleeping_mis({}, trace);
    case MisEngine::kLubyA: return luby_a();
    case MisEngine::kLubyB: return luby_b();
    case MisEngine::kGreedy: return distributed_greedy_mis();
    case MisEngine::kGhaffari: return ghaffari_mis();
  }
  throw std::invalid_argument("mis_protocol: unknown engine");
}

MatchingResult maximal_matching_via_mis(const Graph& g, std::uint64_t seed,
                                        MisEngine engine) {
  const Graph line = g.line_graph();
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(line.num_vertices());
  auto [metrics, outputs] =
      sim::run_protocol(line, seed, mis_protocol(engine), options);
  MatchingResult result;
  result.line_graph_metrics = std::move(metrics);
  for (EdgeId e = 0; e < outputs.size(); ++e) {
    if (outputs[e] == 1) result.matched_edges.push_back(e);
  }
  return result;
}

bool is_maximal_matching(const Graph& g,
                         const std::vector<EdgeId>& matched_edges) {
  std::vector<std::uint8_t> covered(g.num_vertices(), 0);
  const std::vector<Edge> edges = g.edges();
  for (EdgeId e : matched_edges) {
    if (e >= edges.size()) return false;  // not an edge of g
    const Edge edge = edges[e];
    if (covered[edge.u] || covered[edge.v]) return false;  // not a matching
    covered[edge.u] = 1;
    covered[edge.v] = 1;
  }
  for (const Edge& edge : edges) {
    if (!covered[edge.u] && !covered[edge.v]) return false;  // not maximal
  }
  return true;
}

}  // namespace slumber::algos
