// Quickstart: build a graph, run the paper's SleepingMIS (Algorithm 1),
// verify the output, and inspect the sleeping-model metrics.
//
//   $ ./quickstart
//
// covers the whole public API surface a first-time user needs:
//   gen::*          -- graph construction
//   core::sleeping_mis / fast_sleeping_mis -- the paper's algorithms
//   sim::run_protocol -- the sleeping-model CONGEST simulator
//   analysis::check_mis -- output verification
#include <iostream>

#include "analysis/verify.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "sim/network.h"

int main() {
  using namespace slumber;

  // 1. A workload: G(64, avg degree 6), deterministic in the seed.
  const std::uint64_t seed = 2020;  // PODC 2020
  const Graph g = gen::gnp_avg_degree_sharded_csr(64, 6.0, seed);
  std::cout << "graph: " << g.summary() << "\n";

  // 2. Run Algorithm 1 under the CONGEST(log n) budget.
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  auto [metrics, outputs] =
      sim::run_protocol(g, seed, core::sleeping_mis(), options);

  // 3. Verify: outputs[v] == 1 iff v is in the MIS.
  const auto check = analysis::check_mis(g, outputs);
  std::cout << "verifier: " << check.describe() << "\n";
  const auto mis = analysis::mis_vertices(outputs);
  std::cout << "MIS size: " << mis.size() << " of " << g.num_vertices()
            << " nodes\n";

  // 4. The paper's four complexity measures for this run.
  std::cout << "node-averaged awake complexity: " << metrics.node_avg_awake()
            << "  (Theorem 1: O(1))\n";
  std::cout << "worst-case awake complexity:    " << metrics.worst_awake()
            << "  (Theorem 1: O(log n); log2 n = 6)\n";
  std::cout << "worst-case round complexity:    " << metrics.worst_finish()
            << "  (= T(K) = "
            << core::schedule_duration(core::recursion_depth(64))
            << ", Lemma 10)\n";
  std::cout << "total messages delivered:       " << metrics.total_messages
            << ", dropped (sent to sleepers): " << metrics.dropped_messages
            << "\n";

  // 5. Export for visualization: `dot -Tpng mis.dot -o mis.png`.
  std::cout << "\nGraphviz snippet (MIS nodes filled):\n";
  io::write_dot(std::cout, g, mis);
  return check.ok() ? 0 : 1;
}
