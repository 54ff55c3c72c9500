// E24 -- Leader election under the decision-instant (Feuilloley) notion
// of node-averaged complexity (paper Section 1.5). Flood-max makes a
// loser decide the moment ANY better priority reaches it -- not just
// the eventual leader's -- so a node whose k-th-highest rank waits only
// for its nearest higher-ranked node, at expected distance ~ n/k on a
// cycle. Averaging the harmonic series gives Theta(log n) node-averaged
// decided complexity on cycles, empirically reproducing Feuilloley's
// O(log n) average bound with the classic baseline, while termination
// stays at the Theta(n) diameter bound (his worst-case lower bound).
#include <iostream>

#include "algos/leader_election.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "sim/network.h"

namespace {
using namespace slumber;

struct Row {
  double avg_decided = 0.0;
  double worst_finish = 0.0;
};

Row measure(const Graph& g, std::uint64_t base_seed, std::uint32_t seeds) {
  Row row;
  algos::LeaderElectionOptions options;
  options.diameter_bound = static_cast<std::uint64_t>(
      std::max<std::int64_t>(diameter(g), 1));
  for (std::uint32_t s = 0; s < seeds; ++s) {
    auto [metrics, outputs] = sim::run_protocol(
        g, base_seed + s, algos::flood_max_leader_election(options));
    std::uint64_t leaders = 0;
    for (std::int64_t out : outputs) leaders += out == 1 ? 1 : 0;
    if (leaders != 1) {
      std::cerr << "INVALID leader election (" << leaders << " leaders)\n";
      std::exit(1);
    }
    row.avg_decided += metrics.node_avg_decided();
    row.worst_finish += static_cast<double>(metrics.worst_finish());
  }
  row.avg_decided /= seeds;
  row.worst_finish /= seeds;
  return row;
}

}  // namespace

int main() {
  std::cout << analysis::banner(
      "E24 / flood-max leader election, 5 seeds: node-averaged decided "
      "round vs worst-case (termination) round");

  const std::uint32_t seeds = 5;
  analysis::Table table(
      {"family", "n", "avg decided", "worst rounds", "ratio"});

  for (const VertexId n : {64u, 256u, 1024u}) {
    struct Case {
      std::string name;
      Graph g;
    };
    std::vector<Case> cases;
    cases.push_back({"star", gen::star(n)});
    cases.push_back({"cycle", gen::cycle(n)});
    cases.push_back(
        {"gnp avg-deg 8", gen::gnp_avg_degree_sharded_csr(n, 8.0, n)});
    for (const Case& c : cases) {
      if (!is_connected(c.g)) continue;
      const Row row = measure(c.g, 17 * n + 5, seeds);
      table.add_row({c.name, analysis::Table::num(std::uint64_t{n}),
                     analysis::Table::num(row.avg_decided),
                     analysis::Table::num(row.worst_finish, 1),
                     analysis::Table::num(
                         row.worst_finish / std::max(row.avg_decided, 1e-9),
                         1)});
    }
  }
  std::cout << table.render();
  std::cout << "\nShape check: stars/expanders decide in O(1) on average; "
               "the cycle's decided average grows ~log n (Feuilloley's "
               "bound) while its termination stays Theta(n) -- the same "
               "average-vs-worst separation the sleeping model exploits "
               "for MIS.\n";
  return 0;
}
