// E2 -- Reproduces the paper's Figure 1: the recursion tree of
// SleepingMISRecursive with first-reach/finish time labels.
//
// Part 1 regenerates the paper's exact sample labels (a four-level tree
// under the figure's convention that a base case occupies one slot):
// the paper shows (1,29) (2,14) (3,7) (4,4) (6,6) (9,13) ... (26,26).
//
// Part 2 prints the *measured* tree of a real run on G(48, 0.12):
// per-call first communication round (from the recursion trace) next to
// the analytic schedule, plus the participant counts |U| that shrink
// geometrically down the tree.
#include <iostream>

#include "analysis/table.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;
}

int main() {
  std::cout << analysis::banner(
      "E2 / Figure 1 (part 1): the paper's sample tree, K = 3");
  const auto tree = core::figure1_tree(3);
  std::cout << core::render_tree(tree);
  std::cout << "expected from the paper: (1,29) (2,14) (3,7) (4,4) (6,6) "
               "(9,13) (10,10) (12,12) (16,28) (17,21) (18,18) (20,20) "
               "(23,27) (24,24) (26,26)\n";

  std::cout << analysis::banner(
      "E2 (part 2): measured recursion tree on G(48, avg deg 6), seed 7");
  const Graph g = gen::gnp_avg_degree_sharded_csr(48, 6.0, 7);
  core::RecursionTrace trace;
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  auto result =
      sim::run_protocol(g, 7, core::sleeping_mis({}, &trace), options);

  const auto analytic = core::execution_tree(trace.levels);
  analysis::Table table({"depth", "path", "k", "analytic reach",
                         "measured reach", "|U|", "|L|", "|R|",
                         "isolated joins"});
  std::uint32_t printed = 0;
  for (const core::TreeNode& node : analytic) {
    const auto it = trace.calls.find({node.k, node.path});
    if (it == trace.calls.end() || it->second.participants == 0) continue;
    if (++printed > 40) break;  // the deep tail is mostly empty calls
    const auto& call = it->second;
    const bool has_round =
        call.first_round != std::numeric_limits<std::uint64_t>::max();
    table.add_row(
        {analysis::Table::num(std::uint64_t{node.depth}),
         analysis::Table::num(node.path),
         analysis::Table::num(std::uint64_t{node.k}),
         analysis::Table::num(node.reach),
         has_round ? analysis::Table::num(call.first_round) : "-",
         analysis::Table::num(call.participants),
         analysis::Table::num(call.left), analysis::Table::num(call.right),
         analysis::Table::num(call.isolated_joins)});
  }
  std::cout << table.render();
  std::cout << "\nmakespan = " << result.metrics.makespan
            << " (analytic T(K) = " << core::schedule_duration(trace.levels)
            << ", K = " << trace.levels << ")\n";
  std::cout << "Check: 'measured reach' equals 'analytic reach' for every "
               "non-empty call -- the depth-first, left-to-right schedule of "
               "Figure 1.\n";
  return 0;
}
