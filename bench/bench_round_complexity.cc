// E8 -- Lemma 10 / Lemma 13: worst-case (traditional) round complexity.
// Algorithm 1's makespan is exactly T(ceil(3 log2 n)) = Theta(n^3);
// Algorithm 2's is T2(K2) = O(log^{ell+1} n) = O(log^3.41 n). We verify
// the measured makespans against both closed forms and fit the growth
// exponents.
#include <cmath>
#include <iostream>

#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "core/schedule.h"
#include "graph/generators.h"

namespace {
using namespace slumber;
using analysis::MisEngine;
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E8 / worst-case round complexity (makespan), G(n, 8/n)");

  analysis::Table table({"n", "Alg1 measured", "3(2^K - 1)", "Alg1 / n^3",
                         "Alg2 measured", "T2(K2)", "Alg2 / log^3.41 n",
                         "Luby-A measured"});
  std::vector<double> ns;
  std::vector<double> alg1;
  std::vector<double> alg2;
  for (const VertexId n : {32u, 64u, 128u, 256u, 512u}) {
    const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, 3 * n);
    const auto run1 = analysis::run_mis(MisEngine::kSleeping, g, n + 1);
    const auto run2 = analysis::run_mis(MisEngine::kFastSleeping, g, n + 1);
    const auto run3 = analysis::run_mis(MisEngine::kLubyA, g, n + 1);
    const double cube = std::pow(static_cast<double>(n), 3.0);
    const double polylog =
        std::pow(std::log2(static_cast<double>(n)), core::kEll + 1.0);
    ns.push_back(n);
    alg1.push_back(static_cast<double>(run1.worst_rounds));
    alg2.push_back(static_cast<double>(run2.worst_rounds));
    table.add_row(
        {analysis::Table::num(std::uint64_t{n}),
         analysis::Table::num(run1.worst_rounds),
         analysis::Table::num(
             core::schedule_duration(core::recursion_depth(n))),
         analysis::Table::num(static_cast<double>(run1.worst_rounds) / cube, 2),
         analysis::Table::num(run2.worst_rounds),
         analysis::Table::num(core::schedule_duration(
             core::fast_recursion_depth(n), core::greedy_base_rounds(n))),
         analysis::Table::num(static_cast<double>(run2.worst_rounds) / polylog,
                              2),
         analysis::Table::num(run3.worst_rounds)});
  }
  std::cout << table.render();

  const auto fit1 = analysis::power_fit(ns, alg1);
  const auto fit2 = analysis::power_fit(ns, alg2);
  std::cout << "\npower-law exponents (makespan ~ n^e):\n"
            << "  SleepingMIS:      e = " << analysis::Table::num(fit1.slope, 3)
            << "  (paper: 3)\n"
            << "  Fast-SleepingMIS: e = " << analysis::Table::num(fit2.slope, 3)
            << "  (paper: polylog, so e -> 0)\n";

  std::cout << analysis::banner(
      "node-averaged round complexity (same runs: every node finishes in "
      "the same round for the sleeping algorithms -- Lemma 1 Cond. 1)");
  std::cout << "Alg1 node-avg rounds == makespan == T(K): the sleeping\n"
               "algorithms trade wall-clock for awake time (Lemma 11/14).\n";
  return 0;
}
