// E3 -- Reproduces the paper's Figure 2: the recursion trees of
// Algorithm 1 (depth K = ceil(3 log2 n), trivial base cases) versus
// Algorithm 2 (truncated at depth K2 = ceil(ell log log n), greedy base
// cases of c log n rounds), and the resulting worst-case round
// complexities.
//
// Expected shape: #leaves of Algorithm 2 = 2^K2 ~ (log n)^ell; expected
// nodes reaching the base level ~ (3/4)^K2 * n ~ n / log n (the paper's
// Lemma 12 computation); makespan O(log^{ell+1} n) vs Theta(n^3).
#include <cmath>
#include <iostream>

#include "analysis/experiment.h"
#include "analysis/table.h"
#include "core/schedule.h"
#include "graph/generators.h"

namespace {
using namespace slumber;
}

int main() {
  std::cout << analysis::banner(
      "E3 / Figure 2: tree truncation, Algorithm 1 vs Algorithm 2");

  analysis::Table table(
      {"n", "K (Alg1)", "T(K) = makespan Alg1", "K2 (Alg2)", "leaves 2^K2",
       "base budget R", "T2(K2) = makespan Alg2", "(3/4)^K2 * n", "n/log n"});
  for (const VertexId n : {64u, 256u, 1024u, 4096u, 16384u}) {
    const std::uint32_t k1 = core::recursion_depth(n);
    const std::uint32_t k2 = core::fast_recursion_depth(n);
    const std::uint64_t base = core::greedy_base_rounds(n);
    const double expected_base_pop =
        std::pow(0.75, k2) * static_cast<double>(n);
    table.add_row(
        {analysis::Table::num(std::uint64_t{n}),
         analysis::Table::num(std::uint64_t{k1}),
         analysis::Table::num(core::schedule_duration(k1)),
         analysis::Table::num(std::uint64_t{k2}),
         analysis::Table::num(std::uint64_t{1} << k2),
         analysis::Table::num(base),
         analysis::Table::num(core::schedule_duration(k2, base)),
         analysis::Table::num(expected_base_pop, 1),
         analysis::Table::num(
             static_cast<double>(n) / std::log2(static_cast<double>(n)), 1)});
  }
  std::cout << table.render();

  std::cout << analysis::banner(
      "measured base-level population of Algorithm 2 (G(n, 8/n), 5 seeds)");
  analysis::Table measured({"n", "mean nodes reaching base cases",
                            "bound (3/4)^K2 * n", "measured makespan",
                            "analytic T2(K2)"});
  for (const VertexId n : {64u, 256u, 1024u}) {
    double base_pop = 0.0;
    std::uint64_t makespan = 0;
    const std::uint32_t seeds = 5;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, 100 + s);
      core::RecursionTrace trace;
      const auto run = analysis::run_mis(analysis::MisEngine::kFastSleeping, g,
                                         200 + s, {.trace = &trace});
      base_pop += static_cast<double>(trace.z_by_level()[0]);
      makespan = run.worst_rounds;
    }
    base_pop /= seeds;
    const std::uint32_t k2 = core::fast_recursion_depth(n);
    measured.add_row(
        {analysis::Table::num(std::uint64_t{n}),
         analysis::Table::num(base_pop, 1),
         analysis::Table::num(std::pow(0.75, k2) * static_cast<double>(n), 1),
         analysis::Table::num(makespan),
         analysis::Table::num(
             core::schedule_duration(k2, core::greedy_base_rounds(n)))});
  }
  std::cout << measured.render();
  return 0;
}
