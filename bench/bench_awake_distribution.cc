// E17 -- Beyond the expectation: the distribution of per-node awake
// time. The paper (Section 1.2) defines A = (1/n) sum A_v and notes
// "one can also study other properties of A, e.g., high probability
// bounds on A". We measure:
//   * the histogram of A_v for Algorithm 1 (a geometric-looking tail:
//     surviving one more level costs ~5 awake rounds and happens with
//     probability <= 3/4);
//   * tail probabilities P[A_v >= t] across n -- the per-level decay;
//   * concentration of the *average* A across seeds (its ci shrinks
//     with n: A is an average of n weakly-dependent variables).
#include <cmath>
#include <cstddef>
#include <iostream>
#include <map>

#include "analysis/parallel.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;

// One seeded SleepingMIS run; every section below is a different
// reduction over the per-node metrics, so the trials return the full
// Metrics and the (deterministic, seed-ordered) merges happen after the
// parallel batch.
sim::Metrics run_sleeping(VertexId n, std::uint64_t graph_seed,
                          std::uint64_t run_seed) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, graph_seed);
  sim::Network net(g, run_seed);
  return net.run(core::sleeping_mis());
}
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E17 / distribution of per-node awake time A_v, SleepingMIS");

  // Histogram at n = 1024 over 10 seeds.
  {
    const VertexId n = 1024;
    const auto runs = analysis::parallel_trials(10, 0, [&](std::size_t s) {
      return run_sleeping(n, 60 + s, 90 + s);
    });
    std::map<std::uint64_t, std::uint64_t> histogram;
    std::uint64_t samples = 0;
    for (const sim::Metrics& metrics : runs) {
      for (const auto& m : metrics.node) {
        ++histogram[m.awake_rounds];
        ++samples;
      }
    }
    analysis::Table table({"awake rounds", "fraction of nodes", "bar"});
    for (const auto& [rounds, count] : histogram) {
      const double fraction =
          static_cast<double>(count) / static_cast<double>(samples);
      if (fraction < 0.002) continue;
      table.add_row({analysis::Table::num(rounds),
                     analysis::Table::num(fraction, 4),
                     std::string(static_cast<std::size_t>(fraction * 120),
                                 '#')});
    }
    std::cout << "\nhistogram, n = 1024 (bins < 0.2% elided):\n"
              << table.render();
  }

  // Tail decay across n.
  {
    analysis::Table table({"n", "P[A_v >= 10]", "P[A_v >= 20]",
                           "P[A_v >= 30]", "P[A_v >= 40]"});
    for (const VertexId n : {256u, 1024u, 4096u}) {
      std::vector<std::uint64_t> tail(5, 0);
      std::uint64_t samples = 0;
      const auto runs = analysis::parallel_trials(5, 0, [&](std::size_t s) {
        return run_sleeping(n, n + s, 3 * n + s);
      });
      for (const sim::Metrics& metrics : runs) {
        for (const auto& m : metrics.node) {
          ++samples;
          for (int t = 1; t <= 4; ++t) {
            if (m.awake_rounds >= static_cast<std::uint64_t>(10 * t)) {
              ++tail[static_cast<std::size_t>(t)];
            }
          }
        }
      }
      auto p = [&](int t) {
        return static_cast<double>(tail[static_cast<std::size_t>(t)]) /
               static_cast<double>(samples);
      };
      table.add_row({analysis::Table::num(std::uint64_t{n}),
                     analysis::Table::num(p(1), 4),
                     analysis::Table::num(p(2), 4),
                     analysis::Table::num(p(3), 5),
                     analysis::Table::num(p(4), 5)});
    }
    std::cout << "\ntail probabilities (n-independent, geometric decay):\n"
              << table.render();
  }

  // Concentration of the average across seeds.
  {
    analysis::Table table({"n", "mean of A over 20 seeds", "stddev of A",
                           "max A seen"});
    for (const VertexId n : {64u, 512u, 4096u}) {
      const std::vector<double> averages =
          analysis::parallel_trials(20, 0, [&](std::size_t s) {
            return run_sleeping(n, 7 * n + s, 11 * n + s).node_avg_awake();
          });
      const auto summary = analysis::summarize(averages);
      table.add_row({analysis::Table::num(std::uint64_t{n}),
                     analysis::Table::num(summary.mean, 3),
                     analysis::Table::num(summary.stddev, 3),
                     analysis::Table::num(summary.max, 2)});
    }
    std::cout << "\nconcentration of the node-averaged awake time A:\n"
              << table.render();
    std::cout << "Reading: stddev of A shrinks as n grows -- A concentrates\n"
                 "around its O(1) expectation, the 'high probability bounds\n"
                 "on A' the paper points to in Section 1.2.\n";
  }
  return 0;
}
