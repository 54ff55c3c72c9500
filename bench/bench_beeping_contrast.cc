// E21 -- Sleeping vs beeping (paper Section 1.5: "Sleeping is
// orthogonal to beeping"). Both models restrict the radio, but in
// opposite dimensions: beeping shrinks the message to one bit yet keeps
// every undecided node awake every slot, while sleeping keeps CONGEST
// messages but lets nodes power down. The bench measures the
// node-averaged AWAKE complexity of the beeping-model MIS (bitwise
// tournament, Theta(log^2 n)-ish slots) against Luby-A (Theta(log n))
// and SleepingMIS / Fast-SleepingMIS (O(1)), plus the per-message
// width each model pays.
#include <iostream>

#include "algos/beeping_mis.h"
#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/verify.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace {
using namespace slumber;
using analysis::MisEngine;
}  // namespace

int main() {
  std::cout << analysis::banner(
      "E21 / node-averaged awake rounds, G(n, 8/n), 5 seeds: beeping keeps "
      "everyone awake; sleeping does not");

  analysis::Table table({"n", "Beeping MIS", "Luby-A", "SleepingMIS",
                         "Fast-Sleeping", "beep bits", "CONGEST bits"});
  std::vector<double> ns;
  std::vector<double> beeping_avg;
  std::vector<double> sleeping_avg;
  const std::uint32_t seeds = 5;

  for (const VertexId n : {64u, 256u, 1024u, 4096u}) {
    double beeping_total = 0.0;
    std::uint32_t beep_bits = 0;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
      sim::NetworkOptions options;
      options.max_message_bits = 1;  // the whole point of beeping
      auto [metrics, outputs] =
          sim::run_protocol(g, 3 * n + s, algos::beeping_mis(), options);
      if (!analysis::check_mis(g, outputs).ok()) {
        std::cerr << "INVALID beeping MIS at n=" << n << " seed=" << s
                  << "\n";
        return 1;
      }
      beeping_total += metrics.node_avg_awake();
      beep_bits = std::max(beep_bits, metrics.max_message_bits_seen);
    }
    const double beeping_mean = beeping_total / seeds;

    auto engine_avg = [&](MisEngine engine, std::uint32_t* bits_seen) {
      double total = 0.0;
      for (std::uint32_t s = 0; s < seeds; ++s) {
        const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, n + s);
        const auto run = analysis::run_mis(engine, g, 3 * n + s);
        if (!run.valid) {
          std::cerr << "INVALID " << analysis::engine_name(engine)
                    << " at n=" << n << "\n";
          std::exit(1);
        }
        total += run.node_avg_awake;
        if (bits_seen != nullptr) {
          *bits_seen =
              std::max(*bits_seen, run.metrics.max_message_bits_seen);
        }
      }
      return total / seeds;
    };

    std::uint32_t congest_bits = 0;
    const double luby = engine_avg(MisEngine::kLubyA, &congest_bits);
    const double sleeping = engine_avg(MisEngine::kSleeping, &congest_bits);
    const double fast = engine_avg(MisEngine::kFastSleeping, &congest_bits);

    ns.push_back(n);
    beeping_avg.push_back(beeping_mean);
    sleeping_avg.push_back(sleeping);
    table.add_row({analysis::Table::num(std::uint64_t{n}),
                   analysis::Table::num(beeping_mean),
                   analysis::Table::num(luby),
                   analysis::Table::num(sleeping),
                   analysis::Table::num(fast),
                   analysis::Table::num(std::uint64_t{beep_bits}),
                   analysis::Table::num(std::uint64_t{congest_bits})});
  }
  std::cout << table.render();

  const auto beep_fit = analysis::log_fit(ns, beeping_avg);
  const auto sleep_fit = analysis::log_fit(ns, sleeping_avg);
  std::cout << "\nawake-rounds slope vs log2(n): beeping = "
            << analysis::Table::num(beep_fit.slope, 3)
            << " (grows; every slot costs an awake round), SleepingMIS = "
            << analysis::Table::num(sleep_fit.slope, 3)
            << " (paper Theorem 1: O(1) -> ~0).\n";
  return 0;
}
