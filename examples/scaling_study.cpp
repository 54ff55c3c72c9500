// A self-contained scaling study: how do the four complexity measures
// of the paper's Table 1 evolve with n for Algorithm 1, Algorithm 2,
// and Luby's baseline, on a topology of the user's choice?
//
//   $ ./scaling_study [family] [max_n] [threads] [exec]
//
// where family is one of: gnp_sparse (default), cycle, star, grid,
// lollipop, random_tree, barabasi_albert, unit_disk, ...; threads is
// the parallelism lane count (default: all hardware threads); exec is
// "coroutine" (default) or "bulk". With the coroutine engine the lanes
// shard independent trials; with the bulk engine the trials run in
// sequence and the lanes shard the node scans *inside* each trial
// (single bulk trials dominate the wall clock at large n). Either way
// the output is bitwise identical for every thread count. The bulk
// execution engine runs the same protocols over flat state arrays,
// opening two orders of magnitude more n: `./scaling_study gnp_sparse
// 4194304 0 bulk` reproduces the paper's flat awake-complexity curve
// at multi-million node scale (Algorithm 2 has no bulk port yet and is
// skipped there). In bulk mode the gnp families' CSR build shards over
// the trial lanes too (graph/generators.h).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace slumber;

  std::string family_name = argc > 1 ? argv[1] : "gnp_sparse";
  const VertexId max_n =
      argc > 2 ? static_cast<VertexId>(std::atoi(argv[2])) : 2048;
  if (argc > 3 && std::atoi(argv[3]) > 0) {
    analysis::set_default_trial_threads(
        static_cast<unsigned>(std::atoi(argv[3])));
  }
  analysis::ExecEngine exec = analysis::ExecEngine::kCoroutine;
  if (argc > 4 && !analysis::exec_engine_from_name(argv[4], &exec)) {
    std::cerr << "unknown exec engine '" << argv[4]
              << "'; options: coroutine bulk\n";
    return 1;
  }

  gen::Family family = gen::Family::kGnpSparse;
  bool found = false;
  for (const gen::Family f : gen::all_families()) {
    if (gen::family_name(f) == family_name) {
      family = f;
      found = true;
      break;
    }
  }
  if (!found) {
    std::cerr << "unknown family '" << family_name << "'; options:";
    for (const gen::Family f : gen::all_families()) {
      std::cerr << " " << gen::family_name(f);
    }
    std::cerr << "\n";
    return 1;
  }

  std::cout << analysis::banner("scaling study on " + family_name + " (" +
                                analysis::exec_engine_name(exec) +
                                " execution)");
  std::vector<analysis::MisEngine> engines = {
      analysis::MisEngine::kSleeping, analysis::MisEngine::kFastSleeping,
      analysis::MisEngine::kLubyA};
  if (exec == analysis::ExecEngine::kBulk) {
    std::erase_if(engines, [&](analysis::MisEngine e) {
      return !analysis::engine_supports_bulk(e);
    });
  }

  // Intra-trial lanes for the bulk back end (see the header comment).
  util::ThreadPool bulk_pool(exec == analysis::ExecEngine::kBulk
                                 ? analysis::default_trial_threads()
                                 : 1);

  for (const auto engine : engines) {
    analysis::Table table({"n", "node-avg awake", "worst awake",
                           "worst rounds", "messages"});
    std::vector<double> ns;
    std::vector<double> awake;
    for (VertexId n = 64; n <= max_n; n *= 4) {
      constexpr std::uint32_t kSeeds = 3;
      analysis::AggregateRun agg;
      if (exec == analysis::ExecEngine::kBulk) {
        // Same seed schedule and reduction order as aggregate_mis, so
        // this is bitwise identical to the trial-parallel coroutine
        // path where the engines overlap. The gnp builds shard their
        // CSR passes over the trial lanes too.
        std::vector<analysis::MisRun> runs;
        runs.reserve(kSeeds);
        for (std::uint32_t s = 0; s < kSeeds; ++s) {
          const std::uint64_t seed = analysis::trial_seed(1000 + n, s);
          const Graph g = gen::make(family, n, seed, &bulk_pool);
          runs.push_back(analysis::run_mis(
              engine, g, seed, {.exec = exec, .pool = &bulk_pool}));
        }
        agg = analysis::aggregate_runs(runs);
      } else {
        agg = analysis::aggregate_mis(
            engine, analysis::graph_factory(family, n), 1000 + n, kSeeds,
            {.exec = exec});
      }
      if (agg.invalid_runs > 0) {
        std::cerr << "invalid runs at n=" << n << "\n";
        return 1;
      }
      ns.push_back(n);
      awake.push_back(agg.node_avg_awake_mean);
      table.add_row({analysis::Table::num(std::uint64_t{n}),
                     analysis::Table::num(agg.node_avg_awake_mean),
                     analysis::Table::num(agg.worst_awake_mean, 1),
                     analysis::Table::num(agg.worst_rounds_mean, 0),
                     analysis::Table::num(agg.messages_mean, 0)});
    }
    const auto fit = analysis::log_fit(ns, awake);
    std::cout << "\n"
              << analysis::engine_name(engine)
              << " (awake-avg slope vs log2 n: "
              << analysis::Table::num(fit.slope, 3) << ")\n"
              << table.render();
  }
  std::cout << "\nSleeping engines: flat awake average (slope ~0). Luby: "
               "slope > 0 -- nodes stay awake for the full Theta(log n) "
               "run.\n";
  return 0;
}
