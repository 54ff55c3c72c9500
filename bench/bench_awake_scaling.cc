// E6 -- Lemma 8 / Theorem 1-2 headline: node-averaged awake complexity
// of the sleeping algorithms is O(1) -- flat in n -- while every
// traditional baseline keeps nodes awake for its full (growing) runtime.
//
// Sweeps n = 2^5 .. 2^12 on G(n, 8/n); prints the awake average per
// engine per n and the log2(n) regression slope (0 = constant).
#include <iostream>

#include "analysis/csv.h"
#include "analysis/experiment.h"
#include "analysis/parallel.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "graph/generators.h"

namespace {
using namespace slumber;
using analysis::MisEngine;

constexpr std::uint32_t kSeeds = 5;
}  // namespace

int main() {
  const std::vector<VertexId> sizes = {32,  64,   128,  256,
                                       512, 1024, 2048, 4096};
  std::cout << analysis::banner(
      "E6 / node-averaged awake complexity vs n, G(n, 8/n), " +
      std::to_string(kSeeds) + " seeds");

  std::vector<std::string> header = {"n"};
  for (const MisEngine engine : analysis::all_engines()) {
    header.push_back(analysis::engine_name(engine));
  }
  analysis::Table table(header);

  // One flat trial list over (n, engine, seed): sharding all cells at
  // once keeps every core busy even when a cell has few seeds. Each
  // trial's seed matches what aggregate_mis would use for its cell, and
  // the per-cell reduction below runs in trial order, so the numbers are
  // bitwise identical to the serial per-cell path.
  const std::vector<MisEngine> engines = analysis::all_engines();
  const std::size_t num_trials = sizes.size() * engines.size() * kSeeds;
  const auto runs = analysis::parallel_trials(
      num_trials, 0, [&](std::size_t t) {
        const VertexId n = sizes[t / (engines.size() * kSeeds)];
        const MisEngine engine = engines[(t / kSeeds) % engines.size()];
        const std::uint64_t seed = analysis::trial_seed(
            31 * n, static_cast<std::uint32_t>(t % kSeeds));
        const Graph g = gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
        return analysis::run_mis(engine, g, seed);
      });

  std::map<MisEngine, std::vector<double>> series;
  std::vector<double> ns;
  std::size_t cursor = 0;
  for (const VertexId n : sizes) {
    ns.push_back(n);
    std::vector<std::string> row = {analysis::Table::num(std::uint64_t{n})};
    for (const MisEngine engine : engines) {
      const auto agg =
          analysis::aggregate_runs(&runs[cursor], &runs[cursor] + kSeeds);
      cursor += kSeeds;
      series[engine].push_back(agg.node_avg_awake_mean);
      row.push_back(analysis::Table::num(agg.node_avg_awake_mean));
    }
    table.add_row(row);
  }
  std::cout << table.render();

  // Optional machine-readable dump for external plotting.
  if (const auto path = analysis::csv_path_from_env("awake_scaling")) {
    analysis::CsvWriter csv(*path, header);
    for (std::size_t i = 0; i < ns.size(); ++i) {
      std::vector<double> row = {ns[i]};
      for (const MisEngine engine : analysis::all_engines()) {
        row.push_back(series[engine][i]);
      }
      csv.add_row(row);
    }
    std::cout << "(series written to " << *path << ")\n";
  }

  std::cout << analysis::banner("slope of awake-average vs log2(n)");
  analysis::Table fits({"algorithm", "slope", "interpretation"});
  for (const MisEngine engine : analysis::all_engines()) {
    const auto fit = analysis::log_fit(ns, series[engine]);
    const bool sleeping = analysis::engine_uses_sleeping(engine);
    fits.add_row({analysis::engine_name(engine),
                  analysis::Table::num(fit.slope, 3),
                  sleeping ? "paper: O(1) guaranteed -> slope ~ 0"
                           : "no O(1) bound known (open question)"});
  }
  std::cout << fits.render();
  std::cout
      << "\nReading: the sleeping algorithms' flat average is a theorem\n"
         "(holds for every topology); the baselines' small averages here\n"
         "are an empirical property of benign workloads -- the paper\n"
         "(Sec. 1.3) notes it is open whether any traditional algorithm\n"
         "achieves o(log n) node-averaged complexity on general graphs.\n"
         "Their worst-case awake time equals their full round complexity\n"
         "(see bench_table1 'worst awake'), which does grow with n.\n";
  return 0;
}
