// The shared experiment runner: one entry point that runs any MIS
// engine on any graph with a seed, verifies the output, and returns the
// paper's four complexity measures. All benches and integration tests
// go through this so results are comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algos/matching.h"  // MisEngine
#include "core/instrumentation.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace slumber::util {
class ThreadPool;
}  // namespace slumber::util

namespace slumber::fault {
struct FaultPlan;
}  // namespace slumber::fault

namespace slumber::analysis {

using algos::MisEngine;

/// All MIS engines in Table-1 order: baselines first, then the paper's.
std::vector<MisEngine> all_engines();
std::string engine_name(MisEngine engine);
bool engine_uses_sleeping(MisEngine engine);

/// Parses "sleeping", "fast", "luby-a", "luby-b", "greedy", "ghaffari"
/// (case-sensitive, also accepts the display names); returns false on
/// unknown input.
bool engine_from_name(const std::string& name, MisEngine* out);

/// Which execution back end runs the protocol: the coroutine scheduler
/// (src/sim, supports every engine plus fault injection) or the bulk
/// flat-state engine (src/bulk, 10M+-node scale; Sleeping/Luby/greedy
/// only). Both produce bitwise-identical results where they overlap.
enum class ExecEngine { kCoroutine, kBulk };

std::string exec_engine_name(ExecEngine exec);

/// Parses "coroutine" / "bulk"; returns false on unknown input.
bool exec_engine_from_name(const std::string& name, ExecEngine* out);

/// True iff `engine` can run on the bulk execution engine.
bool engine_supports_bulk(MisEngine engine);

/// Everything that configures how an experiment executes, as one
/// designated-initializer-friendly bundle. This is the only way to
/// steer run_mis / run_trials / aggregate_mis — there are no positional
/// trailing parameters. Typical use:
///
///   run_mis(engine, g, seed, {.exec = ExecEngine::kBulk, .pool = &pool});
///   run_trials(engine, factory, seed, 20, {.num_threads = 8});
struct RunOptions {
  /// Execution back end for every trial.
  ExecEngine exec = ExecEngine::kCoroutine;
  /// Trial-level lanes for run_trials / aggregate_mis
  /// (0 = default_trial_threads()). Ignored by run_mis.
  unsigned num_threads = 0;
  /// Shards each bulk trial's per-round node scans, and every trial's
  /// verification, over the pool's lanes (results are bitwise identical
  /// for every lane count). run_trials forwards it to trials only when
  /// num_threads == 1 (serial trials); otherwise the lanes are spent on
  /// trial-level sharding.
  util::ThreadPool* pool = nullptr;
  /// When non-null and the engine is one of the sleeping algorithms,
  /// collects the recursion trace. run_trials ignores it (a shared
  /// trace cannot take concurrent trials).
  core::RecursionTrace* trace = nullptr;
  /// Failure injection (fault/fault.h): crash schedules, probabilistic
  /// crashes, message loss, churn. Borrowed; must outlive the run.
  /// Churn requires the bulk back end (run_mis throws otherwise); the
  /// other fault kinds work on both and inject bitwise-identical
  /// faults.
  const fault::FaultPlan* fault = nullptr;
  /// Bulk back end only: collect per-node metrics (awake rounds,
  /// finish rounds). Off saves 56 B/node at 10^8 scale; the run still
  /// reports node_avg_awake and worst_rounds exactly, but worst_awake
  /// and node_avg_rounds read 0.
  bool node_metrics = true;
};

/// One run's results: the four measures of the paper's Table 1 plus
/// bookkeeping.
struct MisRun {
  MisEngine engine{};
  std::uint64_t seed = 0;
  bool valid = false;               // verifier outcome
  double node_avg_awake = 0.0;      // sleeping-model awake average
  std::uint64_t worst_awake = 0;    // max_v awake rounds
  double node_avg_rounds = 0.0;     // mean finish round (awake+sleep)
  std::uint64_t worst_rounds = 0;   // makespan
  std::uint64_t mis_size = 0;
  std::uint64_t total_messages = 0;
  sim::Metrics metrics;             // full per-node data
  std::vector<std::int64_t> outputs;
  /// Per-node liveness after the run: 0 = crashed or churned out.
  /// Empty when the run had no crash faults and no churn. When
  /// non-empty, `valid` means `outputs` restricted to alive nodes is a
  /// correct MIS of the alive-induced subgraph (under churn: checked
  /// after the final repair; under crashes alone the damage is left in
  /// place, so `valid` honestly reports whether the survivors' output
  /// still forms an MIS of their subgraph).
  std::vector<std::uint8_t> alive;
};

/// Runs `engine` on `g`; enforces the CONGEST budget; verifies the MIS
/// once (on the alive subgraph when nodes can be dead).
/// Execution back end, thread pool, trace sink, fault plan, and metric
/// toggles all ride in `opts`. Throws std::invalid_argument when the
/// engine has no bulk implementation or when opts asks for churn on the
/// coroutine back end.
MisRun run_mis(MisEngine engine, const Graph& g, std::uint64_t seed,
               const RunOptions& opts = {});

/// Seed-averaged measures for one (engine, graph-generator) cell.
struct AggregateRun {
  double node_avg_awake_mean = 0.0;
  double node_avg_awake_ci95 = 0.0;
  double worst_awake_mean = 0.0;
  double node_avg_rounds_mean = 0.0;
  double worst_rounds_mean = 0.0;
  double messages_mean = 0.0;
  std::uint64_t invalid_runs = 0;
  std::uint64_t runs = 0;
};

/// The trial-seed schedule shared by every multi-seed runner: trial i of
/// a batch keyed by `base_seed` runs with splitmix64(base_seed + i), so
/// per-trial streams are scrambled across the 64-bit space and —
/// crucially for the parallel runner — a trial's seed is a pure function
/// of its index, never of execution order. Batches whose base seeds are
/// closer together than their trial count share trials; space base seeds
/// at least num_seeds apart.
inline std::uint64_t trial_seed(std::uint64_t base_seed, std::uint32_t trial) {
  std::uint64_t sm = base_seed + trial;
  return splitmix64(sm);
}

/// Runs `num_seeds` independent trials of `engine` on graphs produced by
/// `make_graph` (called with the trial seed), sharded across
/// `opts.num_threads` trial lanes (0 = default_trial_threads()). The
/// returned runs are ordered by trial index and bitwise identical for
/// every thread count, including the fully serial num_threads = 1.
/// When opts.num_threads == 1 the trials run serially and opts.pool is
/// forwarded to each trial for intra-trial sharding; with concurrent
/// trials the pool is withheld (the lanes are already spent).
template <typename GraphFactory>
std::vector<MisRun> run_trials(MisEngine engine, const GraphFactory& make_graph,
                               std::uint64_t base_seed, std::uint32_t num_seeds,
                               const RunOptions& opts = {});

/// Reduces a trial-ordered run sequence into the seed-averaged measures.
/// Deterministic: iterates in sequence order.
AggregateRun aggregate_runs(const MisRun* begin, const MisRun* end);
AggregateRun aggregate_runs(const std::vector<MisRun>& runs);

/// Runs `engine` `num_seeds` times on graphs produced by `make_graph`
/// and aggregates; equivalent to aggregate_runs(run_trials(...)).
template <typename GraphFactory>
AggregateRun aggregate_mis(MisEngine engine, const GraphFactory& make_graph,
                           std::uint64_t base_seed, std::uint32_t num_seeds,
                           const RunOptions& opts = {});

/// The factory the sweep-style runners hand to run_trials /
/// aggregate_mis: trial seed -> gen::make(family, n, seed). Trials run
/// concurrently under the parallel runner, so each graph is built
/// serially on its trial's lane.
std::function<Graph(std::uint64_t)> graph_factory(gen::Family family,
                                                  VertexId n);

}  // namespace slumber::analysis

#include "analysis/experiment_impl.h"
