// slumber -- command-line front end to the library.
//
// A global `--threads N` flag (anywhere on the command line) sets the
// parallelism lane count; the default is all hardware threads. With
// the coroutine back end the lanes shard independent trials of the
// multi-seed commands (sweep); with `--engine bulk` they additionally
// shard the per-round node scans *inside* single-trial commands (run,
// beep). Results are bitwise identical for every N in both modes.
//
// A global `--engine <coroutine|bulk>` flag selects the execution back
// end for run / sweep / beep: the coroutine scheduler (default; every
// MIS engine, fault injection, tracing) or the bulk flat-state engine
// (sleeping / luby-a / luby-b / greedy, 10M+-node scale). The two are
// bitwise interchangeable where they overlap. `faults` always runs
// bulk; every other command rejects --engine bulk with exit 2.
//
// The gnp families are built by the counter-based per-block G(n, p)
// generator (see graph/generators.h); under --engine bulk its CSR
// build parallelizes over the --threads lanes. An unknown `--` flag is
// an error (exit 2), wherever it appears.
//
// Fault-injection flags (run / sweep / beep; see fault/fault.h) ride
// the same global grammar: `--crash V@R` fail-stops node V at round R
// (repeatable), `--loss P` drops each otherwise-deliverable message
// with probability P (symmetric per link per round), `--loss-burst
// P_ON P_OFF LEN` adds Gilbert–Elliott burst-correlated loss (per-edge
// on/off channel, epochs of LEN rounds), and `--churn P`
// [--churn-batches K] runs post-protocol membership churn with
// incremental MIS repair. Live dynamics run *between* bulk frames:
// `--churn-live LEAVE JOIN` makes alive nodes leave (and geometrically
// rejoin), `--recover MEAN` re-admits crashed nodes after a geometric
// downtime; under run and sweep both end in one incremental repair of
// the survivors' MIS (beep runs no repair). Churn, live churn, and
// recovery need `--engine bulk`. All fault streams are engine- and
// lane-count-independent. A run that loses nodes is verified on the
// alive subgraph. Every other command rejects fault flags with exit 2.
//
// `--mem-diet` (run, with --engine bulk) drops the bulk engine's
// per-node metrics, 56 B/node: with the parallel CSR build it is the
// 10^8-node memory envelope. Node-averaged awake and worst-case
// rounds stay exact (from the aggregate counters); worst-case awake,
// node-averaged rounds and the energy estimate need per-node data and
// are not printed.
//
// Telemetry flags (any command; see obs/obs.h): `--obs-out run.jsonl`
// streams slumber-obs-v1 events, `--obs-trace trace.json` writes a
// Chrome trace-event file for Perfetto, `--progress` prints a live
// stderr heartbeat. All three are strictly out-of-band: every decided
// output is bitwise identical with and without them.
//
//   slumber families
//       List the built-in graph families.
//   slumber engines
//       List the MIS engines.
//   slumber run <engine> <family> <n> [seed]
//       Run one engine on one graph; print the four complexity
//       measures, verification result, and energy estimate.
//   slumber sweep <engine> <family> <max_n> [seeds]
//       Scaling sweep (n = 64, 256, ..., max_n; max_n >= 64), seeds >= 1
//       per size (default 3); the awake-average slope is printed once
//       two sizes ran.
//   slumber faults <family> <n> [seed]
//       The fault matrix: SleepingMIS, Luby-A, Luby-B and CRT-greedy
//       under fault::standard_scenarios() on one graph, always on the
//       bulk back end without per-node metrics (the scenarios replace
//       the fault flags, which it rejects). Prints each cell's crashes,
//       losses, MIS damage on the alive subgraph and repair effort;
//       exits 1 when a fault-free, churn or live-dynamics cell ends in
//       an invalid MIS. The 10^7 recipe:
//       `slumber --threads 8 faults gnp_sparse 10000000`.
//   slumber tree <levels>
//       Print the recursion tree with the paper's Figure-1 labels.
//   slumber graph <family> <n> <seed> [dot]
//       Emit the graph as an edge list (or Graphviz DOT).
//   slumber trace <engine> <family> <n> <seed>
//       Run with event tracing and dump the last 60 events.
//   slumber matching <engine> <family> <n> [seed]
//       Maximal matching via MIS on the line graph.
//   slumber edge-color <family> <n> [seed]
//       (2*Delta-1)-edge-coloring via the line-graph reduction.
//   slumber ruling-set <engine> <family> <n> <k> [seed]
//       (k+1, k)-ruling set via MIS on the graph power G^k.
//   slumber beep <family> <n> [seed]
//       Beeping-model MIS (1-bit messages, everyone awake).
//   slumber leader <family> <n> [seed]
//       Flood-max leader election with decision-instant accounting.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "algos/beeping_mis.h"
#include "algos/edge_coloring.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "algos/leader_election.h"
#include "algos/matching.h"
#include "algos/ruling_set.h"
#include "analysis/experiment.h"
#include "analysis/parallel.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/trial_spec.h"
#include "analysis/verify.h"
#include "core/schedule.h"
#include "energy/energy.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/properties.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "sim/trace.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

using namespace slumber;

// Shared flags (--engine / --threads / fault injection / telemetry),
// parsed once by analysis::parse_trial_flags.
analysis::TrialSpec g_spec;

using util::parse_uint;  // full-token std::from_chars validation

/// parse_uint narrowed to a vertex count.
bool parse_vertex_count(std::string_view token, const char* what,
                        VertexId* out) {
  std::uint64_t value = 0;
  if (!parse_uint(token, what, &value, 0,
                  std::numeric_limits<VertexId>::max())) {
    return false;
  }
  *out = static_cast<VertexId>(value);
  return true;
}

int usage() {
  std::cerr <<
      "usage: slumber [--threads N] [--engine coroutine|bulk] "
      "[--crash V@R] [--loss P] "
      "[--loss-burst P_ON P_OFF LEN] [--churn P [--churn-batches K]] "
      "[--churn-live LEAVE JOIN] [--recover MEAN_DOWN] [--mem-diet] "
      "[--obs-out FILE.jsonl] [--obs-trace FILE.json] [--progress] "
      "<command> ...\n"
      "  slumber families\n"
      "  slumber engines\n"
      "  slumber run <engine> <family> <n> [seed]\n"
      "  slumber sweep <engine> <family> <max_n> [seeds]\n"
      "  slumber faults <family> <n> [seed]\n"
      "  slumber tree <levels>\n"
      "  slumber graph <family> <n> <seed> [dot]\n"
      "  slumber trace <engine> <family> <n> <seed>\n"
      "  slumber matching <engine> <family> <n> [seed]\n"
      "  slumber edge-color <family> <n> [seed]\n"
      "  slumber ruling-set <engine> <family> <n> <k> [seed]\n"
      "  slumber beep <family> <n> [seed]\n"
      "  slumber leader <family> <n> [seed]\n";
  return 2;
}

bool parse_family(const std::string& name, gen::Family* out) {
  for (const gen::Family family : gen::all_families()) {
    if (gen::family_name(family) == name) {
      *out = family;
      return true;
    }
  }
  return false;
}

int cmd_families() {
  for (const gen::Family family : gen::all_families()) {
    std::cout << gen::family_name(family) << "\n";
  }
  return 0;
}

int cmd_engines() {
  for (const auto engine : analysis::all_engines()) {
    std::cout << analysis::engine_name(engine)
              << (analysis::engine_supports_bulk(engine) ? " [bulk]" : "")
              << "\n";
  }
  std::cout << "(aliases: sleeping fast luby-a luby-b greedy ghaffari; "
               "[bulk] = also runs on --engine bulk)\n";
  return 0;
}

bool check_bulk_support(const analysis::MisEngine engine) {
  if (g_spec.exec == analysis::ExecEngine::kBulk &&
      !analysis::engine_supports_bulk(engine)) {
    std::cerr << "error: " << analysis::engine_name(engine)
              << " has no bulk implementation (bulk supports: sleeping, "
                 "luby-a, luby-b, greedy)\n";
    return false;
  }
  return true;
}

/// The verify line of a run that lost nodes.
std::string alive_verdict(bool valid) {
  return valid ? "valid MIS of the alive subgraph"
               : "NOT an MIS of the alive subgraph";
}

int cmd_run(const analysis::MisEngine engine, const gen::Family family,
            const VertexId n, const std::uint64_t seed) {
  if (!check_bulk_support(engine)) return 2;
  // --engine bulk shards this single trial's node scans and the graph
  // build over --threads lanes (default: all hardware threads); bitwise
  // identical for any N.
  util::ThreadPool pool(g_spec.exec == analysis::ExecEngine::kBulk
                            ? analysis::default_trial_threads()
                            : 1);
  const Graph g = gen::make(family, n, seed, &pool);
  std::cout << "graph: " << g.summary() << " (" << gen::family_name(family)
            << ")\n";
  const auto run =
      analysis::run_mis(engine, g, seed, g_spec.run_options(&pool));
  std::cout << "engine: " << analysis::engine_name(engine) << " ("
            << analysis::exec_engine_name(g_spec.exec) << " execution, "
            << pool.num_threads() << (pool.num_threads() == 1
                                          ? " lane)\n"
                                          : " lanes)\n")
            << "verify: ";
  // run_mis verified the output. Dead nodes make the full-graph check
  // vacuous, so a run that lost some reports the survivors' invariant;
  // an invalid full run is checked again only to name what broke.
  if (!run.alive.empty()) {
    std::cout << alive_verdict(run.valid);
  } else if (run.valid) {
    std::cout << "valid MIS";
  } else {
    std::cout << analysis::check_mis(g, run.outputs, &pool).describe();
  }
  std::cout << "\n"
            << "MIS size: " << run.mis_size << "\n";
  if (g_spec.fault_or_null() != nullptr) {
    std::cout << "faults: crashed " << run.metrics.crashed_nodes
              << ", lost messages " << run.metrics.injected_losses;
    if (g_spec.fault.recover.enabled()) {
      std::cout << ", recovered " << run.metrics.recovered_nodes;
    }
    if (g_spec.fault.live_churn.enabled()) {
      std::cout << ", live churn -" << run.metrics.live_leaves << "/+"
                << run.metrics.live_rejoins << " nodes";
    }
    if (g_spec.fault.has_live_dynamics()) {
      std::cout << " (" << run.metrics.live_repair_rounds
                << " final repair passes)";
    }
    if (g_spec.fault.churn.enabled()) {
      std::cout << ", churn -" << run.metrics.churn_leaves << "/+"
                << run.metrics.churn_joins << " nodes over "
                << run.metrics.churn_batches << " batches ("
                << run.metrics.churn_repair_rounds << " repair passes)";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
  // Under --mem-diet the per-node measures are gone: print "-".
  const bool per_node = g_spec.node_metrics;
  const auto per_node_num = [per_node](auto value) {
    return per_node ? analysis::Table::num(value) : std::string("-");
  };
  analysis::Table table({"measure", "value", "paper bound (sleeping algs)"});
  table.add_row({"node-averaged awake",
                 analysis::Table::num(run.node_avg_awake), "O(1)"});
  table.add_row({"worst-case awake", per_node_num(run.worst_awake),
                 "O(log n)"});
  table.add_row({"worst-case rounds", analysis::Table::num(run.worst_rounds),
                 "3n^3 (Alg1) / log^3.41 n (Alg2)"});
  table.add_row({"node-averaged rounds", per_node_num(run.node_avg_rounds),
                 "same as above"});
  table.add_row({"messages delivered",
                 analysis::Table::num(run.total_messages), "-"});
  std::cout << table.render();
  if (per_node) {
    const auto report =
        energy::evaluate(energy::EnergyModel::idealized(), run.metrics);
    std::cout << "\nenergy (idealized sleep=0): mean "
              << analysis::Table::num(report.mean_mj, 3) << " mJ, max "
              << analysis::Table::num(report.max_mj, 3) << " mJ\n";
  }
  return run.valid ? 0 : 1;
}

int cmd_sweep(const analysis::MisEngine engine, const gen::Family family,
              const VertexId max_n, const std::uint32_t seeds) {
  if (!check_bulk_support(engine)) return 2;
  if (max_n < 64) {
    std::cerr << "error: sweep <max_n> must be >= 64, the first size it "
                 "runs\n";
    return 2;
  }
  analysis::Table table({"n", "node-avg awake", "worst awake", "worst rounds",
                         "invalid"});
  std::vector<double> ns;
  std::vector<double> awake;
  for (VertexId n = 64; n <= max_n; n *= 4) {
    const auto agg = analysis::aggregate_mis(
        engine, analysis::graph_factory(family, n), 7 * n, seeds,
        {.exec = g_spec.exec, .fault = g_spec.fault_or_null()});
    ns.push_back(n);
    awake.push_back(agg.node_avg_awake_mean);
    table.add_row({analysis::Table::num(std::uint64_t{n}),
                   analysis::Table::num(agg.node_avg_awake_mean),
                   analysis::Table::num(agg.worst_awake_mean, 1),
                   analysis::Table::num(agg.worst_rounds_mean, 0),
                   analysis::Table::num(agg.invalid_runs)});
  }
  std::cout << "seeds: " << seeds << "\n" << table.render();
  if (ns.size() >= 2) {  // a slope needs two sizes
    std::cout << "awake-average slope vs log2 n: "
              << analysis::Table::num(analysis::log_fit(ns, awake).slope, 3)
              << "\n";
  }
  return 0;
}

/// Damage to the MIS invariant on the alive-induced subgraph: edges
/// with two alive MIS endpoints, and alive nodes that are neither in
/// the MIS nor dominated by an alive MIS neighbor (undecided alive
/// nodes count as uncovered).
struct Damage {
  std::uint64_t independence_violations = 0;
  std::uint64_t uncovered = 0;
};

Damage measure_damage(const Graph& g, const analysis::MisRun& run) {
  const auto alive = [&](VertexId v) {
    return run.alive.empty() || run.alive[v] != 0;
  };
  Damage d;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!alive(v)) continue;
    if (run.outputs[v] == 1) {
      for (const VertexId u : g.neighbors(v)) {
        // Count each bad edge once.
        if (u > v && alive(u) && run.outputs[u] == 1) {
          ++d.independence_violations;
        }
      }
      continue;
    }
    bool covered = false;
    if (run.outputs[v] == 0) {
      for (const VertexId u : g.neighbors(v)) {
        if (alive(u) && run.outputs[u] == 1) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) ++d.uncovered;
  }
  return d;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int cmd_faults(const gen::Family family, const VertexId n,
               const std::uint64_t seed) {
  util::ThreadPool pool(analysis::default_trial_threads());
  const auto build_start = std::chrono::steady_clock::now();
  const Graph g = gen::make(family, n, seed, &pool);
  std::cout << "graph: " << g.summary() << " (" << pool.num_threads()
            << " lanes, build "
            << analysis::Table::num(ms_since(build_start), 0)
            << " ms; bulk execution, no per-node metrics)\n\n";

  analysis::Table table({"protocol", "scenario", "crashed", "recovered",
                         "live -/+", "lost msgs", "alive", "MIS size",
                         "indep viol", "uncovered", "repair", "valid",
                         "run ms"});
  bool clean_valid = true;
  bool churn_valid = true;
  bool live_valid = true;
  const std::vector<fault::Scenario> scenarios = fault::standard_scenarios();
  for (const analysis::MisEngine engine :
       {analysis::MisEngine::kSleeping, analysis::MisEngine::kLubyA,
        analysis::MisEngine::kLubyB, analysis::MisEngine::kGreedy}) {
    for (const fault::Scenario& scenario : scenarios) {
      const auto start = std::chrono::steady_clock::now();
      const fault::FaultPlan* plan =
          scenario.plan.empty() ? nullptr : &scenario.plan;
      const analysis::MisRun run = analysis::run_mis(
          engine, g, seed, {.exec = analysis::ExecEngine::kBulk, .pool = &pool,
                            .fault = plan, .node_metrics = false});
      const double run_ms = ms_since(start);
      const Damage damage = measure_damage(g, run);
      std::uint64_t alive = g.num_vertices();
      for (const std::uint8_t a : run.alive) alive -= a == 0 ? 1 : 0;
      if (plan == nullptr) clean_valid &= run.valid;
      if (scenario.plan.churn.enabled()) churn_valid &= run.valid;
      if (scenario.plan.has_live_dynamics()) live_valid &= run.valid;
      // Built with += (GCC 12's -Wrestrict misfires on "-" + string).
      std::string live_column = "-";
      live_column += analysis::Table::num(run.metrics.live_leaves);
      live_column += "/+";
      live_column += analysis::Table::num(run.metrics.live_rejoins);
      table.add_row({analysis::engine_name(engine), scenario.name,
                     analysis::Table::num(run.metrics.crashed_nodes),
                     analysis::Table::num(run.metrics.recovered_nodes),
                     live_column,
                     analysis::Table::num(run.metrics.injected_losses),
                     analysis::Table::num(alive),
                     analysis::Table::num(run.mis_size),
                     analysis::Table::num(damage.independence_violations),
                     analysis::Table::num(damage.uncovered),
                     analysis::Table::num(run.metrics.churn_repair_rounds +
                                          run.metrics.live_repair_rounds),
                     run.valid ? "yes" : "NO",
                     analysis::Table::num(run_ms, 0)});
    }
  }
  std::cout << table.render();
  if (!clean_valid) {
    std::cerr << "faults: a fault-free run produced an invalid MIS\n";
  }
  if (!churn_valid) {
    std::cerr << "faults: churn repair left an invalid MIS on the alive "
                 "subgraph\n";
  }
  if (!live_valid) {
    std::cerr << "faults: a live-dynamics run's final repair left an "
                 "invalid MIS on the alive subgraph\n";
  }
  return clean_valid && churn_valid && live_valid ? 0 : 1;
}

int cmd_tree(const std::uint32_t levels) {
  std::cout << core::render_tree(core::figure1_tree(levels));
  std::cout << "T(k) durations: ";
  for (std::uint32_t k = 0; k <= levels; ++k) {
    std::cout << "T(" << k << ")=" << core::schedule_duration(k) << " ";
  }
  std::cout << "\n";
  return 0;
}

int cmd_graph(const gen::Family family, const VertexId n,
              const std::uint64_t seed, const bool dot) {
  const Graph g = gen::make(family, n, seed);
  if (dot) {
    io::write_dot(std::cout, g);
  } else {
    io::write_edge_list(std::cout, g);
  }
  return 0;
}

int cmd_trace(const analysis::MisEngine engine, const gen::Family family,
              const VertexId n, const std::uint64_t seed) {
  if (!analysis::engine_uses_sleeping(engine)) {
    std::cerr << "trace: only the sleeping engines are supported\n";
    return 2;
  }
  const Graph g = gen::make(family, n, seed);
  sim::RingTrace trace(60);
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  options.trace = &trace;
  auto [metrics, outputs] =
      sim::run_protocol(g, seed, algos::mis_protocol(engine), options);
  std::cout << trace.render();
  std::cout << "total events: " << trace.total_events()
            << ", makespan: " << metrics.makespan << "\n";
  return 0;
}

int cmd_matching(const analysis::MisEngine engine, const gen::Family family,
                 const VertexId n, const std::uint64_t seed) {
  const Graph g = gen::make(family, n, seed);
  std::cout << "graph: " << g.summary() << ", line graph n = "
            << g.num_edges() << "\n";
  const auto result = algos::maximal_matching_via_mis(g, seed, engine);
  const bool valid = algos::is_maximal_matching(g, result.matched_edges);
  std::cout << "engine: " << analysis::engine_name(engine) << "\n"
            << "matched edges: " << result.matched_edges.size() << " of "
            << g.num_edges() << "\n"
            << "valid maximal matching: " << (valid ? "yes" : "NO") << "\n"
            << "node-avg awake on L(G): "
            << analysis::Table::num(result.line_graph_metrics.node_avg_awake())
            << ", makespan " << result.line_graph_metrics.makespan << "\n";
  return valid ? 0 : 1;
}

int cmd_edge_color(const gen::Family family, const VertexId n,
                   const std::uint64_t seed) {
  const Graph g = gen::make(family, n, seed);
  const auto result = algos::edge_coloring_via_line_graph(g, seed);
  const bool valid = algos::check_edge_coloring(g, result.colors);
  std::cout << "graph: " << g.summary() << "\n"
            << "colors used: " << result.colors_used << " (bound 2*Delta-1 = "
            << (g.max_degree() > 0 ? 2 * g.max_degree() - 1 : 0) << ")\n"
            << "valid proper edge coloring: " << (valid ? "yes" : "NO")
            << "\n";
  return valid ? 0 : 1;
}

int cmd_ruling_set(const analysis::MisEngine engine, const gen::Family family,
                   const VertexId n, const std::uint32_t k,
                   const std::uint64_t seed) {
  const Graph g = gen::make(family, n, seed);
  const auto result = algos::ruling_set_via_mis(g, k, seed, engine);
  const auto check = algos::check_ruling_set(g, result.rulers, k + 1, k);
  std::cout << "graph: " << g.summary() << ", power G^" << k << "\n"
            << "rulers: " << result.rulers.size() << "\n"
            << "(" << k + 1 << "," << k
            << ")-ruling set valid: " << (check.ok() ? "yes" : "NO")
            << " (independent=" << check.independent
            << " dominating=" << check.dominating << ")\n"
            << "node-avg awake on G^" << k << ": "
            << analysis::Table::num(
                   result.power_graph_metrics.node_avg_awake())
            << "\n";
  return check.ok() ? 0 : 1;
}

int cmd_beep(const gen::Family family, const VertexId n,
             const std::uint64_t seed) {
  if (g_spec.fault.churn.enabled()) {
    std::cerr << "error: beep does not support --churn (churn repair is "
                 "defined for the MIS engines; use run/sweep)\n";
    return 2;
  }
  const Graph g = gen::make(family, n, seed);
  const bool bulk = g_spec.exec == analysis::ExecEngine::kBulk;
  util::ThreadPool pool(bulk ? analysis::default_trial_threads() : 1);
  sim::Metrics metrics;
  std::vector<std::int64_t> outputs;
  // Crashed and departed nodes are out of the verdict, as in `run`; beep
  // runs no repair, so under live churn the survivors may honestly fail.
  std::vector<std::uint8_t> alive;
  if (bulk) {
    bulk::BulkOptions options;
    options.max_message_bits = 1;
    options.pool = &pool;
    options.fault = g_spec.fault_or_null();
    bulk::BulkBeepingMis protocol;
    auto result = bulk::run_bulk(g, seed, protocol, options);
    alive = result.alive_mask();
    metrics = std::move(result.metrics);
    outputs = std::move(result.outputs);
  } else {
    sim::NetworkOptions options;
    options.max_message_bits = 1;
    options.fault = g_spec.fault_or_null();
    auto result = sim::run_protocol(g, seed, algos::beeping_mis(), options);
    if (g_spec.fault.has_crashes()) alive = result.metrics.alive_mask();
    metrics = std::move(result.metrics);
    outputs = std::move(result.outputs);
  }
  const auto check = analysis::check_mis(g, outputs, &pool, alive);
  std::cout << "graph: " << g.summary() << "\n"
            << "verify: "
            << (alive.empty() ? check.describe() : alive_verdict(check.ok()))
            << "\n"
            << "node-avg awake: "
            << analysis::Table::num(metrics.node_avg_awake())
            << " (all slots; beeping has no sleeping)\n"
            << "max message bits: " << metrics.max_message_bits_seen
            << " (1-bit beeps)\n";
  return check.ok() ? 0 : 1;
}

int cmd_leader(const gen::Family family, const VertexId n,
               const std::uint64_t seed) {
  const Graph g = gen::make(family, n, seed);
  if (!is_connected(g)) {
    std::cerr << "leader: graph is disconnected; one leader per component\n";
  }
  auto [metrics, outputs] =
      sim::run_protocol(g, seed, algos::flood_max_leader_election());
  VertexId leader = kInvalidVertex;
  std::uint64_t leaders = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (outputs[v] == 1) {
      leader = v;
      ++leaders;
    }
  }
  std::cout << "graph: " << g.summary() << "\n"
            << "leaders: " << leaders << " (node " << leader << ")\n"
            << "node-avg decided round (Feuilloley): "
            << analysis::Table::num(metrics.node_avg_decided())
            << ", termination: " << metrics.worst_finish() << " rounds\n";
  return leaders >= 1 ? 0 : 1;
}

int run_command(int argc, char** argv) {
  // Shared flags (--threads / --engine / --crash / --loss / --churn)
  // are valid anywhere; parse_trial_flags strips them, rejects any
  // other `--` token, and leaves the positional arguments.
  std::vector<std::string> args(argv, argv + argc);
  if (!analysis::parse_trial_flags(&args, &g_spec)) return 2;
  if (g_spec.threads != 0) {
    analysis::set_default_trial_threads(g_spec.threads);
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) return usage();
  const std::string command = args[1];
  // A command rejects the shared flags it does not use rather than
  // ignore them.
  const bool trial_command =
      command == "run" || command == "sweep" || command == "beep";
  if (!g_spec.node_metrics && command != "run") {
    std::cerr << "error: --mem-diet applies to run only\n";
    return 2;
  }
  if (g_spec.fault_or_null() != nullptr && !trial_command) {
    std::cerr << (command == "faults"
                      ? "error: faults runs the fault matrix's own scenarios "
                        "(fault::standard_scenarios()); drop the fault flags\n"
                      : "error: fault flags apply to run, sweep and beep "
                        "only\n");
    return 2;
  }
  if (g_spec.exec == analysis::ExecEngine::kBulk && !trial_command &&
      command != "faults") {
    std::cerr << "error: --engine bulk applies to run, sweep, beep and "
                 "faults only\n";
    return 2;
  }
  // The fewest and most positional arguments each command takes after
  // its name: too few prints the usage, and a token past the last is an
  // error rather than silently ignored.
  static constexpr struct {
    std::string_view command;
    int min_args;
    int max_args;
  } kArity[] = {{"families", 0, 0},   {"engines", 0, 0},    {"run", 3, 4},
                {"sweep", 3, 4},      {"faults", 2, 3},     {"tree", 1, 1},
                {"graph", 3, 4},      {"trace", 3, 4},      {"matching", 3, 4},
                {"edge-color", 2, 3}, {"ruling-set", 3, 5}, {"beep", 2, 3},
                {"leader", 2, 3}};
  const auto* arity =
      std::find_if(std::begin(kArity), std::end(kArity),
                   [&](const auto& a) { return a.command == command; });
  if (arity == std::end(kArity) || nargs < 2 + arity->min_args) {
    return usage();
  }
  if (const int max = arity->max_args; nargs > 2 + max) {
    std::cerr << "error: unexpected argument '" << args[2 + max] << "' ("
              << command
              << (max == 0 ? " takes none"
                           : " takes at most " + std::to_string(max))
              << ")\n";
    return 2;
  }
  if (command == "graph" && nargs > 5 && args[5] != "dot") {
    std::cerr << "error: unknown graph format '" << args[5]
              << "' (the only one is dot)\n";
    return 2;
  }
  // faults runs on the bulk back end whatever --engine says; the
  // telemetry manifest below records that.
  if (command == "faults") g_spec.exec = analysis::ExecEngine::kBulk;
  // The telemetry session outlives every per-command pool (they are
  // all locals of the cmd_* functions), so finalize() runs with no
  // instrumented thread still live — the obs/obs.h contract.
  obs::Session obs_session(g_spec.obs);
  if (obs_session.active()) {
    std::string cmdline = "slumber";
    for (int i = 1; i < argc; ++i) {
      cmdline += ' ';
      cmdline += argv[i];
    }
    obs_session.set_info("tool", "slumber");
    obs_session.set_info("command", command);
    obs_session.set_info("cmdline", cmdline);
    obs_session.set_info("engine", analysis::exec_engine_name(g_spec.exec));
    obs_session.set_info("threads",
                         std::to_string(analysis::default_trial_threads()));
  }
  if (command == "families") return cmd_families();
  if (command == "engines") return cmd_engines();
  if (command == "tree") {
    std::uint64_t levels = 0;
    if (!parse_uint(args[2], "tree <levels>", &levels, 0, 62)) return 2;
    return cmd_tree(static_cast<std::uint32_t>(levels));
  }
  if (command == "graph") {
    gen::Family family;
    if (!parse_family(args[2], &family)) return usage();
    VertexId n = 0;
    std::uint64_t seed = 0;
    if (!parse_vertex_count(args[3], "graph <n>", &n) ||
        !parse_uint(args[4], "graph <seed>", &seed)) {
      return 2;
    }
    return cmd_graph(family, n, seed, nargs > 5);
  }
  if (command == "edge-color" || command == "beep" || command == "leader" ||
      command == "faults") {
    gen::Family family;
    if (!parse_family(args[2], &family)) return usage();
    VertexId n = 0;
    std::uint64_t seed = 1;
    if (!parse_vertex_count(args[3], "<n>", &n) ||
        (nargs > 4 && !parse_uint(args[4], "<seed>", &seed))) {
      return 2;
    }
    if (command == "edge-color") return cmd_edge_color(family, n, seed);
    if (command == "beep") return cmd_beep(family, n, seed);
    if (command == "faults") return cmd_faults(family, n, seed);
    return cmd_leader(family, n, seed);
  }
  // Remaining commands share <engine> <family> <n> [arg4].
  analysis::MisEngine engine;
  gen::Family family;
  if (!analysis::engine_from_name(args[2], &engine) ||
      !parse_family(args[3], &family)) {
    return usage();
  }
  VertexId n = 0;
  // arg5 is a 64-bit seed for run/trace/matching but a 32-bit count for
  // sweep (seeds, >= 1, default 3) and ruling-set (k) — bound it per
  // command so the later narrowing cast can never truncate silently.
  const bool sweep = command == "sweep";
  std::uint64_t arg5 = sweep ? 3 : 1;
  const bool narrow_arg5 = command == "ruling-set" || sweep;
  if (!parse_vertex_count(args[4], "<n>", &n) ||
      (nargs > 5 &&
       !parse_uint(args[5],
                   command == "ruling-set" ? "<k>"
                   : sweep                 ? "<seeds>"
                                           : "<seed>",
                   &arg5, sweep ? 1 : 0,
                   narrow_arg5
                       ? std::numeric_limits<std::uint32_t>::max()
                       : std::numeric_limits<std::uint64_t>::max()))) {
    return 2;
  }
  if (command == "run") return cmd_run(engine, family, n, arg5);
  if (sweep) {
    return cmd_sweep(engine, family, n, static_cast<std::uint32_t>(arg5));
  }
  if (command == "trace") return cmd_trace(engine, family, n, arg5);
  if (command == "matching") return cmd_matching(engine, family, n, arg5);
  // ruling-set, the one command left, takes a seed after <k>.
  std::uint64_t seed = 1;
  if (nargs > 6 && !parse_uint(args[6], "<seed>", &seed)) return 2;
  return cmd_ruling_set(engine, family, n, static_cast<std::uint32_t>(arg5),
                        seed);
}

}  // namespace

int main(int argc, char** argv) {
  // Arguments the flag grammar cannot judge on its own, such as a size
  // whose recursion depth overflows the coroutine engine's round clock,
  // are rejected by the library with std::invalid_argument: report them
  // like a usage error instead of aborting.
  try {
    return run_command(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "slumber: " << e.what() << "\n";
    return 2;
  }
}
