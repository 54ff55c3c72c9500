// Fault-injection degradation across the bulk MIS protocols.
//
// For one G(n, 8/n) instance the bench runs every bulk MIS engine
// (Sleeping, Luby-A, Luby-B, CRT-greedy) under seven fault scenarios —
// fault-free, 1% symmetric message loss, Gilbert–Elliott burst loss,
// probabilistic fail-stop crashes, crashes with live recovery, mid-run
// leave/join churn, and loss combined with post-run membership churn
// plus incremental repair — and reports what each scenario costs:
// crashed and recovered nodes, live leave/rejoin counts, injected
// losses, the surviving MIS's size, and the damage to the MIS
// invariant on the alive-induced subgraph (independence violations and
// uncovered nodes), plus the repair effort (post-run churn passes or
// the live-dynamics final repair). Fault evaluation is pure keyed
// draws, so every cell is reproducible bit for bit at any lane count.
//
// The shared flag grammar (analysis/trial_spec.h) applies: --threads
// sets the intra-trial lane count, --gen picks the G(n, p) schedule
// (sharded builds CSR-only memory-diet graphs in parallel — the 10^7
// recipe). The paper-scale invocation:
//
//   bench_fault_scaling 10000000 --threads 8 --gen sharded
//
// The process exits nonzero when a fault-free, churn, or live-dynamics
// row ends in an invalid MIS. The shared telemetry flags (--obs-out,
// --obs-trace, --progress) work here too; see obs/obs.h.
//
//   bench_fault_scaling [n] [seed] [--threads N] [--gen legacy|sharded]
//       [--obs-out F] [--obs-trace F] [--progress]
//       (default: 1,000,000 / 1)
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/table.h"
#include "analysis/trial_spec.h"
#include "analysis/verify.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

using namespace slumber;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t parse_or_die(const std::string& token, const char* what) {
  std::uint64_t value = 0;
  if (!util::parse_uint(token, what, &value)) std::exit(2);
  return value;
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

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  analysis::TrialSpec spec;
  spec.exec = analysis::ExecEngine::kBulk;
  if (!analysis::parse_trial_flags(&args, &spec)) return 2;
  const VertexId n =
      args.size() > 1 ? static_cast<VertexId>(parse_or_die(args[1], "<n>"))
                      : 1'000'000;
  const std::uint64_t seed = args.size() > 2 ? parse_or_die(args[2], "<seed>")
                                             : 1;
  const unsigned threads =
      spec.threads != 0 ? spec.threads : analysis::default_trial_threads();
  // Declared before the pool so finalize() runs after every
  // instrumented worker has exited (the obs/obs.h contract).
  obs::Session obs_session(spec.obs);
  if (obs_session.active()) {
    obs_session.set_info("tool", "bench_fault_scaling");
    obs_session.set_info("n", std::to_string(n));
    obs_session.set_info("threads", std::to_string(threads));
    obs_session.set_info("gen", gen::schedule_name(spec.schedule));
  }
  util::ThreadPool pool(threads);

  const auto build_start = std::chrono::steady_clock::now();
  gen::MakeOptions make_options;
  make_options.schedule = spec.schedule;
  make_options.pool = &pool;
  const Graph g = gen::make(gen::Family::kGnpSparse, n, seed, make_options);
  const double build_ms = ms_since(build_start);
  std::cout << "graph: " << g.summary() << " (" << threads << " lanes, "
            << gen::schedule_name(spec.schedule) << " gen, build "
            << analysis::Table::num(build_ms, 0) << " ms)\n\n";

  struct Scenario {
    std::string name;
    fault::FaultPlan plan;
  };
  std::vector<Scenario> scenarios(7);
  scenarios[0].name = "none";
  scenarios[1].name = "loss 1%";
  scenarios[1].plan.loss_prob = 0.01;
  scenarios[2].name = "burst loss";
  // Gilbert–Elliott per-edge channel: ~9% stationary loss arriving in
  // bursts (a bad epoch persists w.p. 0.8), epochs of 8 rounds.
  scenarios[2].plan.burst = {.p_on = 0.02, .p_off = 0.2, .epoch_len = 8};
  scenarios[3].name = "crash";
  // A handful of scheduled crashes plus a per-awake-round rate sized so
  // hundreds of nodes fail over an O(log n) awake lifetime.
  scenarios[3].plan.crash_schedule = {{0, 1}, {1, 4}, {2, 16}};
  scenarios[3].plan.crash_prob = 1e-6;
  scenarios[4].name = "crash+recover";
  scenarios[4].plan.crash_schedule = {{0, 1}, {1, 4}, {2, 16}};
  scenarios[4].plan.crash_prob = 1e-6;
  scenarios[4].plan.recover.mean_down = 16;
  scenarios[5].name = "live churn";
  // Mid-run leave/join between bulk frames; leavers return after a
  // Geometric(0.2) downtime and re-enter in a reset state.
  scenarios[5].plan.live_churn = {.leave_prob = 1e-5, .join_prob = 0.2};
  scenarios[6].name = "loss+churn";
  scenarios[6].plan.loss_prob = 0.01;
  scenarios[6].plan.churn.leave_prob = 0.05;
  scenarios[6].plan.churn.join_prob = 0.5;
  scenarios[6].plan.churn.batches = 3;

  analysis::Table table({"protocol", "scenario", "crashed", "recovered",
                         "live -/+", "lost msgs", "alive", "MIS size",
                         "indep viol", "uncovered", "repair", "valid",
                         "run ms"});
  bool all_clean_valid = true;
  bool churn_valid = true;
  bool live_valid = true;
  for (const analysis::MisEngine engine :
       {analysis::MisEngine::kSleeping, analysis::MisEngine::kLubyA,
        analysis::MisEngine::kLubyB, analysis::MisEngine::kGreedy}) {
    for (const Scenario& scenario : scenarios) {
      const auto start = std::chrono::steady_clock::now();
      const fault::FaultPlan* plan =
          scenario.plan.empty() ? nullptr : &scenario.plan;
      const analysis::MisRun run = analysis::run_mis(
          engine, g, seed, {.exec = analysis::ExecEngine::kBulk, .pool = &pool,
                            .fault = plan, .node_metrics = false});
      const double run_ms = ms_since(start);
      const Damage damage = measure_damage(g, run);
      std::uint64_t alive = n;
      for (const std::uint8_t a : run.alive) alive -= a == 0 ? 1 : 0;
      if (plan == nullptr) all_clean_valid &= run.valid;
      if (scenario.plan.churn.enabled()) churn_valid &= run.valid;
      if (scenario.plan.has_live_dynamics()) live_valid &= run.valid;
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
  if (!all_clean_valid) {
    std::cerr << "FAULT-SCALING FAILURE: a fault-free run produced an "
                 "invalid MIS\n";
    return 1;
  }
  if (!churn_valid) {
    std::cerr << "FAULT-SCALING FAILURE: churn repair left an invalid MIS "
                 "on the alive subgraph\n";
    return 1;
  }
  if (!live_valid) {
    std::cerr << "FAULT-SCALING FAILURE: a live-dynamics run's final repair "
                 "left an invalid MIS on the alive subgraph\n";
    return 1;
  }
  return 0;
}
