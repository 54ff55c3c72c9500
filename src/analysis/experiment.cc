#include "analysis/experiment.h"

#include <stdexcept>

#include "analysis/stats.h"
#include "analysis/verify.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/network.h"

namespace slumber::analysis {

std::vector<MisEngine> all_engines() {
  return {MisEngine::kLubyA,    MisEngine::kLubyB,
          MisEngine::kGreedy,   MisEngine::kGhaffari,
          MisEngine::kSleeping, MisEngine::kFastSleeping};
}

std::string engine_name(MisEngine engine) {
  switch (engine) {
    case MisEngine::kSleeping: return "SleepingMIS";
    case MisEngine::kFastSleeping: return "Fast-SleepingMIS";
    case MisEngine::kLubyA: return "Luby-A";
    case MisEngine::kLubyB: return "Luby-B";
    case MisEngine::kGreedy: return "CRT-greedy";
    case MisEngine::kGhaffari: return "Ghaffari";
  }
  return "unknown";
}

bool engine_uses_sleeping(MisEngine engine) {
  return engine == MisEngine::kSleeping || engine == MisEngine::kFastSleeping;
}

bool engine_from_name(const std::string& name, MisEngine* out) {
  for (const MisEngine engine : all_engines()) {
    if (name == engine_name(engine)) {
      *out = engine;
      return true;
    }
  }
  if (name == "sleeping") *out = MisEngine::kSleeping;
  else if (name == "fast") *out = MisEngine::kFastSleeping;
  else if (name == "luby-a") *out = MisEngine::kLubyA;
  else if (name == "luby-b") *out = MisEngine::kLubyB;
  else if (name == "greedy") *out = MisEngine::kGreedy;
  else if (name == "ghaffari") *out = MisEngine::kGhaffari;
  else return false;
  return true;
}

std::string exec_engine_name(ExecEngine exec) {
  switch (exec) {
    case ExecEngine::kCoroutine: return "coroutine";
    case ExecEngine::kBulk: return "bulk";
  }
  return "unknown";
}

bool exec_engine_from_name(const std::string& name, ExecEngine* out) {
  if (name == "coroutine") *out = ExecEngine::kCoroutine;
  else if (name == "bulk") *out = ExecEngine::kBulk;
  else return false;
  return true;
}

bool engine_supports_bulk(MisEngine engine) {
  return bulk::bulk_mis_protocol(engine) != nullptr;
}

AggregateRun aggregate_runs(const MisRun* begin, const MisRun* end) {
  AggregateRun agg;
  std::vector<double> avg_awake;
  std::vector<double> worst_awake;
  std::vector<double> avg_rounds;
  std::vector<double> worst_rounds;
  std::vector<double> messages;
  for (const MisRun* run = begin; run != end; ++run) {
    ++agg.runs;
    if (!run->valid) {
      ++agg.invalid_runs;
      continue;
    }
    avg_awake.push_back(run->node_avg_awake);
    worst_awake.push_back(static_cast<double>(run->worst_awake));
    avg_rounds.push_back(run->node_avg_rounds);
    worst_rounds.push_back(static_cast<double>(run->worst_rounds));
    messages.push_back(static_cast<double>(run->total_messages));
  }
  const Summary s_avg_awake = summarize(avg_awake);
  agg.node_avg_awake_mean = s_avg_awake.mean;
  agg.node_avg_awake_ci95 = s_avg_awake.ci95;
  agg.worst_awake_mean = summarize(worst_awake).mean;
  agg.node_avg_rounds_mean = summarize(avg_rounds).mean;
  agg.worst_rounds_mean = summarize(worst_rounds).mean;
  agg.messages_mean = summarize(messages).mean;
  return agg;
}

AggregateRun aggregate_runs(const std::vector<MisRun>& runs) {
  return aggregate_runs(runs.data(), runs.data() + runs.size());
}

namespace {

MisRun finish_run(MisEngine engine, std::uint64_t seed, VertexId n,
                  bool valid, sim::Metrics metrics,
                  std::vector<std::int64_t> outputs,
                  std::vector<std::uint8_t> alive) {
  MisRun run;
  run.engine = engine;
  run.seed = seed;
  run.valid = valid;
  // worst_awake and node_avg_rounds read 0 without per-node metrics.
  run.node_avg_awake =
      n == 0 ? 0.0
             : static_cast<double>(metrics.total_awake_node_rounds) /
                   static_cast<double>(n);
  run.worst_awake = metrics.worst_awake();
  run.node_avg_rounds = metrics.node_avg_finish();
  run.worst_rounds = metrics.makespan;
  run.total_messages = metrics.total_messages;
  for (std::int64_t out : outputs) {
    if (out == 1) ++run.mis_size;
  }
  run.metrics = std::move(metrics);
  run.outputs = std::move(outputs);
  run.alive = std::move(alive);
  if (obs::enabled()) {
    // End-of-run gauges for the export timeline (write-only telemetry).
    obs::counter("messages_total",
                 static_cast<double>(run.metrics.total_messages));
    obs::counter("messages_lost",
                 static_cast<double>(run.metrics.injected_losses));
    obs::counter("crashed_nodes",
                 static_cast<double>(run.metrics.crashed_nodes));
    // Live-dynamics end-of-run gauges (the engine also streams these
    // cumulatively from apply_dynamics; the final repeat closes the
    // series at the run's totals).
    if (run.metrics.live_leaves > 0 || run.metrics.live_rejoins > 0 ||
        run.metrics.recovered_nodes > 0) {
      obs::counter("live_leaves",
                   static_cast<double>(run.metrics.live_leaves));
      obs::counter("live_rejoins",
                   static_cast<double>(run.metrics.live_rejoins));
      obs::counter("recovered_nodes",
                   static_cast<double>(run.metrics.recovered_nodes));
    }
  }
  return run;
}

}  // namespace

MisRun run_mis(MisEngine engine, const Graph& g, std::uint64_t seed,
               const RunOptions& opts) {
  obs::Span run_span("run", "run_mis", seed);
  const bool churn = opts.fault != nullptr && opts.fault->churn.enabled();
  const bool live =
      opts.fault != nullptr && opts.fault->has_live_dynamics();
  if (opts.exec == ExecEngine::kBulk) {
    auto protocol = bulk::bulk_mis_protocol(engine, opts.trace);
    if (protocol == nullptr) {
      throw std::invalid_argument("run_mis: engine " + engine_name(engine) +
                                  " has no bulk implementation");
    }
    bulk::BulkOptions options;
    options.max_message_bits = sim::congest_bits_for(g.num_vertices());
    options.pool = opts.pool;
    options.fault = opts.fault;
    options.node_metrics = opts.node_metrics;
    bulk::BulkResult result = bulk::run_bulk(g, seed, *protocol, options);
    const VertexId n = g.num_vertices();
    std::vector<std::uint8_t> alive = result.alive_mask();
    if (churn && alive.empty()) alive.assign(n, 1);
    if (live && !churn) {
      // Live-dynamics run: the survivors' outputs can carry damage from
      // mid-run leaves/crashes (a dominator that vanished, a re-entrant
      // that never re-decided). Repair once on the final alive subgraph
      // so the reported MIS — and validity — refer to the network that
      // actually remains.
      obs::progress_phase("repair");
      obs::Span repair_span("fault", "live_repair", seed);
      const fault::FaultState fs(opts.fault, seed, n);
      std::uint64_t demotions = 0;
      std::uint64_t promotions = 0;
      result.metrics.live_repair_rounds = fault::repair_mis(
          g, alive, result.outputs, fs.seed(), opts.pool, &demotions,
          &promotions);
      obs::counter("live_repair_rounds",
                   static_cast<double>(result.metrics.live_repair_rounds));
    }
    // With dead nodes, `valid` says whether the survivors' output is an
    // MIS of their subgraph (under crashes it may honestly not be: that
    // is the damage churn's initial repair would fix). Churn runs take
    // churn's verdict, checked after every batch.
    bool valid = !churn && check_mis(g, result.outputs, opts.pool, alive).ok();
    if (churn) {
      // Long-running trial: after the protocol converges, nodes leave
      // and join in batches; each batch is followed by an incremental
      // MIS repair. The fault seed matches the engine's, so the whole
      // experiment is one deterministic function of (plan, seed).
      obs::progress_phase("churn");
      obs::Span churn_span("fault", "churn", opts.fault->churn.batches);
      const fault::FaultState fs(opts.fault, seed, n);
      const fault::ChurnReport report = fault::run_churn(
          g, opts.fault->churn, fs.seed(), alive, result.outputs, opts.pool);
      obs::counter("churn_repair_rounds",
                   static_cast<double>(report.repair_rounds));
      result.metrics.churn_batches = report.batches;
      result.metrics.churn_leaves = report.leaves;
      result.metrics.churn_joins = report.joins;
      result.metrics.churn_repair_rounds = report.repair_rounds;
      valid = report.valid;
    }
    return finish_run(engine, seed, n, valid, std::move(result.metrics),
                      std::move(result.outputs), std::move(alive));
  }
  if (churn) {
    throw std::invalid_argument("run_mis: churn requires the bulk engine");
  }
  if (live) {
    throw std::invalid_argument(
        "run_mis: live churn and crash recovery require the bulk engine");
  }
  const sim::Protocol protocol = algos::mis_protocol(engine, opts.trace);
  sim::NetworkOptions options;
  options.max_message_bits = sim::congest_bits_for(g.num_vertices());
  options.fault = opts.fault;
  auto [metrics, outputs] = sim::run_protocol(g, seed, protocol, options);
  const bool crashes = opts.fault != nullptr && opts.fault->has_crashes();
  std::vector<std::uint8_t> alive =
      crashes ? metrics.alive_mask() : std::vector<std::uint8_t>{};
  const bool valid = check_mis(g, outputs, opts.pool, alive).ok();
  return finish_run(engine, seed, g.num_vertices(), valid,
                    std::move(metrics), std::move(outputs), std::move(alive));
}

std::function<Graph(std::uint64_t)> graph_factory(gen::Family family,
                                                  VertexId n) {
  return [family, n](std::uint64_t seed) { return gen::make(family, n, seed); };
}

}  // namespace slumber::analysis
