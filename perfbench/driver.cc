// The slumber perf benchmark driver. It times calls into each layer's
// public functions from outside the library and checks every result.
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1
//                    [--obs-out FILE]
//
// Workloads (each a single process at kLanes lanes):
//   bulk-sleeping-8M  op = sharded G(8M, avg deg 8) + bulk SleepingMIS
//                     (node_metrics off) + check_mis
//   bulk-faults-2M    op = one run_mis cell of {Sleeping, Luby-A, Luby-B,
//                     CRT-greedy} x 7 fault scenarios on one G(2M, 8/n)
//   coroutine-trials  op = one aggregate_mis cell of {Sleeping,
//                     Fast-Sleeping} x {gnp_sparse, unit_disk,
//                     barabasi_albert} at n = 65,536 on the coroutine
//                     engine, trials sharded over kLanes lanes
//
// Every op's public results (outputs, alive mask, sim::Metrics) are
// hashed. An op fails when its hash, damage counts or validity differ
// from the first run of the same input in this process. With --trace 0
// the driver times ops until T seconds have passed and reports the
// end-to-end metrics. With --trace 1 it runs a fixed traced section
// under an obs::Session that writes FILE (perfbench/obs_reader.py folds
// it into per-layer self times) plus direct layer probes, a 1-lane
// reference run and an untraced twin of the traced section.
//
// The last stdout line is one JSON object: {"attempted", "failed",
// "traced_ops", "lanes", "metrics": {name: value}}.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/verify.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "util/thread_pool.h"

namespace {

using namespace slumber;
using Clock = std::chrono::steady_clock;
using analysis::MisEngine;

constexpr unsigned kLanes = 4;
constexpr int kSetupReps = 5;
constexpr double kAvgDegree = 8.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-sensitive 64-bit digest of an op's public results.
class Digest {
 public:
  void add(std::uint64_t value) { state_ = mix64(state_ ^ value); }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(std::uint64_t{values.size()});
    for (const T value : values) add(static_cast<std::uint64_t>(value));
  }
  void add(const sim::Metrics& m) {
    for (const std::uint64_t field :
         {m.makespan, m.total_messages, m.dropped_messages, m.injected_losses,
          m.crashed_nodes, m.total_awake_node_rounds, m.distinct_active_rounds,
          m.congest_violations, std::uint64_t{m.max_message_bits_seen},
          m.churn_batches, m.churn_leaves, m.churn_joins,
          m.churn_repair_rounds, m.live_leaves, m.live_rejoins,
          m.recovered_nodes, m.live_repair_rounds}) {
      add(field);
    }
    add(std::uint64_t{m.node.size()});
    for (const sim::NodeMetrics& node : m.node) {
      for (const std::uint64_t field :
           {node.awake_rounds, node.finish_round, node.decided_round,
            node.awake_at_decision, node.messages_sent,
            node.messages_received, std::uint64_t{node.crashed}}) {
        add(field);
      }
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// Everything the driver reports; printed as the final JSON line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t traced_ops = 0;
  std::map<std::string, double> metrics;
  /// Every timed op's seconds, in run order.
  std::vector<double> op_s;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cout << "FAILED: " << what << "\n";
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string jsonl_path;
};

/// Per-workload input keys derived from --seed.
std::uint64_t graph_seed(std::uint64_t seed) { return mix64(seed ^ 0x67); }
std::uint64_t run_seed(std::uint64_t seed) { return mix64(seed ^ 0x72); }

obs::Options trace_options(const Options& opt) {
  obs::Options options;
  options.jsonl_path = opt.jsonl_path;
  return options;
}

double peak_rss_mb() {
  return static_cast<double>(obs::peak_rss_kb()) / 1024.0;
}

Graph sharded_gnp(VertexId n, std::uint64_t seed, util::ThreadPool* pool) {
  obs::Span span("bench", "gen", n);
  return gen::gnp_avg_degree_sharded_csr(n, kAvgDegree, seed,
                                         {.pool = pool});
}

/// Times Graph::from_csr on a copy of g's CSR arrays; the rebuilt graph
/// must equal g.
double time_from_csr(const Graph& g, util::ThreadPool* pool, Report& report) {
  const VertexId n = g.num_vertices();
  util::PodVector<CsrOffset> offsets(std::size_t{n} + 1);
  for (VertexId v = 0; v <= n; ++v) offsets[v] = g.adjacency_offset(v);
  util::PodVector<VertexId> adjacency(g.degree_sum());
  if (n > 0 && g.degree_sum() > 0) {
    std::memcpy(adjacency.data(), g.neighbors(0).data(),
                g.degree_sum() * sizeof(VertexId));
  }
  const auto start = Clock::now();
  const Graph rebuilt =
      Graph::from_csr(n, std::move(offsets), std::move(adjacency), pool);
  const double seconds = seconds_since(start);
  report.check(rebuilt.same_csr(g), "from_csr rebuilt a different graph");
  return seconds;
}

double time_check_mis(const Graph& g, const std::vector<std::int64_t>& out,
                      Report& report) {
  const auto start = Clock::now();
  const bool ok = analysis::check_mis(g, out).ok();
  const double seconds = seconds_since(start);
  report.check(ok, "check_mis probe rejected a valid MIS");
  return seconds;
}

/// Fork-join cost of the pool: an empty parallel_for_range with one
/// item per lane, and a BulkEngine::scan_awake with a trivial body over
/// a fixed 65,536-node awake set.
void probe_pool(util::ThreadPool& pool, Report& report) {
  constexpr int kWarm = 200;
  constexpr int kReps = 4000;
  const auto empty = [](std::size_t, std::size_t, std::size_t) {};
  for (int i = 0; i < kWarm; ++i) {
    pool.parallel_for_range(pool.num_threads(), empty);
  }
  auto start = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    pool.parallel_for_range(pool.num_threads(), empty);
  }
  report.metrics["pool.dispatch_us"] = seconds_since(start) / kReps * 1e6;

  const Graph g = gen::gnp_avg_degree_sharded_csr(65536, kAvgDegree, 1,
                                                  {.pool = &pool});
  bulk::BulkEngine engine(g, 1, {.pool = &pool});
  std::vector<VertexId> awake(g.num_vertices());
  std::iota(awake.begin(), awake.end(), VertexId{0});
  engine.mark_awake(awake);
  const auto trivial = [](bulk::BulkChunk& chunk,
                          std::span<const VertexId> part) {
    chunk.bump(part.size());
  };
  for (int i = 0; i < kWarm; ++i) engine.scan_awake(awake, trivial);
  std::uint64_t counted = 0;
  start = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    counted += engine.scan_awake(awake, trivial).user;
  }
  report.metrics["pool.scan_dispatch_us"] = seconds_since(start) / kReps * 1e6;
  report.check(counted == std::uint64_t{kReps} * awake.size(),
               "scan_awake probe lost nodes");
}

/// Runs `unit` (one op, or one pass over a cell matrix) once, then again
/// while one more unit of the mean length so far would end the loop
/// nearer to `seconds` than stopping now. Returns the loop's wall time.
template <typename Unit>
double timed_loop(double seconds, const Unit& unit) {
  const auto start = Clock::now();
  int units = 0;
  do {
    unit();
    ++units;
  } while (seconds_since(start) * (2 * units + 1) / (2 * units) <= seconds);
  return seconds_since(start);
}

/// Runs `setup` kSetupReps times and reports the median as setup_s;
/// returns the last set-up state.
template <typename Setup>
auto repeated_setup(Report& report, const Setup& setup) {
  std::vector<double> times;
  auto start = Clock::now();
  auto state = setup();
  times.push_back(seconds_since(start));
  for (int rep = 1; rep < kSetupReps; ++rep) {
    start = Clock::now();
    state = setup();
    times.push_back(seconds_since(start));
  }
  report.metrics["setup_s"] = median(times);
  return state;
}

// ---------------------------------------------------------------------
// bulk-sleeping-8M

constexpr VertexId kBigN = 8'000'000;
constexpr VertexId kWarmN = VertexId{1} << 18;

struct SleepingOp {
  Graph graph;
  bulk::BulkResult result;
  double gen_s = 0.0;
  double run_s = 0.0;
  double verify_s = 0.0;
  double total_s = 0.0;
  bool valid = false;

  std::uint64_t digest() const {
    Digest d;
    d.add(std::uint64_t{graph.num_edges()});
    d.add(std::uint64_t{graph.max_degree()});
    d.add_all(result.outputs);
    d.add(result.metrics);
    d.add(bulk::saturate_round(result.virtual_makespan));
    return d.value();
  }
  double node_avg_awake() const {
    return static_cast<double>(result.metrics.total_awake_node_rounds) /
           static_cast<double>(graph.num_vertices());
  }
};

/// One op: generate, run bulk SleepingMIS in memory-diet mode, verify.
/// A null pool is the serial reference path.
SleepingOp sleeping_op(VertexId n, std::uint64_t seed,
                       util::ThreadPool* pool) {
  obs::Span span("bench", "op", n);
  SleepingOp op;
  const auto start = Clock::now();
  op.graph = sharded_gnp(n, graph_seed(seed), pool);
  op.gen_s = seconds_since(start);
  auto mark = Clock::now();
  {
    obs::Span run_span("bench", "run", n);
    bulk::BulkOptions options;
    options.max_message_bits = sim::congest_bits_for(n);
    options.pool = pool;
    options.node_metrics = false;
    op.result =
        bulk::bulk_sleeping_mis(op.graph, run_seed(seed), {}, nullptr,
                                options);
  }
  op.run_s = seconds_since(mark);
  mark = Clock::now();
  {
    obs::Span verify_span("bench", "verify", n);
    op.valid = analysis::check_mis(op.graph, op.result.outputs).ok();
  }
  op.verify_s = seconds_since(mark);
  op.total_s = seconds_since(start);
  return op;
}

void bulk_sleeping(const Options& opt, Report& report) {
  auto pool = repeated_setup(report, [] {
    auto fresh = std::make_unique<util::ThreadPool>(kLanes);
    const SleepingOp warm = sleeping_op(kWarmN, 0, fresh.get());
    if (!warm.valid) std::cout << "warning: warm-up op invalid\n";
    return fresh;
  });

  if (!opt.trace) {
    std::optional<std::uint64_t> ref;
    double ref_awake = 0.0;
    std::vector<double> op_s;
    std::vector<double> gen_rate;
    std::vector<double> run_rate;
    const double loop_s = timed_loop(opt.seconds, [&] {
      const SleepingOp op = sleeping_op(kBigN, opt.seed, pool.get());
      op_s.push_back(op.total_s);
      gen_rate.push_back(static_cast<double>(op.graph.num_edges()) / op.gen_s);
      run_rate.push_back(
          static_cast<double>(op.result.metrics.total_awake_node_rounds) /
          op.run_s);
      const std::uint64_t digest = op.digest();
      if (!ref) {
        ref = digest;
        ref_awake = op.node_avg_awake();
      }
      report.check(op.valid && digest == *ref &&
                       op.node_avg_awake() == ref_awake,
                   "bulk-sleeping op " + std::to_string(op_s.size()));
    });
    report.op_s = op_s;
    report.metrics["op_p50_s"] = median(op_s);
    report.metrics["ops_per_s"] = static_cast<double>(op_s.size()) / loop_s;
    report.metrics["awake_node_rounds_per_s"] = median(run_rate);
    report.metrics["gen_edges_per_s"] = median(gen_rate);
    report.metrics["node_avg_awake"] = ref_awake;
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  // Traced section: the traced op between two untraced twins (so both
  // sides see a warm process), then probes and the 1-lane reference.
  double untraced_gen_s = 0.0;
  double untraced_run_s = 0.0;
  double untraced_total_s = 0.0;
  std::optional<std::uint64_t> untraced_digest;
  const auto untraced_twin = [&] {
    const SleepingOp op = sleeping_op(kBigN, opt.seed, pool.get());
    if (!untraced_digest) untraced_digest = op.digest();
    report.check(op.valid && op.digest() == *untraced_digest,
                 "untraced bulk-sleeping op differs");
    untraced_gen_s += 0.5 * op.gen_s;
    untraced_run_s += 0.5 * op.run_s;
    untraced_total_s += 0.5 * op.total_s;
  };
  untraced_twin();
  SleepingOp traced;
  {
    obs::Session session(trace_options(opt));
    session.set_info("tool", "perfbench");
    session.set_info("workload", opt.workload);
    traced = sleeping_op(kBigN, opt.seed, pool.get());
  }
  report.traced_ops = 1;
  report.check(traced.valid && traced.digest() == *untraced_digest,
               "traced op differs from untraced op");
  untraced_twin();
  report.metrics["obs.overhead_frac"] = traced.total_s / untraced_total_s - 1;
  report.metrics["graph.gen_s"] = untraced_gen_s;
  report.metrics["graph.edges"] =
      static_cast<double>(traced.graph.num_edges());
  report.metrics["bulk.run_s"] = untraced_run_s;
  report.metrics["bulk.awake_node_rounds"] =
      static_cast<double>(traced.result.metrics.total_awake_node_rounds);
  report.metrics["bulk.messages"] =
      static_cast<double>(traced.result.metrics.total_messages);
  report.metrics["fault.clean_run_s"] = untraced_run_s;
  report.metrics["analysis.verify_s"] = traced.verify_s;
  report.metrics["graph.from_csr_s"] =
      time_from_csr(traced.graph, pool.get(), report);

  const SleepingOp serial = sleeping_op(kBigN, opt.seed, nullptr);
  report.check(serial.graph.same_csr(traced.graph),
               "1-lane graph differs from the 4-lane graph");
  report.check(serial.result.outputs == traced.result.outputs &&
                   serial.result.metrics == traced.result.metrics &&
                   serial.result.virtual_makespan ==
                       traced.result.virtual_makespan,
               "1-lane run differs from the 4-lane run");
  report.metrics["graph.gen_scaling_eff"] =
      serial.gen_s / (kLanes * untraced_gen_s);
  report.metrics["bulk.run_scaling_eff"] =
      serial.run_s / (kLanes * untraced_run_s);
  probe_pool(*pool, report);
}

// ---------------------------------------------------------------------
// bulk-faults-2M

constexpr VertexId kFaultN = 2'000'000;

struct Scenario {
  const char* name;
  fault::FaultPlan plan;
  // Loss and crash-only cells are deliberately damaged: they fail on a
  // changed hash or damage count, never on validity itself.
  bool damaged = false;
};

/// The seven scenarios of bench/bench_fault_scaling.cc.
std::vector<Scenario> fault_scenarios() {
  std::vector<Scenario> s(7);
  s[0].name = "none";
  s[1].name = "loss 1%";
  s[1].plan.loss_prob = 0.01;
  s[1].damaged = true;
  s[2].name = "burst loss";
  s[2].plan.burst = {.p_on = 0.02, .p_off = 0.2, .epoch_len = 8};
  s[2].damaged = true;
  s[3].name = "crash";
  s[3].plan.crash_schedule = {{0, 1}, {1, 4}, {2, 16}};
  s[3].plan.crash_prob = 1e-6;
  s[3].damaged = true;
  s[4].name = "crash+recover";
  s[4].plan.crash_schedule = {{0, 1}, {1, 4}, {2, 16}};
  s[4].plan.crash_prob = 1e-6;
  s[4].plan.recover.mean_down = 16;
  s[5].name = "live churn";
  s[5].plan.live_churn = {.leave_prob = 1e-5, .join_prob = 0.2};
  s[6].name = "loss+churn";
  s[6].plan.loss_prob = 0.01;
  s[6].plan.churn.leave_prob = 0.05;
  s[6].plan.churn.join_prob = 0.5;
  s[6].plan.churn.batches = 3;
  return s;
}

constexpr MisEngine kFaultEngines[] = {MisEngine::kSleeping, MisEngine::kLubyA,
                                       MisEngine::kLubyB, MisEngine::kGreedy};

/// Edges with two alive MIS endpoints, and alive nodes neither in the
/// MIS nor next to an alive MIS node.
std::pair<std::uint64_t, std::uint64_t> measure_damage(
    const Graph& g, const analysis::MisRun& run) {
  const auto alive = [&](VertexId v) {
    return run.alive.empty() || run.alive[v] != 0;
  };
  std::uint64_t violations = 0;
  std::uint64_t uncovered = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!alive(v)) continue;
    bool covered = run.outputs[v] == 1;
    for (const VertexId u : g.neighbors(v)) {
      if (!alive(u) || run.outputs[u] != 1) continue;
      if (run.outputs[v] == 1 && u > v) ++violations;
      if (run.outputs[v] == 0) covered = true;
    }
    if (!covered) ++uncovered;
  }
  return {violations, uncovered};
}

struct FaultCellRef {
  std::uint64_t digest = 0;
  std::pair<std::uint64_t, std::uint64_t> damage;
};

struct FaultBench {
  std::unique_ptr<util::ThreadPool> pool;
  Graph graph;
  double gen_s = 0.0;
  std::vector<Scenario> scenarios = fault_scenarios();
  std::vector<std::optional<FaultCellRef>> refs;

  std::size_t cells() const {
    return std::size(kFaultEngines) * scenarios.size();
  }

  analysis::MisRun run_cell(std::size_t cell, std::uint64_t seed,
                            util::ThreadPool* lanes) const {
    const Scenario& scenario = scenarios[cell % scenarios.size()];
    const MisEngine engine = kFaultEngines[cell / scenarios.size()];
    return analysis::run_mis(
        engine, graph, run_seed(seed),
        {.exec = analysis::ExecEngine::kBulk, .pool = lanes,
         .fault = scenario.plan.empty() ? nullptr : &scenario.plan,
         .node_metrics = false});
  }

  /// Runs one cell at kLanes lanes and checks it against the cell's
  /// reference (the cell's first run in this process).
  double op(std::size_t cell, std::uint64_t seed, Report& report,
            analysis::MisRun* out = nullptr) {
    const Scenario& scenario = scenarios[cell % scenarios.size()];
    const auto start = Clock::now();
    analysis::MisRun run;
    {
      obs::Span span("bench", "op", cell);
      run = run_cell(cell, seed, pool.get());
    }
    const double seconds = seconds_since(start);
    Digest d;
    d.add_all(run.outputs);
    d.add_all(run.alive);
    d.add(run.metrics);
    d.add(std::uint64_t{run.valid});
    FaultCellRef now{d.value(), {0, 0}};
    if (scenario.damaged) now.damage = measure_damage(graph, run);
    if (!refs[cell]) refs[cell] = now;
    const bool ok = (scenario.damaged || run.valid) &&
                    now.digest == refs[cell]->digest &&
                    now.damage == refs[cell]->damage;
    report.check(ok, std::string("fault cell ") +
                         analysis::engine_name(
                             kFaultEngines[cell / scenarios.size()]) +
                         " / " + scenario.name);
    if (out != nullptr) *out = std::move(run);
    return seconds;
  }
};

FaultBench fault_setup(std::uint64_t seed) {
  FaultBench bench;
  bench.pool = std::make_unique<util::ThreadPool>(kLanes);
  const auto start = Clock::now();
  bench.graph = sharded_gnp(kFaultN, graph_seed(seed), bench.pool.get());
  bench.gen_s = seconds_since(start);
  bench.refs.resize(bench.cells());
  return bench;
}

void bulk_faults(const Options& opt, Report& report) {
  std::vector<double> gen_times;
  FaultBench bench = repeated_setup(report, [&] {
    FaultBench fresh = fault_setup(opt.seed);
    gen_times.push_back(fresh.gen_s);
    return fresh;
  });
  const double edges = static_cast<double>(bench.graph.num_edges());
  const std::size_t cells = bench.cells();
  const std::size_t per_engine = bench.scenarios.size();

  // Whole passes over the cell matrix, so every run times the same mix.
  std::vector<double> op_s;
  std::vector<analysis::MisRun> first_pass(cells);
  std::uint64_t awake_rounds = 0;
  const auto pass = [&] {
    for (std::size_t cell = 0; cell < cells; ++cell) {
      analysis::MisRun run;
      op_s.push_back(bench.op(cell, opt.seed, report, &run));
      awake_rounds += run.metrics.total_awake_node_rounds;
      if (op_s.size() <= cells) first_pass[cell] = std::move(run);
    }
  };
  const double loop_s =
      opt.trace ? (pass(), 0.0) : timed_loop(opt.seconds, pass);
  report.op_s = op_s;

  std::uint64_t pass_awake = 0;
  for (const analysis::MisRun& run : first_pass) {
    pass_awake += run.metrics.total_awake_node_rounds;
  }
  if (!opt.trace) {
    report.metrics["op_p50_s"] = median(op_s);
    report.metrics["ops_per_s"] = static_cast<double>(op_s.size()) / loop_s;
    report.metrics["awake_node_rounds_per_s"] =
        static_cast<double>(awake_rounds) / sum(op_s);
    report.metrics["gen_edges_per_s"] = edges / median(gen_times);
    report.metrics["node_avg_awake"] =
        static_cast<double>(pass_awake) /
        (static_cast<double>(cells) * kFaultN);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  // Traced section: regenerate the graph (must match the set-up graph)
  // and rerun one pass; op_s already holds the untraced pass.
  std::vector<double> traced_s;
  {
    obs::Session session(trace_options(opt));
    session.set_info("tool", "perfbench");
    session.set_info("workload", opt.workload);
    const Graph again =
        sharded_gnp(kFaultN, graph_seed(opt.seed), bench.pool.get());
    report.check(again.same_csr(bench.graph),
                 "traced regeneration differs from the set-up graph");
    for (std::size_t cell = 0; cell < cells; ++cell) {
      traced_s.push_back(bench.op(cell, opt.seed, report));
    }
  }
  report.traced_ops = cells;
  // Untraced twin pass after the traced one, so both sides see a warm
  // process.
  std::vector<double> twin_s;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    twin_s.push_back(bench.op(cell, opt.seed, report));
  }
  report.metrics["obs.overhead_frac"] =
      sum(traced_s) / (0.5 * (sum(op_s) + sum(twin_s))) - 1;

  // Per-scenario mean op time over the four engines, untraced pass.
  const auto scenario_mean = [&](std::initializer_list<std::size_t> which) {
    double total = 0.0;
    for (std::size_t e = 0; e < std::size(kFaultEngines); ++e) {
      for (const std::size_t s : which) total += op_s[e * per_engine + s];
    }
    return total /
           static_cast<double>(which.size() * std::size(kFaultEngines));
  };
  report.metrics["fault.clean_run_s"] = scenario_mean({0});
  report.metrics["fault.lossy_run_s"] = scenario_mean({1, 2});
  report.metrics["fault.dynamics_run_s"] = scenario_mean({3, 4, 5, 6});
  std::uint64_t repair_rounds = 0;
  std::uint64_t losses = 0;
  std::uint64_t messages = 0;
  for (const analysis::MisRun& run : first_pass) {
    repair_rounds +=
        run.metrics.churn_repair_rounds + run.metrics.live_repair_rounds;
    losses += run.metrics.injected_losses;
    messages += run.metrics.total_messages;
  }
  report.metrics["fault.repair_rounds"] =
      static_cast<double>(repair_rounds) / static_cast<double>(cells);
  report.metrics["fault.injected_losses"] =
      static_cast<double>(losses) / static_cast<double>(cells);
  report.metrics["bulk.run_s"] = sum(op_s) / static_cast<double>(cells);
  report.metrics["bulk.awake_node_rounds"] =
      static_cast<double>(pass_awake) / static_cast<double>(cells);
  report.metrics["bulk.messages"] =
      static_cast<double>(messages) / static_cast<double>(cells);
  report.metrics["graph.gen_s"] = median(gen_times);
  report.metrics["graph.edges"] = edges;

  // The clean SleepingMIS cell (cell 0) is the verify and 1-lane probe.
  const analysis::MisRun& clean = first_pass[0];
  report.metrics["analysis.verify_s"] =
      time_check_mis(bench.graph, clean.outputs, report);
  report.metrics["graph.from_csr_s"] =
      time_from_csr(bench.graph, bench.pool.get(), report);
  auto start = Clock::now();
  const Graph serial_graph = gen::gnp_avg_degree_sharded_csr(
      kFaultN, kAvgDegree, graph_seed(opt.seed));
  report.metrics["graph.gen_scaling_eff"] =
      seconds_since(start) / (kLanes * median(gen_times));
  report.check(serial_graph.same_csr(bench.graph),
               "1-lane graph differs from the 4-lane graph");
  start = Clock::now();
  const analysis::MisRun serial = bench.run_cell(0, opt.seed, nullptr);
  report.metrics["bulk.run_scaling_eff"] =
      seconds_since(start) / (kLanes * 0.5 * (op_s[0] + twin_s[0]));
  report.check(serial.outputs == clean.outputs &&
                   serial.metrics == clean.metrics,
               "1-lane SleepingMIS cell differs from the 4-lane cell");
  probe_pool(*bench.pool, report);
}

// ---------------------------------------------------------------------
// coroutine-trials

constexpr VertexId kTrialN = 65536;
constexpr std::uint32_t kTrialsPerCell = 8;
constexpr MisEngine kTrialEngines[] = {MisEngine::kSleeping,
                                       MisEngine::kFastSleeping};
constexpr gen::Family kTrialFamilies[] = {
    gen::Family::kGnpSparse, gen::Family::kUnitDisk,
    gen::Family::kBarabasiAlbert};
constexpr std::size_t kTrialCells =
    std::size(kTrialEngines) * std::size(kTrialFamilies);

gen::Family trial_family(std::size_t cell) {
  return kTrialFamilies[cell % std::size(kTrialFamilies)];
}
MisEngine trial_engine(std::size_t cell) {
  return kTrialEngines[cell / std::size(kTrialFamilies)];
}
/// Base seeds spaced kTrialsPerCell apart (analysis::trial_seed).
std::uint64_t cell_base_seed(std::uint64_t seed, std::size_t cell) {
  return run_seed(seed) + cell * kTrialsPerCell;
}

struct TrialCell {
  std::vector<analysis::MisRun> runs;
  analysis::AggregateRun aggregate;
  double seconds = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t awake = 0;
  std::uint64_t messages = 0;

  std::uint64_t digest() const {
    Digest d;
    for (const analysis::MisRun& run : runs) {
      d.add_all(run.outputs);
      d.add(run.metrics);
      d.add(std::uint64_t{run.valid});
    }
    d.add(aggregate.node_avg_awake_mean);
    d.add(aggregate.node_avg_awake_ci95);
    d.add(aggregate.worst_awake_mean);
    d.add(aggregate.node_avg_rounds_mean);
    d.add(aggregate.worst_rounds_mean);
    d.add(aggregate.messages_mean);
    d.add(aggregate.invalid_runs);
    d.add(aggregate.runs);
    return d.value();
  }
};

TrialCell trial_cell(std::size_t cell, std::uint64_t seed) {
  TrialCell out;
  const auto factory = analysis::graph_factory(trial_family(cell), kTrialN);
  const auto start = Clock::now();
  {
    obs::Span span("bench", "op", cell);
    out.runs = analysis::run_trials(
        trial_engine(cell), factory, cell_base_seed(seed, cell),
        kTrialsPerCell,
        {.exec = analysis::ExecEngine::kCoroutine, .num_threads = kLanes});
    out.aggregate = analysis::aggregate_runs(out.runs);
  }
  out.seconds = seconds_since(start);
  for (const analysis::MisRun& run : out.runs) {
    out.nodes += run.metrics.node.size();
    out.awake += run.metrics.total_awake_node_rounds;
    out.messages += run.metrics.total_messages;
  }
  return out;
}

struct TrialSetup {
  double gen_s = 0.0;
  double edges = 0.0;
};

void coroutine_trials(const Options& opt, Report& report) {
  // Set-up: build the first four trial graphs of each family's
  // SleepingMIS cell (timed generation throughput) and warm the
  // coroutine engine on a small trial.
  std::vector<double> gen_times;
  const TrialSetup setup = repeated_setup(report, [&] {
    TrialSetup s;
    for (std::size_t f = 0; f < std::size(kTrialFamilies); ++f) {
      for (std::uint32_t trial = 0; trial < 4; ++trial) {
        const auto start = Clock::now();
        const Graph g = gen::make(
            kTrialFamilies[f], kTrialN,
            analysis::trial_seed(cell_base_seed(opt.seed, f), trial));
        s.gen_s += seconds_since(start);
        s.edges += static_cast<double>(g.num_edges());
      }
    }
    gen_times.push_back(s.gen_s);
    const Graph warm = gen::make(gen::Family::kGnpSparse, 4096, opt.seed);
    const analysis::MisRun run =
        analysis::run_mis(MisEngine::kSleeping, warm, opt.seed);
    if (!run.valid) std::cout << "warning: warm-up trial invalid\n";
    return s;
  });

  std::vector<std::optional<std::uint64_t>> refs(kTrialCells);
  std::vector<TrialCell> first_pass(kTrialCells);
  std::vector<double> op_s;
  std::uint64_t awake = 0;
  const auto run_pass = [&](std::vector<double>& times) {
    for (std::size_t cell = 0; cell < kTrialCells; ++cell) {
      TrialCell result = trial_cell(cell, opt.seed);
      times.push_back(result.seconds);
      awake += result.awake;
      const std::uint64_t digest = result.digest();
      if (!refs[cell]) refs[cell] = digest;
      bool valid = result.aggregate.invalid_runs == 0;
      for (const analysis::MisRun& run : result.runs) valid &= run.valid;
      report.check(valid && digest == *refs[cell],
                   "coroutine cell " +
                       analysis::engine_name(trial_engine(cell)) + " / " +
                       gen::family_name(trial_family(cell)));
      if (first_pass[cell].runs.empty()) first_pass[cell] = std::move(result);
    }
  };
  const auto pass = [&] { run_pass(op_s); };
  const double loop_s =
      opt.trace ? (pass(), 0.0) : timed_loop(opt.seconds, pass);
  report.op_s = op_s;

  std::uint64_t pass_nodes = 0;
  std::uint64_t pass_awake = 0;
  std::uint64_t pass_messages = 0;
  for (const TrialCell& cell : first_pass) {
    pass_nodes += cell.nodes;
    pass_awake += cell.awake;
    pass_messages += cell.messages;
  }
  if (!opt.trace) {
    report.metrics["op_p50_s"] = median(op_s);
    report.metrics["ops_per_s"] = static_cast<double>(op_s.size()) / loop_s;
    report.metrics["awake_node_rounds_per_s"] =
        static_cast<double>(awake) / sum(op_s);
    report.metrics["gen_edges_per_s"] = setup.edges / median(gen_times);
    report.metrics["node_avg_awake"] =
        static_cast<double>(pass_awake) / static_cast<double>(pass_nodes);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  std::vector<double> traced_s;
  {
    obs::Session session(trace_options(opt));
    session.set_info("tool", "perfbench");
    session.set_info("workload", opt.workload);
    run_pass(traced_s);
  }
  report.traced_ops = kTrialCells;
  // Untraced twin pass after the traced one, so both sides see a warm
  // process.
  std::vector<double> twin_s;
  run_pass(twin_s);
  report.metrics["obs.overhead_frac"] =
      sum(traced_s) / (0.5 * (sum(op_s) + sum(twin_s))) - 1;
  report.metrics["sim.awake_node_rounds"] =
      static_cast<double>(pass_awake) / kTrialCells;
  report.metrics["sim.messages"] =
      static_cast<double>(pass_messages) / kTrialCells;
  report.metrics["graph.gen_s"] = median(gen_times);
  report.metrics["graph.edges"] = setup.edges;

  // Probes on the first gnp_sparse trial's graph and output.
  const Graph g =
      gen::make(gen::Family::kGnpSparse, kTrialN,
                analysis::trial_seed(cell_base_seed(opt.seed, 0), 0));
  report.metrics["analysis.verify_s"] =
      time_check_mis(g, first_pass[0].runs[0].outputs, report);
  util::ThreadPool pool(kLanes);
  report.metrics["graph.from_csr_s"] = time_from_csr(g, &pool, report);
  probe_pool(pool, report);
}

// ---------------------------------------------------------------------

const std::map<std::string, std::function<void(const Options&, Report&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<void(const Options&, Report&)>>
      table = {{"bulk-sleeping-8M", bulk_sleeping},
               {"bulk-faults-2M", bulk_faults},
               {"coroutine-trials", coroutine_trials}};
  return table;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt->workload = value;
      } else if (flag == "--seed") {
        opt->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt->trace = value == "1";
      } else if (flag == "--obs-out") {
        opt->jsonl_path = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && workloads().count(opt->workload) == 1 &&
         (!opt->trace || !opt->jsonl_path.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::cerr << "usage: perfbench_driver --workload {";
    for (const auto& [name, fn] : workloads()) std::cerr << ' ' << name;
    std::cerr << " } --seed S --seconds T --trace 0|1 [--obs-out FILE]\n";
    return 2;
  }
  Report report;
  workloads().at(opt.workload)(opt, report);
  std::cout << "{\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed
            << ",\"traced_ops\":" << report.traced_ops
            << ",\"lanes\":" << kLanes << ",\"op_s\":[";
  const char* sep = "";
  for (const double seconds : report.op_s) {
    std::cout << sep << json_number(seconds);
    sep = ",";
  }
  std::cout << "],\"metrics\":{";
  sep = "";
  for (const auto& [name, value] : report.metrics) {
    std::cout << sep << '"' << name << "\":" << json_number(value);
    sep = ",";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
