// Bulk-engine scaling: single-trial Sleeping MIS (Algorithm 1) at n up
// to 10M+ nodes on G(n, 8/n) — the regime the coroutine scheduler
// cannot reach (it pays ~K = ceil(3 log2 n) suspended coroutine frames
// per node, and its 64-bit virtual clock itself overflows past n ~ 2M).
//
// For each n the bench reports graph-build and run wall time, the
// paper's awake measures (node-averaged awake must stay flat — Theorem
// 1's O(1) — while the virtual schedule grows as 3(2^K - 1) ~ n^3), the
// simulation throughput in awake node-rounds per second, and a
// self-check that the output is a valid MIS. At small n it also runs
// the coroutine engine on the identical seed and asserts the two
// engines' outputs and metrics agree bitwise, then prints the speedup.
//
// With `threads > 1` the per-frame node scans shard over a thread pool
// (intra-trial parallelism); at n <= 1M every parallel trial is
// re-executed serially and compared bitwise — outputs, aggregate AND
// per-node metrics — which is the cross-check the bulk-large-n CI job
// drives with `bench_bulk_scaling 1000000 1 2 --gen sharded`. The lanes
// also first-touch the engine's hot per-node arrays (and a sharded
// build's CSR), so pages land next to the lanes that scan them (NUMA
// placement; bitwise no-op).
//
// `--gen sharded` switches graph generation to the counter-based
// per-block schedule (gen::gnp_avg_degree_sharded_csr): the CSR build
// itself shards over the `threads` lanes, and at n <= 1M a sharded
// build is re-run serially and compared bitwise CSR-for-CSR (the
// generator-level determinism gate). Sharded graphs are CSR-only (no
// edge list).
//
// `--mem-diet` disables per-node sim::Metrics (aggregate counters,
// outputs, and the MIS validity check remain exact). Together with the
// CSR-only sharded build it is the 10^8-node memory envelope:
//
//   bench_bulk_scaling 100000000 1 8 --mem-diet --gen sharded
//
// Telemetry flags (`--obs-out FILE.jsonl`, `--obs-trace FILE.json`,
// `--progress`) stream the run's spans and counters out of band; see
// obs/obs.h. They never change any decided output.
//
//   bench_bulk_scaling [max_n] [seeds] [threads] [--mem-diet]
//       [--gen legacy|sharded] [--obs-out F] [--obs-trace F] [--progress]
//       (default: 10,000,000 / 1 / 1 / legacy)
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "analysis/verify.h"
#include "bulk/sleeping_mis.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

using namespace slumber;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Largest n at which the coroutine cross-check is cheap enough to run
// inside a bench (memory: ~K suspended frames per node).
constexpr VertexId kCoroutineLimit = 65536;

// Largest n at which a parallel trial (and a parallel sharded build)
// is re-run serially for the bitwise thread cross-check.
constexpr VertexId kThreadCheckLimit = 1'000'000;

/// util::parse_uint that exits instead of returning false (bench args
/// have no recovery path).
std::uint64_t parse_uint_or_die(const std::string& token, const char* what,
                                std::uint64_t max_value) {
  std::uint64_t value = 0;
  if (!util::parse_uint(token, what, &value, 0, max_value)) std::exit(2);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  bool mem_diet = false;
  gen::Schedule schedule = gen::Schedule::kLegacy;
  obs::Options obs_options;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mem-diet") {
      mem_diet = true;
    } else if (arg == "--obs-out" || arg == "--obs-trace") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a path\n";
        return 2;
      }
      (arg == "--obs-out" ? obs_options.jsonl_path
                          : obs_options.trace_path) = argv[++i];
    } else if (arg == "--progress") {
      obs_options.progress = true;
    } else if (arg == "--gen") {
      if (i + 1 >= argc ||
          !gen::schedule_from_name(argv[++i], &schedule)) {
        std::cerr << "error: --gen needs one of:";
        for (const gen::Schedule s : gen::all_schedules()) {
          std::cerr << ' ' << gen::schedule_name(s);
        }
        std::cerr << '\n';
        return 2;
      }
    } else {
      args.push_back(arg);
    }
  }
  const VertexId max_n =
      !args.empty()
          ? static_cast<VertexId>(parse_uint_or_die(
                args[0], "[max_n]", std::numeric_limits<VertexId>::max()))
          : 10'000'000;
  const std::uint32_t seeds =
      args.size() > 1 ? static_cast<std::uint32_t>(parse_uint_or_die(
                            args[1], "[seeds]",
                            std::numeric_limits<std::uint32_t>::max()))
                      : 1;
  const unsigned threads =
      args.size() > 2
          ? static_cast<unsigned>(parse_uint_or_die(args[2], "[threads]", 1024))
          : 1;

  std::cout << analysis::banner(
      "bulk engine scaling / SleepingMIS on G(n, 8/n), up to n = " +
      std::to_string(max_n) + ", " + std::to_string(threads) + " lane(s), " +
      gen::schedule_name(schedule) + " generator" +
      (mem_diet ? ", memory diet" : ""));

  // Declared before the pool so finalize() runs after every
  // instrumented worker has exited (the obs/obs.h contract).
  obs::Session obs_session(obs_options);
  if (obs_session.active()) {
    obs_session.set_info("tool", "bench_bulk_scaling");
    obs_session.set_info("max_n", std::to_string(max_n));
    obs_session.set_info("threads", std::to_string(threads));
    obs_session.set_info("gen", gen::schedule_name(schedule));
  }
  util::ThreadPool pool(threads == 0 ? 1 : threads);
  const bool sharded = schedule == gen::Schedule::kSharded;

  std::vector<VertexId> sizes;
  for (std::uint64_t n = 65536; n < max_n; n *= 8) {
    sizes.push_back(static_cast<VertexId>(n));
  }
  if (sizes.empty() || sizes.back() != max_n) sizes.push_back(max_n);

  analysis::Table table({"n", "m", "build ms", "run ms", "awake/node",
                         "worst awake", "Mawake-rounds/s", "virtual rounds",
                         "speedup vs coroutine"});
  bool all_valid = true;

  for (const VertexId n : sizes) {
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = analysis::trial_seed(19 * n, s);
      auto t0 = std::chrono::steady_clock::now();
      Graph g;
      if (sharded) {
        // The sharded schedule's CSR build itself splits over the
        // lanes; output is bitwise identical at every lane count.
        gen::ShardedGnpOptions gen_options;
        gen_options.pool = pool.num_threads() > 1 ? &pool : nullptr;
        g = gen::gnp_avg_degree_sharded_csr(n, 8.0, seed, gen_options);
      } else {
        Rng rng(seed);
        g = gen::gnp_avg_degree(n, 8.0, rng);
      }
      const double build_ms = ms_since(t0);

      // Generator-level determinism gate: a parallel sharded build
      // must reproduce the serial sharded build CSR for CSR.
      if (sharded && pool.num_threads() > 1 && n <= kThreadCheckLimit) {
        const Graph serial_g = gen::gnp_avg_degree_sharded_csr(n, 8.0, seed);
        if (!g.same_csr(serial_g)) {
          std::cerr << "GENERATOR LANE-COUNT MISMATCH at n=" << n
                    << " seed=" << seed << " (" << pool.num_threads()
                    << " lanes vs serial)\n";
          return 1;
        }
      }

      bulk::BulkOptions options;
      options.max_message_bits = sim::congest_bits_for(g.num_vertices());
      options.pool = pool.num_threads() > 1 ? &pool : nullptr;
      options.node_metrics = !mem_diet;

      t0 = std::chrono::steady_clock::now();
      const bulk::BulkResult bulk_run =
          bulk::bulk_sleeping_mis(g, seed, {}, nullptr, options);
      const double run_ms = ms_since(t0);

      const bool valid = analysis::check_mis(g, bulk_run.outputs).ok();
      all_valid = all_valid && valid;

      // Bitwise thread cross-check: the sharded trial must reproduce
      // the serial bulk trial exactly.
      if (pool.num_threads() > 1 && n <= kThreadCheckLimit) {
        bulk::BulkOptions serial_options = options;
        serial_options.pool = nullptr;
        const bulk::BulkResult serial_run =
            bulk::bulk_sleeping_mis(g, seed, {}, nullptr, serial_options);
        if (serial_run.outputs != bulk_run.outputs ||
            !(serial_run.metrics == bulk_run.metrics) ||
            serial_run.virtual_makespan != bulk_run.virtual_makespan) {
          std::cerr << "THREAD-COUNT MISMATCH at n=" << n << " seed=" << seed
                    << " (" << pool.num_threads() << " lanes vs serial)\n";
          return 1;
        }
      }

      std::string speedup = "-";
      if (n <= kCoroutineLimit && !mem_diet) {
        t0 = std::chrono::steady_clock::now();
        const auto coro = analysis::run_mis(analysis::MisEngine::kSleeping, g,
                                            seed);
        const double coro_ms = ms_since(t0);
        const bool agree =
            coro.outputs == bulk_run.outputs &&
            coro.metrics.total_awake_node_rounds ==
                bulk_run.metrics.total_awake_node_rounds &&
            coro.metrics.makespan == bulk_run.metrics.makespan &&
            coro.metrics.total_messages == bulk_run.metrics.total_messages;
        if (!agree) {
          std::cerr << "ENGINE MISMATCH at n=" << n << " seed=" << seed
                    << "\n";
          return 1;
        }
        speedup = analysis::Table::num(coro_ms / std::max(run_ms, 1e-3), 1) +
                  "x";
      }

      const double awake_total =
          static_cast<double>(bulk_run.metrics.total_awake_node_rounds);
      // The diet mode drops per-node metrics; the node average comes
      // from the exact aggregate counter, the per-node max is gone.
      const std::string avg_awake =
          mem_diet ? analysis::Table::num(awake_total /
                                          static_cast<double>(n))
                   : analysis::Table::num(bulk_run.metrics.node_avg_awake());
      const std::string worst_awake =
          mem_diet ? "-"
                   : analysis::Table::num(bulk_run.metrics.worst_awake());
      table.add_row(
          {analysis::Table::num(std::uint64_t{n}),
           analysis::Table::num(std::uint64_t{g.num_edges()}),
           analysis::Table::num(build_ms, 0), analysis::Table::num(run_ms, 0),
           avg_awake, worst_awake,
           analysis::Table::num(awake_total / std::max(run_ms, 1e-3) / 1e3,
                                2),
           analysis::Table::num(
               static_cast<double>(bulk_run.virtual_makespan), 3),
           speedup + (valid ? "" : " INVALID")});
    }
  }

  std::cout << table.render();
  std::cout << "\nnode-averaged awake stays O(1) while the virtual schedule "
               "grows ~n^3; the bulk engine's cost tracks awake work only.\n";
  return all_valid ? 0 : 1;
}
