// Cross-commit pins of run results. Every other determinism gate
// compares two runs of one build (lane counts, engines, telemetry on
// and off), so a change that moves results in both engines at once, or
// only in the bulk engine's live-dynamics path, passes them all. These
// tests fold a run's outputs, alive mask and every sim::Metrics field
// (per-node included) into a 64-bit digest and compare it with a
// constant recorded from a known-good build. A mismatch means results
// changed: a performance change must keep every constant; a change that
// alters results on purpose re-records them and says so.
//
// The graph is built from Rng::below endpoint draws, so the constants
// do not depend on libm. The bulk cases run at 1 and 4 lanes with
// parallel_cutoff = 1 (every scan shards, which also puts the 4-lane
// decision loops under the tsan CI job) and must give one digest.
//
// The sharded G(n, p) generator gets the same kind of pin: its lane
// matrix (tests/sharded_gen_test.cc) compares lane counts of one
// build, so a change to the degree or fill pass that alters the CSR at
// every lane count at once passes it. These digests fold the offsets,
// the adjacency and ShardedGnpStats::rng_digest; unlike the run
// digests they go through libm's log1p (the geometric skip).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/arboricity_mis.h"
#include "algos/beeping_mis.h"
#include "algos/deterministic.h"
#include "algos/ghaffari.h"
#include "algos/greedy.h"
#include "algos/greedy_coloring.h"
#include "algos/israeli_itai.h"
#include "algos/luby.h"
#include "analysis/experiment.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "bulk/sleeping_mis.h"
#include "core/fast_sleeping_mis.h"
#include "core/instrumentation.h"
#include "core/sleeping_mis.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

constexpr VertexId kN = 3000;
constexpr std::uint64_t kGraphSeed = 0x5eed;
constexpr std::uint64_t kRunSeed = 20261017;

/// Order-sensitive 64-bit digest.
class Digest {
 public:
  void add(std::uint64_t value) {
    std::uint64_t sm = state_ ^ value;
    state_ = splitmix64(sm);
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

/// About 4n uniform random edges (average degree ~8); duplicates merge.
const Graph& digest_graph() {
  static const Graph g = [] {
    Rng rng(kGraphSeed);
    std::vector<Edge> edges;
    for (std::uint64_t i = 0; i < std::uint64_t{4} * kN; ++i) {
      const auto u = static_cast<VertexId>(rng.below(kN));
      const auto v = static_cast<VertexId>(rng.below(kN));
      if (u != v) edges.push_back({u, v});
    }
    return Graph(kN, std::move(edges));
  }();
  return g;
}

/// fault::standard_scenarios(), with crash_prob and the live leave
/// rate raised so that every fault fires at n = 3000.
std::vector<fault::Scenario> scenarios() {
  std::vector<fault::Scenario> s = fault::standard_scenarios();
  s[3].plan.crash_prob = 1e-3;
  s[4].plan.crash_prob = 1e-3;
  s[5].plan.live_churn.leave_prob = 1e-3;
  return s;
}

/// `protocol` under `plan` with per-node metrics on. An MIS protocol's
/// run is followed by the plan's post-run churn (as analysis::run_mis
/// runs it); churn repairs an MIS, so a matching skips it. The run's
/// metrics go to `metrics` when it is non-null.
std::uint64_t bulk_digest(bulk::BulkProtocol& protocol,
                          const fault::FaultPlan& plan, bool mis_output,
                          util::ThreadPool* pool, sim::Metrics* metrics) {
  const Graph& g = digest_graph();
  bulk::BulkOptions options;
  options.max_message_bits = sim::congest_bits_for(kN);
  options.pool = pool;
  options.parallel_cutoff = 1;
  options.fault = plan.empty() ? nullptr : &plan;
  bulk::BulkResult run = bulk::run_bulk(g, kRunSeed, protocol, options);
  std::vector<std::uint8_t> alive = run.alive_mask();
  if (alive.empty()) alive.assign(kN, 1);
  if (mis_output && plan.churn.enabled()) {
    const fault::FaultState state(&plan, kRunSeed, kN);
    const fault::ChurnReport report = fault::run_churn(
        g, plan.churn, state.seed(), alive, run.outputs, pool);
    run.metrics.churn_batches = report.batches;
    run.metrics.churn_leaves = report.leaves;
    run.metrics.churn_joins = report.joins;
    run.metrics.churn_repair_rounds = report.repair_rounds;
  }
  Digest d;
  d.add_all(run.outputs);
  d.add_all(alive);
  d.add(run.metrics);
  const bulk::RoundHalves makespan = bulk::round_halves(run.virtual_makespan);
  d.add(makespan.lo);
  d.add(makespan.hi);
  if (metrics != nullptr) *metrics = std::move(run.metrics);
  return d.value();
}

/// `protocol` on the coroutine engine, under `fault` when it is set.
std::uint64_t coroutine_digest(const sim::Protocol& protocol,
                               const fault::FaultPlan* fault = nullptr) {
  sim::NetworkOptions net;
  net.max_message_bits = sim::congest_bits_for(kN);
  net.fault = fault;
  const auto [metrics, outputs] =
      sim::run_protocol(digest_graph(), kRunSeed, protocol, net);
  Digest d;
  d.add_all(outputs);
  d.add(metrics);
  return d.value();
}

TEST(RunDigest, BulkSleepingMisFaultScenarios) {
  // One row per scenario, in table order: did the plan's fault actually
  // fire in this run, and the run's digest.
  const struct {
    bool (*fired)(const sim::Metrics&);
    std::uint64_t digest;
  } expected[] = {
      {[](const sim::Metrics&) { return true; }, 0x6EB7924E26ADCAF3ULL},
      {[](const sim::Metrics& m) { return m.injected_losses > 0; },
       0x0D8F1955E534C488ULL},
      {[](const sim::Metrics& m) { return m.injected_losses > 0; },
       0x1DB26CE2C9E7897FULL},
      {[](const sim::Metrics& m) { return m.crashed_nodes > 3; },
       0xC7DF4016DD25C5B4ULL},
      {[](const sim::Metrics& m) { return m.recovered_nodes > 0; },
       0xD8A140C099CA0034ULL},
      {[](const sim::Metrics& m) {
         return m.live_leaves > 0 && m.live_rejoins > 0;
       },
       0x848055D7AE5F6384ULL},
      {[](const sim::Metrics& m) {
         return m.injected_losses > 0 && m.churn_leaves > 0;
       },
       0xEEAC0B153DC605A7ULL},
  };
  const std::vector<fault::Scenario> plans = scenarios();
  ASSERT_EQ(plans.size(), std::size(expected));
  util::ThreadPool pool(4);
  for (std::size_t s = 0; s < plans.size(); ++s) {
    SCOPED_TRACE(plans[s].name);
    for (util::ThreadPool* lanes : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
      bulk::BulkSleepingMis protocol;
      sim::Metrics metrics;
      const std::uint64_t digest =
          bulk_digest(protocol, plans[s].plan, /*mis_output=*/true, lanes,
                      &metrics);
      EXPECT_TRUE(expected[s].fired(metrics));
      EXPECT_EQ(digest, expected[s].digest)
          << (lanes == nullptr ? "1 lane" : "4 lanes") << ": 0x" << std::hex
          << digest;
    }
  }
}

template <typename P>
std::unique_ptr<bulk::BulkProtocol> make_protocol() {
  return std::make_unique<P>();
}

// The five round-lockstep baselines read the same awake set as bulk
// SleepingMIS (is_awake on every neighbor test) but through their own
// decision loops, so they get their own pins: one digest per protocol
// per scenario, identical at 1 and 4 lanes. Some pins coincide: Luby A
// and the greedy finish before any crashed node is due back, so their
// crash+recover runs equal their crash runs, and Israeli-Itai skips the
// post-run churn, so its loss+churn run equals its loss 1% run.
TEST(RunDigest, BulkBaselinesFaultScenarios) {
  const struct {
    const char* name;
    std::unique_ptr<bulk::BulkProtocol> (*make)();
    bool mis_output;
    std::uint64_t digests[7];
  } cases[] = {
      {"Luby-A",
       make_protocol<bulk::BulkLubyA>,
       true,
       {0x22F259029EE63901ULL, 0xD60F25A2D3FB0619ULL,
        0x972A58D3C80CE9CEULL, 0x51057B462002DF67ULL,
        0x51057B462002DF67ULL, 0xE9E7E727B968AE88ULL,
        0xA9EF3A548A77CE98ULL}},
      {"Luby-B",
       make_protocol<bulk::BulkLubyB>,
       true,
       {0xB4C180D88C35C575ULL, 0xE7FFFD6EAF7BB051ULL,
        0x00B363450E15CD72ULL, 0x128280722DCC257EULL,
        0x227B7C988EC0B467ULL, 0x6BC7A49B68029246ULL,
        0xDF28B9CF23D8193AULL}},
      {"CRT greedy",
       make_protocol<bulk::BulkGreedy>,
       true,
       {0x23F173719DB91E3DULL, 0xA4FDB140FC331C28ULL,
        0x103BC89CF9F71502ULL, 0x5C4C150D56087CD7ULL,
        0x5C4C150D56087CD7ULL, 0x7EC4AE43AC0CF3A5ULL,
        0xB640983FFF53D076ULL}},
      {"Israeli-Itai",
       make_protocol<bulk::BulkIsraeliItai>,
       false,
       {0xE1EC1DFCA02B8748ULL, 0xF198179413156634ULL,
        0xAC0DC62A3A7F3E97ULL, 0x4BEFA1D411C7E1DEULL,
        0x0F7F325986AE5AE9ULL, 0x042ADC47D2DA46C5ULL,
        0xF198179413156634ULL}},
      {"beeping",
       make_protocol<bulk::BulkBeepingMis>,
       true,
       {0xDA5BB9A6A5FF746CULL, 0x54536860FE7E2F40ULL,
        0xC5EB536DD201BFA9ULL, 0xEACC5F692FF30369ULL,
        0x294903A52EDD3A39ULL, 0x3BEE24E49349E3C6ULL,
        0x83A53F540EB47300ULL}},
  };
  util::ThreadPool pool(4);
  const std::vector<fault::Scenario> plans = scenarios();
  for (const auto& c : cases) {
    for (std::size_t s = 0; s < plans.size(); ++s) {
      SCOPED_TRACE(testing::Message() << c.name << ", " << plans[s].name);
      for (util::ThreadPool* lanes : {static_cast<util::ThreadPool*>(nullptr),
                                      &pool}) {
        const std::unique_ptr<bulk::BulkProtocol> protocol = c.make();
        const std::uint64_t digest = bulk_digest(
            *protocol, plans[s].plan, c.mis_output, lanes, nullptr);
        EXPECT_EQ(digest, c.digests[s])
            << (lanes == nullptr ? "1 lane" : "4 lanes") << ": 0x" << std::hex
            << digest;
      }
    }
  }
}

TEST(RunDigest, CoroutineSleepingMis) {
  const struct {
    double bias;
    std::uint64_t digest;
  } cases[] = {{0.5, 0x3AA0E9654046F209ULL}, {0.3, 0xC8CEF521984B2FC6ULL}};
  for (const auto& c : cases) {
    const std::uint64_t digest =
        coroutine_digest(core::sleeping_mis({.coin_bias = c.bias}));
    EXPECT_EQ(digest, c.digest)
        << "bias " << c.bias << ": 0x" << std::hex << digest;
  }
}

TEST(RunDigest, CoroutineFastSleepingMis) {
  const struct {
    double bias;
    std::uint64_t digest;
  } cases[] = {{0.5, 0x53551604B2B3C367ULL}, {0.3, 0xD245D7472D2DA353ULL}};
  for (const auto& c : cases) {
    const std::uint64_t digest =
        coroutine_digest(core::fast_sleeping_mis({.coin_bias = c.bias}));
    EXPECT_EQ(digest, c.digest)
        << "bias " << c.bias << ": 0x" << std::hex << digest;
  }
}

// The recursion bookkeeping of both coroutine protocols: K, every
// node's coin bits and base rank, and each call's key and CallStats
// (participants, left, right, isolated joins, first round) in map
// order. The digests above pin outputs and metrics, not which nodes a
// frame counted where.
TEST(RunDigest, CoroutineRecursionTraces) {
  const auto trace_digest = [](const auto& make_protocol) {
    core::RecursionTrace trace;
    sim::NetworkOptions net;
    net.max_message_bits = sim::congest_bits_for(kN);
    sim::run_protocol(digest_graph(), kRunSeed, make_protocol(&trace), net);
    Digest d;
    d.add(trace.levels);
    d.add(std::uint64_t{trace.bits.size()});
    for (const std::vector<std::uint8_t>& bits : trace.bits) d.add_all(bits);
    d.add_all(trace.base_rank);
    d.add(std::uint64_t{trace.calls.size()});
    for (const auto& [key, call] : trace.calls) {
      for (const std::uint64_t field :
           {std::uint64_t{key.first}, key.second, call.participants,
            call.left, call.right, call.isolated_joins, call.first_round}) {
        d.add(field);
      }
    }
    return d.value();
  };
  const std::uint64_t sleeping = trace_digest(
      [](core::RecursionTrace* t) { return core::sleeping_mis({}, t); });
  const std::uint64_t fast = trace_digest(
      [](core::RecursionTrace* t) { return core::fast_sleeping_mis({}, t); });
  EXPECT_EQ(sleeping, 0x5F3185C472B2EEB8ULL)
      << "SleepingMIS: 0x" << std::hex << sleeping;
  EXPECT_EQ(fast, 0x165465743974D1A5ULL)
      << "Fast-SleepingMIS: 0x" << std::hex << fast;
}

/// `protocol`'s coroutine_digest under each scenario the coroutine back
/// end accepts (the first four: none, loss 1%, burst loss, crash).
void expect_coroutine_digests(const char* name, const sim::Protocol& protocol,
                              const std::uint64_t (&expected)[4]) {
  const std::vector<fault::Scenario> plans = scenarios();
  for (std::size_t s = 0; s < std::size(expected); ++s) {
    SCOPED_TRACE(testing::Message() << name << ", " << plans[s].name);
    const fault::FaultPlan& plan = plans[s].plan;
    const std::uint64_t digest =
        coroutine_digest(protocol, plan.empty() ? nullptr : &plan);
    EXPECT_EQ(digest, expected[s]) << "0x" << std::hex << digest;
  }
}

// The coroutine baselines, one digest per protocol under each scenario
// the coroutine back end accepts (the first four: none, loss 1%, burst
// loss, crash). Ghaffari, the deterministic greedy and the arboricity
// MIS have no bulk port, so no other digest covers them; the other four
// meet their bulk ports only on other graphs and plans (bulk_engine_test,
// fault_test). These pin the shared join round across commits.
TEST(RunDigest, CoroutineBaselines) {
  const struct {
    const char* name;
    sim::Protocol protocol;
    std::uint64_t digests[4];
  } cases[] = {
      {"Luby-A",
       algos::luby_a(),
       {0x5EA5AD697EBC120AULL, 0xB2D4DD6B0D51D56DULL,
        0x8983DD4ABA51BD9DULL, 0xD5C59CBA960B96C0ULL}},
      {"Luby-B",
       algos::luby_b(),
       {0xB801ACE7019B7842ULL, 0xEA36CE7849400D0EULL,
        0xA928A54E27AC0874ULL, 0x4846CD5D0369BC0FULL}},
      {"CRT greedy",
       algos::distributed_greedy_mis(),
       {0x09EC059B71C0CF63ULL, 0x8A1EE0A50512ACB4ULL,
        0xB0C8C6A9285B41C6ULL, 0xC0F937C66FAAA06FULL}},
      {"Ghaffari",
       algos::ghaffari_mis(),
       {0xA13AF081B05677B1ULL, 0x40C3920325B88E2DULL,
        0x3532E62B5507F9E7ULL, 0xE8D6A9B793307036ULL}},
      {"deterministic",
       algos::deterministic_greedy_mis(),
       {0xD4ECADC6EB9B051CULL, 0xE980D422D0555CA9ULL,
        0x503E482CF74A6192ULL, 0x0E8895C2413D2F3AULL}},
      {"arboricity",
       algos::arboricity_mis({.arboricity_bound = 4}),
       {0xC9FB0FD38A62F2C7ULL, 0x431F53EF0245C34BULL,
        0x7B49E04F4FEE337CULL, 0xABEDC9C39C3931A9ULL}},
      {"beeping",
       algos::beeping_mis(),
       {0x9C8582F90FCAF6FAULL, 0x0CADB7EEC993CEE9ULL,
        0x3A014A22D2789CCBULL, 0xD2B02E8A70CA4BC7ULL}},
  };
  for (const auto& c : cases) {
    expect_coroutine_digests(c.name, c.protocol, c.digests);
  }
}

/// Each step sleeps, broadcasts, listens or sends on random valid
/// ports (one message per port: a port drawn twice in a step is
/// skipped), and every message received is folded into the node's
/// output in inbox order: its index, sender, arrival port, kind and
/// payload. The MIS protocols above decide the same way whatever their
/// inbox order and never read a port, so their digests cannot see
/// either.
sim::Task delivery_stream_node(sim::Context& ctx) {
  std::uint64_t fold = 0;
  const std::uint64_t steps = 1 + ctx.rng().below(12);
  for (std::uint64_t step = 0; step < steps; ++step) {
    const std::uint64_t action = ctx.rng().below(4);
    if (action == 0) ctx.sleep(ctx.rng().below(5));
    sim::Inbox inbox;
    if (action == 1 && ctx.degree() > 0) {
      std::vector<std::pair<std::uint32_t, sim::Message>> out;
      const std::uint64_t sends = ctx.rng().below(ctx.degree()) + 1;
      for (std::uint64_t i = 0; i < sends; ++i) {
        const auto port =
            static_cast<std::uint32_t>(ctx.rng().below(ctx.degree()));
        if (std::any_of(out.begin(), out.end(),
                        [port](const auto& s) { return s.first == port; })) {
          continue;
        }
        out.push_back({port, sim::Message::color(ctx.rng().below(256), 8)});
      }
      inbox = co_await ctx.exchange(std::move(out));
    } else if (action == 2) {
      inbox = co_await ctx.listen();
    } else {
      inbox = co_await ctx.broadcast(sim::Message::rank(step, 8));
    }
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      const sim::Received& r = inbox[i];
      for (const std::uint64_t field :
           {std::uint64_t{i}, std::uint64_t{r.from}, std::uint64_t{r.port},
            static_cast<std::uint64_t>(r.msg.kind), r.msg.payload_a}) {
        std::uint64_t sm = fold ^ field;
        fold = splitmix64(sm);
      }
    }
  }
  ctx.decide(static_cast<std::int64_t>(fold >> 1));
}

// What the coroutine engine delivers: which messages reach whom, in
// which inbox order and on which port. The chaos protocol above folds
// the raw stream into its outputs; Israeli-Itai and the greedy coloring
// are the library protocols that act on r.port. One digest per
// protocol under each scenario the coroutine back end accepts.
TEST(RunDigest, CoroutineDeliveryStream) {
  const struct {
    const char* name;
    sim::Protocol protocol;
    std::uint64_t digests[4];
  } cases[] = {
      {"chaos",
       delivery_stream_node,
       {0xA9432309F42ABE30ULL, 0x8448D2EA61759830ULL,
        0xC1A4CE7E5ED1A745ULL, 0x6877CC5960C29996ULL}},
      {"Israeli-Itai",
       algos::israeli_itai_matching(),
       {0x387D6EF6E636B730ULL, 0x23F04B79BBFE5A9FULL,
        0xE697949636752DADULL, 0xF1C3B21D61F4869EULL}},
      {"greedy coloring",
       algos::greedy_coloring(),
       {0x41AD457F6A8A3C58ULL, 0xA0EE192B79E5A72EULL,
        0xCDB14612D9E51D74ULL, 0x6614C3B44116F376ULL}},
  };
  for (const auto& c : cases) {
    expect_coroutine_digests(c.name, c.protocol, c.digests);
  }
}

// run_mis's verdicts: one character per (engine, scenario) cell, '1'
// for a valid run and '0' for an invalid one, engines separated by
// spaces. The digests above pin outputs and metrics but not the
// verifier, so a verifier change that flips a verdict passes them all.
// These strings were recorded before the verifier was rewritten. The
// coroutine back end runs the scenarios it accepts (the first four).
TEST(RunDigest, RunMisVerdicts) {
  const analysis::MisEngine engines[] = {
      analysis::MisEngine::kSleeping, analysis::MisEngine::kLubyA,
      analysis::MisEngine::kLubyB, analysis::MisEngine::kGreedy};
  const struct {
    analysis::ExecEngine exec;
    std::size_t scenarios;
    const char* verdicts;
  } back_ends[] = {
      {analysis::ExecEngine::kBulk, 7, "1001111 1001111 1001111 1001111"},
      {analysis::ExecEngine::kCoroutine, 4, "1001 1001 1001 1001"},
  };
  util::ThreadPool pool(4);
  const std::vector<fault::Scenario> plans = scenarios();
  for (const auto& back_end : back_ends) {
    for (util::ThreadPool* lanes : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
      std::string verdicts;
      for (const analysis::MisEngine engine : engines) {
        if (!verdicts.empty()) verdicts += ' ';
        for (std::size_t s = 0; s < back_end.scenarios; ++s) {
          const fault::FaultPlan& plan = plans[s].plan;
          const analysis::MisRun run = analysis::run_mis(
              engine, digest_graph(), kRunSeed,
              {.exec = back_end.exec,
               .pool = lanes,
               .fault = plan.empty() ? nullptr : &plan});
          verdicts += run.valid ? '1' : '0';
        }
      }
      EXPECT_EQ(verdicts, back_end.verdicts)
          << analysis::exec_engine_name(back_end.exec) << ", "
          << (lanes == nullptr ? "1 lane" : "4 lanes");
      // The lossy cells are damaged on purpose: a verifier that always
      // answers one way must fail here.
      EXPECT_NE(verdicts.find('1'), std::string::npos);
      EXPECT_NE(verdicts.find('0'), std::string::npos);
    }
  }
}

/// Digest of a sharded G(n, p) build: offsets, adjacency, and the
/// generator's final-RNG-state digest.
std::uint64_t sharded_gnp_digest(const Graph& g,
                                 const gen::ShardedGnpStats& stats) {
  Digest d;
  const VertexId n = g.num_vertices();
  d.add(std::uint64_t{n});
  for (VertexId v = 0; v < n; ++v) d.add(g.adjacency_offset(v));
  d.add(std::uint64_t{g.degree_sum()});
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.neighbors(v)) d.add(std::uint64_t{u});
  }
  d.add(stats.rng_digest);
  return d.value();
}

TEST(RunDigest, ShardedGnpCsr) {
  const struct {
    const char* name;
    Graph (*build)(const gen::ShardedGnpOptions&);
    std::uint64_t digest;
  } cases[] = {
      {"avg_degree 8, n=5000, seed 3",
       [](const gen::ShardedGnpOptions& o) {
         return gen::gnp_avg_degree_sharded_csr(5000, 8.0, 3, o);
       },
       0x61A2A1E1B614EE7FULL},
      {"avg_degree 8, n=100003, seed 7",
       [](const gen::ShardedGnpOptions& o) {
         return gen::gnp_avg_degree_sharded_csr(100003, 8.0, 7, o);
       },
       0x1FB6B2D709248F1EULL},
      {"p=0.5, n=300, seed 3",
       [](const gen::ShardedGnpOptions& o) {
         return gen::gnp_sharded_csr(300, 0.5, 3, o);
       },
       0xD48CF43AF5430D98ULL},
  };
  util::ThreadPool pool(4);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (util::ThreadPool* lanes : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
      gen::ShardedGnpStats stats;
      const Graph g = c.build({.pool = lanes, .stats_out = &stats});
      const std::uint64_t digest = sharded_gnp_digest(g, stats);
      EXPECT_EQ(digest, c.digest)
          << (lanes == nullptr ? "1 lane" : "4 lanes") << ": 0x" << std::hex
          << digest;
    }
  }
}

}  // namespace
}  // namespace slumber
