// Guards for the 32-bit arithmetic hazards that appear at the bulk
// engine's 10M+-node scale: vertex-count products that would silently
// wrap VertexId, edge counts that would overflow EdgeId, and the CSR
// offset width (2|E| adjacency slots exceed 2^32 well before |E|
// overflows EdgeId, so offsets must be 64-bit on every platform), and
// recursion depths whose schedule T(K) the engine's round clock cannot
// hold, and sleeps that would wrap the coroutine scheduler's 64-bit
// round clock.
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "bulk/sleeping_mis.h"
#include "core/fast_sleeping_mis.h"
#include "core/schedule.h"
#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/network.h"

namespace slumber {
namespace {

static_assert(sizeof(CsrOffset) == 8, "CSR offsets must be 64-bit");
static_assert(sizeof(Graph{}.adjacency_offset(0)) == 8,
              "adjacency_offset must expose the 64-bit offset type");

TEST(OverflowGuards, CheckedVertexCountPassesAndThrows) {
  EXPECT_EQ(checked_vertex_count(0, "t"), 0u);
  EXPECT_EQ(checked_vertex_count(10'000'000, "t"), 10'000'000u);
  EXPECT_EQ(checked_vertex_count(std::uint64_t{0xFFFFFFFF}, "t"), 0xFFFFFFFFu);
  EXPECT_THROW(checked_vertex_count(std::uint64_t{1} << 32, "t"),
               std::overflow_error);
  EXPECT_THROW(checked_vertex_count(~std::uint64_t{0}, "t"),
               std::overflow_error);
}

TEST(OverflowGuards, CheckedEdgeCountPassesAndThrows) {
  EXPECT_EQ(checked_edge_count(40'000'000, "t"), 40'000'000u);
  EXPECT_THROW(checked_edge_count(std::uint64_t{1} << 33, "t"),
               std::overflow_error);
}

TEST(OverflowGuards, GridProductWouldWrapToZero) {
  // 2^16 x 2^16 = 2^32 wraps to exactly 0 in 32-bit arithmetic; the
  // guard must throw before any edge buffer is populated.
  EXPECT_THROW(gen::grid(1u << 16, 1u << 16), std::overflow_error);
  EXPECT_THROW(gen::torus(1u << 16, 1u << 16), std::overflow_error);
}

TEST(OverflowGuards, CompleteGraphEdgeCountGuard) {
  // K_131072 has ~8.6e9 edges > 2^32: must throw before allocating.
  EXPECT_THROW(gen::complete(1u << 17), std::overflow_error);
}

TEST(OverflowGuards, CompleteBipartiteGuards) {
  EXPECT_THROW(gen::complete_bipartite(1u << 17, 1u << 17),
               std::overflow_error);
  EXPECT_THROW(gen::complete_bipartite(0xFFFFFFFFu, 2), std::overflow_error);
}

TEST(OverflowGuards, CaterpillarVertexCountGuard) {
  EXPECT_THROW(gen::caterpillar(1u << 28, 1u << 5), std::overflow_error);
}

TEST(OverflowGuards, HypercubeDimensionGuard) {
  EXPECT_THROW(gen::hypercube(32), std::overflow_error);
  EXPECT_THROW(gen::hypercube(63), std::overflow_error);
}

TEST(OverflowGuards, GuardedGeneratorsStillWorkAtNormalSizes) {
  EXPECT_EQ(gen::grid(50, 40).num_vertices(), 2000u);
  EXPECT_EQ(gen::complete(64).num_edges(), 64u * 63 / 2);
  EXPECT_EQ(gen::complete_bipartite(30, 20).num_edges(), 600u);
  EXPECT_EQ(gen::caterpillar(10, 3).num_vertices(), 40u);
  EXPECT_EQ(gen::hypercube(5).num_vertices(), 32u);
}

/// Runs `run` and returns the std::invalid_argument message it throws
/// ("" if it does not throw).
template <typename Run>
std::string rejection(const Run& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(OverflowGuards, ScheduleLevelLimits) {
  // T(K) = 2^K (B + 3) - 3 must stay below 2^64.
  EXPECT_EQ(core::max_schedule_levels(), 62u);
  EXPECT_EQ(core::schedule_duration(62), 3 * ((std::uint64_t{1} << 62) - 1));
  EXPECT_EQ(core::max_schedule_levels(2), 61u);
  EXPECT_EQ(core::max_schedule_levels(~std::uint64_t{0}), 0u);
}

TEST(OverflowGuards, CoroutineSleepingMisRejectsDepthPastTheClock) {
  const Graph g = gen::path(2);
  core::SleepingMisOptions options;
  options.levels = 63;
  const std::string message = rejection(
      [&] { sim::run_protocol(g, 1, core::sleeping_mis(options)); });
  EXPECT_NE(message.find("K <= 62"), std::string::npos) << message;
  EXPECT_NE(message.find("--engine bulk"), std::string::npos) << message;
  // The deepest schedules the clock holds run to the end with default
  // options; their right halves pass round 2^62.
  const Graph ring = gen::cycle(16);
  for (const std::uint32_t levels : {61u, 62u}) {
    options.levels = levels;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto run =
          sim::run_protocol(ring, seed, core::sleeping_mis(options));
      EXPECT_EQ(run.metrics.makespan, core::schedule_duration(levels));
      EXPECT_TRUE(analysis::check_mis(ring, run.outputs).ok())
          << "K = " << levels << ", seed " << seed;
    }
  }
}

TEST(OverflowGuards, CoroutineFastSleepingMisRejectsDepthPastTheClock) {
  const Graph g = gen::path(2);
  core::FastSleepingMisOptions options;
  options.base_rounds = 2;
  options.levels = 62;
  const std::string message = rejection(
      [&] { sim::run_protocol(g, 1, core::fast_sleeping_mis(options)); });
  EXPECT_NE(message.find("K <= 61"), std::string::npos) << message;
  const Graph ring = gen::cycle(16);
  options.levels = 61;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto run =
        sim::run_protocol(ring, seed, core::fast_sleeping_mis(options));
    EXPECT_EQ(run.metrics.makespan, core::schedule_duration(61, 2));
    EXPECT_TRUE(analysis::check_mis(ring, run.outputs).ok())
        << "seed " << seed;
  }
}

/// Runs `protocol` on path(2) and returns the std::overflow_error
/// message it throws ("" if it does not throw).
std::string clock_overflow(const sim::Protocol& protocol) {
  try {
    sim::run_protocol(gen::path(2), 1, protocol);
  } catch (const std::overflow_error& e) {
    return e.what();
  }
  return "";
}

TEST(OverflowGuards, CoroutineSleepPastTheClockThrows) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Node 0 sleeps past round 2^64 - 1 in three ways; node 1 returns at
  // once. Each must throw naming node 0 instead of wrapping the clock
  // (waking at round 0, or finishing there).
  const sim::Protocol wake_after_round_one = [](sim::Context& ctx)
      -> sim::Task {
    if (ctx.id() != 0) co_return;
    co_await ctx.listen();
    ctx.sleep(kMax - 1);  // the next wake would be round 2^64
    co_await ctx.listen();
  };
  const sim::Protocol first_wake = [](sim::Context& ctx) -> sim::Task {
    if (ctx.id() != 0) co_return;
    ctx.sleep(kMax);
    co_await ctx.listen();
  };
  const sim::Protocol trailing_sleep = [](sim::Context& ctx) -> sim::Task {
    if (ctx.id() != 0) co_return;
    co_await ctx.listen();
    ctx.sleep(kMax);
  };
  for (const sim::Protocol* protocol :
       {&wake_after_round_one, &first_wake, &trailing_sleep}) {
    const std::string message = clock_overflow(*protocol);
    EXPECT_NE(message.find("node 0 "), std::string::npos) << message;
    EXPECT_NE(message.find("64-bit round clock"), std::string::npos)
        << message;
  }
  // The clock's last round itself is reachable.
  const auto run = sim::run_protocol(
      gen::path(2), 1, [](sim::Context& ctx) -> sim::Task {
        ctx.sleep(kMax - 1);
        co_await ctx.listen();
      });
  EXPECT_EQ(run.metrics.makespan, kMax);
}

TEST(OverflowGuards, CoroutineSleepSumPastTheClockThrows) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Two sleeps whose sum passes 2^64 - 1 must throw naming node 0, not
  // wrap to a sleep of 0 rounds (a wake in round 1).
  const sim::Protocol split_sleep = [](sim::Context& ctx) -> sim::Task {
    if (ctx.id() != 0) co_return;
    ctx.sleep(kMax);
    ctx.sleep(1);
    co_await ctx.listen();
  };
  const std::string message = clock_overflow(split_sleep);
  EXPECT_NE(message.find("node 0 "), std::string::npos) << message;
  EXPECT_NE(message.find("64-bit round clock"), std::string::npos) << message;
}

TEST(OverflowGuards, BulkSleepingMisRejectsDepthPastTheClock) {
  const Graph g = gen::path(2);
  core::SleepingMisOptions options;
  options.levels = 127;
  const std::string message =
      rejection([&] { bulk::bulk_sleeping_mis(g, 1, options); });
  EXPECT_NE(message.find("K <= 126"), std::string::npos) << message;
  options.levels = 126;
  const auto run = bulk::bulk_sleeping_mis(g, 1, options);
  const bulk::VirtualRound t126 = (bulk::VirtualRound{1} << 126) * 3 - 3;
  EXPECT_TRUE(run.virtual_makespan == t126);
  EXPECT_EQ(run.metrics.makespan, ~std::uint64_t{0});  // saturated
}

}  // namespace
}  // namespace slumber
