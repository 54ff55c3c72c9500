// Tests for the event tracer.
#include <gtest/gtest.h>

#include "core/sleeping_mis.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "sim/trace.h"

namespace slumber::sim {
namespace {

TEST(TraceTest, RecordsWakeDeliverDecideTerminate) {
  const Graph g = gen::path(2);
  RingTrace trace;
  auto protocol = [](Context& ctx) -> Task {
    Inbox inbox = co_await ctx.broadcast(Message::hello());
    ctx.decide(static_cast<std::int64_t>(inbox.size()));
  };
  NetworkOptions options;
  options.trace = &trace;
  Network net(g, 1, options);
  net.run(protocol);
  EXPECT_EQ(trace.count(TraceEventKind::kWake), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kDecide), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kTerminate), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kDropSleep), 0u);
}

TEST(TraceTest, RecordsTerminateOfANodeThatReturnsAtOnce) {
  // Node 0 decides and returns before its first exchange, in round 0;
  // node 1 listens once. Both terminations are events.
  const Graph g = gen::path(2);
  RingTrace trace;
  auto protocol = [](Context& ctx) -> Task {
    if (ctx.id() == 1) {
      co_await ctx.listen();
    }
    ctx.decide(ctx.id());
  };
  NetworkOptions options;
  options.trace = &trace;
  Network net(g, 1, options);
  net.run(protocol);
  EXPECT_EQ(trace.count(TraceEventKind::kWake), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kDecide), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::kTerminate), 2u);
  bool node0_terminates_in_round0 = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEventKind::kTerminate && e.node == 0) {
      node0_terminates_in_round0 = e.round == 0;
    }
  }
  EXPECT_TRUE(node0_terminates_in_round0);
}

TEST(TraceTest, RecordsSleepDrops) {
  const Graph g = gen::path(2);
  RingTrace trace;
  auto protocol = [](Context& ctx) -> Task {
    if (ctx.id() == 1) ctx.sleep(1);
    co_await ctx.broadcast(Message::hello());
    ctx.decide(1);
  };
  NetworkOptions options;
  options.trace = &trace;
  Network net(g, 1, options);
  net.run(protocol);
  EXPECT_EQ(trace.count(TraceEventKind::kDropSleep), 2u);
}

TEST(TraceTest, RingBufferBounded) {
  const Graph g = gen::complete(6);
  RingTrace trace(16);
  NetworkOptions options;
  options.trace = &trace;
  Network net(g, 3, options);
  net.run(core::sleeping_mis());
  EXPECT_LE(trace.events().size(), 16u);
  EXPECT_GT(trace.total_events(), 16u);
  const std::string text = trace.render();
  EXPECT_NE(text.find("earlier events elided"), std::string::npos);
}

TEST(TraceTest, FormatEventReadable) {
  TraceEvent deliver{TraceEventKind::kDeliver, 17, 3, 5, MsgKind::kStatus, 0};
  EXPECT_EQ(format_event(deliver),
            "round 17: deliver node 3 -> 5 kind=Status");
  TraceEvent decide{TraceEventKind::kDecide, 4, 9, kInvalidVertex,
                    MsgKind::kCustom, 1};
  EXPECT_EQ(format_event(decide), "round 4: decide node 9 value=1");
  TraceEvent wake{TraceEventKind::kWake, 2, 0, kInvalidVertex,
                  MsgKind::kCustom, 0};
  EXPECT_EQ(format_event(wake), "round 2: wake node 0");
}

TEST(TraceTest, KindNamesDistinct) {
  EXPECT_EQ(trace_kind_name(TraceEventKind::kDropFault), "drop-fault");
  EXPECT_EQ(trace_kind_name(TraceEventKind::kDropSleep), "drop-sleeping");
  EXPECT_NE(trace_kind_name(TraceEventKind::kWake),
            trace_kind_name(TraceEventKind::kTerminate));
}

TEST(TraceTest, WakeCountMatchesAwakeMetric) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(32, 4.0, 5);
  RingTrace trace(1u << 20);
  NetworkOptions options;
  options.trace = &trace;
  Network net(g, 7, options);
  const Metrics& metrics = net.run(core::sleeping_mis());
  EXPECT_EQ(trace.count(TraceEventKind::kWake),
            metrics.total_awake_node_rounds);
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver), metrics.total_messages);
  EXPECT_EQ(trace.count(TraceEventKind::kTerminate), 32u);
}

}  // namespace
}  // namespace slumber::sim
