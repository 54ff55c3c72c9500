// Telemetry layer suite (obs/obs.h): the out-of-band contract.
//
// Pins the three properties the observability tentpole rests on:
//   1. determinism — a fully instrumented run (JSONL + trace sinks
//      active, spans/counters firing) produces bitwise-identical trial
//      output to an uninstrumented run, at every lane count, on both
//      execution back ends, fault-free and under crash+loss+churn;
//   2. schema — the JSONL stream is manifest-first/footer-last
//      slumber-obs-v1 and the Chrome trace file carries traceEvents
//      plus the Perfetto process metadata (tools/obs_check.py does the
//      deep validation in CI; these are the structural anchors);
//   3. lifecycle — a default-constructed Options yields an inactive
//      session, and a second session while one is live stays inactive
//      instead of corrupting the installed recorder.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bulk/baselines.h"
#include "bulk/engine.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "metrics_test_util.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

using analysis::ExecEngine;
using analysis::MisEngine;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void ExpectRunsEqual(const analysis::MisRun& a, const analysis::MisRun& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.alive, b.alive);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.mis_size, b.mis_size);
  ExpectMetricsEqual(a.metrics, b.metrics);
}

struct Scenario {
  std::string name;
  fault::FaultPlan plan;
  bool bulk_only = false;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> list(3);
  list[0].name = "plain";
  list[1].name = "crash+loss";
  list[1].plan.crash_schedule = {{3, 5}, {11, 2}};
  list[1].plan.crash_prob = 0.002;
  list[1].plan.loss_prob = 0.05;
  list[2].name = "crash+loss+churn";
  list[2].plan.crash_prob = 0.002;
  list[2].plan.loss_prob = 0.02;
  list[2].plan.churn.leave_prob = 0.2;
  list[2].plan.churn.join_prob = 0.5;
  list[2].plan.churn.batches = 2;
  list[2].bulk_only = true;  // churn repair needs the bulk alive mask
  return list;
}

analysis::MisRun run_one(const Graph& g, ExecEngine exec, unsigned lanes,
                         const fault::FaultPlan* plan) {
  util::ThreadPool pool(lanes);
  return analysis::run_mis(MisEngine::kSleeping, g, 101,
                           {.exec = exec, .pool = &pool, .fault = plan});
}

// --- 1. determinism: obs on vs obs off ------------------------------

// The full matrix: both back ends, fault-free and faulty (churn on the
// bulk side), lane counts 1/2/3/8 — all bitwise identical whether the
// recorder is installed or not. This is the lint exemption's teeth:
// src/obs/ may read the wall clock precisely because this test pins
// that nothing downstream of a clock read reaches a decided output.
TEST(ObsDeterminism, TrialOutputBitwiseIdenticalObsOnVsOff) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(400, 8.0, 31);
  int session_id = 0;
  for (const ExecEngine exec : {ExecEngine::kBulk, ExecEngine::kCoroutine}) {
    for (const Scenario& sc : scenarios()) {
      if (sc.bulk_only && exec != ExecEngine::kBulk) continue;
      const fault::FaultPlan* plan = sc.plan.empty() ? nullptr : &sc.plan;
      for (const unsigned lanes : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE(analysis::exec_engine_name(exec) + " / " + sc.name +
                     " / lanes " + std::to_string(lanes));
        const analysis::MisRun off = run_one(g, exec, lanes, plan);
        obs::Options options;
        options.jsonl_path = ::testing::TempDir() + "obs_det_" +
                             std::to_string(session_id) + ".jsonl";
        options.trace_path = ::testing::TempDir() + "obs_det_" +
                             std::to_string(session_id) + ".json";
        ++session_id;
        obs::Session session(options);
        ASSERT_TRUE(session.active());
        const analysis::MisRun on = run_one(g, exec, lanes, plan);
        ExpectRunsEqual(off, on);
      }
    }
  }
}

// Sharded engine scans with per-chunk spans firing on every frame
// (parallel_cutoff = 1): instrumented parallel runs must reproduce the
// uninstrumented serial run bit for bit. The "Parallel" name keeps
// this in the TSan sweep alongside the other pool suites.
TEST(ObsParallelScan, InstrumentedChunkSpansAreBitwiseNeutral) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(800, 8.0, 37);
  const auto protocol = bulk::bulk_mis_protocol(MisEngine::kSleeping, nullptr);
  bulk::BulkOptions base;
  base.max_message_bits = 0;
  base.parallel_cutoff = 1;  // span every scan, chunk every frame
  const bulk::BulkResult serial = bulk::run_bulk(g, 77, *protocol, base);
  for (const unsigned lanes : {2u, 3u, 8u}) {
    SCOPED_TRACE(lanes);
    obs::Options options;
    options.jsonl_path = ::testing::TempDir() + "obs_par_" +
                         std::to_string(lanes) + ".jsonl";
    obs::Session session(options);
    ASSERT_TRUE(session.active());
    util::ThreadPool pool(lanes);
    bulk::BulkOptions instrumented = base;
    instrumented.pool = &pool;
    const bulk::BulkResult run = bulk::run_bulk(g, 77, *protocol,
                                                instrumented);
    EXPECT_EQ(serial.outputs, run.outputs);
    EXPECT_EQ(serial.crashed, run.crashed);
    EXPECT_TRUE(serial.virtual_makespan == run.virtual_makespan);
    ExpectMetricsEqual(serial.metrics, run.metrics);
  }
}

// --- 2. export schema -----------------------------------------------

TEST(ObsExport, JsonlIsManifestFirstFooterLastWithInfoRoundtrip) {
  const std::string jsonl = ::testing::TempDir() + "obs_schema.jsonl";
  const std::string trace = ::testing::TempDir() + "obs_schema.json";
  {
    obs::Options options;
    options.jsonl_path = jsonl;
    options.trace_path = trace;
    obs::Session session(options);
    ASSERT_TRUE(session.active());
    session.set_info("tool", "obs_test");
    session.set_info("note", "schema \"anchor\"");  // exercises escaping
    const Graph g = gen::gnp_avg_degree_sharded_csr(600, 8.0, 41);
    util::ThreadPool pool(2);
    const auto protocol =
        bulk::bulk_mis_protocol(MisEngine::kSleeping, nullptr);
    bulk::BulkOptions run_options;
    run_options.max_message_bits = 0;
    run_options.parallel_cutoff = 1;
    run_options.pool = &pool;
    bulk::run_bulk(g, 9, *protocol, run_options);
    obs::counter("test_counter", 1.5);
    obs::instant("test", "marker", 7);
  }  // session finalizes and writes both sinks here

  const std::vector<std::string> lines = read_lines(jsonl);
  ASSERT_GE(lines.size(), 4u);  // manifest + spans + counter + footer
  EXPECT_NE(lines.front().find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"schema\":\"slumber-obs-v1\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(lines.front().find("schema \\\"anchor\\\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"footer\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"peak_rss_kb\""), std::string::npos);
  bool saw_span = false;
  bool saw_counter = false;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"span\"") != std::string::npos) saw_span = true;
    if (line.find("\"name\":\"test_counter\"") != std::string::npos) {
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);

  const std::string trace_text = read_all(trace);
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"slumber-obs-v1\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"ph\":\"X\""), std::string::npos);
}

// --- 3. lifecycle ---------------------------------------------------

TEST(ObsSession, EmptyOptionsStayInactiveAndApiIsInert) {
  EXPECT_FALSE(obs::enabled());
  obs::Session session{obs::Options{}};
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(obs::enabled());
  // The whole API must be callable with no recorder installed.
  {
    obs::Span span("test", "noop", 1);
    obs::counter("noop", 0.0);
    obs::instant("test", "noop");
    obs::progress_phase("noop");
    obs::progress_round(1.0);
    obs::progress_frame();
  }
  EXPECT_GT(obs::peak_rss_kb(), 0u);  // /proc fallback works sessionless
}

TEST(ObsSession, SecondConcurrentSessionStaysInactive) {
  obs::Options options;
  options.jsonl_path = ::testing::TempDir() + "obs_first.jsonl";
  obs::Session first(options);
  ASSERT_TRUE(first.active());
  obs::Options second_options;
  second_options.jsonl_path = ::testing::TempDir() + "obs_second.jsonl";
  obs::Session second(second_options);
  EXPECT_FALSE(second.active());
  EXPECT_TRUE(obs::enabled());
}

}  // namespace
}  // namespace slumber
