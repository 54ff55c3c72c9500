// The synchronous network scheduler for the sleeping model.
//
// The scheduler maintains a virtual round clock and a bucket map
// round -> {nodes awake in that round}. Each iteration pops the earliest
// non-empty bucket, so intervals in which *every* node sleeps are skipped
// in O(log n) time ("event-skipping"). This matters: Algorithm 1's
// schedule spans T(⌈3 log n⌉) = Θ(n³) virtual rounds, but only O(n)
// awake node-rounds in expectation (Lemma 8), so simulation cost tracks
// awake work, not wall-clock rounds.
//
// Round semantics (synchronous CONGEST + sleeping, paper Section 1.2):
//   1. All nodes awake in round t emit their pending messages.
//   2. A message is delivered iff its receiver is awake in round t;
//      otherwise it is dropped (receiver sleeping or terminated).
//   3. All awake nodes then process their inboxes and run local
//      computation until their next suspension (exchange or return).
// Delivery happens strictly before any node resumes, so all nodes see a
// consistent synchronous cut; resumption order within a round is
// irrelevant because nodes only touch their own state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fault/fault.h"
#include "graph/graph.h"
#include "sim/context.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace slumber::sim {

/// A protocol factory: invoked once per node to create its coroutine.
using Protocol = std::function<Task(Context&)>;

/// Thrown when a message exceeds the CONGEST bit budget and the policy
/// is to fail (default in tests).
class CongestViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetworkOptions {
  /// CONGEST budget in bits; 0 disables the check. A useful default is
  /// congest_bits_for(n).
  std::uint32_t max_message_bits = 0;
  /// If true, a too-wide message throws CongestViolation; otherwise it is
  /// only counted in Metrics::congest_violations.
  bool throw_on_congest_violation = true;
  /// Failure injection (fault/fault.h): crash schedules, probabilistic
  /// per-round crashes, and per-message loss. Borrowed; must outlive
  /// the run. Crashes are fail-stop: a crashed node is silent forever,
  /// its coroutine never resumes, outputs decided before the crash are
  /// kept, and an undecided crashed node reports -1. Message loss hits
  /// otherwise-deliverable messages only. Every fault decision is a
  /// keyed util::stream_rng draw, so the bulk engine evaluating the
  /// same plan under the same seed injects the identical faults.
  /// FaultPlan::churn is a bulk-only feature and is ignored here.
  const fault::FaultPlan* fault = nullptr;
  /// Optional event sink (see sim/trace.h); must outlive the run.
  TraceSink* trace = nullptr;
};

/// The standard CONGEST(log n) budget used in this library: enough for a
/// tag plus a Theta(log n)-bit payload.
std::uint32_t congest_bits_for(std::uint64_t n);

class Network {
 public:
  /// Builds a network over `g`. Node RNG streams are split from `seed`.
  Network(const Graph& g, std::uint64_t seed, NetworkOptions options = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Runs `protocol` on every node to completion and returns the metrics.
  /// May be called only once per Network instance. Throws
  /// std::overflow_error, naming the node, if a sleep would carry a
  /// node's next wake or finish round past 2^64 - 1.
  const Metrics& run(const Protocol& protocol);

  const Graph& graph() const { return graph_; }
  const Metrics& metrics() const { return metrics_; }

  /// Per-node outputs (ctx.decide values); -1 if a node never decided.
  std::vector<std::int64_t> outputs() const;

  /// Current virtual round (valid during run(); used by Context::round).
  std::uint64_t current_round() const { return current_round_; }

 private:
  friend class Context;

  void deliver_from(VertexId sender);
  void deliver(VertexId sender, VertexId receiver, std::uint32_t port,
               const Message& m);
  void check_congest(const Message& m, std::uint64_t count);

  const Graph& graph_;
  NetworkOptions options_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Task> tasks_;
  // last_awake_[v] == current_round_  <=>  v is awake this round (so
  // never for a finished or crashed node).
  std::vector<std::uint64_t> last_awake_;
  // back_port_[adjacency_offset(v) + p] is the port of v at its port-p
  // neighbor: the port a message from v arrives on.
  std::vector<std::uint32_t> back_port_;
  std::map<std::uint64_t, std::vector<VertexId>> wake_buckets_;
  std::uint64_t current_round_ = 0;
  std::uint64_t seed_;
  fault::FaultState fault_;  // keyed crash/loss decisions
  bool ran_ = false;
};

/// Convenience: run `protocol` on graph `g` with `seed`, return metrics +
/// outputs.
struct RunResult {
  Metrics metrics;
  std::vector<std::int64_t> outputs;
};
RunResult run_protocol(const Graph& g, std::uint64_t seed,
                       const Protocol& protocol, NetworkOptions options = {});

}  // namespace slumber::sim
