// Run metrics: the paper's four complexity measures, per node and
// aggregated.
//
//   node-averaged awake complexity   = mean_v awake_rounds(v)    [Lemma 8]
//   worst-case awake complexity      = max_v awake_rounds(v)     [Lemma 9]
//   node-averaged round complexity   = mean_v finish_round(v)    [Lemma 11]
//   worst-case round complexity      = max_v finish_round(v)     [Lemma 10]
//
// finish_round counts ALL rounds (awake + sleeping) until the node
// terminates, i.e. the traditional measure; awake_rounds counts only
// rounds spent awake, i.e. the sleeping-model measure. We additionally
// record the *decision* instant (when the output value was fixed) to
// support the Feuilloley / Barenboim-Tzur node-averaged notions for the
// traditional-model baselines.
#pragma once

#include <cstdint>
#include <vector>

namespace slumber::sim {

struct NodeMetrics {
  std::uint64_t awake_rounds = 0;       // exchanges performed
  std::uint64_t finish_round = 0;       // virtual round of termination
  std::uint64_t decided_round = 0;      // virtual round output was fixed
  std::uint64_t awake_at_decision = 0;  // awake rounds used up to decision
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  // Fail-stopped by injection and still down (crash recovery clears it
  // when the node re-enters; without recovery it means "ever crashed").
  bool crashed = false;

  /// Whole-struct bitwise comparison: the engine-equivalence and
  /// thread-determinism gates compare entire runs with ==, so a new
  /// field can never silently fall out of those checks.
  friend bool operator==(const NodeMetrics&, const NodeMetrics&) = default;
};

struct Metrics {
  std::vector<NodeMetrics> node;
  std::uint64_t makespan = 0;          // max finish_round
  std::uint64_t total_messages = 0;    // delivered
  std::uint64_t dropped_messages = 0;  // sent to sleeping/terminated nodes
  std::uint64_t injected_losses = 0;   // lost to failure injection
  std::uint64_t crashed_nodes = 0;     // fail-stopped by injection
  std::uint64_t total_awake_node_rounds = 0;
  std::uint64_t distinct_active_rounds = 0;  // rounds with >= 1 awake node
  std::uint64_t congest_violations = 0;
  std::uint32_t max_message_bits_seen = 0;
  // Churn stream accounting (fault/churn.h; bulk engine only — all zero
  // unless the run's FaultPlan enabled churn). Filled by the experiment
  // layer after the protocol run.
  std::uint64_t churn_batches = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_joins = 0;
  std::uint64_t churn_repair_rounds = 0;  // incremental repair passes
  // Live-dynamics accounting (fault/fault.h Live/RecoverSpec; bulk
  // engine only — all zero otherwise). Leaves/rejoins count mid-run
  // churn events; recovered_nodes counts crashed nodes that came back;
  // live_repair_rounds counts the final repair's passes (the experiment
  // layer repairs the surviving MIS once, after a live-dynamics run).
  std::uint64_t live_leaves = 0;
  std::uint64_t live_rejoins = 0;
  std::uint64_t recovered_nodes = 0;
  std::uint64_t live_repair_rounds = 0;

  double node_avg_awake() const;
  std::uint64_t worst_awake() const;
  double node_avg_finish() const;
  std::uint64_t worst_finish() const;
  double node_avg_decided() const;
  double node_avg_awake_at_decision() const;

  /// 0 where node[v].crashed, else 1: a coroutine run's final alive mask
  /// (bulk runs also lose nodes to churn: bulk::BulkResult::alive_mask).
  std::vector<std::uint8_t> alive_mask() const;

  /// Field-complete equality (per-node vector included); see
  /// NodeMetrics::operator==.
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

}  // namespace slumber::sim
