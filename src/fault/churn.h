// Membership churn with incremental MIS repair (bulk engine only).
//
// A churn run turns a one-shot trial into a long-running system: after
// the protocol terminates, ChurnSpec::batches rounds of joins/leaves
// hit the ground graph (alive nodes leave with leave_prob, departed
// nodes rejoin with join_prob, drawn from the fault seed keyed by
// (node, batch) — lane-count- and order-independent), and after every
// batch the MIS invariant is restored incrementally on the subgraph
// induced by the alive set.
//
// The repair is a deterministic two-phase fixpoint, sharded over an
// optional thread pool:
//   1. one demotion pass — of two adjacent alive MIS nodes the one with
//      the lower repair priority (a splitmix64 hash of the node id
//      under the fault seed) drops out, restoring independence (lossy
//      runs can corrupt it; churn itself never does);
//   2. promotion passes to a fixpoint — an alive non-MIS node with no
//      alive MIS neighbor is a candidate; a candidate joins iff it
//      beats every neighboring candidate. The globally best candidate
//      always joins, so the loop terminates, and at the fixpoint the
//      set is maximal.
// All writes are own-node against snapshot-stable reads and all
// reductions are integer sums in chunk index order, so the repaired MIS
// is bitwise identical at every lane count.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "graph/graph.h"

namespace slumber::util {
class ThreadPool;
}  // namespace slumber::util

namespace slumber::fault {

/// What a churn run did; folded into sim::Metrics by the experiment
/// layer.
struct ChurnReport {
  std::uint64_t batches = 0;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  /// Total repair passes across the initial repair and every batch.
  std::uint64_t repair_rounds = 0;
  std::uint64_t alive_final = 0;
  /// True iff the alive-masked MIS invariant held after the initial
  /// repair and after every batch's repair.
  bool valid = false;
};

/// Restores the MIS invariant of `outputs` on the subgraph induced by
/// `alive` (see the file comment for the algorithm). `outputs` must be
/// normalized: 1 or 0 for alive nodes, anything for dead ones (dead
/// entries are rewritten to -1). Returns the number of repair passes;
/// `demotions`/`promotions` (optional) accumulate node counts.
std::uint64_t repair_mis(const Graph& g, const std::vector<std::uint8_t>& alive,
                         std::vector<std::int64_t>& outputs,
                         std::uint64_t fault_seed, util::ThreadPool* pool,
                         std::uint64_t* demotions = nullptr,
                         std::uint64_t* promotions = nullptr);

/// Runs the full churn stream over `alive`/`outputs` in place: initial
/// repair (the trial may have ended with crash/loss damage), then
/// `spec.batches` batches of keyed joins/leaves, each followed by an
/// incremental repair and an analysis::check_mis of the alive subgraph.
ChurnReport run_churn(const Graph& g, const ChurnSpec& spec,
                      std::uint64_t fault_seed,
                      std::vector<std::uint8_t>& alive,
                      std::vector<std::int64_t>& outputs,
                      util::ThreadPool* pool = nullptr);

}  // namespace slumber::fault
