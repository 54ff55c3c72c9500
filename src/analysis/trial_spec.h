// The one command-line vocabulary of the `slumber` CLI.
//
// A TrialSpec bundles the flags every trial-running command shares:
// the execution back end (--engine), the lane count (--threads), the
// fault plan (--crash v@r, --loss p, --loss-burst p_on p_off len,
// --churn rate, --churn-batches k, --churn-live leave join, --recover
// mean), the memory diet (--mem-diet), and the telemetry sinks
// (--obs-out, --obs-trace, --progress). parse_trial_flags() consumes
// those flags -- wherever they appear -- from an argument vector and
// leaves the positional arguments behind, so every command accepts the
// identical grammar with the identical diagnostics (full-token
// std::from_chars validation; unknown values are rejected with the
// list of valid names, and an unknown `--` flag by name).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace slumber::analysis {

/// Parsed shared flags. `fault` is owned here; hand experiment calls
/// `fault_or_null()` so a fault-free spec costs the engines nothing.
struct TrialSpec {
  ExecEngine exec = ExecEngine::kCoroutine;
  /// --threads lane count; 0 = all hardware threads.
  unsigned threads = 0;
  fault::FaultPlan fault;
  /// false under --mem-diet: bulk runs drop per-node metrics
  /// (RunOptions::node_metrics).
  bool node_metrics = true;
  /// Telemetry export + live progress (--obs-out / --obs-trace /
  /// --progress). Hand it to an obs::Session in main(); no effect on
  /// any trial output (the determinism tests pin this).
  obs::Options obs;

  const fault::FaultPlan* fault_or_null() const {
    return fault.empty() ? nullptr : &fault;
  }

  /// The RunOptions this spec configures (trial-level threads ride in
  /// RunOptions::num_threads only where the caller wants them; run_mis
  /// ignores that field, so it is left 0 here).
  RunOptions run_options(util::ThreadPool* pool = nullptr) const {
    return {.exec = exec, .pool = pool, .fault = fault_or_null(),
            .node_metrics = node_metrics};
  }
};

/// Consumes every recognized shared flag from `args` (in place, any
/// position) into `spec`. Returns false after printing a diagnostic to
/// `err` on malformed or out-of-range values, an unknown --engine
/// name, any other token starting with `--` (an unknown flag), or a
/// bulk-only request (churn, live churn, recovery, the memory diet) on
/// the coroutine back end -- say `--engine bulk`.
///
///   --threads N         lane count (>= 1)
///   --engine NAME       coroutine | bulk
///   --crash V@R         fail-stop node V at round R (repeatable)
///   --loss P            per-link-per-round symmetric message loss
///   --loss-burst P_ON P_OFF LEN
///                       Gilbert–Elliott burst loss: each edge flips
///                       good->bad w.p. P_ON and bad->good w.p. P_OFF
///                       per epoch of LEN rounds (P_ON + P_OFF <= 1);
///                       composes with --loss (independent draws)
///   --churn P           per-batch leave/rejoin probability; implies 4
///                       batches unless --churn-batches is given
///   --churn-batches K   number of churn batches (>= 1)
///   --churn-live LEAVE JOIN
///                       mid-run churn: each alive node leaves w.p.
///                       LEAVE per round; a leaver returns after a
///                       Geometric(JOIN) downtime (JOIN 0 = for good)
///   --recover MEAN      crashed nodes re-enter after a geometric
///                       downtime with mean MEAN rounds
///   --mem-diet          drop per-node metrics (56 B/node); bulk only
///   --obs-out PATH      telemetry JSONL event stream (slumber-obs-v1)
///   --obs-trace PATH    Chrome trace-event file (load in Perfetto)
///   --progress          live stderr heartbeat with round/frame ETA
bool parse_trial_flags(std::vector<std::string>* args, TrialSpec* spec,
                       std::ostream& err = std::cerr);

}  // namespace slumber::analysis
