#include "analysis/trial_spec.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "util/parse.h"

namespace slumber::analysis {
namespace {

/// True iff flag i is followed by a value token.
bool flag_value(const std::vector<std::string>& args, std::size_t i,
                const char* flag, std::ostream& err) {
  if (i + 1 < args.size()) return true;
  err << "error: " << flag << " needs a value\n";
  return false;
}

/// True iff flag i is followed by `count` value tokens.
bool flag_values(const std::vector<std::string>& args, std::size_t i,
                 const char* flag, std::size_t count, const char* shape,
                 std::ostream& err) {
  if (i + count < args.size()) return true;
  err << "error: " << flag << " needs " << count << " values: " << flag << ' '
      << shape << '\n';
  return false;
}

}  // namespace

bool parse_trial_flags(std::vector<std::string>* args, TrialSpec* spec,
                       std::ostream& err) {
  std::vector<std::string>& a = *args;
  std::vector<std::string> rest;
  rest.reserve(a.size());
  bool batches_given = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string& flag = a[i];
    if (flag == "--threads") {
      if (!flag_value(a, i, "--threads", err)) return false;
      std::uint64_t threads = 0;
      if (!util::parse_uint(a[++i], "--threads", &threads, 1,
                            std::numeric_limits<unsigned>::max(), err)) {
        return false;
      }
      spec->threads = static_cast<unsigned>(threads);
    } else if (flag == "--engine") {
      if (!flag_value(a, i, "--engine", err)) return false;
      if (!exec_engine_from_name(a[++i], &spec->exec)) {
        err << "error: unknown --engine '" << a[i]
            << "'; valid back ends: coroutine bulk\n";
        return false;
      }
    } else if (flag == "--crash") {
      if (!flag_value(a, i, "--crash", err)) return false;
      const std::string& token = a[++i];
      const std::size_t at = token.find('@');
      if (at == std::string::npos) {
        err << "error: --crash: '" << token
            << "' is not NODE@ROUND (e.g. --crash 17@40)\n";
        return false;
      }
      std::uint64_t node = 0;
      std::uint64_t round = 0;
      if (!util::parse_uint(token.substr(0, at), "--crash node", &node, 0,
                            std::numeric_limits<VertexId>::max(), err) ||
          !util::parse_uint(token.substr(at + 1), "--crash round", &round, 0,
                            std::numeric_limits<std::uint64_t>::max(), err)) {
        return false;
      }
      spec->fault.crash_schedule.push_back(
          {static_cast<VertexId>(node), round});
    } else if (flag == "--loss") {
      if (!flag_value(a, i, "--loss", err)) return false;
      if (!util::parse_prob(a[++i], "--loss", &spec->fault.loss_prob, err)) {
        return false;
      }
    } else if (flag == "--loss-burst") {
      if (!flag_values(a, i, "--loss-burst", 3, "P_ON P_OFF LEN", err)) {
        return false;
      }
      fault::BurstSpec& burst = spec->fault.burst;
      if (!util::parse_prob(a[++i], "--loss-burst P_ON", &burst.p_on, err) ||
          !util::parse_prob(a[++i], "--loss-burst P_OFF", &burst.p_off, err)) {
        return false;
      }
      if (burst.p_on + burst.p_off > 1.0) {
        err << "error: --loss-burst: P_ON + P_OFF must be <= 1 (the "
               "channel's epoch-coupling probability is their sum); got "
            << burst.p_on + burst.p_off << '\n';
        return false;
      }
      if (!util::parse_uint(a[++i], "--loss-burst LEN", &burst.epoch_len, 1,
                            std::numeric_limits<std::uint64_t>::max(), err)) {
        return false;
      }
    } else if (flag == "--churn-live") {
      if (!flag_values(a, i, "--churn-live", 2, "LEAVE JOIN", err)) {
        return false;
      }
      fault::LiveChurnSpec& live = spec->fault.live_churn;
      if (!util::parse_prob(a[++i], "--churn-live LEAVE", &live.leave_prob,
                            err) ||
          !util::parse_prob(a[++i], "--churn-live JOIN", &live.join_prob,
                            err)) {
        return false;
      }
    } else if (flag == "--recover") {
      if (!flag_value(a, i, "--recover", err)) return false;
      if (!util::parse_uint(a[++i], "--recover", &spec->fault.recover.mean_down,
                            1, std::numeric_limits<std::uint64_t>::max(),
                            err)) {
        return false;
      }
    } else if (flag == "--churn") {
      if (!flag_value(a, i, "--churn", err)) return false;
      double rate = 0.0;
      if (!util::parse_prob(a[++i], "--churn", &rate, err)) return false;
      spec->fault.churn.leave_prob = rate;
      spec->fault.churn.join_prob = rate;
    } else if (flag == "--churn-batches") {
      if (!flag_value(a, i, "--churn-batches", err)) return false;
      std::uint64_t batches = 0;
      if (!util::parse_uint(a[++i], "--churn-batches", &batches, 1,
                            std::numeric_limits<std::uint32_t>::max(), err)) {
        return false;
      }
      spec->fault.churn.batches = static_cast<std::uint32_t>(batches);
      batches_given = true;
    } else if (flag == "--obs-out") {
      if (!flag_value(a, i, "--obs-out", err)) return false;
      spec->obs.jsonl_path = a[++i];
    } else if (flag == "--obs-trace") {
      if (!flag_value(a, i, "--obs-trace", err)) return false;
      spec->obs.trace_path = a[++i];
    } else if (flag == "--progress") {
      spec->obs.progress = true;
    } else if (flag == "--mem-diet") {
      spec->node_metrics = false;
    } else if (flag.starts_with("--")) {
      err << "error: unknown flag '" << flag << "'\n";
      return false;
    } else {
      rest.push_back(std::move(a[i]));
    }
  }
  // `--churn P` alone means "some churn": default to 4 batches.
  if ((spec->fault.churn.leave_prob > 0.0 ||
       spec->fault.churn.join_prob > 0.0) &&
      !batches_given) {
    spec->fault.churn.batches = 4;
  }
  if (spec->fault.churn.enabled() && spec->exec != ExecEngine::kBulk) {
    err << "error: --churn needs the bulk back end's alive mask; "
           "add --engine bulk\n";
    return false;
  }
  if (spec->fault.live_churn.enabled() && spec->exec != ExecEngine::kBulk) {
    err << "error: --churn-live applies mid-run dynamics between bulk "
           "frames; add --engine bulk\n";
    return false;
  }
  if (spec->fault.recover.enabled() && spec->exec != ExecEngine::kBulk) {
    err << "error: --recover re-admits crashed nodes between bulk frames; "
           "add --engine bulk\n";
    return false;
  }
  if (!spec->node_metrics && spec->exec != ExecEngine::kBulk) {
    err << "error: --mem-diet drops the bulk engine's per-node metrics; "
           "add --engine bulk\n";
    return false;
  }
  a = std::move(rest);
  return true;
}

}  // namespace slumber::analysis
