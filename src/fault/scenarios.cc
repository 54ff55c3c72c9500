#include "fault/fault.h"

namespace slumber::fault {

std::vector<Scenario> standard_scenarios() {
  std::vector<Scenario> s(7);
  s[0].name = "none";
  s[1].name = "loss 1%";
  s[1].plan.loss_prob = 0.01;
  s[2].name = "burst loss";
  // Gilbert–Elliott per-edge channel: ~9% stationary loss arriving in
  // bursts (a bad epoch persists w.p. 0.8), epochs of 8 rounds.
  s[2].plan.burst = {.p_on = 0.02, .p_off = 0.2, .epoch_len = 8};
  s[3].name = "crash";
  // A handful of scheduled crashes plus a per-awake-round rate sized so
  // hundreds of nodes fail over an O(log n) awake lifetime.
  s[3].plan.crash_schedule = {{0, 1}, {1, 4}, {2, 16}};
  s[3].plan.crash_prob = 1e-6;
  s[4].name = "crash+recover";
  s[4].plan = s[3].plan;
  s[4].plan.recover.mean_down = 16;
  s[5].name = "live churn";
  // Mid-run leave/join between bulk frames; leavers return after a
  // Geometric(0.2) downtime and re-enter in a reset state.
  s[5].plan.live_churn = {.leave_prob = 1e-5, .join_prob = 0.2};
  s[6].name = "loss+churn";
  // 1% loss, then 3 batches of post-run churn, each followed by an
  // incremental repair.
  s[6].plan.loss_prob = 0.01;
  s[6].plan.churn = {.leave_prob = 0.05, .join_prob = 0.5, .batches = 3};
  return s;
}

}  // namespace slumber::fault
