// Deterministic fault injection shared by both execution back ends.
//
// A FaultPlan describes what goes wrong in a run: a fail-stop crash
// schedule (node v crashes at the first round >= r in which it is
// awake), a probabilistic per-round crash rate, probabilistic message
// loss (memoryless and/or burst-correlated via a per-link
// Gilbert-Elliott channel), live network dynamics (mid-run leave/join
// churn and crash recovery, bulk engine only), and a post-run churn
// stream (joins/leaves with incremental MIS repair, bulk engine only —
// see fault/churn.h).
//
// Every probabilistic decision is a *pure function* of (run seed, fault
// identity): draws go through util::stream_rng keyed by the entity the
// fault hits — the undirected edge id and round for message loss, the
// node id and round for crashes — never through an engine's own RNG
// streams or any sequential generator. That is the property that makes
// the layer engine-independent: the coroutine scheduler evaluating
// "does the link (u, v) drop its messages in round t?" and a bulk-engine
// lane evaluating the same question on another thread, in another
// order, at another lane count, compute the identical bit. Message loss
// is symmetric per link per round (one draw for both directions), so a
// receiver-side count of surviving messages equals the sender-side
// count of deliveries and per-chunk accounting stays an order-free sum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/stream_rng.h"
#include "util/stream_tags.h"

namespace slumber::fault {

/// One entry of a deterministic fail-stop schedule: `node` crashes at
/// the start of the first round >= `round` in which it is awake.
struct CrashEvent {
  VertexId node = 0;
  std::uint64_t round = 0;
};

/// Burst-correlated message loss: a Gilbert-Elliott on/off channel per
/// undirected link. Virtual time is cut into fixed-length epochs of
/// `epoch_len` rounds; within an epoch the channel holds one state
/// (good delivers, bad drops everything). Across epochs the state
/// follows the two-state chain with per-epoch transition probabilities
/// p_on (good -> bad) and p_off (bad -> good), realized through its
/// regeneration coupling so that the state at epoch e is a pure keyed
/// function of (edge, e): with probability 1 - (p_on + p_off) the state
/// copies the previous epoch, otherwise it regenerates from the
/// stationary law Bernoulli(p_on / (p_on + p_off)). The coupling
/// requires p_on + p_off <= 1 (the CLI validates; larger sums are
/// clamped to the i.i.d. boundary). Composes with the independent
/// per-round loss_prob: a message dies if either mechanism fires.
struct BurstSpec {
  double p_on = 0.0;
  double p_off = 0.0;
  /// Rounds per channel epoch; 0 disables the model.
  std::uint64_t epoch_len = 0;

  bool enabled() const { return epoch_len > 0 && p_on > 0.0 && p_off > 0.0; }
  /// Long-run fraction of epochs (and so of rounds) spent bad.
  double stationary_loss() const { return p_on / (p_on + p_off); }
};

/// Mid-run churn (bulk engine only): each round a node participates in,
/// it leaves the network with probability `leave_prob` (keyed on
/// (node, round), exactly like crash draws). A leaver's downtime is
/// drawn at leave time from the same stream — geometric with per-round
/// rejoin probability `join_prob`, distributionally identical to
/// independent per-round rejoin draws — after which it re-enters the
/// protocol in a reset state at the next faulty round. join_prob == 0
/// means leavers never return.
struct LiveChurnSpec {
  double leave_prob = 0.0;
  double join_prob = 0.0;

  bool enabled() const { return leave_prob > 0.0; }
};

/// Crash recovery (bulk engine only): a node that fail-stops comes back
/// after a keyed-draw downtime, geometric with mean `mean_down` rounds
/// (>= 1), re-entering the protocol in a reset state. 0 disables
/// recovery (crashes stay fail-stop-forever). Note that a *scheduled*
/// crash (`node crashes at any round >= r`) re-fires on the round after
/// the node recovers: under recovery a crash_schedule entry models a
/// permanently flaky node that bounces with period ~ downtime + 1, not
/// a one-shot event. Use crash_prob for transient random failures.
struct RecoverSpec {
  std::uint64_t mean_down = 0;

  bool enabled() const { return mean_down > 0; }
};

/// Churn stream configuration: after the protocol run, `batches` rounds
/// of membership churn hit the graph. In each batch every alive node
/// leaves with probability `leave_prob` and every departed node rejoins
/// with probability `join_prob`; after each batch the MIS is repaired
/// incrementally (fault/churn.h). Draws are keyed by (node, batch).
struct ChurnSpec {
  double leave_prob = 0.0;
  double join_prob = 0.0;
  std::uint32_t batches = 0;

  bool enabled() const {
    return batches > 0 && (leave_prob > 0.0 || join_prob > 0.0);
  }
};

/// The full fault configuration of a run. Engine-independent: the same
/// plan produces the same faults on the coroutine scheduler and the
/// bulk engine at every lane count.
struct FaultPlan {
  /// Deterministic fail-stop events (may list a node more than once;
  /// the earliest round wins).
  std::vector<CrashEvent> crash_schedule;
  /// Each round a node is awake it crashes independently with this
  /// probability, BEFORE sending (fail-stop; silent forever after).
  double crash_prob = 0.0;
  /// Each otherwise-deliverable message is lost with this probability.
  /// Loss is symmetric per undirected link per round.
  double loss_prob = 0.0;
  /// Burst-correlated loss on top of (or instead of) loss_prob; both
  /// engines evaluate it through link_down, so it works everywhere.
  BurstSpec burst;
  /// Mid-run membership churn (bulk engine only).
  LiveChurnSpec live_churn;
  /// Crash recovery (bulk engine only); inert without crash faults.
  RecoverSpec recover;
  /// Post-run membership churn (bulk engine only).
  ChurnSpec churn;
  /// Extra key folded into every draw, so two runs with the same seed
  /// can face independent fault streams.
  std::uint64_t salt = 0;

  bool has_crashes() const {
    return crash_prob > 0.0 || !crash_schedule.empty();
  }
  bool has_loss() const { return loss_prob > 0.0 || burst.enabled(); }
  /// Live dynamics mutate the membership mid-run; only the bulk engine
  /// supports them (the experiment layer rejects them elsewhere).
  bool has_live_dynamics() const {
    return live_churn.enabled() || (recover.enabled() && has_crashes());
  }
  bool empty() const {
    return !has_crashes() && !has_loss() && !live_churn.enabled() &&
           !recover.enabled() && !churn.enabled();
  }
};

/// One named row of the fault matrix.
struct Scenario {
  std::string name;
  FaultPlan plan;
};

/// The fault matrix's seven scenarios, in table order: none, loss 1%,
/// burst loss, crash, crash+recover, live churn, loss+churn. The rates
/// are sized for n in the millions (`slumber faults`); a test at small
/// n raises them in place. Plain data: building it draws nothing.
std::vector<Scenario> standard_scenarios();

namespace detail {

/// One avalanche step combining two 64-bit keys; the building block of
/// every fault stream id. The golden-ratio offset keeps mix(x, 0) from
/// collapsing to splitmix64(x).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sm = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return splitmix64(sm);
}

// The domain-separation tags that keep the loss, crash, churn, and
// repair streams of one run from colliding moved to the central
// stream-tag registry (util/stream_tags.h), which proves all
// registered tags pairwise distinct in their high 32 bits at compile
// time; slumber-d6 additionally checks every stream_rng call site
// keys through a registered tag.

/// Inverse-CDF geometric draw on {1, 2, ...} with success probability
/// p, from one uniform: P(k) = (1-p)^(k-1) * p. The downtime primitive
/// of live churn and crash recovery. p >= 1 pins the draw at 1;
/// pathological inputs saturate at 2^62 rounds (never, in practice).
inline std::uint64_t geometric_from_uniform(double u, double p) {
  constexpr std::uint64_t kNever = std::uint64_t{1} << 62;
  if (p >= 1.0) return 1;
  if (p <= 0.0) return kNever;
  const double k = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(k >= 0.0)) return 1;
  if (k >= 4.6e18) return kNever;
  return 1 + static_cast<std::uint64_t>(k);
}

}  // namespace detail

/// Forced-renewal period of the burst channel's regeneration coupling,
/// in epochs: every epoch on this grid regenerates from the stationary
/// law, which bounds FaultState::burst_bad's backward scan at the cost
/// of cutting state correlation across grid boundaries only (the
/// marginal at every epoch is exactly stationary either way).
inline constexpr std::uint64_t kBurstRenewalGrid = 64;

/// Result of the mid-run leave draw for a participating node.
struct LeaveDraw {
  bool leaves = false;
  bool rejoins = false;
  /// Rounds out of the network before re-entry (>= 1); meaningful only
  /// when `rejoins` (join_prob == 0 leavers never return).
  std::uint64_t downtime = 0;
};

/// A FaultPlan bound to one run (seed + vertex count): the read-side
/// object both engines query. Copyable, cheap when inert; the borrowed
/// plan must outlive it. All queries are const and thread-safe — they
/// touch no mutable state, which is what lets bulk lanes evaluate
/// faults chunk-locally and merge in chunk order.
class FaultState {
 public:
  FaultState() = default;

  FaultState(const FaultPlan* plan, std::uint64_t run_seed, VertexId n)
      : plan_(plan) {
    if (plan_ == nullptr) return;
    seed_ = detail::mix(run_seed, plan_->salt);
    crash_at_.reserve(plan_->crash_schedule.size());
    for (const CrashEvent& ev : plan_->crash_schedule) {
      if (ev.node < n) crash_at_.push_back({ev.node, ev.round});
    }
    std::sort(crash_at_.begin(), crash_at_.end());
    // Keep only the earliest round per node; lookups binary-search the
    // (small) schedule instead of paying an O(n) array at 10^8 nodes.
    crash_at_.erase(
        std::unique(crash_at_.begin(), crash_at_.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first;
                    }),
        crash_at_.end());
  }

  bool active() const { return plan_ != nullptr && !plan_->empty(); }
  bool has_loss() const { return plan_ != nullptr && plan_->has_loss(); }
  bool has_crashes() const { return plan_ != nullptr && plan_->has_crashes(); }
  bool has_burst() const { return plan_ != nullptr && plan_->burst.enabled(); }
  bool has_live_churn() const {
    return plan_ != nullptr && plan_->live_churn.enabled();
  }
  /// Recovery needs crashes to recover from; inert otherwise.
  bool has_recovery() const {
    return plan_ != nullptr && plan_->recover.enabled() && has_crashes();
  }
  const FaultPlan* plan() const { return plan_; }
  /// The derived fault seed; churn/repair streams key off this.
  std::uint64_t seed() const { return seed_; }

  /// Does node v, awake in the given round, fail-stop at the start of
  /// it? Rounds are passed as (lo, hi) halves of the bulk engine's
  /// 128-bit virtual clock; the coroutine scheduler passes hi = 0.
  /// Only meaningful for rounds in which v is actually awake — both
  /// engines evaluate it exactly there, which is why they agree.
  bool crashes_now(VertexId v, std::uint64_t round_lo,
                   std::uint64_t round_hi) const {
    if (!has_crashes()) return false;
    const auto it = std::lower_bound(
        crash_at_.begin(), crash_at_.end(), v,
        [](const auto& e, VertexId node) { return e.first < node; });
    if (it != crash_at_.end() && it->first == v &&
        (round_hi > 0 || round_lo >= it->second)) {
      return true;
    }
    if (plan_->crash_prob <= 0.0) return false;
    const std::uint64_t stream = detail::mix(
        detail::mix(util::stream_tags::kCrashTag ^ v, round_lo), round_hi);
    return util::stream_rng(seed_, stream).bernoulli(plan_->crash_prob);
  }

  /// Is the undirected link {a, b} down in the given round? Symmetric:
  /// the pair is canonicalized, so both directions (and both engines,
  /// and every lane) share one draw. A link is down when its burst
  /// channel is in the bad state OR the independent memoryless loss
  /// draw fires — the two mechanisms compose.
  bool link_down(VertexId a, VertexId b, std::uint64_t round_lo,
                 std::uint64_t round_hi) const {
    if (!has_loss()) return false;
    if (a > b) std::swap(a, b);
    const std::uint64_t edge = detail::mix(a, b);
    if (plan_->burst.enabled() && burst_state(edge, round_lo, round_hi)) {
      return true;
    }
    if (plan_->loss_prob <= 0.0) return false;
    const std::uint64_t stream = detail::mix(
        detail::mix(util::stream_tags::kLossTag ^ edge, round_lo), round_hi);
    return util::stream_rng(seed_, stream).bernoulli(plan_->loss_prob);
  }

  /// Is the {a, b} burst channel in its bad (all-dropping) state in the
  /// given round? A pure function of (edge, epoch(round)): the
  /// Gilbert-Elliott chain is realized through its regeneration
  /// coupling — each epoch either copies the previous epoch's state
  /// (probability 1 - (p_on + p_off)) or regenerates from the
  /// stationary law Bernoulli(p_on / (p_on + p_off)) — so the state at
  /// any epoch is found by scanning backward to the most recent
  /// regenerating epoch. Epochs on the kBurstRenewalGrid always
  /// regenerate, bounding the scan; every draw is keyed on
  /// (edge, epoch), so lane count, engine, and evaluation order cannot
  /// change a single bit.
  bool burst_bad(VertexId a, VertexId b, std::uint64_t round_lo,
                 std::uint64_t round_hi) const {
    if (!has_burst()) return false;
    if (a > b) std::swap(a, b);
    return burst_state(detail::mix(a, b), round_lo, round_hi);
  }

  /// Mid-run churn: does node v, participating in the given round,
  /// leave the network now — and if so, for how long? Both decisions
  /// come from one stream keyed (node, round), so every lane (and a
  /// serial rerun) computes identical bits. Like crashes_now, only
  /// meaningful for rounds v actually participates in.
  LeaveDraw live_leave(VertexId v, std::uint64_t round_lo,
                       std::uint64_t round_hi) const {
    LeaveDraw draw;
    if (!has_live_churn()) return draw;
    const std::uint64_t leave_stream = detail::mix(
        detail::mix(util::stream_tags::kLiveChurnTag ^ v, round_lo), round_hi);
    auto rng = util::stream_rng(seed_, leave_stream);
    if (!rng.bernoulli(plan_->live_churn.leave_prob)) return draw;
    draw.leaves = true;
    if (plan_->live_churn.join_prob > 0.0) {
      draw.rejoins = true;
      draw.downtime = detail::geometric_from_uniform(
          rng.uniform(), plan_->live_churn.join_prob);
    }
    return draw;
  }

  /// Crash recovery: the downtime (>= 1 rounds) before node v, crashed
  /// at the given round, comes back; geometric with mean
  /// RecoverSpec::mean_down, keyed on (node, crash round).
  std::uint64_t recover_downtime(VertexId v, std::uint64_t round_lo,
                                 std::uint64_t round_hi) const {
    const std::uint64_t recover_stream = detail::mix(
        detail::mix(util::stream_tags::kRecoverTag ^ v, round_lo), round_hi);
    auto rng = util::stream_rng(seed_, recover_stream);
    return detail::geometric_from_uniform(
        rng.uniform(), 1.0 / static_cast<double>(plan_->recover.mean_down));
  }

 private:
  bool burst_state(std::uint64_t edge, std::uint64_t round_lo,
                   std::uint64_t round_hi) const {
    const BurstSpec& burst = plan_->burst;
    // The coupling needs p_on + p_off <= 1 (CLI-validated); clamping to
    // the boundary degrades gracefully to i.i.d. stationary states.
    const double regen_rate = std::min(burst.p_on + burst.p_off, 1.0);
    const double stationary = burst.stationary_loss();
    using Wide = unsigned __int128;
    const Wide round = (Wide{round_hi} << 64) | round_lo;
    Wide epoch = round / burst.epoch_len;
    for (;;) {
      // The lo/hi split is lossless: both halves key the stream.
      // NOLINTNEXTLINE(slumber-d7): lossless lo/hi split of the epoch
      const std::uint64_t lo = static_cast<std::uint64_t>(epoch);
      // NOLINTNEXTLINE(slumber-d7): lossless lo/hi split of the epoch
      const std::uint64_t hi = static_cast<std::uint64_t>(epoch >> 64);
      const std::uint64_t burst_stream = detail::mix(
          detail::mix(util::stream_tags::kBurstTag ^ edge, lo), hi);
      auto rng = util::stream_rng(seed_, burst_stream);
      // Grid epochs regenerate unconditionally (note the short-circuit:
      // their streams serve only the state draw), so the scan takes at
      // most kBurstRenewalGrid steps — in expectation min(1/regen_rate,
      // grid) stream constructions per queried (edge, round).
      const bool regenerates =
          epoch % kBurstRenewalGrid == 0 || rng.bernoulli(regen_rate);
      if (regenerates) return rng.bernoulli(stationary);
      --epoch;
    }
  }

  const FaultPlan* plan_ = nullptr;
  std::uint64_t seed_ = 0;
  // Sorted (node, earliest crash round) pairs from the schedule.
  std::vector<std::pair<VertexId, std::uint64_t>> crash_at_;
};

}  // namespace slumber::fault
