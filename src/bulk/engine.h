// The bulk execution engine: flat-state, awake-set-driven simulation.
//
// The coroutine scheduler in src/sim pays a coroutine frame per
// recursion level per node, a std::function dispatch per protocol, and
// map-bucket churn per wake-up, which caps single trials at laptop
// scale. This engine is the second execution back end: protocols keep
// their per-node state in flat arrays, and each synchronous round is
// the engine's round prologue (BulkEngine::begin_round: live dynamics,
// awake marking, the round's awake charge) followed by scans of the
// awake set over the graph's CSR neighbor spans. Nothing is allocated
// per node-round.
//
// Semantics are the sleeping model of sim::Network, and the accounting
// is bitwise-compatible: a protocol ported to this engine reproduces
// the coroutine engine's outputs and sim::Metrics exactly
// (tests/bulk_engine_test.cc pins this) — including under a shared
// fault::FaultPlan, whose keyed draws both engines evaluate to the
// same bits (tests/fault_test.cc).
//
// Intra-trial parallelism: per-frame node scans are independent per
// node, so when BulkOptions::pool is set, scan_awake() shards the awake
// set into contiguous chunks over the pool's lanes. Per-node state and
// metrics are written only by the lane owning the node (or through
// relaxed atomics where a protocol's accounting crosses nodes), and all
// aggregate accounting accumulates into per-chunk BulkChunk partials
// that are merged in chunk index order after the barrier. Every merged
// quantity is an integer sum or max — order-free — so outputs, metrics,
// and traces are bitwise identical for every thread count, including
// the serial pool-less path (tests/bulk_parallel_test.cc pins this).
//
// Virtual rounds are tracked in 128 bits: Algorithm 1's schedule spans
// T(K) = 3(2^K - 1) rounds with K = ceil(3 log2 n), which overflows 64
// bits for n > ~2M. Values stored into the (64-bit) sim::Metrics fields
// saturate at 2^64-1; at cross-validation sizes the saturation is the
// identity, so equivalence with the coroutine engine is exact there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "graph/graph.h"
#include "sim/metrics.h"
#include "sim/network.h"  // sim::CongestViolation, congest_bits_for
#include "util/rng.h"
#include "util/thread_pool.h"

namespace slumber::bulk {

/// 128-bit virtual round clock (see the header comment).
using VirtualRound = unsigned __int128;

/// The two blessed exits from the 128-bit clock domain (slumber-d7
/// flags any other narrowing of a VirtualRound to 64 bits): saturate
/// into a 64-bit metrics field, or split losslessly into (lo, hi)
/// halves for keyed fault draws. A bare static_cast elsewhere would
/// silently truncate rounds past ~1.8e19 — exactly the regime the
/// 128-bit clock exists for.

/// Saturating narrow to the 64-bit sim::Metrics round fields.
inline std::uint64_t saturate_round(VirtualRound round) {
  constexpr VirtualRound kMax = ~std::uint64_t{0};
  return round > kMax ? ~std::uint64_t{0} : static_cast<std::uint64_t>(round);
}

/// Lossless (lo, hi) decomposition of a virtual round, for call sites
/// that key 64-bit stream draws on the full 128-bit clock value
/// (fault/fault.h takes the two halves separately).
struct RoundHalves {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

inline RoundHalves round_halves(VirtualRound round) {
  return {static_cast<std::uint64_t>(round),
          static_cast<std::uint64_t>(round >> 64)};
}

struct BulkOptions {
  /// CONGEST budget in bits; 0 disables the check (same contract as
  /// sim::NetworkOptions).
  std::uint32_t max_message_bits = 0;
  /// If true, a too-wide message throws sim::CongestViolation; otherwise
  /// it is only counted in Metrics::congest_violations.
  bool throw_on_congest_violation = true;
  /// Intra-trial parallelism: when non-null, awake-set scans shard over
  /// this pool's lanes (bitwise-identical results for every lane
  /// count). With more than one lane, the per-node decision flags are
  /// also first touched in the pool's parallel_for_range chunk layout,
  /// so each page lands near the lane that scans it (NUMA placement
  /// only; contents unaffected). The pool is borrowed, not owned, and
  /// must outlive the run.
  util::ThreadPool* pool = nullptr;
  /// Awake sets smaller than this run single-chunk on the calling
  /// thread even when a pool is set (fork-join overhead dwarfs the work
  /// on tiny recursion frames). Tests pin the bitwise contract with 1.
  std::size_t parallel_cutoff = 4096;
  /// Memory diet for the 10^8-node regime: when false, per-node
  /// sim::Metrics are not allocated or maintained (Metrics::node stays
  /// empty; aggregate counters, outputs, and decision state are exact).
  /// Metrics::makespan is then taken from the saturated virtual
  /// makespan instead of max finish_round.
  bool node_metrics = true;
  /// Fault injection (fault/fault.h): crash schedules, probabilistic
  /// crashes, and message loss. Borrowed; must outlive the run. Every
  /// fault decision is a keyed util::stream_rng draw evaluated
  /// chunk-locally and merged in chunk index order, so faulty runs stay
  /// bitwise identical at every lane count and agree with the coroutine
  /// scheduler under the same plan and seed. Live dynamics (mid-run
  /// churn, crash recovery) run in every round's prologue
  /// (BulkEngine::begin_round); FaultPlan::churn is applied by the
  /// experiment layer after the run, not here.
  const fault::FaultPlan* fault = nullptr;
};

struct BulkResult {
  sim::Metrics metrics;
  std::vector<std::int64_t> outputs;
  /// Exact (un-saturated) makespan in virtual rounds.
  VirtualRound virtual_makespan = 0;
  /// crashed[v] != 0 iff v fail-stopped during the run and (under crash
  /// recovery) never came back; empty when the run had no crash faults
  /// configured.
  std::vector<std::uint8_t> crashed;
  /// departed[v] != 0 iff v left via mid-run churn and was still out at
  /// the end; empty when the run had no live churn configured.
  std::vector<std::uint8_t> departed;

  /// The final alive mask: 0 for a node still crashed or departed, 1
  /// for the rest; empty when neither crashes nor live churn were
  /// configured (every node is alive).
  std::vector<std::uint8_t> alive_mask() const;
};

class BulkEngine;

/// Per-chunk accounting view handed to scan_awake() callbacks. Per-node
/// quantities (NodeMetrics fields, outputs, decision state) are written
/// straight through — each node is touched only by the chunk that owns
/// it — while run-aggregate quantities accumulate chunk-locally and are
/// merged into sim::Metrics in chunk index order after the scan's
/// barrier. All merged quantities are integer sums or maxes, so the
/// merged totals are bitwise independent of the chunking.
class BulkChunk {
 public:
  /// Sender-side accounting: v attempted `attempted` sends of a
  /// `bits`-wide message, of which `delivered` reached awake nodes and
  /// `lost` were eaten by injected link loss on the way to awake nodes;
  /// the rest are dropped (sleeping receivers, as the model specifies).
  void charge_send(VertexId v, std::uint64_t attempted,
                   std::uint64_t delivered, std::uint32_t bits,
                   std::uint64_t lost = 0);

  /// Receiver-side accounting: v received `count` messages this round.
  void charge_received(VertexId v, std::uint64_t count);

  /// Symmetric broadcast shorthand for rounds in which every awake node
  /// broadcasts on all ports: v sends deg(v), of which `awake_neighbors`
  /// are reachable and only `delivered` survived the link draws. Loss
  /// being symmetric per link per round, v also hears exactly
  /// `delivered` messages (delivered == awake_neighbors without loss).
  void charge_symmetric_broadcast(VertexId v, std::uint64_t awake_neighbors,
                                  std::uint64_t delivered,
                                  std::uint32_t bits);

  /// Records v's output and decision instant. Idempotent like
  /// Context::decide: only the first call sticks.
  void decide(VertexId v, std::int64_t output, VirtualRound round);

  /// Records v's termination round (awake + trailing sleep, matching
  /// the coroutine scheduler's finish_round convention).
  void finish(VertexId v, VirtualRound round);

  /// Appends v to the chunk's ordered output list; scan_awake returns
  /// the concatenation in chunk index order, so a filter that keep()s
  /// in input order gets an order-preserving parallel filter.
  void keep(VertexId v) { kept_.push_back(v); }

  /// Appends v to the chunk's second ordered output list
  /// (ScanResult::dropped). begin_round's live-dynamics filter
  /// collects the nodes removed this round here, so downtime scheduling
  /// happens in a deterministic order no matter how the scan was
  /// chunked.
  void drop(VertexId v) { dropped_.push_back(v); }

  /// Free-form per-chunk counter; scan_awake returns the sum across
  /// chunks (protocols use it for trace statistics like isolated
  /// joins).
  void bump(std::uint64_t amount = 1) { user_ += amount; }

 private:
  friend class BulkEngine;
  explicit BulkChunk(BulkEngine* eng) : eng_(eng) {}

  BulkEngine* eng_;
  std::vector<VertexId> kept_;
  std::vector<VertexId> dropped_;
  std::uint64_t user_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t dropped_messages_ = 0;
  std::uint64_t injected_losses_ = 0;
  std::uint64_t congest_violations_ = 0;
  std::uint32_t max_message_bits_seen_ = 0;
  VirtualRound virtual_makespan_ = 0;
};

/// What a sharded scan produced: the chunk keep() and drop() lists each
/// concatenated in chunk index order, and the sum of the chunk bump()
/// counters.
struct ScanResult {
  std::vector<VertexId> kept;
  std::vector<VertexId> dropped;
  std::uint64_t user = 0;
};

/// What a node's port walk found in one round (BulkEngine::reach): its
/// awake neighbors, and how many of them it heard.
struct Reach {
  std::uint64_t awake = 0;
  std::uint64_t heard = 0;
};

/// What a round's awake set is, for BulkEngine::begin_round: a new set,
/// or the set the previous round marked (a later round of one frame or
/// iteration), which needs no re-marking unless live dynamics changed
/// it.
enum class AwakeSet : bool { kNew, kSame };

/// The shared accounting and awake-set substrate bulk protocols run on.
///
/// A protocol executes one virtual round as the round prologue,
/// begin_round() (live dynamics, awake marking, the round's awake
/// charge), followed by scan_awake() over the set doing its own logic
/// over CSR spans, calling the BulkChunk accounting methods as it goes.
class BulkEngine {
 public:
  BulkEngine(const Graph& g, std::uint64_t seed, BulkOptions options = {});

  const Graph& graph() const { return graph_; }
  std::uint64_t n() const { return graph_.num_vertices(); }
  std::uint64_t seed() const { return seed_; }
  const BulkOptions& options() const { return options_; }

  /// Per-node RNG stream; identical to the stream sim::Network hands the
  /// node's Context (Rng(seed).split(v)), so protocols that draw in the
  /// same per-node order reproduce coroutine runs bit for bit.
  Rng node_rng(VertexId v) const { return master_.split(v); }

  // --- sharding ------------------------------------------------------

  /// Runs fn(chunk, sub-span) over contiguous chunks of `vs`, in
  /// parallel when a pool is configured and |vs| reaches the cutoff,
  /// single-chunk on the calling thread otherwise. Chunk accounting
  /// partials merge into the metrics in chunk index order after the
  /// barrier; both paths execute identical per-node code, so results
  /// are bitwise independent of the lane count.
  ScanResult scan_awake(
      std::span<const VertexId> vs,
      const std::function<void(BulkChunk&, std::span<const VertexId>)>& fn);

  /// Range analogue of scan_awake for index loops that are not over an
  /// awake vector (e.g. drawing per-node coins for all v in [0, n)).
  ScanResult scan_range(
      std::size_t total,
      const std::function<void(BulkChunk&, std::size_t begin,
                               std::size_t end)>& fn);

  // --- awake-set lifecycle ------------------------------------------

  /// Installs `awake` as the current awake set, a bitset of one bit per
  /// node. The previous set is cleared first: bit by bit from the
  /// engine's copy of it when it had at most ceil(n/64) members, by
  /// zero-filling the n/8-byte bitset otherwise, so the copy never
  /// exceeds n/16 bytes. Setting is O(|awake|) and shards over the pool
  /// when one is configured; `awake` may be in any order. Protocols
  /// mark through begin_round.
  void mark_awake(std::span<const VertexId> awake);

  /// True iff v is in the current awake set.
  bool is_awake(VertexId v) const {
    return ((awake_bits_[v >> 6] >> (v & 63)) & 1) != 0;
  }

  /// The round prologue every bulk protocol opens virtual round `round`
  /// with. Under live dynamics it first filters `awake` in place through
  /// the round's crash, leave and re-entry draws (see apply_dynamics
  /// below; `on_reenter` resets a re-entrant's protocol state). It marks
  /// the set awake, unless `set` is AwakeSet::kSame and the run has no
  /// live dynamics, and charges the round to every member. Returns
  /// false, having marked and charged nothing, when the set is empty, so
  /// an iteration's first round can stop the protocol.
  bool begin_round(std::vector<VertexId>& awake, VirtualRound round,
                   AwakeSet set,
                   const std::function<void(VertexId)>& on_reenter);

  // --- fault injection (fault/fault.h) ------------------------------

  /// True iff the run's plan injects message loss.
  bool lossy() const { return lossy_; }

  /// True iff the membership can change mid-run (crashes, mid-run
  /// churn, recovery re-entries), so begin_round filters every set.
  bool dynamic() const {
    return fault_.has_crashes() || fault_.has_live_churn();
  }

  /// Is the undirected link {a, b} up at `round`? Symmetric keyed draw:
  /// both directions, every lane, and the coroutine scheduler compute
  /// the identical bit. Always true without a loss plan.
  bool link_up(VertexId a, VertexId b, VirtualRound round) const {
    if (!lossy_) return true;
    const RoundHalves halves = round_halves(round);
    return !fault_.link_down(a, b, halves.lo, halves.hi);
  }

  // --- delivery (the model's one rule) -------------------------------

  /// Walks v's ports in `round` and calls heard(u, port) for every
  /// awake neighbor u whose link to v is up: a message crosses an edge
  /// only when both ends are awake in the same round and the loss plan
  /// spares the link, and one symmetric draw decides both directions,
  /// so v hears exactly the neighbors its own broadcast reaches.
  /// Returns the counts a round's send and receive accounting needs.
  template <typename Heard>
  Reach reach(VertexId v, VirtualRound round, Heard&& heard) const {
    Reach r;
    const std::span<const VertexId> nbrs = graph_.neighbors(v);
    for (std::uint32_t port = 0; port < nbrs.size(); ++port) {
      const VertexId u = nbrs[port];
      if (!is_awake(u)) continue;
      ++r.awake;
      if (!link_up(v, u, round)) continue;
      ++r.heard;
      heard(u, port);
    }
    return r;
  }

  /// reach() for a round whose accounting needs only the counts.
  Reach reach(VertexId v, VirtualRound round) const {
    return reach(v, round, [](VertexId, std::uint32_t) {});
  }

  /// Does v hear, in `round`, a neighbor u with match(u)? `match` is
  /// tested first (it rules out most neighbors) and the walk stops at
  /// the first witness.
  template <typename Match>
  bool hears(VertexId v, VirtualRound round, Match&& match) const {
    for (const VertexId u : graph_.neighbors(v)) {
      if (match(u) && is_awake(u) && link_up(v, u, round)) return true;
    }
    return false;
  }

  /// True iff v is fail-stopped right now (crash recovery clears the
  /// flag when the node re-enters).
  bool crashed(VertexId v) const {
    return !crashed_.empty() && crashed_[v] != 0;
  }

  /// True iff v is currently out via mid-run churn.
  bool departed(VertexId v) const {
    return !departed_.empty() && departed_[v] != 0;
  }

  /// True iff v is currently out of the network for any reason.
  bool down(VertexId v) const { return crashed(v) || departed(v); }

  sim::Metrics& metrics() { return metrics_; }

  /// Finalizes makespan and moves the run's results out.
  BulkResult take_result();

 private:
  friend class BulkChunk;

  // Folds one chunk's aggregate partials into the metrics. Called in
  // chunk index order.
  void merge_chunk(const BulkChunk& chunk);

  // The pool a pass over `size` items shards over: none below
  // BulkOptions::parallel_cutoff, where fork-join costs more than the
  // pass.
  util::ThreadPool* lanes(std::size_t size) const {
    return size >= options_.parallel_cutoff ? options_.pool : nullptr;
  }

  // Charges one awake round at virtual round `round` to every node of
  // `awake` (the currently marked set).
  void charge_round(std::span<const VertexId> awake, VirtualRound round);

  // begin_round's live-dynamics filter: evaluates the crash and mid-run
  // leave draws for every node of `awake` at `round` and re-admits
  // every down node whose keyed-draw downtime has elapsed. Returns the
  // survivors in input order (order-preserving sharded filter)
  // followed by the re-entrants in (due round, node id) order.
  //
  // Removals: crashed nodes are fail-stopped (flagged, finish-stamped,
  // counted in Metrics::crashed_nodes); under RecoverSpec their
  // comeback round is scheduled from a keyed downtime draw. Leavers
  // (LiveChurnSpec) are treated likewise, with their rejoin downtime
  // drawn from the leave stream itself. Already-down nodes in `awake`
  // are dropped silently (stale ancestor member lists in the
  // SleepingMIS recursion legitimately carry nodes that left inside a
  // child frame).
  //
  // Re-entries: the engine clears the node's down flag and decision
  // state (it re-enters undecided) and calls `on_reenter` so the
  // protocol can reset its own per-node state before the node is
  // appended to the returned set.
  //
  // Called only when dynamic(). Matching the coroutine scheduler, a
  // round whose every awake node crashes (and that admits no
  // re-entrant) still counts as a distinct active round. Every draw is
  // keyed on (node, round), so the returned set — and all bookkeeping —
  // is bitwise independent of the lane count.
  std::vector<VertexId> apply_dynamics(
      std::vector<VertexId> awake, VirtualRound round,
      const std::function<void(VertexId)>& on_reenter);

  const Graph& graph_;
  BulkOptions options_;
  std::uint64_t seed_;
  Rng master_;
  sim::Metrics metrics_;
  // outputs_ stays std::vector: take_result() moves it into
  // BulkResult::outputs, and it is write-once rather than scanned
  // every round.
  std::vector<std::int64_t> outputs_;
  // The per-round hot arrays are PodVector + util::sharded_fill so a
  // multi-lane BulkOptions::pool places each lane's slice on its own
  // pages.
  util::PodVector<std::uint8_t> decided_;
  // The current awake set, bit v % 64 of word v / 64: n/8 bytes, small
  // enough to stay cache-resident while a frame scan tests every
  // neighbor of every member.
  util::PodVector<std::uint64_t> awake_bits_;
  // The current set's members when it has at most awake_bits_.size()
  // of them, so the next mark_awake clears just those bits.
  // awake_large_ says it had more, and the next clear zero-fills the
  // bitset instead.
  std::vector<VertexId> awake_copy_;
  bool awake_large_ = false;
  VirtualRound virtual_makespan_ = 0;
  // Telemetry-only scan counter: groups one traced scan's chunk spans
  // in the obs export. Bumped only while a recorder is installed and
  // never read by the engine or any protocol.
  std::uint64_t obs_scan_seq_ = 0;
  // Telemetry-only: last burst-channel epoch marked in the export
  // (charge_round emits an instant per rollover). Never read by any
  // decision; starts at the wrap value so epoch 0 is marked too.
  VirtualRound obs_burst_epoch_ = static_cast<VirtualRound>(-1);
  fault::FaultState fault_;
  // fault_.has_loss(), read on every link_up.
  bool lossy_ = false;
  // crashed_[v] != 0 iff v is fail-stopped right now; allocated only
  // under a plan with crash faults (each slot is written by the lane
  // owning v; recovery re-entries clear it serially).
  std::vector<std::uint8_t> crashed_;
  // departed_[v] != 0 iff v is out via mid-run churn; allocated only
  // under a plan with live churn.
  std::vector<std::uint8_t> departed_;
  // Scheduled comebacks (crash recoveries and churn rejoins), a binary
  // min-heap on (due round, node id) — a deterministic pop order no
  // matter in which round the entries were pushed.
  struct PendingReturn {
    VirtualRound at = 0;
    VertexId node = 0;
  };
  static bool returns_later(const PendingReturn& a, const PendingReturn& b) {
    return a.at > b.at || (a.at == b.at && a.node > b.node);
  }
  std::vector<PendingReturn> pending_returns_;
};

// --- BulkChunk inline implementations --------------------------------

inline void BulkChunk::charge_send(VertexId v, std::uint64_t attempted,
                                   std::uint64_t delivered, std::uint32_t bits,
                                   std::uint64_t lost) {
  if (attempted == 0) return;
  if (eng_->options_.node_metrics) {
    eng_->metrics_.node[v].messages_sent += attempted;
  }
  total_messages_ += delivered;
  dropped_messages_ += attempted - delivered - lost;
  injected_losses_ += lost;
  max_message_bits_seen_ = std::max(max_message_bits_seen_, bits);
  if (eng_->options_.max_message_bits != 0 &&
      bits > eng_->options_.max_message_bits) {
    congest_violations_ += attempted;
    if (eng_->options_.throw_on_congest_violation) {
      // Propagates through the pool's fork-join rethrow in parallel
      // scans. Chunk partials of an aborted scan are discarded.
      throw sim::CongestViolation(
          "message of " + std::to_string(bits) + " bits exceeds CONGEST " +
          "budget of " + std::to_string(eng_->options_.max_message_bits));
    }
  }
}

inline void BulkChunk::charge_received(VertexId v, std::uint64_t count) {
  if (eng_->options_.node_metrics) {
    eng_->metrics_.node[v].messages_received += count;
  }
}

inline void BulkChunk::charge_symmetric_broadcast(VertexId v,
                                                  std::uint64_t awake_neighbors,
                                                  std::uint64_t delivered,
                                                  std::uint32_t bits) {
  charge_send(v, eng_->graph_.degree(v), delivered, bits,
              awake_neighbors - delivered);
  charge_received(v, delivered);
}

inline void BulkChunk::decide(VertexId v, std::int64_t output,
                              VirtualRound round) {
  if (eng_->decided_[v] != 0) return;
  eng_->decided_[v] = 1;
  eng_->outputs_[v] = output;
  if (eng_->options_.node_metrics) {
    auto& m = eng_->metrics_.node[v];
    m.decided_round = saturate_round(round);
    m.awake_at_decision = m.awake_rounds;
  }
}

inline void BulkChunk::finish(VertexId v, VirtualRound round) {
  if (eng_->options_.node_metrics) {
    eng_->metrics_.node[v].finish_round = saturate_round(round);
  }
  virtual_makespan_ = std::max(virtual_makespan_, round);
}

/// A protocol implemented against BulkEngine. One instance drives all
/// nodes of one run (flat state belongs to the protocol object).
class BulkProtocol {
 public:
  virtual ~BulkProtocol() = default;
  virtual void run(BulkEngine& engine) = 0;
};

/// Runs `protocol` over `g` and returns metrics + outputs; the bulk
/// analogue of sim::run_protocol.
BulkResult run_bulk(const Graph& g, std::uint64_t seed,
                    BulkProtocol& protocol, BulkOptions options = {});

}  // namespace slumber::bulk
