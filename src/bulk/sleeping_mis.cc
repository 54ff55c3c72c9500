#include "bulk/sleeping_mis.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/coin_kernel.h"
#include "core/mis_state.h"
#include "core/schedule.h"
#include "obs/obs.h"
#include "sim/message.h"
#include "util/alloc.h"

namespace slumber::bulk {
namespace {

using core::MisValue;

/// T(k) = 3(2^k - 1) in 128 bits (core::schedule_duration overflows
/// std::uint64_t for k >= 63, which n = 10M reaches: K = 70).
VirtualRound duration128(std::uint32_t k) {
  return (VirtualRound{1} << k) * 3 - 3;
}

/// The deepest recursion whose T(K) the 128-bit clock holds
/// (3 * 2^127 > 2^128); run() rejects deeper ones.
constexpr std::uint32_t kMaxLevels = 126;

// The recursion walker. Depth-first order over the recursion tree is
// exactly virtual-time order: a frame at parameter k starting at round s
// owns [s, s+T(k)-1], partitioned into its first detection round {s},
// the left child's window, the synchronization round, the second
// detection round, and the right child's window.
//
// Each of the three communication rounds of a frame is one sharded
// scan_awake() over the member list. Per-node tri-state statuses are
// accessed through relaxed std::atomic_ref: the sync scan's predicate
// ("has a kTrue neighbor") only races against Unknown -> False
// transitions and the second detection's ("all neighbors kFalse") only
// against Unknown -> True, so — exactly the argument that lets the
// serial code scan in place — the concurrent value is deterministic
// regardless of lane interleaving.
//
// Message accounting of the two status rounds: without loss or live
// dynamics (fold_status), the sync and second-detection broadcasts
// reach exactly the awake neighbors the first detection's hello
// reached (no member leaves or joins, no link drops), so the first
// detection scan charges all three rounds and the status scans only
// decide. Every charge is an integer sum or max, so per-node and
// aggregate metrics come out the same as charging each round in turn
// (only a status message over a throwing CONGEST budget now aborts the
// run one round earlier). Under loss or dynamics each status scan first
// charges its own round (its own awake set and link draws), then runs
// the same decision loop.
struct Walker {
  BulkEngine& eng;
  const Graph& g;
  core::RecursionTrace* trace;
  std::uint32_t words_per_node;  // packed coin bits, bit i of node v at
                                 // bits[v*words + i/64] >> (i%64)
  util::PodVector<std::uint64_t> bits;
  util::PodVector<std::uint8_t> value;  // MisValue per node
  std::uint32_t hello_bits;
  std::uint32_t status_bits;
  // No loss and no live dynamics: a frame's three rounds reach the same
  // awake neighbors (see the comment above). Set once per run.
  bool fold_status = false;
  // Live-dynamics re-entry hook: a node coming back (crash recovery or
  // churn rejoin) resumes undecided in whatever frame is current, so
  // its tri-state status must return to kUnknown (the engine already
  // cleared its decision state).
  std::function<void(VertexId)> reenter;

  std::span<std::uint64_t> coins(VertexId v) {
    return {bits.data() + std::uint64_t{v} * words_per_node, words_per_node};
  }

  MisValue value_of(VertexId v) {
    return static_cast<MisValue>(
        std::atomic_ref(value[v]).load(std::memory_order_relaxed));
  }

  void set_value(VertexId v, MisValue x) {
    std::atomic_ref(value[v]).store(static_cast<std::uint8_t>(x),
                                    std::memory_order_relaxed);
  }

  /// One of a frame's five scans, under its telemetry span (`span_cat`
  /// is null for sub-cutoff frames).
  ScanResult scan(
      const char* span_cat, const char* name, std::uint32_t k,
      std::span<const VertexId> members,
      const std::function<void(BulkChunk&, std::span<const VertexId>)>& fn) {
    obs::Span span(span_cat, name, k);
    return eng.scan_awake(members, fn);
  }

  /// A status round's own accounting, for rounds fold_status does not
  /// cover.
  void charge_status_round(BulkChunk& chunk, std::span<const VertexId> part,
                           VirtualRound round) {
    for (const VertexId v : part) {
      const Reach r = eng.reach(v, round);
      chunk.charge_symmetric_broadcast(v, r.awake, r.heard, status_bits);
    }
  }

  /// Lines 9-12 of the paper: the k = 0 base case. It spends no rounds;
  /// its code runs during the resume of the parent's preceding
  /// communication round, so decisions are stamped with that round.
  void base_case(std::uint64_t path, VirtualRound decide_round,
                 const std::vector<VertexId>& members) {
    if (trace != nullptr) {
      trace->calls[{0, path}].participants += members.size();
    }
    eng.scan_awake(members, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
      for (const VertexId v : part) {
        if (value_of(v) == MisValue::kUnknown) {
          set_value(v, MisValue::kTrue);
          chunk.decide(v, 1, decide_round);
        }
      }
    });
  }

  void frame(std::uint32_t k, std::uint64_t path, VirtualRound start,
             std::vector<VertexId> members) {
    // Telemetry: count every frame, but emit spans (the frame's and its
    // five scans') only for frames big enough to shard (sub-cutoff
    // frames number in the millions at n = 10^7 and would swamp the
    // event buffers).
    obs::progress_frame();
    const char* span_cat =
        members.size() >= eng.options().parallel_cutoff ? "mis" : nullptr;
    obs::Span frame_span(span_cat, "frame", k);
    core::CallStats* stats = nullptr;
    if (trace != nullptr) {
      stats = &trace->calls[{k, path}];
      stats->participants += members.size();
      stats->first_round =
          std::min(stats->first_round, saturate_round(start));
    }

    // First isolated-node detection (lines 13-16), 1 round: only this
    // frame's members are awake, so hearing no hello means "isolated in
    // G[U]" (under loss: effectively isolated this round). Under
    // fold_status it also charges the sync and second-detection rounds.
    eng.begin_round(members, start, AwakeSet::kNew, reenter);
    const ScanResult detect1 = scan(
        span_cat, "detect1", k, members,
        [&](BulkChunk& chunk, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            const Reach r = eng.reach(v, start);
            chunk.charge_symmetric_broadcast(v, r.awake, r.heard, hello_bits);
            if (fold_status) {
              // The sync and second-detection status broadcasts: one
              // message per port per round, the same awake neighbors
              // reached, nothing lost.
              chunk.charge_send(v, 2 * g.degree(v), 2 * r.awake,
                                status_bits);
              chunk.charge_received(v, 2 * r.awake);
            }
            if (r.heard == 0 && value_of(v) == MisValue::kUnknown) {
              set_value(v, MisValue::kTrue);
              chunk.decide(v, 1, start);
              chunk.bump();
            }
          }
        });
    if (stats != nullptr) stats->isolated_joins += detect1.user;

    // Left recursion (lines 17-21): undecided members with X_k = 1. The
    // keep() lists concatenate in chunk order, preserving member order.
    std::vector<VertexId> left =
        scan(span_cat, "left", k, members,
             [&](BulkChunk& chunk, std::span<const VertexId> part) {
               for (const VertexId v : part) {
                 if (value_of(v) == MisValue::kUnknown &&
                     core::level_bit(coins(v), k)) {
                   chunk.keep(v);
                 }
               }
             })
            .kept;
    if (stats != nullptr) stats->left += left.size();
    if (!left.empty()) {
      if (k == 1) {
        base_case(path << 1, start, left);
      } else {
        frame(k - 1, path << 1, start + 1, std::move(left));
      }
    }
    left = {};

    // Synchronization step (lines 22-25), 1 round: an undecided node
    // with an MIS neighbor in the frame is eliminated. Only
    // Unknown -> False transitions happen here, so the in-place status
    // scan observes the same "has a kTrue neighbor" predicate the
    // coroutine engine's message snapshot does — per lane as well as
    // serially.
    const VirtualRound sync = start + duration128(k - 1) + 1;
    // The left call's frames re-marked the set.
    eng.begin_round(members, sync, AwakeSet::kNew, reenter);
    scan(span_cat, "sync", k, members,
         [&](BulkChunk& chunk, std::span<const VertexId> part) {
           if (!fold_status) charge_status_round(chunk, part, sync);
           for (const VertexId v : part) {
             if (value_of(v) != MisValue::kUnknown) continue;
             const bool mis_neighbor = eng.hears(v, sync, [&](VertexId u) {
               return value_of(u) == MisValue::kTrue;
             });
             if (mis_neighbor) {
               set_value(v, MisValue::kFalse);
               chunk.decide(v, 0, sync);
             }
           }
         });

    // Second isolated-node detection (lines 26-29), 1 round: an
    // undecided node all of whose frame neighbors are eliminated joins.
    // Only Unknown -> True transitions happen, and both Unknown and True
    // block a neighbor's join, so the in-place scan is again exact. A
    // neighbor whose status message is lost simply isn't heard; it
    // cannot block the join (that is the injected damage).
    const VirtualRound detect2 = sync + 1;
    eng.begin_round(members, detect2, AwakeSet::kSame, reenter);
    scan(span_cat, "detect2", k, members,
         [&](BulkChunk& chunk, std::span<const VertexId> part) {
           if (!fold_status) charge_status_round(chunk, part, detect2);
           for (const VertexId v : part) {
             if (value_of(v) != MisValue::kUnknown) continue;
             const bool blocked = eng.hears(v, detect2, [&](VertexId u) {
               return value_of(u) != MisValue::kFalse;
             });
             if (!blocked) {
               set_value(v, MisValue::kTrue);
               chunk.decide(v, 1, detect2);
             }
           }
         });

    // Right recursion (lines 30-34): still-undecided members.
    std::vector<VertexId> right =
        scan(span_cat, "right", k, members,
             [&](BulkChunk& chunk, std::span<const VertexId> part) {
               for (const VertexId v : part) {
                 if (value_of(v) == MisValue::kUnknown) chunk.keep(v);
               }
             })
            .kept;
    if (stats != nullptr) stats->right += right.size();
    if (!right.empty()) {
      if (k == 1) {
        base_case((path << 1) | 1, detect2, right);
      } else {
        frame(k - 1, (path << 1) | 1, detect2 + 1, std::move(right));
      }
    }
  }
};

}  // namespace

void BulkSleepingMis::run(BulkEngine& engine) {
  const Graph& g = engine.graph();
  const std::uint64_t n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t levels =
      options_.levels != 0 ? options_.levels : core::recursion_depth(n);
  if (levels > kMaxLevels) {
    throw std::invalid_argument(
        "bulk SleepingMIS: K = " + std::to_string(levels) +
        " recursion levels overflow the 128-bit round clock (T(K) = "
        "3(2^K - 1) fits only for K <= " +
        std::to_string(kMaxLevels) + ")");
  }

  obs::Span run_span("mis", "sleeping_mis", n);
  Walker w{engine,
           g,
           trace_,
           core::level_words(levels),
           {},
           {},
           sim::Message::hello().bits,
           sim::Message::status(0).bits,
           !engine.lossy() && !engine.dynamic(),
           {}};
  w.reenter = [&w](VertexId v) { w.set_value(v, core::MisValue::kUnknown); };

  // First-touch placement for the protocol's per-node arrays (packed
  // coin bits, tri-state statuses): with a multi-lane pool, each lane
  // first touches its slice of every subsequent sharded scan. The coin
  // scan below writes every bit word in the pool's chunk layout, so the
  // bit array is only allocated here; the statuses are filled. Placement
  // only — contents (and every result) are bitwise unaffected.
  {
    obs::Span span("mis", "placement", n);
    w.bits.resize(n * w.words_per_node);
    w.value = util::sharded_fill<std::uint8_t>(
        n, static_cast<std::uint8_t>(core::MisValue::kUnknown),
        engine.options().pool);
  }

  // Draw the coin bits X_1..X_K from the coroutine protocol's per-node
  // streams, Rng(seed).split(v) as engine.node_rng(v) gives them, with
  // the batch kernel: it writes what the coroutine engine's per-node
  // kernel does. Sharded over the pool: each node's stream and bit words
  // belong to one lane. A RecursionTrace unpacks the words afterwards.
  if (trace_ != nullptr) {
    trace_->levels = levels;
    if (trace_->bits.size() != n) trace_->bits.resize(n);
  }
  obs::progress_phase("coins");
  {
    obs::Span coin_span("mis", "draw_coins", n);
    obs::counter("coin_kernel_lanes",
                 static_cast<double>(core::coin_kernel_lanes()));
    const Rng master(engine.seed());
    const std::uint64_t threshold =
        core::bernoulli_threshold(options_.coin_bias);
    engine.scan_range(n, [&](BulkChunk&, std::size_t begin, std::size_t end) {
      core::draw_level_bits_range(master, begin, end - begin, levels, threshold,
                                  {w.bits.data() + begin * w.words_per_node,
                                   (end - begin) * w.words_per_node});
      if (trace_ == nullptr) return;
      for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
        trace_->bits[v] = core::unpack_level_bits(w.coins(v), levels);
      }
    });
  }

  std::vector<VertexId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), VertexId{0});

  if (levels == 0) {
    // K = 0: the whole run is the base case, executed at round 0 with no
    // communication (matches the coroutine engine on n <= 1).
    w.base_case(0, 0, everyone);
    engine.scan_range(n, [](BulkChunk& chunk, std::size_t begin,
                            std::size_t end) {
      for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
        chunk.finish(v, 0);
      }
    });
    return;
  }

  // The root frame owns rounds [1, T(K)]; every node returns at T(K)
  // (Lemma 1's synchronization guarantee), trailing sleeps included.
  const VirtualRound total = duration128(levels);
  obs::progress_phase("recursion");
  obs::progress_total(static_cast<double>(total));
  w.frame(levels, 0, 1, std::move(everyone));
  obs::progress_phase("finish");
  obs::Span finish_span("mis", "final_finish", n);
  engine.scan_range(n, [&](BulkChunk& chunk, std::size_t begin,
                           std::size_t end) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      // Down nodes (crashed or departed) got their finish_round stamped
      // when they dropped out.
      if (!engine.down(v)) chunk.finish(v, total);
    }
  });
}

BulkResult bulk_sleeping_mis(const Graph& g, std::uint64_t seed,
                             core::SleepingMisOptions options,
                             core::RecursionTrace* trace,
                             BulkOptions engine_options) {
  BulkSleepingMis protocol(options, trace);
  return run_bulk(g, seed, protocol, engine_options);
}

}  // namespace slumber::bulk
