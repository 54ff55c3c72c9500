#include "bulk/baselines.h"

#include <atomic>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>

#include "algos/common.h"
#include "bulk/sleeping_mis.h"
#include "sim/message.h"

namespace slumber::bulk {
namespace {

using algos::iteration_cap;
using algos::priority_beats;
using algos::rank_bits_for;

/// One persistent RNG stream per node, identical to the streams
/// sim::Network hands out. Each node's stream is advanced only by the
/// lane owning the node, so sharded scans draw exactly the serial
/// sequence.
std::vector<Rng> node_streams(BulkEngine& eng) {
  const auto n = eng.graph().num_vertices();
  std::vector<Rng> rng;
  rng.reserve(n);
  for (VertexId v = 0; v < n; ++v) rng.push_back(eng.node_rng(v));
  return rng;
}

std::vector<VertexId> all_vertices(VertexId n) {
  std::vector<VertexId> alive(n);
  std::iota(alive.begin(), alive.end(), VertexId{0});
  return alive;
}

// The scans below are the decision loops several protocols share; each
// runs after the round's begin_round().

/// The local-maximum round: every member broadcasts its `bits`-wide
/// priority and wins iff no neighbor it hears beats its (priority, id).
void local_max_scan(BulkEngine& eng, const std::vector<VertexId>& alive,
                    VirtualRound round,
                    const std::vector<std::uint64_t>& priority,
                    std::uint32_t bits, std::vector<std::uint8_t>& win) {
  eng.scan_awake(alive, [&](BulkChunk& chunk,
                            std::span<const VertexId> part) {
    for (const VertexId v : part) {
      bool w = true;
      const Reach r = eng.reach(v, round, [&](VertexId u, std::uint32_t) {
        if (priority_beats(priority[u], u, priority[v], v)) w = false;
      });
      chunk.charge_symmetric_broadcast(v, r.awake, r.heard, bits);
      win[v] = w ? 1 : 0;
    }
  });
}

/// The announce-and-join round: members with joining[v] != 0 send a
/// `bits`-wide announcement, join the MIS and finish; members that hear
/// one are dominated and finish. Returns the rest, in order.
std::vector<VertexId> join_scan(BulkEngine& eng,
                                const std::vector<VertexId>& alive,
                                VirtualRound round,
                                const std::vector<std::uint8_t>& joining,
                                std::uint32_t bits) {
  const Graph& g = eng.graph();
  const auto join = [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) {
      std::uint64_t joins_heard = 0;
      const Reach r = eng.reach(v, round, [&](VertexId u, std::uint32_t) {
        joins_heard += joining[u];
      });
      if (joining[v] != 0) {
        chunk.charge_send(v, g.degree(v), r.heard, bits, r.awake - r.heard);
      }
      chunk.charge_received(v, joins_heard);
      if (joining[v] != 0) {
        chunk.decide(v, 1, round);
        chunk.finish(v, round);
      } else if (joins_heard > 0) {
        chunk.decide(v, 0, round);
        chunk.finish(v, round);
      } else {
        chunk.keep(v);
      }
    }
  };
  return eng.scan_awake(alive, join).kept;
}

/// Iteration cap exhausted: the members still active return undecided
/// at the last round.
void finish_undecided(BulkEngine& eng, const std::vector<VertexId>& alive,
                      VirtualRound last) {
  eng.scan_awake(alive, [&](BulkChunk& chunk, std::span<const VertexId> part) {
    for (const VertexId v : part) chunk.finish(v, last);
  });
}

}  // namespace

void BulkLubyA::run(BulkEngine& eng) {
  const VertexId n = eng.graph().num_vertices();
  if (n == 0) return;
  const std::uint32_t rank_bits = rank_bits_for(n);
  const std::uint32_t rank_msg_bits = sim::Message::rank(0, rank_bits).bits;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = iteration_cap(options_.max_iterations, n);
  std::vector<Rng> rng = node_streams(eng);
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> priority(n, 0);
  std::vector<std::uint8_t> win(n, 0);
  // Re-entrants resume as fresh non-winners; their priority is redrawn
  // with everyone else's at the next round 1.
  const std::function<void(VertexId)> reenter = [&](VertexId v) {
    win[v] = 0;
    priority[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Round 1: fresh priorities; strict local maxima win.
    ++round;
    if (!eng.begin_round(alive, round, AwakeSet::kNew, reenter)) break;
    eng.scan_awake(alive,
                   [&](BulkChunk&, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       priority[v] = rng[v].next() >> (64 - rank_bits);
                     }
                   });
    local_max_scan(eng, alive, round, priority, rank_msg_bits, win);

    // Round 2: winners announce and join; dominated neighbors exit.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    alive = join_scan(eng, alive, round, win, in_mis_bits);
  }
  finish_undecided(eng, alive, round);
}

void BulkLubyB::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t hello_bits = sim::Message::hello().bits;
  const std::uint32_t mark_bits = 8 + rank_bits_for(n) / 3;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = iteration_cap(options_.max_iterations, n);
  std::vector<Rng> rng = node_streams(eng);
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> active_deg(n, 0);
  std::vector<std::uint8_t> marked(n, 0);
  std::vector<std::uint8_t> win(n, 0);
  // Re-entrants restart the iteration unmarked with no stale win or
  // degree estimate; both are recomputed from round 1's probe.
  const std::function<void(VertexId)> reenter = [&](VertexId v) {
    marked[v] = 0;
    win[v] = 0;
    active_deg[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Round 1: probe active degree; mark w.p. 1/(2d) (isolated nodes
    // mark outright, drawing nothing — note the short-circuit). Under
    // loss the degree estimate is the hello count actually heard.
    ++round;
    if (!eng.begin_round(alive, round, AwakeSet::kNew, reenter)) break;
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        const Reach r = eng.reach(v, round);
        active_deg[v] = r.heard;
        chunk.charge_symmetric_broadcast(v, r.awake, r.heard, hello_bits);
      }
    });
    eng.scan_awake(
        alive, [&](BulkChunk&, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            marked[v] = (active_deg[v] == 0 ||
                         rng[v].bernoulli(
                             1.0 / (2.0 * static_cast<double>(active_deg[v]))))
                            ? 1
                            : 0;
          }
        });

    // Round 2: marked nodes exchange (degree, id); beaten marks unmark.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        std::uint64_t marked_adjacent = 0;
        bool w = marked[v] != 0;
        const Reach r = eng.reach(v, round, [&](VertexId u, std::uint32_t) {
          if (marked[u] == 0) return;
          ++marked_adjacent;
          if (w && priority_beats(active_deg[u], u, active_deg[v], v)) {
            w = false;
          }
        });
        if (marked[v] != 0) {
          chunk.charge_send(v, g.degree(v), r.heard, mark_bits,
                            r.awake - r.heard);
        }
        chunk.charge_received(v, marked_adjacent);
        win[v] = w ? 1 : 0;
      }
    });

    // Round 3: winners announce and join; dominated neighbors exit.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    alive = join_scan(eng, alive, round, win, in_mis_bits);
  }
  finish_undecided(eng, alive, round);
}

void BulkGreedy::run(BulkEngine& eng) {
  const VertexId n = eng.graph().num_vertices();
  if (n == 0) return;
  const std::uint32_t rank_bits = rank_bits_for(n);
  const std::uint32_t rank_msg_bits = sim::Message::rank(0, rank_bits).bits;
  const std::uint32_t in_mis_bits = sim::Message::in_mis().bits;
  const std::uint64_t cap = iteration_cap(options_.max_iterations, n);
  // One rank per node, drawn up front (round 0) by every node.
  std::vector<std::uint64_t> rank(n);
  if (options_.ranks_out != nullptr && options_.ranks_out->size() != n) {
    options_.ranks_out->resize(n);
  }
  eng.scan_range(n, [&](BulkChunk&, std::size_t begin, std::size_t end) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      rank[v] = eng.node_rng(v).next() >> (64 - rank_bits);
      if (options_.ranks_out != nullptr) (*options_.ranks_out)[v] = rank[v];
    }
  });
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint8_t> win(n, 0);
  // Ranks are static (drawn at round 0), so a re-entrant only clears
  // its stale win bit and resumes the compare-exchange loop.
  const std::function<void(VertexId)> reenter = [&](VertexId v) {
    win[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    ++round;
    if (!eng.begin_round(alive, round, AwakeSet::kNew, reenter)) break;
    local_max_scan(eng, alive, round, rank, rank_msg_bits, win);

    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    alive = join_scan(eng, alive, round, win, in_mis_bits);
  }
  finish_undecided(eng, alive, round);
}

void BulkIsraeliItai::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  constexpr std::uint32_t kIiBits = 10;  // tag + 2-bit discriminator
  const std::uint64_t cap = iteration_cap(options_.max_iterations, n);
  std::vector<Rng> rng = node_streams(eng);
  std::vector<VertexId> alive = all_vertices(n);
  // Per-port active flags, indexed by CSR adjacency slot.
  std::vector<std::uint8_t> port_active(g.degree_sum(), 1);
  std::vector<std::uint32_t> active_count(n);
  for (VertexId v = 0; v < n; ++v) active_count[v] = g.degree(v);
  std::vector<std::uint8_t> proposer(n, 0);
  std::vector<VertexId> target(n, kInvalidVertex);
  std::vector<std::int64_t> partner(n, -1);
  std::vector<std::uint32_t> recv(n, 0);
  // Whether v's round-1 proposal actually arrived (captures both the
  // target's awake status and the round-1 link draw) — the acceptor
  // consults this instead of re-deriving last round's delivery.
  std::vector<std::uint8_t> sent_ok(n, 0);
  // A re-entrant resumes as an idle non-proposer with no pending match.
  // Its port view (port_active / active_count) survives the downtime:
  // matched neighbors it already struck stay struck, and any it missed
  // while away are struck again by later round-3 announcements or leave
  // it proposing to terminated nodes (delivery simply fails) — the same
  // staleness loss already handles.
  const std::function<void(VertexId)> reenter = [&](VertexId v) {
    proposer[v] = 0;
    target[v] = kInvalidVertex;
    partner[v] = -1;
    sent_ok[v] = 0;
    recv[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t iteration = 0; iteration < cap && !alive.empty();
       ++iteration) {
    // Nodes whose active neighborhood emptied terminate unmatched. In
    // the coroutine engine this runs during the previous round's resume,
    // so the decision carries the current round stamp.
    const VirtualRound now = round;
    alive = eng.scan_awake(
                   alive,
                   [&](BulkChunk& chunk, std::span<const VertexId> part) {
                     for (const VertexId v : part) {
                       if (active_count[v] == 0) {
                         chunk.decide(v, -1, now);
                         chunk.finish(v, now);
                       } else {
                         chunk.keep(v);
                       }
                     }
                   })
                .kept;
    if (alive.empty()) break;

    // Role coins; proposers pick a uniformly random active port.
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) {
        partner[v] = -1;
        proposer[v] = rng[v].coin() ? 1 : 0;
        if (proposer[v] != 0) {
          std::uint64_t pick = rng[v].below(active_count[v]);
          const CsrOffset base = g.adjacency_offset(v);
          std::uint32_t port = 0;
          for (const std::uint32_t deg = g.degree(v); port < deg; ++port) {
            if (port_active[base + port] == 0) continue;
            if (pick == 0) break;
            --pick;
          }
          target[v] = g.neighbor(v, port);
        } else {
          target[v] = kInvalidVertex;
        }
      }
    });

    // Round 1: proposals travel one port each. Several proposers may
    // target one acceptor, so the receive tallies go through relaxed
    // atomic increments (an order-free integer sum).
    ++round;
    if (!eng.begin_round(alive, round, AwakeSet::kNew, reenter)) break;
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) recv[v] = 0;
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) {
        if (proposer[v] == 0) continue;
        const VertexId t = target[v];
        const bool awake_t = eng.is_awake(t);
        const bool delivered = awake_t && eng.link_up(v, t, round);
        sent_ok[v] = delivered ? 1 : 0;
        chunk.charge_send(v, 1, delivered ? 1 : 0, kIiBits,
                          (awake_t && !delivered) ? 1 : 0);
        if (delivered) {
          std::atomic_ref(recv[t]).fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) chunk.charge_received(v, recv[v]);
    });

    // Round 2: acceptors answer the lowest-port proposal; the accepted
    // proposer and the acceptor become partners. A proposer targets
    // exactly one node, so partner[w] and recv[w] have a unique writer.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) recv[v] = 0;
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId u : part) {
        if (proposer[u] != 0) continue;
        const auto nbrs = g.neighbors(u);
        for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
          const VertexId w = nbrs[p];
          // Answer the lowest-port proposal that actually arrived last
          // round. The acceptor commits to the match when it sends;
          // under faults the accept itself may be lost, leaving w
          // unmatched (it will keep proposing) — realistic asymmetry.
          if (proposer[w] == 0 || target[w] != u || sent_ok[w] == 0) {
            continue;
          }
          const bool awake_w = eng.is_awake(w);
          const bool delivered = awake_w && eng.link_up(u, w, round);
          chunk.charge_send(u, 1, delivered ? 1 : 0, kIiBits,
                            (awake_w && !delivered) ? 1 : 0);
          partner[u] = static_cast<std::int64_t>(w);
          if (delivered) {
            ++recv[w];
            partner[w] = static_cast<std::int64_t>(u);
          }
          break;
        }
      }
    });
    eng.scan_awake(alive, [&](BulkChunk& chunk,
                              std::span<const VertexId> part) {
      for (const VertexId v : part) chunk.charge_received(v, recv[v]);
    });

    // Round 3: matched nodes announce and terminate; the rest strike
    // announced neighbors from their active port sets.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    alive =
        eng.scan_awake(
               alive,
               [&](BulkChunk& chunk, std::span<const VertexId> part) {
                 for (const VertexId v : part) {
                   std::uint64_t matched_adjacent = 0;
                   const CsrOffset base = g.adjacency_offset(v);
                   const Reach r = eng.reach(
                       v, round, [&](VertexId u, std::uint32_t p) {
                         if (partner[u] < 0) return;
                         ++matched_adjacent;
                         if (partner[v] < 0 && port_active[base + p] != 0) {
                           port_active[base + p] = 0;
                           --active_count[v];
                         }
                       });
                   if (partner[v] >= 0) {
                     chunk.charge_send(v, g.degree(v), r.heard, kIiBits,
                                       r.awake - r.heard);
                   }
                   chunk.charge_received(v, matched_adjacent);
                   if (partner[v] >= 0) {
                     chunk.decide(v, partner[v], round);
                     chunk.finish(v, round);
                   } else {
                     chunk.keep(v);
                   }
                 }
               })
            .kept;
  }
  finish_undecided(eng, alive, round);
}

void BulkBeepingMis::run(BulkEngine& eng) {
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  if (n == 0) return;
  const std::uint32_t beep_bits = sim::Message::beep().bits;
  const std::uint64_t phase_cap = iteration_cap(options_.max_phases, n);
  const std::uint32_t id_bits = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  // Capped like algos/beeping_mis.cc so the 64-bit composite rank never
  // shifts out of range past n = 65536 (bit-compatibility requires the
  // identical cap).
  const std::uint32_t random_bits =
      std::min(rank_bits_for(n), 64 - id_bits);
  const std::uint32_t total_bits = random_bits + id_bits;
  std::vector<Rng> rng = node_streams(eng);
  std::vector<VertexId> alive = all_vertices(n);
  std::vector<std::uint64_t> rank(n, 0);
  std::vector<std::uint8_t> contending(n, 0);
  std::vector<std::uint8_t> beeper(n, 0);
  // A re-entrant sits out the rest of the current auction (it missed
  // the phase's candidate draw) and contends from the next phase.
  const std::function<void(VertexId)> reenter = [&](VertexId v) {
    contending[v] = 0;
    beeper[v] = 0;
    rank[v] = 0;
  };
  VirtualRound round = 0;

  for (std::uint64_t phase = 0; phase < phase_cap && !alive.empty(); ++phase) {
    eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
      for (const VertexId v : part) {
        const bool candidate = rng[v].bernoulli(options_.candidate_prob);
        rank[v] = candidate
                      ? (rng[v].below(std::uint64_t{1} << random_bits)
                         << id_bits) |
                            v
                      : 0;
        contending[v] = candidate ? 1 : 0;
      }
    });

    // Bit auction, most significant bit first. The phase's first slot
    // marks the one awake set of the whole phase.
    for (std::uint32_t slot = 0; slot < total_bits; ++slot) {
      ++round;
      eng.begin_round(alive, round,
                      slot == 0 ? AwakeSet::kNew : AwakeSet::kSame, reenter);
      const std::uint32_t bit_index = total_bits - 1 - slot;
      eng.scan_awake(alive, [&](BulkChunk&, std::span<const VertexId> part) {
        for (const VertexId v : part) {
          beeper[v] =
              (contending[v] != 0 && ((rank[v] >> bit_index) & 1) != 0) ? 1
                                                                        : 0;
        }
      });
      eng.scan_awake(alive, [&](BulkChunk& chunk,
                                std::span<const VertexId> part) {
        for (const VertexId v : part) {
          std::uint64_t beeps_heard = 0;
          const Reach r = eng.reach(v, round, [&](VertexId u, std::uint32_t) {
            beeps_heard += beeper[u];
          });
          if (beeper[v] != 0) {
            chunk.charge_send(v, g.degree(v), r.heard, beep_bits,
                              r.awake - r.heard);
          }
          chunk.charge_received(v, beeps_heard);
          // A beeping node cannot listen; only silent contenders drop
          // out.
          if (beeper[v] == 0 && contending[v] != 0 && beeps_heard > 0) {
            contending[v] = 0;
          }
        }
      });
    }

    // Join slot: survivors beep-and-join; listeners that hear it exit.
    ++round;
    eng.begin_round(alive, round, AwakeSet::kSame, reenter);
    alive = join_scan(eng, alive, round, contending, beep_bits);
  }
  finish_undecided(eng, alive, round);
}

std::unique_ptr<BulkProtocol> bulk_mis_protocol(algos::MisEngine engine,
                                                core::RecursionTrace* trace) {
  switch (engine) {
    case algos::MisEngine::kSleeping:
      return std::make_unique<BulkSleepingMis>(core::SleepingMisOptions{},
                                               trace);
    case algos::MisEngine::kLubyA:
      return std::make_unique<BulkLubyA>();
    case algos::MisEngine::kLubyB:
      return std::make_unique<BulkLubyB>();
    case algos::MisEngine::kGreedy:
      return std::make_unique<BulkGreedy>();
    case algos::MisEngine::kFastSleeping:
    case algos::MisEngine::kGhaffari:
      return nullptr;
  }
  return nullptr;
}

}  // namespace slumber::bulk
