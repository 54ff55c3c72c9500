// Algorithms 1 and 2 (core/sleeping_mis.h, core/fast_sleeping_mis.h).
// Algorithm 2 is Algorithm 1 with the recursion cut at depth K2 and a
// B-round randomized greedy as the k = 0 base case, so one
// SleepingMISRecursive frame serves both.
#include "core/sleeping_mis.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fast_sleeping_mis.h"
#include "core/join_round.h"
#include "core/mis_state.h"
#include "core/rank.h"
#include "core/schedule.h"

namespace slumber::core {
namespace {

/// The constants every frame of one node's recursion reads.
struct Recursion {
  /// B = T(0): 0 for Algorithm 1, the fixed greedy budget for
  /// Algorithm 2.
  std::uint64_t base_rounds = 0;
  /// Width of the greedy base case's ranks (Algorithm 2 only).
  std::uint32_t rank_bits = 0;
  RecursionTrace* trace = nullptr;
};

sim::Task recurse(sim::Context& ctx, MisState& st, const Recursion& rec,
                  std::uint32_t k, std::uint64_t path);

// Algorithm 1's base case (lines 9-12): w.h.p. |U| <= 1 here, so an
// undecided node joins. It spends no rounds.
sim::Task join_base(sim::Context& ctx, MisState& st) {
  if (st.value == MisValue::kUnknown) {
    st.value = MisValue::kTrue;
    ctx.decide(1);
  }
  co_return;
}

// Algorithm 2's base case, DistributedGreedyMIS (line 10): randomized
// greedy run for exactly B rounds. Decided nodes sleep out the
// remainder so the cell occupies a fixed window.
sim::Task greedy_base(sim::Context& ctx, MisState& st, const Recursion& rec) {
  const std::uint64_t budget = rec.base_rounds;
  std::uint64_t used = 0;
  while (used + 2 <= budget && st.value == MisValue::kUnknown) {
    sim::Inbox inbox = co_await ctx.broadcast(
        sim::Message::rank(st.base_rank, rec.rank_bits));
    co_await join_round(
        ctx, !beaten(inbox, sim::MsgKind::kRank, st.base_rank, ctx.id()));
    used += 2;
    if (ctx.decided()) {
      st.value = ctx.output() == 1 ? MisValue::kTrue : MisValue::kFalse;
    }
  }
  // Fixed-duration synchronization: the base case always consumes
  // exactly `budget` rounds of wall time.
  ctx.sleep(budget - used);
}

// SleepingMISRecursive(k) for k >= 1.
sim::Task frame(sim::Context& ctx, MisState& st, const Recursion& rec,
                std::uint32_t k, std::uint64_t path) {
  // First isolated-node detection (lines 13-16), 1 round. Only the nodes
  // of this call are awake now, so an empty inbox means "isolated in
  // G[U]".
  sim::Inbox inbox = co_await ctx.broadcast(sim::Message::hello());
  if (rec.trace != nullptr) {
    auto& call = rec.trace->calls[{k, path}];
    call.first_round = std::min(call.first_round, ctx.round());
    if (inbox.empty() && st.value == MisValue::kUnknown) {
      ++call.isolated_joins;
    }
  }
  if (inbox.empty() && st.value == MisValue::kUnknown) {
    st.value = MisValue::kTrue;
    ctx.decide(1);
  }

  const std::uint64_t child_span = schedule_duration(k - 1, rec.base_rounds);

  // Left recursion (lines 17-21).
  if (st.value == MisValue::kUnknown && level_bit(st.bits, k)) {
    if (rec.trace != nullptr) ++rec.trace->calls[{k, path}].left;
    co_await recurse(ctx, st, rec, k - 1, path << 1);
  } else {
    ctx.sleep(child_span);
  }

  // Synchronization step / elimination (lines 22-25), 1 round.
  inbox = co_await ctx.broadcast(
      sim::Message::status(static_cast<std::uint64_t>(st.value)));
  if (st.value == MisValue::kUnknown) {
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kStatus &&
          r.msg.payload_a == static_cast<std::uint64_t>(MisValue::kTrue)) {
        st.value = MisValue::kFalse;
        ctx.decide(0);
        break;
      }
    }
  }

  // Second isolated-node detection (lines 26-29), 1 round.
  inbox = co_await ctx.broadcast(
      sim::Message::status(static_cast<std::uint64_t>(st.value)));
  if (st.value == MisValue::kUnknown) {
    const bool all_false = std::all_of(
        inbox.begin(), inbox.end(), [](const sim::Received& r) {
          return r.msg.kind == sim::MsgKind::kStatus &&
                 r.msg.payload_a ==
                     static_cast<std::uint64_t>(MisValue::kFalse);
        });
    if (all_false) {
      st.value = MisValue::kTrue;
      ctx.decide(1);
    }
  }

  // Right recursion (lines 30-34).
  if (st.value == MisValue::kUnknown) {
    if (rec.trace != nullptr) ++rec.trace->calls[{k, path}].right;
    co_await recurse(ctx, st, rec, k - 1, (path << 1) | 1);
  } else {
    ctx.sleep(child_span);
  }
}

// A call of SleepingMISRecursive(k). A plain function rather than a
// coroutine: it picks the coroutine to run, so the frame body holds no
// base-case await and each recursion level costs one coroutine frame.
sim::Task recurse(sim::Context& ctx, MisState& st, const Recursion& rec,
                  std::uint32_t k, std::uint64_t path) {
  if (rec.trace != nullptr) ++rec.trace->calls[{k, path}].participants;
  if (k != 0) return frame(ctx, st, rec, k, path);
  if (rec.base_rounds == 0) return join_base(ctx, st);
  return greedy_base(ctx, st, rec);
}

// The root call SleepingMISRecursive(K). Its frame holds the node's
// state and run constants for the whole run.
sim::Task root(sim::Context& ctx, MisState st, Recursion rec,
               std::uint32_t levels) {
  co_await recurse(ctx, st, rec, levels, 0);
}

// One node's run: draw X_1..X_K (and, for Algorithm 2, the greedy rank)
// from the node's stream, then run the root call.
sim::Task node_main(sim::Context& ctx, const char* name,
                    std::uint32_t levels, double coin_bias,
                    Recursion rec) {
  if (levels > max_schedule_levels(rec.base_rounds)) {
    throw std::invalid_argument(
        std::string(name) + ": K = " + std::to_string(levels) +
        " recursion levels with a " + std::to_string(rec.base_rounds) +
        "-round base case overflow the coroutine engine's 64-bit round "
        "clock (T(K) = 2^K (B + 3) - 3 fits only for K <= " +
        std::to_string(max_schedule_levels(rec.base_rounds)) + ")" +
        (rec.base_rounds == 0
             ? "; run it with --engine bulk, whose clock is 128-bit"
             : ""));
  }
  MisState st;
  st.bits.resize(level_words(levels));
  draw_level_bits(ctx.rng(), levels, bernoulli_threshold(coin_bias), st.bits);
  if (rec.base_rounds != 0) {
    st.base_rank = ctx.rng().next() >> (64 - rec.rank_bits);
  }
  if (rec.trace != nullptr) {
    RecursionTrace& trace = *rec.trace;
    trace.levels = levels;
    if (trace.bits.size() != ctx.n()) trace.bits.resize(ctx.n());
    trace.bits[ctx.id()] = unpack_level_bits(st.bits, levels);
    if (rec.base_rounds != 0) {
      if (trace.base_rank.size() != ctx.n()) trace.base_rank.resize(ctx.n());
      trace.base_rank[ctx.id()] = st.base_rank;
    }
  }
  return root(ctx, std::move(st), rec, levels);
}

}  // namespace

sim::Protocol sleeping_mis(SleepingMisOptions options, RecursionTrace* trace) {
  return [options, trace](sim::Context& ctx) {
    const std::uint32_t levels =
        options.levels != 0 ? options.levels : recursion_depth(ctx.n());
    return node_main(ctx, "SleepingMIS", levels, options.coin_bias,
                     {.trace = trace});
  };
}

sim::Protocol fast_sleeping_mis(FastSleepingMisOptions options,
                                RecursionTrace* trace) {
  if (options.base_rounds == 1) {
    throw std::invalid_argument(
        "Fast-SleepingMIS: base_rounds = 1 is below the 2 rounds of one "
        "greedy iteration (0 picks the default budget)");
  }
  return [options, trace](sim::Context& ctx) {
    const std::uint32_t levels =
        options.levels != 0 ? options.levels : fast_recursion_depth(ctx.n());
    const std::uint64_t base_rounds =
        options.base_rounds != 0 ? options.base_rounds
                                 : greedy_base_rounds(ctx.n(), options.base_c);
    return node_main(ctx, "Fast-SleepingMIS", levels, options.coin_bias,
                     {.base_rounds = base_rounds,
                      .rank_bits = rank_bits_for(ctx.n()),
                      .trace = trace});
  };
}

}  // namespace slumber::core
