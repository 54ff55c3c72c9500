#include "core/sleeping_mis.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/mis_state.h"
#include "core/schedule.h"

namespace slumber::core {
namespace {

sim::Task recurse(sim::Context& ctx, MisState& st, std::uint32_t k,
                  std::uint64_t path, RecursionTrace* trace) {
  if (trace != nullptr) ++trace->calls[{k, path}].participants;

  if (k == 0) {  // base case (lines 9-12): w.h.p. |U| <= 1 here
    if (st.value == MisValue::kUnknown) {
      st.value = MisValue::kTrue;
      ctx.decide(1);
    }
    co_return;
  }

  // First isolated-node detection (lines 13-16), 1 round. Only the nodes
  // of this call are awake now, so an empty inbox means "isolated in
  // G[U]".
  sim::Inbox inbox = co_await ctx.broadcast(sim::Message::hello());
  if (trace != nullptr) {
    auto& call = trace->calls[{k, path}];
    call.first_round = std::min(call.first_round, ctx.round());
    if (inbox.empty() && st.value == MisValue::kUnknown) {
      ++call.isolated_joins;
    }
  }
  if (inbox.empty() && st.value == MisValue::kUnknown) {
    st.value = MisValue::kTrue;
    ctx.decide(1);
  }

  const std::uint64_t child_span = schedule_duration(k - 1);

  // Left recursion (lines 17-21).
  if (st.value == MisValue::kUnknown && level_bit(st.bits, k)) {
    if (trace != nullptr) ++trace->calls[{k, path}].left;
    co_await recurse(ctx, st, k - 1, path << 1, trace);
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
                 r.msg.payload_a == static_cast<std::uint64_t>(MisValue::kFalse);
        });
    if (all_false) {
      st.value = MisValue::kTrue;
      ctx.decide(1);
    }
  }

  // Right recursion (lines 30-34).
  if (st.value == MisValue::kUnknown) {
    if (trace != nullptr) ++trace->calls[{k, path}].right;
    co_await recurse(ctx, st, k - 1, (path << 1) | 1, trace);
  } else {
    ctx.sleep(child_span);
  }
}

sim::Task node_main(sim::Context& ctx, SleepingMisOptions options,
                    RecursionTrace* trace) {
  MisState st;
  const std::uint32_t levels =
      options.levels != 0 ? options.levels : recursion_depth(ctx.n());
  if (levels > max_schedule_levels()) {
    throw std::invalid_argument(
        "SleepingMIS: K = " + std::to_string(levels) +
        " recursion levels overflow the coroutine engine's 64-bit round "
        "clock (T(K) = 3(2^K - 1) fits only for K <= " +
        std::to_string(max_schedule_levels()) +
        "); run it with --engine bulk, whose clock is 128-bit");
  }
  st.bits.resize(level_words(levels));
  draw_level_bits(ctx.rng(), levels, bernoulli_threshold(options.coin_bias),
                  st.bits);
  if (trace != nullptr) {
    trace->levels = levels;
    if (trace->bits.size() != ctx.n()) trace->bits.resize(ctx.n());
    trace->bits[ctx.id()] = unpack_level_bits(st.bits, levels);
  }
  co_await recurse(ctx, st, levels, 0, trace);
}

}  // namespace

sim::Protocol sleeping_mis(SleepingMisOptions options, RecursionTrace* trace) {
  return [options, trace](sim::Context& ctx) {
    return node_main(ctx, options, trace);
  };
}

}  // namespace slumber::core
