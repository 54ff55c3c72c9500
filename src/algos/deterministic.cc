#include "algos/deterministic.h"

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task deterministic_node(sim::Context& ctx,
                             DeterministicGreedyOptions options) {
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : 4 + ctx.n();
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    // Round 1: presence probe. The sender's ID rides on the envelope
    // (Received::from), so an empty Hello suffices: every payload is 0,
    // and the priority test compares ids alone.
    sim::Inbox inbox = co_await ctx.broadcast(sim::Message::hello());
    // Round 2: local ID maxima join and announce; dominated nodes exit.
    co_await join_round(ctx, !beaten(inbox, sim::MsgKind::kHello, 0, ctx.id()));
    if (ctx.decided()) co_return;
  }
}

}  // namespace

sim::Protocol deterministic_greedy_mis(DeterministicGreedyOptions options) {
  return [options](sim::Context& ctx) {
    return deterministic_node(ctx, options);
  };
}

}  // namespace slumber::algos
