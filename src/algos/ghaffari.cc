#include "algos/ghaffari.h"

#include <algorithm>

#include "algos/common.h"

#include <cmath>

namespace slumber::algos {
namespace {

sim::Task ghaffari_node(sim::Context& ctx, GhaffariOptions options) {
  const std::uint64_t cap = iteration_cap(options.max_iterations, ctx.n());
  // Desire level p = 2^-exponent; starts at 1/2 and stays a power of 2,
  // so the exponent alone travels over the wire (CONGEST-tight).
  std::uint64_t exponent = 1;
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    // Round 1: exchange desire levels; d_v = sum over active neighbors.
    sim::Inbox inbox = co_await ctx.broadcast(sim::Message::prob(exponent));
    double effective_degree = 0.0;
    for (const sim::Received& r : inbox) {
      if (r.msg.kind == sim::MsgKind::kProb) {
        effective_degree +=
            std::ldexp(1.0, -static_cast<int>(r.msg.payload_a));
      }
    }

    // Round 2: marked nodes reveal themselves.
    const double p = std::ldexp(1.0, -static_cast<int>(exponent));
    const bool marked = ctx.rng().bernoulli(p);
    sim::Inbox marks;
    if (marked) {
      marks = co_await ctx.broadcast(sim::Message::mark());
    } else {
      marks = co_await ctx.listen();
    }
    const bool win = marked && !heard(marks, sim::MsgKind::kMark);

    // Round 3: winners join, announce, terminate; dominated nodes exit.
    co_await join_round(ctx, win);
    if (ctx.decided()) co_return;

    // Desire-level update (Ghaffari'16): halve when crowded, double
    // (capped at 1/2) otherwise.
    if (effective_degree >= 2.0) {
      ++exponent;
    } else if (exponent > 1) {
      --exponent;
    }
  }
}

}  // namespace

sim::Protocol ghaffari_mis(GhaffariOptions options) {
  return [options](sim::Context& ctx) { return ghaffari_node(ctx, options); };
}

}  // namespace slumber::algos
