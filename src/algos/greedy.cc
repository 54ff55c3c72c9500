#include "algos/greedy.h"

#include <algorithm>
#include <numeric>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task greedy_node(sim::Context& ctx, GreedyOptions options) {
  const std::uint32_t rank_bits = rank_bits_for(ctx.n());
  const std::uint64_t rank = ctx.rng().next() >> (64 - rank_bits);
  if (options.ranks_out != nullptr) {
    if (options.ranks_out->size() != ctx.n()) {
      options.ranks_out->resize(ctx.n());
    }
    (*options.ranks_out)[ctx.id()] = rank;
  }
  const std::uint64_t cap = iteration_cap(options.max_iterations, ctx.n());
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    sim::Inbox inbox =
        co_await ctx.broadcast(sim::Message::rank(rank, rank_bits));
    co_await join_round(
        ctx, !beaten(inbox, sim::MsgKind::kRank, rank, ctx.id()));
    if (ctx.decided()) co_return;
  }
}

}  // namespace

sim::Protocol distributed_greedy_mis(GreedyOptions options) {
  return [options](sim::Context& ctx) { return greedy_node(ctx, options); };
}

std::vector<std::uint8_t> sequential_greedy_mis(
    const Graph& g, const std::vector<std::uint64_t>& ranks) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return priority_beats(ranks[a], a, ranks[b], b);
  });
  return core::lex_first_mis(g, order);
}

}  // namespace slumber::algos
