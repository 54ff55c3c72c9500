#include "algos/arboricity_mis.h"

#include <algorithm>
#include <cmath>

#include "algos/common.h"

namespace slumber::algos {
namespace {

/// Number of synchronized peeling phases that guarantees everyone
/// peels: remaining <= n * (2a/t)^p, so p = log(n) / log(t / 2a).
std::uint64_t peeling_phases(std::uint64_t n, double arboricity,
                             double threshold) {
  if (n <= 1) return 1;
  const double shrink = threshold / (2.0 * arboricity);
  const double safe_shrink = shrink > 1.01 ? shrink : 1.01;
  return 2 + static_cast<std::uint64_t>(std::ceil(
                 std::log(static_cast<double>(n)) / std::log(safe_shrink)));
}

sim::Task arboricity_node(sim::Context& ctx, ArboricityMisOptions options) {
  const double threshold =
      options.threshold_factor * static_cast<double>(options.arboricity_bound);
  const std::uint64_t phases =
      peeling_phases(ctx.n(), options.arboricity_bound, threshold);

  // --- Phase 1: H-partition by synchronized peeling. All nodes run the
  // same number of rounds so phase 2 starts in lockstep; peeled nodes
  // idle-listen (this is the log n term of the node average).
  std::uint64_t partition = phases;  // fallback if the bound was too low
  bool peeled = false;
  for (std::uint64_t phase = 0; phase < phases; ++phase) {
    sim::Inbox inbox;
    if (!peeled) {
      inbox = co_await ctx.broadcast(sim::Message::hello());
    } else {
      inbox = co_await ctx.listen();
    }
    if (!peeled) {
      std::uint64_t residual_degree = 0;
      for (const sim::Received& r : inbox) {
        if (r.msg.kind == sim::MsgKind::kHello) ++residual_degree;
      }
      if (static_cast<double>(residual_degree) <= threshold) {
        peeled = true;
        partition = phase;
      }
    }
  }

  // --- Phase 2: greedy MIS by ascending (partition, id) priority.
  const std::uint64_t cap = options.max_iterations != 0
                                ? options.max_iterations
                                : 8 + 4 * ctx.n();
  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    sim::Message announce = sim::Message::mark();
    announce.payload_a = partition;  // O(log log n)-bit payload
    announce.bits = 24;
    sim::Inbox inbox = co_await ctx.broadcast(announce);
    const bool first = std::none_of(
        inbox.begin(), inbox.end(), [&](const sim::Received& r) {
          return r.msg.kind == sim::MsgKind::kMark &&
                 (r.msg.payload_a != partition ? r.msg.payload_a < partition
                                               : r.from < ctx.id());
        });
    co_await join_round(ctx, first);
    if (ctx.decided()) co_return;
  }
}

}  // namespace

sim::Protocol arboricity_mis(ArboricityMisOptions options) {
  if (options.arboricity_bound < 1) {
    throw std::invalid_argument("arboricity_mis: bound must be >= 1");
  }
  return [options](sim::Context& ctx) {
    return arboricity_node(ctx, options);
  };
}

}  // namespace slumber::algos
