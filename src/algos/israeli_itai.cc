#include "algos/israeli_itai.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algos/common.h"

namespace slumber::algos {
namespace {

// Message payloads (kind kCustom, 10 bits: tag + 2-bit discriminator).
constexpr std::uint64_t kPropose = 0;
constexpr std::uint64_t kAccept = 1;
constexpr std::uint64_t kMatched = 2;

sim::Message ii_message(std::uint64_t what) {
  return {sim::MsgKind::kCustom, what, 0, 10};
}

sim::Task israeli_itai_node(sim::Context& ctx, IsraeliItaiOptions options) {
  const std::uint64_t cap = iteration_cap(options.max_iterations, ctx.n());
  // Ports whose neighbor is still unmatched (and hence matchable).
  std::vector<std::uint8_t> active(ctx.degree(), 1);
  std::uint32_t active_count = ctx.degree();

  for (std::uint64_t iteration = 0; iteration < cap; ++iteration) {
    if (active_count == 0) {
      ctx.decide(-1);  // no matchable neighbor remains: maximality is safe
      co_return;
    }
    // Role coin: proposer (heads) or acceptor (tails), Israeli-Itai'86.
    const bool proposer = ctx.rng().coin();

    // Round 1: proposers send to one uniformly random active port.
    std::uint32_t proposed_port = 0;
    sim::Inbox proposals;
    if (proposer) {
      std::uint64_t pick = ctx.rng().below(active_count);
      for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
        if (!active[p]) continue;
        if (pick == 0) {
          proposed_port = p;
          break;
        }
        --pick;
      }
      std::vector<std::pair<std::uint32_t, sim::Message>> out;
      out.emplace_back(proposed_port, ii_message(kPropose));
      (void)co_await ctx.exchange(std::move(out));
    } else {
      proposals = co_await ctx.listen();
    }

    // Round 2: acceptors answer the lowest-port proposal; proposers
    // listen for an acceptance from their proposed port.
    std::int64_t partner = -1;
    if (proposer) {
      sim::Inbox answers = co_await ctx.listen();
      for (const sim::Received& r : answers) {
        if (r.msg.kind == sim::MsgKind::kCustom &&
            r.msg.payload_a == kAccept && r.port == proposed_port) {
          partner = static_cast<std::int64_t>(r.from);
        }
      }
    } else {
      std::uint32_t best_port = 0;
      VertexId best_from = kInvalidVertex;
      bool any = false;
      for (const sim::Received& r : proposals) {
        if (r.msg.kind != sim::MsgKind::kCustom ||
            r.msg.payload_a != kPropose) {
          continue;
        }
        if (!any || r.port < best_port) {
          any = true;
          best_port = r.port;
          best_from = r.from;
        }
      }
      if (any) {
        std::vector<std::pair<std::uint32_t, sim::Message>> out;
        out.emplace_back(best_port, ii_message(kAccept));
        (void)co_await ctx.exchange(std::move(out));
        partner = static_cast<std::int64_t>(best_from);
      } else {
        (void)co_await ctx.listen();
      }
    }

    // Round 3: matched nodes announce and terminate; the rest strike
    // announced neighbors from their active sets.
    if (partner >= 0) {
      (void)co_await ctx.broadcast(ii_message(kMatched));
      ctx.decide(partner);
      co_return;
    }
    sim::Inbox announcements = co_await ctx.listen();
    for (const sim::Received& r : announcements) {
      if (r.msg.kind == sim::MsgKind::kCustom &&
          r.msg.payload_a == kMatched && active[r.port]) {
        active[r.port] = 0;
        --active_count;
      }
    }
  }
}

}  // namespace

sim::Protocol israeli_itai_matching(IsraeliItaiOptions options) {
  return [options](sim::Context& ctx) {
    return israeli_itai_node(ctx, options);
  };
}

std::optional<std::vector<EdgeId>> matching_from_outputs(
    const Graph& g, const std::vector<std::int64_t>& outputs) {
  std::vector<EdgeId> matched;
  const std::vector<Edge> edges = g.edges();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t out = outputs[v];
    if (out < 0) continue;
    const auto u = static_cast<VertexId>(out);
    if (u >= g.num_vertices()) return std::nullopt;
    if (outputs[u] != static_cast<std::int64_t>(v)) return std::nullopt;
    if (!g.has_edge(v, u)) return std::nullopt;
    if (v < u) {  // record each matched edge once
      const Edge e{v, u};
      const auto it = std::lower_bound(edges.begin(), edges.end(), e);
      if (it == edges.end() || *it != e) return std::nullopt;
      matched.push_back(static_cast<EdgeId>(it - edges.begin()));
    }
  }
  return matched;
}

}  // namespace slumber::algos
