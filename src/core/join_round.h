// The announce-and-join round that ends an iteration of every
// round-lockstep MIS protocol on the coroutine engine: the baselines in
// algos/, beeping MIS, and Algorithm 2's greedy base case. A winner
// broadcasts its announcement and joins the MIS; every other node
// listens and is out of the MIS if a neighbor announced.
//
//   sim::Inbox inbox = co_await ctx.broadcast(rank_message);
//   co_await join_round(ctx, !beaten(inbox, sim::MsgKind::kRank, rank,
//                                    ctx.id()));
//   if (ctx.decided()) co_return;
//
// Bind an inbox to a local before testing it: GCC 12 miscompiles a
// co_await inside an if condition or a call argument.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "core/rank.h"
#include "graph/graph.h"
#include "sim/context.h"
#include "sim/message.h"

namespace slumber::core {

/// True iff `inbox` holds a message of kind `kind`.
inline bool heard(const sim::Inbox& inbox, sim::MsgKind kind) {
  return std::any_of(
      inbox.begin(), inbox.end(),
      [kind](const sim::Received& r) { return r.msg.kind == kind; });
}

/// True iff a message of kind `kind` in `inbox` carries a (payload,
/// sender) pair that priority_beats this node's (mine, id).
inline bool beaten(const sim::Inbox& inbox, sim::MsgKind kind,
                   std::uint64_t mine, VertexId id) {
  return std::any_of(
      inbox.begin(), inbox.end(), [&](const sim::Received& r) {
        return r.msg.kind == kind &&
               priority_beats(r.msg.payload_a, r.from, mine, id);
      });
}

/// One awake round: a winner broadcasts `announce` and decides 1; any
/// other node listens and decides 0 if it hears a message of
/// `announce`'s kind. It wraps the context's own exchange awaiter, so a
/// parked node holds no second coroutine frame.
class JoinRound {
 public:
  JoinRound(sim::Context& ctx, bool win, sim::Message announce)
      : ctx_(&ctx),
        win_(win),
        kind_(announce.kind),
        exchange_(win ? ctx.broadcast(announce) : ctx.listen()) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { exchange_.await_suspend(h); }
  void await_resume() {
    sim::Inbox inbox = exchange_.await_resume();
    if (win_) {
      ctx_->decide(1);
    } else if (heard(inbox, kind_)) {
      ctx_->decide(0);
    }
  }

 private:
  sim::Context* ctx_;
  bool win_;
  sim::MsgKind kind_;
  decltype(std::declval<sim::Context&>().listen()) exchange_;
};

inline JoinRound join_round(sim::Context& ctx, bool win,
                            sim::Message announce = sim::Message::in_mis()) {
  return {ctx, win, announce};
}

}  // namespace slumber::core
