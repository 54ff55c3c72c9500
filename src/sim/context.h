// Per-node execution context: the API a protocol coroutine programs
// against.
//
// Model semantics (paper Section 1.2, "Sleeping Model"):
//   * `co_await ctx.broadcast(m)` / `exchange(...)` / `listen()` — the
//     node is AWAKE for exactly one round: it sends its messages,
//     receives whatever awake neighbors sent it that round, and is
//     charged one awake round.
//   * `ctx.sleep(d)` — the node SLEEPS for d rounds before its next
//     awake round. Sleeping costs nothing; messages sent to a sleeping
//     node are dropped (the network only delivers to nodes that are
//     awake in the same round).
//   * `ctx.decide(v)` — records the node's output and the round/awake
//     time at which its status was fixed (the Feuilloley/Barenboim-Tzur
//     "decided" instant).
// Returning from the root protocol coroutine terminates the node.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"
#include "util/rng.h"

namespace slumber::sim {

class Network;

/// Throws the std::overflow_error for node v's sleep running past the
/// 64-bit round clock. Out of line and cold, so the checks that call it
/// stay small on the hot path.
[[noreturn, gnu::cold]] void throw_clock_overflow(VertexId v);

/// Everything a node receives in one awake round: a view of the node's
/// own receive buffer, which the network reuses every round. It stays
/// valid until the node's next awake round, so copy it into a vector
/// before a later co_await if you need it after.
using Inbox = std::span<const Received>;

/// What a node emits in one awake round.
struct OutBundle {
  /// If set, the same message goes out on every port.
  std::optional<Message> broadcast;
  /// Otherwise/additionally, explicit (port, message) pairs.
  std::vector<std::pair<std::uint32_t, Message>> per_port;
};

class Context {
 public:
  VertexId id() const { return id_; }
  std::uint32_t degree() const { return degree_; }
  std::uint64_t n() const { return n_; }

  /// The current virtual round (1-based; 0 = before the first round).
  std::uint64_t round() const;

  Rng& rng() { return rng_; }

  /// Sleep for `rounds` rounds before the next awake round. Accumulates;
  /// costs zero awake rounds. Throws std::overflow_error naming the node
  /// if the accumulated sleep passes 2^64 - 1 rounds.
  void sleep(std::uint64_t rounds) {
    if (__builtin_add_overflow(pending_sleep_, rounds, &pending_sleep_)) {
      throw_clock_overflow(id_);
    }
  }

  // The three awaitables below queue their messages when called; the
  // network sends them in the node's next awake round. Await each one
  // at once.

  /// Awaitable: one awake round sending `m` on every port.
  auto broadcast(Message m) {
    pending_out_.broadcast = m;
    return ExchangeAwaiter{this};
  }

  /// Awaitable: one awake round with explicit per-port messages, at
  /// most one per port (the model carries one message per edge per
  /// round). Throws std::out_of_range if a port is not below degree()
  /// and std::invalid_argument if a port repeats.
  auto exchange(std::vector<std::pair<std::uint32_t, Message>> msgs) {
    for (auto it = msgs.begin(); it != msgs.end(); ++it) {
      const std::uint32_t port = it->first;
      if (port >= degree_) {
        throw std::out_of_range(
            "node " + std::to_string(id_) + " sends on port " +
            std::to_string(port) + " but has degree " +
            std::to_string(degree_));
      }
      if (std::any_of(msgs.begin(), it,
                      [port](const auto& m) { return m.first == port; })) {
        throw std::invalid_argument(
            "node " + std::to_string(id_) + " sends twice on port " +
            std::to_string(port) + " in one round");
      }
    }
    pending_out_.per_port = std::move(msgs);
    return ExchangeAwaiter{this};
  }

  /// Awaitable: one awake round sending nothing (idle listening — the
  /// expensive state the paper's motivation is about).
  auto listen() { return ExchangeAwaiter{this}; }

  /// Records this node's output value and the decision instant.
  /// Idempotent: only the first call sticks.
  void decide(std::int64_t output);

  bool decided() const { return decided_; }
  std::int64_t output() const { return output_; }

 private:
  friend class Network;

  // Pointer-sized, so a suspended frame holds one word per co_await.
  struct ExchangeAwaiter {
    Context* ctx;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      ctx->resume_point_ = h;
      ctx->requested_sleep_ = ctx->pending_sleep_;
      ctx->pending_sleep_ = 0;
    }
    Inbox await_resume() const noexcept { return ctx->inbox_; }
  };

  Context(Network* net, VertexId id, std::uint32_t degree, std::uint64_t n,
          Rng rng)
      : net_(net), id_(id), degree_(degree), n_(n), rng_(std::move(rng)) {}

  Network* net_;
  VertexId id_;
  std::uint32_t degree_;
  std::uint64_t n_;
  Rng rng_;

  // --- scheduler interface ---
  std::coroutine_handle<> resume_point_;  // innermost suspended coroutine
  OutBundle pending_out_;                 // what to send at next awake round
  std::vector<Received> inbox_;           // filled by the network pre-resume
  std::uint64_t pending_sleep_ = 0;       // accumulated ctx.sleep() calls
  std::uint64_t requested_sleep_ = 0;     // sleep captured at suspension

  // --- outputs ---
  bool decided_ = false;
  std::int64_t output_ = -1;
};

}  // namespace slumber::sim
