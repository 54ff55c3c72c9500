#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>

namespace slumber::sim {
namespace {

// A run that resumes nodes more often than this is a runaway protocol.
constexpr std::uint64_t kMaxResumes = std::uint64_t{1} << 40;

// round + sleep + extra on node v's 64-bit round clock, which would
// wrap back to an earlier round past 2^64 - 1.
std::uint64_t clock_after(VertexId v, std::uint64_t round, std::uint64_t sleep,
                          std::uint64_t extra) {
  std::uint64_t sum = 0;
  if (__builtin_add_overflow(round, sleep, &sum) ||
      __builtin_add_overflow(sum, extra, &sum)) {
    throw_clock_overflow(v);
  }
  return sum;
}

}  // namespace

void throw_clock_overflow(VertexId v) {
  throw std::overflow_error("node " + std::to_string(v) +
                            " sleeps past the 64-bit round clock");
}

std::uint32_t congest_bits_for(std::uint64_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(n, 2) - 1));
  // Tag byte + a generous O(log n) payload budget (4 log n), matching the
  // classical CONGEST(log n) convention of c*log n-bit messages. Floored
  // at 4 words-of-log so asymptotically-fine protocols are not rejected
  // on toy instances (O(log n) is meaningless at n = 2).
  return 8 + 4 * std::max<std::uint32_t>(log_n, 4);
}

std::uint64_t Context::round() const { return net_->current_round(); }

void Context::decide(std::int64_t output) {
  if (decided_) return;
  decided_ = true;
  output_ = output;
  auto& m = net_->metrics_.node[id_];
  m.decided_round = net_->current_round();
  m.awake_at_decision = m.awake_rounds;
  if (net_->options_.trace != nullptr) {
    net_->options_.trace->on_event({TraceEventKind::kDecide,
                                    net_->current_round(), id_,
                                    kInvalidVertex, MsgKind::kCustom, output});
  }
}

Network::Network(const Graph& g, std::uint64_t seed, NetworkOptions options)
    : graph_(g),
      options_(options),
      seed_(seed),
      fault_(options.fault, seed, g.num_vertices()) {
  const VertexId n = g.num_vertices();
  metrics_.node.resize(n);
  last_awake_.assign(n, 0);
  contexts_.reserve(n);
  Rng master(seed);
  for (VertexId v = 0; v < n; ++v) {
    contexts_.emplace_back(new Context(this, v, g.degree(v), n,
                                       master.split(v)));
  }
  // Scanning u in ascending order meets each v's lower neighbors in
  // ascending order, and they hold v's first ports: the k-th time v is
  // met, u is on v's port k.
  back_port_.resize(g.degree_sum());
  std::vector<std::uint32_t> cursor(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const VertexId> nbrs = g.neighbors(u);
    const CsrOffset base = g.adjacency_offset(u);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const VertexId v = nbrs[p];
      if (v < u) continue;
      const std::uint32_t q = cursor[v]++;
      back_port_[base + p] = q;
      back_port_[g.adjacency_offset(v) + q] = p;
    }
  }
}

Network::~Network() = default;

// Accounts `count` sends of `m`: a broadcast is checked once.
void Network::check_congest(const Message& m, std::uint64_t count) {
  metrics_.max_message_bits_seen =
      std::max(metrics_.max_message_bits_seen, m.bits);
  if (options_.max_message_bits != 0 && m.bits > options_.max_message_bits) {
    if (options_.throw_on_congest_violation) {
      ++metrics_.congest_violations;
      throw CongestViolation(
          "message of " + std::to_string(m.bits) + " bits exceeds CONGEST " +
          "budget of " + std::to_string(options_.max_message_bits));
    }
    metrics_.congest_violations += count;
  }
}

void Network::deliver(VertexId sender, VertexId receiver, std::uint32_t port,
                      const Message& m) {
  if (last_awake_[receiver] != current_round_) {
    // Receiver is sleeping or terminated: the message is lost
    // (paper Section 1.2: "messages sent to it ... are lost").
    ++metrics_.dropped_messages;
    if (options_.trace != nullptr) {
      options_.trace->on_event({TraceEventKind::kDropSleep, current_round_,
                                sender, receiver, m.kind, 0});
    }
    return;
  }
  // Loss only hits otherwise-deliverable messages, and the draw is
  // keyed by (undirected link, round) — the identical decision the
  // bulk engine computes for this edge in this round.
  if (fault_.has_loss() &&
      fault_.link_down(sender, receiver, current_round_, 0)) {
    ++metrics_.injected_losses;
    if (options_.trace != nullptr) {
      options_.trace->on_event({TraceEventKind::kDropFault, current_round_,
                                sender, receiver, m.kind, 0});
    }
    return;
  }
  contexts_[receiver]->inbox_.push_back({sender, port, m});
  ++metrics_.total_messages;
  if (options_.trace != nullptr) {
    options_.trace->on_event({TraceEventKind::kDeliver, current_round_,
                              sender, receiver, m.kind, 0});
  }
}

void Network::deliver_from(VertexId sender) {
  OutBundle& out = contexts_[sender]->pending_out_;
  const std::span<const VertexId> nbrs = graph_.neighbors(sender);
  const std::uint32_t* back = back_port_.data() +
                              graph_.adjacency_offset(sender);
  std::uint64_t& sent = metrics_.node[sender].messages_sent;
  if (out.broadcast.has_value() && !nbrs.empty()) {
    const Message& m = *out.broadcast;
    check_congest(m, nbrs.size());
    sent += nbrs.size();
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      deliver(sender, nbrs[p], back[p], m);
    }
  }
  for (const auto& [port, m] : out.per_port) {
    check_congest(m, 1);
    ++sent;
    deliver(sender, nbrs[port], back[port], m);
  }
  out.broadcast.reset();
  out.per_port.clear();
}

const Metrics& Network::run(const Protocol& protocol) {
  if (ran_) throw std::logic_error("Network::run may be called only once");
  ran_ = true;
  const VertexId n = graph_.num_vertices();
  std::uint64_t resumes = 0;

  // Round 0: start every protocol; it runs its local initialization and
  // suspends at its first communication round (or finishes immediately).
  tasks_.reserve(n);
  current_round_ = 0;
  for (VertexId v = 0; v < n; ++v) {
    tasks_.push_back(protocol(*contexts_[v]));
    tasks_[v].resume_from_root();
    ++resumes;
    if (tasks_[v].done()) {
      tasks_[v].rethrow_if_failed();
      // Trailing ctx.sleep() calls with no later exchange still advance
      // the node's local clock to its true return time.
      metrics_.node[v].finish_round = contexts_[v]->pending_sleep_;
      if (options_.trace != nullptr) {
        options_.trace->on_event({TraceEventKind::kTerminate, 0, v,
                                  kInvalidVertex, MsgKind::kCustom, 0});
      }
    } else {
      const std::uint64_t next =
          clock_after(v, 0, contexts_[v]->requested_sleep_, 1);
      wake_buckets_[next].push_back(v);
    }
  }

  std::vector<VertexId> awake;
  while (!wake_buckets_.empty()) {
    auto first = wake_buckets_.begin();
    current_round_ = first->first;
    awake = std::move(first->second);
    wake_buckets_.erase(first);
    ++metrics_.distinct_active_rounds;

    // Crash injection happens first: a node that fail-stops this round
    // sends nothing and receives nothing (it is simply absent).
    if (fault_.has_crashes()) {
      std::erase_if(awake, [&](VertexId v) {
        if (!fault_.crashes_now(v, current_round_, 0)) return false;
        metrics_.node[v].crashed = true;
        metrics_.node[v].finish_round = current_round_;
        ++metrics_.crashed_nodes;
        if (options_.trace != nullptr) {
          options_.trace->on_event({TraceEventKind::kCrash, current_round_, v,
                                    kInvalidVertex, MsgKind::kCustom, 0});
        }
        return true;
      });
    }

    // Mark the awake set, then deliver, then resume: all sends in a round
    // complete before any node observes its inbox.
    for (VertexId v : awake) {
      last_awake_[v] = current_round_;
      contexts_[v]->inbox_.clear();
    }
    for (VertexId v : awake) deliver_from(v);
    for (VertexId v : awake) {
      Context& ctx = *contexts_[v];
      NodeMetrics& node = metrics_.node[v];
      ++node.awake_rounds;
      node.messages_received += ctx.inbox_.size();
      ++metrics_.total_awake_node_rounds;
      if (options_.trace != nullptr) {
        options_.trace->on_event({TraceEventKind::kWake, current_round_, v,
                                  kInvalidVertex, MsgKind::kCustom, 0});
      }
      ctx.resume_point_.resume();
      if (++resumes > kMaxResumes) {
        throw std::runtime_error("Network: exceeded max_resumes safety valve");
      }
      if (tasks_[v].done()) {
        tasks_[v].rethrow_if_failed();
        // Include trailing sleeps so "all nodes return in the same
        // round" (Lemma 1, Condition 1) is observable in the metrics.
        node.finish_round =
            clock_after(v, current_round_, ctx.pending_sleep_, 0);
        if (options_.trace != nullptr) {
          options_.trace->on_event({TraceEventKind::kTerminate,
                                    current_round_, v, kInvalidVertex,
                                    MsgKind::kCustom, 0});
        }
      } else {
        const std::uint64_t next =
            clock_after(v, current_round_, ctx.requested_sleep_, 1);
        wake_buckets_[next].push_back(v);
      }
    }
  }

  metrics_.makespan = 0;
  for (const NodeMetrics& m : metrics_.node) {
    metrics_.makespan = std::max(metrics_.makespan, m.finish_round);
  }
  return metrics_;
}

std::vector<std::int64_t> Network::outputs() const {
  std::vector<std::int64_t> out(graph_.num_vertices(), -1);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    out[v] = contexts_[v]->output();
  }
  return out;
}

RunResult run_protocol(const Graph& g, std::uint64_t seed,
                       const Protocol& protocol, NetworkOptions options) {
  Network net(g, seed, options);
  net.run(protocol);
  return {net.metrics(), net.outputs()};
}

}  // namespace slumber::sim
