#include "bulk/engine.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/obs.h"

namespace slumber::bulk {

BulkEngine::BulkEngine(const Graph& g, std::uint64_t seed, BulkOptions options)
    : graph_(g),
      options_(options),
      seed_(seed),
      master_(seed),
      fault_(options.fault, seed, g.num_vertices()),
      lossy_(fault_.has_loss()) {
  const VertexId n = g.num_vertices();
  if (options_.node_metrics) metrics_.node.resize(n);
  if (fault_.has_crashes()) crashed_.assign(n, 0);
  if (fault_.has_live_churn()) departed_.assign(n, 0);
  outputs_.assign(n, -1);
  // With a multi-lane pool, each lane initializes (and so places) the
  // slice of the hot per-node arrays that parallel_for_range will hand
  // it on every subsequent sharded scan. Contents are identical either
  // way.
  decided_ = util::sharded_fill<std::uint8_t>(n, 0, options_.pool);
  awake_bits_.assign((std::size_t{n} + 63) / 64, 0);
}

void BulkEngine::merge_chunk(const BulkChunk& chunk) {
  metrics_.total_messages += chunk.total_messages_;
  metrics_.dropped_messages += chunk.dropped_messages_;
  metrics_.injected_losses += chunk.injected_losses_;
  metrics_.congest_violations += chunk.congest_violations_;
  metrics_.max_message_bits_seen =
      std::max(metrics_.max_message_bits_seen, chunk.max_message_bits_seen_);
  virtual_makespan_ = std::max(virtual_makespan_, chunk.virtual_makespan_);
}

ScanResult BulkEngine::scan_awake(
    std::span<const VertexId> vs,
    const std::function<void(BulkChunk&, std::span<const VertexId>)>& fn) {
  return scan_range(vs.size(),
                    [&](BulkChunk& chunk, std::size_t begin, std::size_t end) {
                      fn(chunk, vs.subspan(begin, end - begin));
                    });
}

ScanResult BulkEngine::scan_range(
    std::size_t total,
    const std::function<void(BulkChunk&, std::size_t begin, std::size_t end)>&
        fn) {
  ScanResult result;
  if (total == 0) return result;
  util::ThreadPool* const pool = lanes(total);
  const std::size_t chunks = util::chunk_count(pool, total);
  // Telemetry only: spans for cutoff-sized scans, with a scan id that
  // groups this scan's chunk spans in the export (imbalance stats).
  // Sub-cutoff scans stay span-free so 10^7-node runs emit thousands of
  // events, not hundreds of millions. Never read by any decision.
  const bool traced = obs::enabled() && total >= options_.parallel_cutoff;
  const std::uint64_t scan_id = traced ? ++obs_scan_seq_ : 0;
  obs::Span scan_span(traced ? "engine" : nullptr, "scan", scan_id);
  const char* const chunk_cat = traced && chunks > 1 ? "engine" : nullptr;
  // Chunk 0 lives here, so a single-chunk scan allocates nothing.
  BulkChunk first(this);
  std::vector<BulkChunk> rest(chunks - 1, BulkChunk(this));
  util::for_each_chunk(
      pool, total, [&](std::size_t c, std::size_t begin, std::size_t end) {
        obs::Span chunk_span(chunk_cat, "chunk", scan_id);
        fn(c == 0 ? first : rest[c - 1], begin, end);
      });
  // Deterministic reduction in chunk index order. Every merged quantity
  // is an integer sum or max, and the keep()/drop() lists concatenate
  // in input order, so the result is bitwise independent of the lane
  // count.
  merge_chunk(first);
  result.user = first.user_;
  result.kept = std::move(first.kept_);
  result.dropped = std::move(first.dropped_);
  if (rest.empty()) return result;
  std::size_t total_kept = result.kept.size();
  std::size_t total_dropped = result.dropped.size();
  for (const BulkChunk& part : rest) {
    total_kept += part.kept_.size();
    total_dropped += part.dropped_.size();
  }
  result.kept.reserve(total_kept);
  result.dropped.reserve(total_dropped);
  for (const BulkChunk& part : rest) {
    merge_chunk(part);
    result.user += part.user_;
    result.kept.insert(result.kept.end(), part.kept_.begin(),
                       part.kept_.end());
    result.dropped.insert(result.dropped.end(), part.dropped_.begin(),
                          part.dropped_.end());
  }
  return result;
}

void BulkEngine::mark_awake(std::span<const VertexId> awake) {
  obs::Span span(obs::enabled() && awake.size() >= options_.parallel_cutoff
                     ? "engine"
                     : nullptr,
                 "mark_awake", awake.size());
  std::uint64_t* const words = awake_bits_.data();
  if (awake_large_) {
    std::fill(awake_bits_.begin(), awake_bits_.end(), 0);
  } else {
    for (const VertexId v : awake_copy_) {
      words[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    }
  }
  awake_large_ = awake.size() > awake_bits_.size();
  if (awake_large_) {
    awake_copy_.clear();
  } else {
    awake_copy_.assign(awake.begin(), awake.end());
  }
  // A lone chunk owns every word it touches and sets bits plainly.
  util::ThreadPool* const pool = lanes(awake.size());
  if (util::chunk_count(pool, awake.size()) <= 1) {
    for (const VertexId v : awake) {
      words[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
    return;
  }
  // Two chunks can hold members of one word (at a chunk boundary, or
  // anywhere in an unsorted list), so each chunk ORs a run of
  // consecutive members that share a word into a register and flushes
  // the run with one atomic OR. Relaxed suffices: the pool's join
  // orders every flush before the scans that read the set.
  util::for_each_chunk(
      pool, awake.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t i = begin;
        while (i < end) {
          const std::size_t word = awake[i] >> 6;
          std::uint64_t run = 0;
          for (; i < end && (awake[i] >> 6) == word; ++i) {
            run |= std::uint64_t{1} << (awake[i] & 63);
          }
          std::atomic_ref(words[word]).fetch_or(run, std::memory_order_relaxed);
        }
      });
}

bool BulkEngine::begin_round(std::vector<VertexId>& awake, VirtualRound round,
                             AwakeSet set,
                             const std::function<void(VertexId)>& on_reenter) {
  const bool dynamic_run = dynamic();
  if (dynamic_run) {
    awake = apply_dynamics(std::move(awake), round, on_reenter);
  }
  if (awake.empty()) return false;
  if (set == AwakeSet::kNew || dynamic_run) mark_awake(awake);
  charge_round(awake, round);
  return true;
}

void BulkEngine::charge_round(std::span<const VertexId> awake,
                              VirtualRound round) {
  if (obs::enabled()) {
    // Out-of-band progress + occupancy samples (write-only telemetry).
    obs::progress_round(static_cast<double>(round));
    if (awake.size() >= options_.parallel_cutoff) {
      obs::counter("awake_set", static_cast<double>(awake.size()));
    }
    if (fault_.has_burst()) {
      // Epoch rollovers of the burst-channel clock: the instants at
      // which per-link burst states may transition. Write-only.
      const VirtualRound epoch = round / fault_.plan()->burst.epoch_len;
      if (epoch != obs_burst_epoch_) {
        obs_burst_epoch_ = epoch;
        obs::instant("fault", "burst_epoch", saturate_round(epoch));
      }
    }
  }
  ++metrics_.distinct_active_rounds;
  metrics_.total_awake_node_rounds += awake.size();
  virtual_makespan_ = std::max(virtual_makespan_, round);
  if (!options_.node_metrics) return;
  util::for_each_chunk(
      lanes(awake.size()), awake.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ++metrics_.node[awake[i]].awake_rounds;
        }
      });
}

std::vector<VertexId> BulkEngine::apply_dynamics(
    std::vector<VertexId> awake, VirtualRound round,
    const std::function<void(VertexId)>& on_reenter) {
  const bool crashy_run = fault_.has_crashes();
  const bool churny = fault_.has_live_churn();
  if (!crashy_run && !churny) return awake;
  const bool recovering = fault_.has_recovery();
  const RoundHalves halves = round_halves(round);
  const std::uint64_t lo = halves.lo;
  const std::uint64_t hi = halves.hi;
  const std::size_t before = awake.size();
  obs::Span span(obs::enabled() && before >= options_.parallel_cutoff
                     ? "fault"
                     : nullptr,
                 "dynamics", before);
  // Phase 1 (sharded): removal draws over the participating set.
  // Removed nodes land on the chunk drop() lists exactly when a
  // comeback must be scheduled, giving phase 2 a chunk-order (lane-
  // count-independent) sequence to walk.
  ScanResult scan;
  if (before > 0) {
    scan = scan_awake(
        awake, [&](BulkChunk& chunk, std::span<const VertexId> part) {
          for (const VertexId v : part) {
            // Already-down nodes are dropped silently (the SleepingMIS
            // recursion's ancestor member lists legitimately go stale
            // when a node leaves inside a child frame).
            if (down(v)) continue;
            if (crashy_run && fault_.crashes_now(v, lo, hi)) {
              crashed_[v] = 1;
              if (options_.node_metrics) metrics_.node[v].crashed = true;
              chunk.finish(v, round);
              chunk.bump();
              if (recovering) chunk.drop(v);
              continue;
            }
            if (churny) {
              if (fault_.live_leave(v, lo, hi).leaves) {
                departed_[v] = 1;
                chunk.finish(v, round);
                chunk.drop(v);
                continue;
              }
            }
            chunk.keep(v);
          }
        });
    metrics_.crashed_nodes += scan.user;
  }
  // Phase 2 (serial): schedule comebacks for this round's removals. The
  // keyed draws are recomputed here rather than smuggled out of the
  // chunks — same stream, same bits, and the scan lambda stays a pure
  // filter.
  std::uint64_t leaves = 0;
  for (const VertexId v : scan.dropped) {
    VirtualRound due = 0;
    if (crashed(v)) {
      // Just crashed with recovery enabled (only those were drop()ed).
      due = round + fault_.recover_downtime(v, lo, hi);
    } else {
      ++leaves;
      const fault::LeaveDraw draw = fault_.live_leave(v, lo, hi);
      if (!draw.rejoins) continue;
      due = round + draw.downtime;
    }
    pending_returns_.push_back({due, v});
    std::push_heap(pending_returns_.begin(), pending_returns_.end(),
                   returns_later);
  }
  metrics_.live_leaves += leaves;
  // Phase 3 (serial): re-admit every down node whose downtime elapsed,
  // in (due round, node id) order. Re-entrants come back undecided; the
  // protocol resets its own per-node state in on_reenter.
  std::vector<VertexId> result = std::move(scan.kept);
  std::uint64_t reentries = 0;
  while (!pending_returns_.empty() && pending_returns_.front().at <= round) {
    std::pop_heap(pending_returns_.begin(), pending_returns_.end(),
                  returns_later);
    const VertexId v = pending_returns_.back().node;
    pending_returns_.pop_back();
    if (crashed(v)) {
      crashed_[v] = 0;
      if (options_.node_metrics) metrics_.node[v].crashed = false;
      ++metrics_.recovered_nodes;
    } else {
      departed_[v] = 0;
      ++metrics_.live_rejoins;
    }
    decided_[v] = 0;
    outputs_[v] = -1;
    if (on_reenter) on_reenter(v);
    result.push_back(v);
    ++reentries;
  }
  if (obs::enabled() && (leaves > 0 || reentries > 0)) {
    // Cumulative event gauges for the export timeline (write-only).
    if (metrics_.live_leaves > 0) {
      obs::counter("live_leaves", static_cast<double>(metrics_.live_leaves));
    }
    if (metrics_.live_rejoins > 0) {
      obs::counter("live_rejoins", static_cast<double>(metrics_.live_rejoins));
    }
    if (metrics_.recovered_nodes > 0) {
      obs::counter("recovered_nodes",
                   static_cast<double>(metrics_.recovered_nodes));
    }
  }
  // The coroutine scheduler counts a round whose wake bucket was
  // non-empty as active even when every woken node crashes;
  // begin_round charges no empty set, so it would miss it.
  if (result.empty() && before > 0) ++metrics_.distinct_active_rounds;
  return result;
}

BulkResult BulkEngine::take_result() {
  if (options_.node_metrics) {
    metrics_.makespan = 0;
    for (const sim::NodeMetrics& m : metrics_.node) {
      metrics_.makespan = std::max(metrics_.makespan, m.finish_round);
    }
  } else {
    metrics_.makespan = saturate_round(virtual_makespan_);
  }
  BulkResult result;
  result.metrics = std::move(metrics_);
  result.outputs = std::move(outputs_);
  result.virtual_makespan = virtual_makespan_;
  result.crashed = std::move(crashed_);
  result.departed = std::move(departed_);
  return result;
}

std::vector<std::uint8_t> BulkResult::alive_mask() const {
  if (crashed.empty() && departed.empty()) return {};
  std::vector<std::uint8_t> alive(outputs.size());
  for (std::size_t v = 0; v < alive.size(); ++v) {
    alive[v] = (crashed.empty() || crashed[v] == 0) &&
               (departed.empty() || departed[v] == 0);
  }
  return alive;
}

BulkResult run_bulk(const Graph& g, std::uint64_t seed, BulkProtocol& protocol,
                    BulkOptions options) {
  BulkEngine engine(g, seed, options);
  protocol.run(engine);
  return engine.take_result();
}

}  // namespace slumber::bulk
