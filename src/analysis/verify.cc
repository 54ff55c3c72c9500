#include "analysis/verify.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "util/alloc.h"

namespace slumber::analysis {

std::string MisCheck::describe() const {
  if (ok()) return "valid MIS";
  std::string s = "INVALID:";
  if (!all_decided) s += " undecided-nodes";
  if (!is_independent) s += " not-independent";
  if (!is_maximal) s += " not-maximal";
  return s;
}

MisCheck check_mis(const Graph& g, const std::vector<std::int64_t>& outputs,
                   util::ThreadPool* pool,
                   std::span<const std::uint8_t> alive) {
  const std::size_t n = g.num_vertices();
  const bool bad_outputs = outputs.size() != n;
  if (bad_outputs || (!alive.empty() && alive.size() != n)) {
    throw std::invalid_argument(
        std::string("check_mis: ") + (bad_outputs ? "outputs" : "alive mask") +
        " has " + std::to_string(bad_outputs ? outputs.size() : alive.size()) +
        " entries for a graph of " + std::to_string(n) + " vertices");
  }
  obs::Span span("analysis", "check_mis", n);
  // Pass 1 packs the alive nodes that output 1 into one bit per node
  // (n/8 bytes, so pass 2's neighbor tests hit cache) and flags alive
  // undecided nodes. Pass 2 walks each alive node's CSR range: an MIS
  // member with an MIS neighbor breaks independence, a non-member
  // without one breaks maximality. Blocks are whole words, so pass 1
  // stores only its own; each block stores its flags, merged after.
  enum : std::uint8_t { kUndecided = 1, kDependent = 2, kUndominated = 4 };
  constexpr std::size_t kBlock = Graph::kCsrCheckBlock;
  constexpr std::size_t kWords = kBlock / 64;
  static_assert(kBlock % 64 == 0, "a block must be whole bitset words");
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  util::PodVector<std::uint64_t> in_mis(blocks * kWords);  // pass 1 fills it
  std::vector<std::uint8_t> flags(blocks, 0);
  const std::uint8_t* live = alive.empty() ? nullptr : alive.data();
  const auto member = [&in_mis](std::size_t v) {
    return ((in_mis[v >> 6] >> (v & 63)) & 1) != 0;
  };
  const auto pack_block = [&](std::size_t b) {
    bool undecided = false;
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::size_t base = b * kBlock + i * 64;
      std::uint64_t word = 0;
      for (std::size_t v = base; v < std::min(n, base + 64); ++v) {
        const bool up = live == nullptr || live[v] != 0;
        undecided |= up && static_cast<std::uint64_t>(outputs[v]) > 1;
        word |= std::uint64_t{up && outputs[v] == 1} << (v - base);
      }
      in_mis[b * kWords + i] = word;
    }
    flags[b] = undecided ? kUndecided : 0;
  };
  const auto check_block = [&](std::size_t b) {
    std::uint8_t bad = 0;
    for (std::size_t v = b * kBlock; v < std::min(n, (b + 1) * kBlock); ++v) {
      if (live != nullptr && live[v] == 0) continue;
      const auto nbrs = g.neighbors(static_cast<VertexId>(v));
      if (std::any_of(nbrs.begin(), nbrs.end(), member) == member(v)) {
        bad |= member(v) ? kDependent : kUndominated;
      }
    }
    flags[b] |= bad;
  };
  util::for_each_index(pool, blocks, pack_block);
  util::for_each_index(pool, blocks, check_block);
  std::uint8_t merged = 0;
  for (const std::uint8_t f : flags) merged |= f;
  return {.is_independent = (merged & kDependent) == 0,
          .is_maximal = (merged & kUndominated) == 0,
          .all_decided = (merged & kUndecided) == 0};
}

bool check_coloring(const Graph& g, const std::vector<std::int64_t>& colors) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (colors[v] < 0 || colors[v] > g.degree(v)) return false;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v && colors[u] == colors[v]) return false;
    }
  }
  return true;
}

std::vector<VertexId> mis_vertices(const std::vector<std::int64_t>& outputs) {
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < outputs.size(); ++v) {
    if (outputs[v] == 1) vertices.push_back(v);
  }
  return vertices;
}

}  // namespace slumber::analysis
