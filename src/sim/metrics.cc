#include "sim/metrics.h"

#include <algorithm>

namespace slumber::sim {
namespace {

/// Exact mean: the sum is kept in 128 bits and rounded once. A double
/// accumulator rounds every addition once the running sum passes 2^53,
/// which virtual finish rounds (~2^45 per node at n = 20,000) do.
template <typename Get>
double mean_over_nodes(const std::vector<NodeMetrics>& node, Get get) {
  if (node.empty()) return 0.0;
  unsigned __int128 sum = 0;
  for (const NodeMetrics& m : node) sum += get(m);
  return static_cast<double>(sum) / static_cast<double>(node.size());
}

}  // namespace

double Metrics::node_avg_awake() const {
  return mean_over_nodes(node,
                         [](const NodeMetrics& m) { return m.awake_rounds; });
}

std::uint64_t Metrics::worst_awake() const {
  std::uint64_t worst = 0;
  for (const NodeMetrics& m : node) worst = std::max(worst, m.awake_rounds);
  return worst;
}

double Metrics::node_avg_finish() const {
  return mean_over_nodes(node,
                         [](const NodeMetrics& m) { return m.finish_round; });
}

std::uint64_t Metrics::worst_finish() const {
  std::uint64_t worst = 0;
  for (const NodeMetrics& m : node) worst = std::max(worst, m.finish_round);
  return worst;
}

double Metrics::node_avg_decided() const {
  return mean_over_nodes(node,
                         [](const NodeMetrics& m) { return m.decided_round; });
}

double Metrics::node_avg_awake_at_decision() const {
  return mean_over_nodes(
      node, [](const NodeMetrics& m) { return m.awake_at_decision; });
}

std::vector<std::uint8_t> Metrics::alive_mask() const {
  std::vector<std::uint8_t> alive(node.size());
  for (std::size_t v = 0; v < node.size(); ++v) alive[v] = !node[v].crashed;
  return alive;
}

}  // namespace slumber::sim
