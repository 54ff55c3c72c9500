#include "analysis/verify.h"

#include "obs/obs.h"

namespace slumber::analysis {

std::string MisCheck::describe() const {
  if (ok()) return "valid MIS";
  std::string s = "INVALID:";
  if (!all_decided) s += " undecided-nodes";
  if (!is_independent) s += " not-independent";
  if (!is_maximal) s += " not-maximal";
  return s;
}

MisCheck check_mis(const Graph& g, const std::vector<std::int64_t>& outputs) {
  obs::Span span("analysis", "check_mis", g.num_vertices());
  MisCheck check;
  check.all_decided = true;
  std::vector<std::uint8_t> in_mis(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (outputs[v] != 0 && outputs[v] != 1) {
      check.all_decided = false;
    } else {
      in_mis[v] = static_cast<std::uint8_t>(outputs[v]);
    }
  }
  const MisCheck structural = check_mis_indicator(g, in_mis);
  check.is_independent = structural.is_independent;
  check.is_maximal = structural.is_maximal;
  return check;
}

MisCheck check_mis_indicator(const Graph& g,
                             const std::vector<std::uint8_t>& in_mis) {
  MisCheck check;
  check.all_decided = true;
  check.is_independent = true;
  check.is_maximal = true;
  // Iterate the CSR (u < v visits each edge once) instead of edges():
  // this keeps the verifier usable on memory-diet graphs that dropped
  // the edge list (Graph::from_csr).
  for (VertexId v = 0; v < g.num_vertices() && check.is_independent; ++v) {
    if (!in_mis[v]) continue;
    for (VertexId u : g.neighbors(v)) {
      if (u > v && in_mis[u]) {
        check.is_independent = false;
        break;
      }
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_mis[v]) continue;
    bool dominated = false;
    for (VertexId u : g.neighbors(v)) {
      if (in_mis[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      check.is_maximal = false;
      break;
    }
  }
  return check;
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
