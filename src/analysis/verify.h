// Solution verifiers. Every test and every bench run self-checks its
// output through these; the algorithms are Monte Carlo (paper Theorem
// 1/2: correct w.h.p.), so violations must fail loudly, not skew data.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/thread_pool.h"

namespace slumber::analysis {

/// Detailed MIS check result.
struct MisCheck {
  bool is_independent = false;
  bool is_maximal = false;
  bool all_decided = false;  // every node output 0 or 1
  bool ok() const { return is_independent && is_maximal && all_decided; }
  std::string describe() const;
};

/// Checks protocol outputs (1 = in MIS, 0 = out, anything else =
/// undecided, which counts as out) on the subgraph of g induced by the
/// alive nodes: all of them when `alive` is empty, else those with
/// alive[v] != 0 (dead nodes' outputs are ignored). One bit-packed CSR
/// pass in blocks of Graph::kCsrCheckBlock vertices, which `pool`'s
/// lanes claim when given; the verdict is the same at every lane count.
/// Throws std::invalid_argument unless outputs has n entries and alive 0
/// or n.
MisCheck check_mis(const Graph& g, const std::vector<std::int64_t>& outputs,
                   util::ThreadPool* pool = nullptr,
                   std::span<const std::uint8_t> alive = {});

/// True iff `colors` is a proper coloring with colors[v] in
/// [0, deg(v)+1) (the Luby (Delta+1)-coloring contract).
bool check_coloring(const Graph& g, const std::vector<std::int64_t>& colors);

/// Vertices with output == 1.
std::vector<VertexId> mis_vertices(const std::vector<std::int64_t>& outputs);

}  // namespace slumber::analysis
