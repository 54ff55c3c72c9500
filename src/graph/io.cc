#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.h"

namespace slumber::io {

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// util::parse_uint under the io.h error contract: `token` must be a
/// whole decimal integer in [lo, hi], checked before any narrowing (so
/// "-1" cannot wrap to 2^64 - 1, nor 2^32 + 2 to 2). Otherwise throws
/// std::runtime_error naming the reader, `what` and the token.
std::uint64_t parse_number(const std::string& token, std::uint64_t lo,
                           std::uint64_t hi, const char* reader,
                           const char* what) {
  std::uint64_t value = 0;
  std::ostringstream why;  // "error: <what>: <reason>\n"
  if (!util::parse_uint(token, what, &value, lo, hi, why)) {
    std::string message = why.str();
    message.erase(0, message.find(' ') + 1);
    if (!message.empty() && message.back() == '\n') message.pop_back();
    throw std::runtime_error(std::string(reader) + ": " + message);
  }
  return value;
}

VertexId parse_vertex_count(const std::string& token, const char* reader) {
  return static_cast<VertexId>(parse_number(
      token, 0, std::numeric_limits<VertexId>::max(), reader, "vertex count"));
}

/// A vertex id in [lo, lo + n), the file's 0- or 1-based numbering of a
/// graph on n vertices.
VertexId parse_vertex(const std::string& token, std::uint64_t lo, VertexId n,
                      const char* reader) {
  if (n == 0) {
    throw std::runtime_error(std::string(reader) + ": edge '" + token +
                             "' in a graph with no vertices");
  }
  return static_cast<VertexId>(
      parse_number(token, lo, lo + n - 1, reader, "vertex"));
}

/// The edge {u, v}; `u_token` is u as the file spells it.
Edge checked_edge(VertexId u, VertexId v, const std::string& u_token,
                  const char* reader) {
  if (u == v) {
    throw std::runtime_error(std::string(reader) + ": self-loop at vertex " +
                             u_token);
  }
  return {u, v};
}

/// The edge count comes from the file, so reserve at most 2^20 edges
/// (8 MB) up front and let push_back grow past that as edges arrive:
/// a header that lies about m cannot allocate ahead of the data.
std::size_t bounded_reserve(std::uint64_t m) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(m, 1u << 20));
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge(
      [&](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  constexpr const char* kReader = "read_edge_list";
  std::string n_token;
  std::string m_token;
  if (!(in >> n_token >> m_token)) {
    throw std::runtime_error("read_edge_list: missing header");
  }
  const VertexId n = parse_vertex_count(n_token, kReader);
  const std::uint64_t m =
      parse_number(m_token, 0, kMaxU64, kReader, "edge count");
  std::vector<Edge> edges;
  edges.reserve(bounded_reserve(m));
  for (std::uint64_t i = 0; i < m; ++i) {
    std::string u_token;
    std::string v_token;
    if (!(in >> u_token >> v_token)) {
      throw std::runtime_error("read_edge_list: truncated edge list");
    }
    const VertexId u = parse_vertex(u_token, 0, n, kReader);
    const VertexId v = parse_vertex(v_token, 0, n, kReader);
    edges.push_back(checked_edge(u, v, u_token, kReader));
  }
  return Graph(n, std::move(edges));
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge([&](VertexId u, VertexId v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
}

Graph read_dimacs(std::istream& in) {
  constexpr const char* kReader = "read_dimacs";
  std::string line;
  VertexId n = 0;
  std::uint64_t m = 0;
  bool have_header = false;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'p') {
      if (have_header) {
        throw std::runtime_error("read_dimacs: second problem line");
      }
      std::string kind;
      std::string n_token;
      std::string m_token;
      if (!(ls >> kind >> n_token >> m_token) || kind != "edge") {
        throw std::runtime_error("read_dimacs: bad problem line");
      }
      n = parse_vertex_count(n_token, kReader);
      m = parse_number(m_token, 0, kMaxU64, kReader, "edge count");
      have_header = true;
      edges.reserve(bounded_reserve(m));
    } else if (tag == 'e') {
      std::string u_token;
      std::string v_token;
      if (!have_header || !(ls >> u_token >> v_token)) {
        throw std::runtime_error("read_dimacs: bad edge line");
      }
      if (edges.size() == m) {
        throw std::runtime_error("read_dimacs: more edge lines than the " +
                                 std::to_string(m) + " in the header");
      }
      // 1-based on disk.
      const VertexId u = parse_vertex(u_token, 1, n, kReader) - 1;
      const VertexId v = parse_vertex(v_token, 1, n, kReader) - 1;
      edges.push_back(checked_edge(u, v, u_token, kReader));
    } else {
      throw std::runtime_error("read_dimacs: unknown line tag");
    }
  }
  if (!have_header) throw std::runtime_error("read_dimacs: missing header");
  if (edges.size() != m) {
    throw std::runtime_error("read_dimacs: truncated: the header promises " +
                             std::to_string(m) + " edges, the file has " +
                             std::to_string(edges.size()));
  }
  return Graph(n, std::move(edges));
}

void write_dot(std::ostream& out, const Graph& g,
               std::span<const VertexId> highlight) {
  std::vector<bool> marked(g.num_vertices(), false);
  for (VertexId v : highlight) marked[v] = true;
  out << "graph G {\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (marked[v]) out << " [style=filled, fillcolor=lightblue]";
    out << ";\n";
  }
  g.for_each_edge([&](VertexId u, VertexId v) {
    out << "  " << u << " -- " << v << ";\n";
  });
  out << "}\n";
}

std::string to_string(const Graph& g) {
  std::ostringstream out;
  write_edge_list(out, g);
  return out.str();
}

Graph from_string(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

}  // namespace slumber::io
