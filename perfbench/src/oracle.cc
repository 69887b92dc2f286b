#include "oracle.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/hash.h"

namespace perfbench {

namespace {

/// Dense node numbering plus adjacency lists.
struct Graph {
  std::vector<std::int64_t> label;
  std::vector<std::vector<std::size_t>> out;

  explicit Graph(const std::vector<Edge>& edges) {
    std::map<std::int64_t, std::size_t> id;
    for (const Edge& e : edges) {
      id.emplace(e.first, 0);
      id.emplace(e.second, 0);
    }
    for (auto& [value, index] : id) {
      index = label.size();
      label.push_back(value);
    }
    out.resize(label.size());
    for (const Edge& e : edges) out[id[e.first]].push_back(id[e.second]);
  }

  /// reach[v] is true iff a non-empty path leads from \p from to v.
  std::vector<bool> Reach(std::size_t from) const {
    std::vector<bool> reach(label.size(), false);
    std::deque<std::size_t> frontier(out[from].begin(), out[from].end());
    while (!frontier.empty()) {
      const std::size_t v = frontier.front();
      frontier.pop_front();
      if (reach[v]) continue;
      reach[v] = true;
      frontier.insert(frontier.end(), out[v].begin(), out[v].end());
    }
    return reach;
  }
};

Digest ClosureDigest(const std::vector<Edge>& edges, bool in_closure) {
  const Graph g(edges);
  Digest digest;
  for (std::size_t x = 0; x < g.label.size(); ++x) {
    const std::vector<bool> reach = g.Reach(x);
    for (std::size_t y = 0; y < g.label.size(); ++y) {
      if (reach[y] != in_closure) continue;
      const lamp::Value row[2] = {lamp::Value(g.label[x]),
                                  lamp::Value(g.label[y])};
      digest.AddRow(row, 2);
    }
  }
  return digest;
}

}  // namespace

void Digest::AddRow(const lamp::Value* row, std::size_t arity) {
  std::uint64_t h = lamp::HashMix(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    h = lamp::HashMix(h ^ static_cast<std::uint64_t>(row[i].v));
  }
  ++count;
  sum += h;
}

Digest DigestRelation(const lamp::Instance& instance,
                      lamp::RelationId relation) {
  Digest digest;
  const lamp::RowsView rows = instance.RowsOf(relation);
  for (std::size_t i = 0; i < rows.num_rows; ++i) {
    digest.AddRow(rows.Row(i), rows.arity);
  }
  return digest;
}

Digest DigestInstance(const lamp::Instance& instance) {
  Digest digest;
  for (lamp::RelationId rel = 0; rel < instance.NumRelationIds(); ++rel) {
    Digest part = DigestRelation(instance, rel);
    part.sum = lamp::HashMix(part.sum ^ lamp::HashMix(rel));
    digest.Add(part);
  }
  return digest;
}

std::vector<Edge> EdgesOf(const lamp::Instance& instance,
                          lamp::RelationId relation) {
  std::vector<Edge> edges;
  instance.ForEachRow(relation, [&edges](const lamp::Value* row) {
    edges.emplace_back(row[0].v, row[1].v);
  });
  return edges;
}

Digest ClosureDigest(const std::vector<Edge>& edges) {
  return ClosureDigest(edges, true);
}

Digest NonClosureDigest(const std::vector<Edge>& edges) {
  return ClosureDigest(edges, false);
}

}  // namespace perfbench
