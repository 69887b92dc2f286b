#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "relational/instance.h"

/// \file
/// Output oracle. Results are compared as order-independent digests of
/// their rows, so the check runs in linear time outside the timed region.
/// The closure references are computed here, independently of the Datalog
/// engine they check.

namespace perfbench {

/// Multiset digest of rows: the count plus a wrapping sum of strong row
/// hashes. Equal row sets give equal digests in any order.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void AddRow(const lamp::Value* row, std::size_t arity);
  void Add(const Digest& other) {
    count += other.count;
    sum += other.sum;
  }
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.count == b.count && a.sum == b.sum;
  }
  friend bool operator!=(const Digest& a, const Digest& b) { return !(a == b); }
};

/// Digest of the rows of \p relation in \p instance.
Digest DigestRelation(const lamp::Instance& instance,
                      lamp::RelationId relation);

/// Digest of every row of \p instance, relation ids included.
Digest DigestInstance(const lamp::Instance& instance);

using Edge = std::pair<std::int64_t, std::int64_t>;

/// The edges of binary \p relation in \p instance.
std::vector<Edge> EdgesOf(const lamp::Instance& instance,
                          lamp::RelationId relation);

/// Digest of the transitive closure of \p edges (one breadth-first search
/// per node).
Digest ClosureDigest(const std::vector<Edge>& edges);

/// Digest of the pairs (x, y) over the nodes of \p edges that are not in
/// its transitive closure.
Digest NonClosureDigest(const std::vector<Edge>& edges);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
