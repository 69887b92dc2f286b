#ifndef LAMP_MPC_JOIN_STRATEGIES_H_
#define LAMP_MPC_JOIN_STRATEGIES_H_

#include <cstdint>
#include <vector>

#include "cq/cq.h"
#include "mpc/simulator.h"
#include "mpc/stats.h"
#include "relational/instance.h"

/// \file
/// The two single-round binary-join strategies of Example 3.1:
///
///  (1a) *repartition join*: hash both relations on the shared join
///       variables; O(m/p) load without skew but degrades to O(m) when a
///       join value is heavy;
///  (1b) *fragment-replicate join* (Ullman's drug-interaction pattern, used
///       by DYM-n): split R into sqrt(p) row groups and S into sqrt(p)
///       column groups and give every (row, column) pair a server;
///       O(m/sqrt(p)) load independent of skew.

namespace lamp {

/// Positions (within each of the two body atoms) of the shared join
/// variables of a binary join query.
struct JoinShape {
  std::vector<std::size_t> left_positions;   // In body()[0].
  std::vector<std::size_t> right_positions;  // In body()[1].
};

/// Validates that \p query is a binary join the strategies support (two
/// distinct atoms sharing at least one variable) and returns the
/// join-key positions.
JoinShape AnalyzeBinaryJoin(const ConjunctiveQuery& query);

/// The exact routing function RepartitionJoin runs, exposed so
/// out-of-process runners (tools/mpc_procs) route byte-identically to
/// the in-process reference. The returned callable is self-contained:
/// it captures no reference to \p query.
MpcSimulator::Router RepartitionRouter(const ConjunctiveQuery& query,
                                       std::size_t num_servers,
                                       std::uint64_t seed);

/// The exact routing function FragmentReplicateJoin runs (grid of
/// g = floor(sqrt(num_servers)) rows x g columns). Self-contained like
/// RepartitionRouter.
MpcSimulator::Router FragmentReplicateRouter(const ConjunctiveQuery& query,
                                             std::size_t num_servers,
                                             std::uint64_t seed);

/// Example 3.1(1a). \p query must be a join of exactly two atoms sharing
/// at least one variable (e.g. H(x,y,z) <- R(x,y), S(y,z)).
MpcRunResult RepartitionJoin(const ConjunctiveQuery& query,
                             const Instance& input, std::size_t num_servers,
                             std::uint64_t seed = 0);

/// Example 3.1(1b). Uses the largest g with g*g <= num_servers and
/// arranges the g*g servers as a grid; the first atom's facts go to a
/// random-but-deterministic row group, the second atom's to a column
/// group. Load O(m/g) regardless of skew.
MpcRunResult FragmentReplicateJoin(const ConjunctiveQuery& query,
                                   const Instance& input,
                                   std::size_t num_servers,
                                   std::uint64_t seed = 0);

}  // namespace lamp

#endif  // LAMP_MPC_JOIN_STRATEGIES_H_
