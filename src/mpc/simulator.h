#ifndef LAMP_MPC_SIMULATOR_H_
#define LAMP_MPC_SIMULATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "distribution/policy.h"
#include "mpc/stats.h"
#include "relational/instance.h"
#include "transport/transport.h"

/// \file
/// The MPC execution model (Section 3 of the paper): p servers, rounds of a
/// communication phase (every server routes each of its facts to a set of
/// servers) followed by a computation phase (local function of the received
/// data). What the simulator *measures* — per-server received tuples — is
/// exactly the quantity the surveyed load bounds speak about.
///
/// A round's communication phase is two exported per-server steps: the
/// route step (RouteServer) for every source, then the merge step
/// (MergeServer) for every target. tools/mpc_procs runs the same two steps
/// once per OS process around a socket mesh, which is why its loads equal
/// the simulator's.
///
/// Execution is parallel across the lamp::par global pool and
/// *deterministic*: sources route into their own outboxes, and every
/// target merges in the serial source-ascending order, so outputs, dedup
/// decisions and RoundStats are byte-identical at every thread count
/// (DESIGN.md §lamp::par). The Router and Computer callbacks are invoked
/// concurrently when the pool has more than one lane and must therefore
/// be thread-safe for distinct servers (the stock policies and CQ
/// evaluation are; they share only const state).
///
/// Accounting convention: the load of a server in a round is the number of
/// distinct tuples it receives from *other* servers. A fact a server routes
/// to itself persists into the next phase but is not communication (multi-
/// round algorithms use self-routing to keep relations in place for later
/// rounds). With round-robin initial placement, accidental self-hits are a
/// 1/p effect on measured loads.
///
/// Backend selection: transport::ActiveKind() picks where the routed facts
/// travel. The in-process default hands the route step's batches straight
/// to the merge step; tcp/uds serialize each nonempty (source, target)
/// batch into one lamp.wire.v1 kFactBatch frame per round, ship it through
/// the loopback relay (src/transport) and merge the decoded rows. Either
/// way the merge order is the same, so outputs, dedup decisions and
/// RoundStats are byte-identical across backends. RoundStats::wire_bytes
/// records the serialized frame bytes each server received: the merge
/// step computes them in closed form, and the socket path checks that the
/// bytes it measured agree.

namespace lamp {

/// Result of a complete MPC execution: the query output plus per-round
/// load statistics.
struct MpcRunResult {
  Instance output;
  RunStats stats;
};

/// Simulates one MPC cluster execution.
class MpcSimulator {
 public:
  /// Routes one fact (held by server \p source) to target servers.
  /// Returning an empty vector drops the fact.
  using Router =
      std::function<std::vector<NodeId>(NodeId source, const Fact& fact)>;

  /// Computation phase of one server: transforms the received local
  /// instance into (next round's local state, output facts).
  struct ComputeResult {
    Instance next_state;
    Instance output;
  };
  using Computer =
      std::function<ComputeResult(NodeId server, const Instance& received)>;

  /// One source's rows bound for one target, as references into the
  /// source's local instance, in (relation, row, route-target) order.
  using Batch = std::vector<transport::RowRef>;
  /// A source's batches, indexed by target server.
  using Outbox = std::vector<Batch>;

  /// What one target received in a round (its RoundStats entries).
  struct MergeStats {
    std::size_t load = 0;
    std::size_t wire_bytes = 0;
  };

  explicit MpcSimulator(std::size_t num_servers);

  /// Server \p server's share of \p global under LoadInput's round-robin
  /// placement: fact i of the (relation, insertion) order goes to server
  /// i % \p num_servers.
  static Instance InputShare(const Instance& global, std::size_t num_servers,
                             NodeId server);

  /// Route step: routes every row of \p local (held by \p source) with
  /// \p route into \p out, resized to \p num_servers batches. The batches
  /// reference \p local, which must outlive them unchanged.
  static void RouteServer(const Router& route, NodeId source,
                          const Instance& local, std::size_t num_servers,
                          Outbox& out);

  /// Merge step of \p target in round \p round: \p inbox[s] is the batch
  /// source s routed to \p target (may be nullptr), \p inbox[target] its
  /// self-routed rows. Counts and reserves the rows per relation in
  /// \p into, then inserts them in ascending source order. Load and wire
  /// bytes (one kFactBatch frame per nonempty batch) count other sources.
  static MergeStats MergeServer(NodeId target, std::uint32_t round,
                                const std::vector<const Batch*>& inbox,
                                Instance& into);

  /// Receives the next frame from \p source at \p target, which must be a
  /// kFactBatch of round \p round, decodes it into \p rows and replaces
  /// \p refs with references into \p rows. Returns the frame's wire size.
  static std::size_t ReceiveBatch(transport::Transport& wire, NodeId target,
                                  NodeId source, std::uint32_t round,
                                  transport::FactBatchRows& rows, Batch& refs);

  /// Distributes \p global round-robin over the servers ("the input data
  /// is initially partitioned among the p servers"; see InputShare).
  /// Resets stats/output.
  void LoadInput(const Instance& global);

  /// Places \p local directly on each server (for tests). Resets stats.
  void LoadLocals(std::vector<Instance> locals);

  /// Executes one round: the route step for every server with \p route,
  /// the merge step for every server, then \p compute per server on the
  /// received data. Load statistics for the round are appended to
  /// stats().
  void RunRound(const Router& route, const Computer& compute);

  /// A computation phase that evaluates nothing and keeps the received
  /// data as next state (pure reshuffle).
  static Computer KeepAll();

  std::size_t num_servers() const { return locals_.size(); }
  const std::vector<Instance>& locals() const { return locals_; }
  const Instance& output() const { return output_; }
  const RunStats& stats() const { return stats_; }

  /// Moves the output and statistics out of a finished run, leaving the
  /// simulator without them: `return std::move(sim).TakeResult();`.
  MpcRunResult TakeResult() &&;

  /// Union of all server states (for assertions).
  Instance GlobalState() const;

 private:
  /// The socket transport for this cluster, created on the first RunRound
  /// when transport::ActiveKind() is a socket backend (nullptr otherwise).
  transport::Transport* WireTransport();

  std::vector<Instance> locals_;
  Instance output_;
  RunStats stats_;
  std::unique_ptr<transport::Transport> transport_;
};

}  // namespace lamp

#endif  // LAMP_MPC_SIMULATOR_H_
