#ifndef LAMP_OBS_DIST_MERGE_H_
#define LAMP_OBS_DIST_MERGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/dist/shard.h"
#include "obs/json.h"

/// \file
/// Shard merging: reassembles the trace shards of one run (obs/dist/shard.h)
/// into a single trace with aligned clocks, matched send/recv pairs and
/// wire-latency statistics. A MergedTrace is what every trace consumer
/// reads — trace_dump, the Chrome export, the causal report — whether it
/// came from the p shards of an `mpc_procs` mesh or from one local Tracer
/// (LocalTrace: one shard, nothing to align or pair).
///
/// Join key. A sender stamps every cross-process fact batch with a span
/// id (its per-process send sequence number) and emits a `dist.send`
/// event; the kTraceCtx wire frame carries (trace id, span, round) to the
/// receiver, which emits `dist.recv` with the *sender's* rank and span.
/// (sender rank, span) is globally unique, so the merge is an exact
/// equi-join — no heuristics, and unmatched events are counted, never
/// guessed at.
///
/// Clock alignment, in two steps:
///  1. *Estimate.* Rank 0 measured the seed-exchange fold lap
///     [ring_t0_ns, ring_t1_ns] on its own clock; the fold token visited
///     ranks in ring order, so rank r's local `ring_fold_ns` is modelled
///     as rank-0 time t0 + (r/p)·lap. The difference is the initial
///     offset estimate.
///  2. *Repair.* Estimates are only as good as the uniform-hop model, so
///     the merger then enforces causality as a system of difference
///     constraints: for every matched pair i→j,
///         offset_j - offset_i >= send_ns - recv_ns + min_latency_ns.
///     Longest-path relaxation (Bellman–Ford over pair constraints)
///     yields the smallest adjustment that makes every aligned send
///     strictly precede its aligned recv. The system is always feasible
///     on causally-consistent shards: around any cycle of pairs the true
///     positive wire latencies telescope the constraint sum negative.
///     Offsets are then normalised so the smallest is 0 (timestamps stay
///     unsigned); infeasibility — corrupt or mixed-run shards — is a
///     merge error, not a crash.
///
/// Merge invariants (checked by tests/dist_trace_test.cc and the
/// mpc_procs acceptance ctest):
///  * every matched pair has aligned send_ns < recv_ns;
///  * Lamport depths computed on the aligned order agree with causality
///    (a message's depth is strictly below its receiver's next send);
///  * pair order, depths and offsets are deterministic functions of the
///    shard contents (golden-pinnable).

namespace lamp::obs::dist {

/// One cross-process message: a `dist.send` joined with its `dist.recv`.
struct MatchedPair {
  std::uint32_t from = 0;      // Sender rank.
  std::uint32_t to = 0;        // Receiver rank.
  std::uint64_t span = 0;      // Sender's span id (join key with `from`).
  std::uint64_t round = 0;     // Logical MPC round.
  std::uint64_t send_ns = 0;   // Aligned send timestamp.
  std::uint64_t recv_ns = 0;   // Aligned recv timestamp (> send_ns).
  std::uint64_t depth = 0;     // Lamport depth of the message.
  std::uint32_t parent = 0;    // Pair index + 1 of the *deepest* delivery
                               // the sender had consumed before this send
                               // (the one that determined depth - 1);
                               // 0 = no prior delivery (root message).

  std::uint64_t latency_ns() const { return recv_ns - send_ns; }
};

struct MergeOptions {
  /// Minimum enforced aligned wire latency. 1 keeps "send strictly before
  /// recv" with the least possible distortion of the estimates.
  std::int64_t min_latency_ns = 1;
};

/// The reassembled run.
struct MergedTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t procs = 0;
  std::string label;
  std::vector<TraceShard> shards;        // Sorted by rank; one per rank.
  std::vector<std::int64_t> offset_ns;   // Per rank; add to local t_ns to
                                         // get aligned time. min is 0.
  std::vector<MatchedPair> pairs;        // Sorted by (send_ns, from, span).
  std::uint64_t unmatched_sends = 0;     // dist.send without a recv.
  std::uint64_t unmatched_recvs = 0;     // dist.recv without a send.
  std::uint64_t total_dropped = 0;       // Σ shard ring-buffer drops.
  std::uint64_t max_depth = 0;           // Deepest Lamport recv clock.

  /// Local shard time -> aligned mesh time.
  std::uint64_t AlignedNs(std::uint64_t rank, std::uint64_t t_ns) const {
    return t_ns + static_cast<std::uint64_t>(offset_ns[rank]);
  }
};

/// Merges one run's shards. Requirements: at least one shard; exactly the
/// ranks 0..procs-1, each once; consistent procs and trace_id. On
/// violation (or an infeasible constraint system) returns nullopt and
/// sets \p error when non-null.
std::optional<MergedTrace> MergeShards(std::vector<TraceShard> shards,
                                       std::string* error,
                                       const MergeOptions& options = {});

/// Loads the shard files of one run (ParseShard) and merges them: the one
/// trace loader. On an unreadable shard or a failed merge returns
/// nullopt and sets \p error when non-null.
std::optional<MergedTrace> LoadMergedTrace(
    const std::vector<std::string>& paths, std::string* error);

/// A local recording as a merged trace: ShardFromTracer(tracer) merged on
/// its own.
MergedTrace LocalTrace(const Tracer& tracer);

/// One shard event placed on the merged timeline.
struct AlignedEvent {
  std::uint64_t t_ns = 0;  // Aligned time.
  std::uint32_t rank = 0;
  const ShardEvent* event = nullptr;  // Points into MergedTrace::shards.
};

/// Every shard event, clock-aligned and in time order; ties keep rank
/// order, then per-shard emission order (deterministic for golden pins).
std::vector<AlignedEvent> AlignedEvents(const MergedTrace& merged);

/// Percentile summary of pair latencies.
struct LatencyStats {
  std::size_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

/// End-to-end stats over every matched pair.
LatencyStats EndToEndLatency(const MergedTrace& merged);

/// Per-round stats, ascending by round.
struct RoundLatency {
  std::uint64_t round = 0;
  LatencyStats stats;
};
std::vector<RoundLatency> RoundLatencies(const MergedTrace& merged);

/// "lamp.wirelat.v1": the latency summary fed into audit/bench JSON.
JsonValue LatencySummaryJson(const MergedTrace& merged);

/// "lamp.merged_trace.v1": full merged document (offsets, per-shard drop
/// counts, matched pairs, latency summary). Deterministic for
/// deterministic shards — the golden-pin target.
JsonValue MergedTraceJson(const MergedTrace& merged);

/// Chrome Trace Event export (load with chrome://tracing or Perfetto):
///   rank r            -> process lane pid r + 1 ("server r")
///   event tid t       -> thread track t in that lane ("thread t")
///   span              -> complete "X" slice; spans are stamped at their
///                        end with the duration in value
///   any other event   -> thread-scoped instant "i", args {a, b, value}
///   mpc.round_end     -> also counter "mpc.round_load" (tuples)
///   mpc.server_load   -> also counter "mpc.server_load" (tuples)
///   net.broadcast,
///   net.deliver       -> also counter "net.message_facts" (facts)
///   datalog.iteration -> also counter "datalog.delta" (facts)
///   transport.send,
///   transport.recv    -> also counter "transport.wire_bytes", cumulative
///                        "sent"/"received" series per rank (the slope is
///                        wire throughput)
///   matched pair      -> flow arrow ("s"/"f") bound to 1 µs "X" slices at
///                        send and recv.
JsonValue MergedChromeTrace(const MergedTrace& merged);

}  // namespace lamp::obs::dist

#endif  // LAMP_OBS_DIST_MERGE_H_
