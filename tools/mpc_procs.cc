// mpc_procs: the MPC model on real processes — one OS process per server,
// a lamp.wire.v1 socket mesh between them, and the in-process MpcSimulator
// as the ground truth the distributed run must reproduce byte-for-byte.
//
// Topology: the parent connects one TCP or UDS socket pair per pair of
// ranks before it forks, then a seed token travels the ring rank -> succ
// (two laps: fold, then broadcast) so every process agrees on the routing
// seed before any data moves. Each worker then runs the simulator's own
// round on its share — InputShare placement, the route step, one
// kFactBatch frame to every other rank over a src/transport mesh
// endpoint, the merge step — so outputs, dedup decisions and per-server
// loads match MpcSimulator's: the comparison this tool exists to make.
// The mesh flushes its queued writes while it waits for input, so no
// round size can deadlock the workers on socket buffers.
//
// Wire accounting: each rank measures the kFactBatch frame bytes it
// *received* from other ranks. The simulator ships only nonempty batches;
// the mesh ships one frame per channel, because a receiver cannot know a
// peer had nothing for it. The measured bytes must equal the simulator's
// closed form plus one empty round-0 batch frame per idle channel; any
// other difference is a mismatch, like a load mismatch. Measured loads
// and wire bytes flow into lamp.audit.v1 records next to the strategy's
// closed-form bound, exactly like the benches.
//
// Exit codes: 0 ok, 1 mismatch vs the in-process reference, 2 usage,
// 4 audit hard fail (LAMP_AUDIT_HARD_FAIL=1).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/hypercube_run.h"
#include "mpc/join_strategies.h"
#include "mpc/simulator.h"
#include "obs/audit/audit.h"
#include "obs/audit/bounds.h"
#include "obs/audit/catalog.h"
#include "obs/audit/causal.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "transport/transport.h"
#include "transport/wire.h"

namespace {

using namespace lamp;

// --- scenarios ----------------------------------------------------------

/// Per-rank ring contribution and the fold every rank must end up with.
/// Rank 0 starts the token at HashMix(base); each rank folds its own
/// contribution in ring order, so the closed form below is exactly what a
/// correct exchange produces.
std::uint64_t RankContribution(std::uint64_t base, std::size_t rank) {
  return HashMix(base ^ static_cast<std::uint64_t>(rank + 1));
}

std::uint64_t CombinedSeed(std::uint64_t base, std::size_t p) {
  std::uint64_t h = HashMix(base);
  for (std::size_t r = 0; r < p; ++r) {
    h = HashCombine(h, RankContribution(base, r));
  }
  return h;
}

/// bench_hypercube_load's E3 input: matching relations, the BKS skew-free
/// extreme (kept in sync so the bounds audited here are the bench's).
Instance MatchingInput(Schema& schema, const ConjunctiveQuery& q,
                       std::size_t m) {
  Rng rng(11);
  Instance db;
  std::int64_t base = 0;
  for (const Atom& atom : q.body()) {
    AddMatchingRelation(schema, atom.relation, m, base, rng, db);
    base += static_cast<std::int64_t>(2 * m);
  }
  return db;
}

/// bench_join_strategies' E1 workloads: a skew-free matching join and a
/// skewed variant where half of R shares one join value.
struct JoinWorkload {
  Instance skew_free;
  Instance skewed;

  JoinWorkload(const Schema& schema, RelationId r, RelationId s,
               std::size_t m) {
    Rng rng(1);
    AddMatchingRelation(schema, r, m, 0, rng, skew_free);
    AddMatchingRelation(schema, s, m, static_cast<std::int64_t>(m), rng,
                        skew_free);
    for (std::size_t i = 0; i < m / 2; ++i) {
      skewed.Insert(Fact(r, {static_cast<std::int64_t>(i), 0}));
    }
    for (std::size_t i = 0; i < 10; ++i) {
      skewed.Insert(Fact(s, {0, static_cast<std::int64_t>(i)}));
    }
    AddUniformRelation(schema, r, m / 2, 16 * m, rng, skewed);
    AddUniformRelation(schema, s, m - 10, 16 * m, rng, skewed);
  }
};

/// One distributed workload: every process (parent and children) builds
/// its own copy deterministically from (name, procs, m, base seed).
struct Scenario {
  std::string name;
  Schema schema;
  ConjunctiveQuery query;
  Instance input;
  std::size_t servers = 0;        // One process per server.
  std::uint64_t routing_seed = 0; // CombinedSeed(base, servers).
  MpcSimulator::Router route;
  obs::audit::Strategy strategy = obs::audit::Strategy::kNone;
  bool expected_violation = false;
  Shares shares;                              // Hypercube scenarios only.
  std::unique_ptr<HypercubePolicy> policy;    // Keeps their router alive.
};

const char* const kScenarioNames[] = {
    "hypercube_join",  "hypercube_triangle",  "repartition",
    "repartition_skewed", "fragment_replicate",
};

Scenario BuildScenario(const std::string& name, std::size_t procs,
                       std::size_t m, std::uint64_t base_seed) {
  LAMP_CHECK(procs >= 1);
  Scenario s;
  s.name = name;
  if (name == "hypercube_join" || name == "hypercube_triangle") {
    const char* text = name == "hypercube_join"
                           ? "H(x,y,z) <- R0(x,y), R1(y,z)"
                           : "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)";
    s.query = ParseQuery(s.schema, text);
    s.input = MatchingInput(s.schema, s.query, m);
    s.shares = LpRoundedShares(s.query, procs);
    s.servers = 1;
    for (std::size_t a : s.shares) s.servers *= a;
    s.routing_seed = CombinedSeed(base_seed, s.servers);
    s.policy = std::make_unique<HypercubePolicy>(s.query, s.shares,
                                                 MakeUniverse(1),
                                                 s.routing_seed);
    s.route = [policy = s.policy.get()](NodeId, const Fact& f) {
      return policy->ResponsibleNodes(f);
    };
    s.strategy = obs::audit::Strategy::kHyperCube;
    return s;
  }

  s.query = ParseQuery(s.schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const RelationId r = s.schema.IdOf("R");
  const RelationId sid = s.schema.IdOf("S");
  JoinWorkload w(s.schema, r, sid, m);
  s.servers = procs;
  s.routing_seed = CombinedSeed(base_seed, s.servers);
  if (name == "repartition" || name == "repartition_skewed") {
    s.input = name == "repartition" ? std::move(w.skew_free)
                                    : std::move(w.skewed);
    s.route = RepartitionRouter(s.query, s.servers, s.routing_seed);
    s.strategy = obs::audit::Strategy::kRepartition;
    // The heavy join value pins half of R on one server: the m/p bound is
    // *supposed* to break (claim (1a)); keep it exempt from hard fail.
    s.expected_violation = name == "repartition_skewed";
  } else if (name == "fragment_replicate") {
    s.input = std::move(w.skewed);
    s.route = FragmentReplicateRouter(s.query, s.servers, s.routing_seed);
    s.strategy = obs::audit::Strategy::kFragmentReplicate;
  } else {
    std::fprintf(stderr, "mpc_procs: unknown scenario '%s'\n", name.c_str());
    std::exit(2);
  }
  return s;
}

/// Order-independent fingerprint of an instance (sum of mixed fact
/// hashes): stable across merge orders, printable next to the reference.
std::uint64_t InstanceDigest(const Instance& inst) {
  std::uint64_t digest = 0;
  inst.ForEachFact([&digest](const Fact& f) {
    digest += HashMix(FactHash()(f));
  });
  return digest;
}

// --- distributed tracing ------------------------------------------------

/// Tracing configuration shared by the parent and every worker. The
/// parent derives it once per run; workers recompute nothing — the trace
/// id is a pure function of (seed, mesh size, label), so all processes
/// agree on it without a negotiation round.
struct TraceConfig {
  std::string prefix;  // $LAMP_TRACE_SHARD; empty = tracing off.
  std::string label;   // "<scenario>_<transport>".
  std::uint64_t trace_id = 0;

  bool enabled() const { return !prefix.empty(); }
  std::string PathFor(std::size_t p, std::size_t rank) const {
    return obs::dist::ShardPath(prefix, label, p, rank);
  }
};

TraceConfig MakeTraceConfig(const std::string& prefix,
                            const std::string& name,
                            transport::TransportKind kind, std::size_t p,
                            std::uint64_t base_seed) {
  TraceConfig cfg;
  cfg.prefix = prefix;
  cfg.label = name + "_" + std::string(transport::TransportKindName(kind));
  std::uint64_t id = HashCombine(HashMix(base_seed), HashMix(p));
  for (const char c : cfg.label) {
    id = HashCombine(id, HashMix(static_cast<std::uint64_t>(
                             static_cast<unsigned char>(c))));
  }
  cfg.trace_id = id;
  return cfg;
}

// --- the worker process -------------------------------------------------

/// Body of rank \p rank: seed exchange, one communication phase, local
/// evaluation, report to the parent over \p up. `peers[s]` is the
/// established connection to rank s (unopened at s == rank).
void RunWorker(const Scenario& scenario, std::size_t rank,
               transport::TransportKind kind,
               std::vector<transport::FramedFd> peers, transport::FramedFd up,
               std::uint64_t base_seed, const TraceConfig& trace) {
  const std::size_t p = scenario.servers;
  const auto me = static_cast<NodeId>(rank);
  const std::unique_ptr<transport::Transport> mesh =
      transport::MakeMeshEndpoint(kind, rank, std::move(peers));

  // Tracing is per-process: an isolated ring-buffer tracer whose shard is
  // flushed to $LAMP_TRACE_SHARD-derived paths at the end of the run.
  // When the env var is unset no tracer is installed and every Emit below
  // stays on the null-sink fast path.
  std::unique_ptr<obs::Tracer> tracer;
  std::optional<obs::ScopedTracer> install;
  if (trace.enabled()) {
    tracer = std::make_unique<obs::Tracer>();
    install.emplace(*tracer);
  }
  const std::uint64_t my_features =
      trace.enabled() ? transport::kHelloFeatureTraceCtx : 0;
  std::uint64_t mesh_features = my_features;
  std::uint64_t ring_t0 = 0;    // Rank 0: fold-lap start (local clock).
  std::uint64_t ring_t1 = 0;    // Rank 0: fold-lap end.
  std::uint64_t ring_fold = 0;  // Everyone: fold token receipt time.

  // Ring seed exchange (two laps: fold rank by rank, then broadcast the
  // result). The outcome must equal the closed form every process already
  // computed — the check pins the protocol against the specification.
  // The exchange carries two piggybacked extras:
  //  * feature negotiation — every rank ANDs its Hello feature bits into
  //    the fold, and the broadcast lap distributes the mesh-wide AND, so
  //    optional frame types (kTraceCtx) are only ever sent on a mesh
  //    where every process opted in;
  //  * clock probing — the fold lap is the one moment every process
  //    provably touches the same token in ring order, so its local
  //    receipt times (plus rank 0's lap bounds) are exactly what the
  //    shard merger needs to estimate per-process clock offsets.
  if (p > 1) {
    obs::TraceSpan span("proc.seed_exchange", me);
    const auto pred = static_cast<std::uint32_t>((rank + p - 1) % p);
    const auto succ = static_cast<std::uint32_t>((rank + 1) % p);
    const auto send_hello = [&](std::uint64_t token, std::uint64_t features) {
      mesh->Send({transport::kWireVersion, transport::FrameType::kHello, me,
                  succ,
                  transport::EncodeHelloPayload(rank, token, features)});
    };
    const auto recv_hello = [&] {
      const transport::WireFrame frame = mesh->Recv(me, pred);
      LAMP_CHECK(frame.type == transport::FrameType::kHello);
      const auto payload = transport::DecodeHelloPayload(frame.payload);
      LAMP_CHECK(payload.has_value());
      return *payload;
    };
    std::uint64_t token;
    if (rank == 0) {
      token = HashCombine(HashMix(base_seed), RankContribution(base_seed, 0));
      if (tracer != nullptr) {
        ring_t0 = tracer->NowNs();
        ring_fold = ring_t0;
      }
      send_hello(token, my_features);
      const transport::HelloPayload fold = recv_hello();
      if (tracer != nullptr) ring_t1 = tracer->NowNs();
      token = fold.seed;
      mesh_features = fold.features;  // AND over the whole ring.
      // Broadcast lap: rank 0 holds the fold (and the negotiated feature
      // set); pass both once around.
      send_hello(token, mesh_features);
    } else {
      const transport::HelloPayload fold = recv_hello();
      if (tracer != nullptr) ring_fold = tracer->NowNs();
      token = HashCombine(fold.seed, RankContribution(base_seed, rank));
      send_hello(token, fold.features & my_features);
      const transport::HelloPayload bcast = recv_hello();
      token = bcast.seed;
      mesh_features = bcast.features;
      if (succ != 0) send_hello(token, mesh_features);
    }
    LAMP_CHECK_MSG(token == scenario.routing_seed,
                   "mpc_procs: ring seed exchange disagrees with the"
                   " closed form");
  }

  // The simulator's round on this rank's share: LoadInput placement, the
  // route step, one batch per peer (possibly empty), the merge step.
  const Instance local = MpcSimulator::InputShare(scenario.input, p, me);
  MpcSimulator::Outbox outbox;
  {
    obs::TraceSpan span("proc.route", me);
    MpcSimulator::RouteServer(scenario.route, me, local, p, outbox);
  }
  // Data sends, each optionally preceded by a kTraceCtx frame carrying
  // (trace id, span, round) so the receiver can correlate its recv event
  // with ours. Context frames ride the negotiated feature bit and are never
  // counted into the wire-byte accounting (tracing must not perturb the
  // audited numbers).
  const bool ctx_on =
      (mesh_features & transport::kHelloFeatureTraceCtx) != 0;
  std::uint64_t next_span = 0;
  for (NodeId target = 0; target < p; ++target) {
    if (target == me) continue;
    if (ctx_on) {
      const std::uint64_t span = next_span++;
      mesh->Send({transport::kWireVersion, transport::FrameType::kTraceCtx,
                  me, target,
                  transport::EncodeTraceCtxPayload(trace.trace_id, span, 0)});
      obs::Emit(obs::EventKind::kDistSend, target, 0, span);
    }
    mesh->Send({transport::kWireVersion, transport::FrameType::kFactBatch,
                me, target,
                transport::EncodeFactBatchPayload(0, outbox[target])});
  }

  std::size_t load = 0;
  std::size_t wire_bytes = 0;  // Batch frame bytes received from peers.
  Instance received;
  {
    obs::TraceSpan span("proc.drain", me);
    std::vector<transport::FactBatchRows> decoded(p);
    std::vector<MpcSimulator::Batch> refs(p);
    std::vector<const MpcSimulator::Batch*> inbox(p);
    inbox[me] = &outbox[me];
    for (NodeId source = 0; source < p; ++source) {
      if (source == me) continue;
      std::optional<transport::TraceCtxPayload> ctx;
      if (ctx_on) {
        const transport::WireFrame frame = mesh->Recv(me, source);
        LAMP_CHECK(frame.type == transport::FrameType::kTraceCtx);
        ctx = transport::DecodeTraceCtxPayload(frame.payload);
        LAMP_CHECK_MSG(ctx.has_value() && ctx->trace_id == trace.trace_id,
                       "mpc_procs: trace context from a different run");
      }
      wire_bytes += MpcSimulator::ReceiveBatch(*mesh, me, source, 0,
                                               decoded[source], refs[source]);
      if (ctx.has_value()) {
        obs::Emit(obs::EventKind::kDistRecv, source,
                  static_cast<std::uint32_t>(ctx->round), ctx->span);
      }
      inbox[source] = &refs[source];
    }
    mesh->Shutdown();  // Every peer's input is flushed before we go on.
    load = MpcSimulator::MergeServer(me, 0, inbox, received).load;
  }

  // Computation phase + report upstream.
  Instance output;
  {
    obs::TraceSpan span("proc.eval", me);
    output = Evaluate(scenario.query, received);
  }
  const auto parent = static_cast<std::uint32_t>(p);
  up.Queue({transport::kWireVersion, transport::FrameType::kStats, me, parent,
            transport::EncodeStatsPayload(0, load, wire_bytes)});
  std::vector<transport::RowRef> out_rows;
  for (RelationId rel = 0; rel < output.NumRelationIds(); ++rel) {
    const RowsView rows = output.RowsOf(rel);
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      out_rows.push_back(transport::RowRef{
          rel, rows.Row(i), static_cast<std::uint32_t>(rows.arity)});
    }
  }
  up.Queue({transport::kWireVersion, transport::FrameType::kFactBatch, me,
            parent, transport::EncodeFactBatchPayload(0, out_rows)});
  up.Queue({transport::kWireVersion, transport::FrameType::kShutdown, me,
            parent, {}});
  up.Flush();

  // Flush this process's trace shard last, so it covers the full run. The
  // parent only reads shards after waitpid(), which sequences after this.
  if (trace.enabled()) {
    obs::dist::ShardHeader header;
    header.rank = rank;
    header.procs = p;
    header.trace_id = trace.trace_id;
    header.label = trace.label;
    header.ring_t0_ns = ring_t0;
    header.ring_t1_ns = ring_t1;
    header.ring_fold_ns = ring_fold;
    const std::string path = trace.PathFor(p, rank);
    if (!obs::dist::WriteShardFile(
            path, obs::dist::ShardFromTracer(*tracer, std::move(header)))) {
      std::fprintf(stderr, "mpc_procs: warning: cannot write trace shard %s\n",
                   path.c_str());
    }
  }
}

// --- the multi-process run ----------------------------------------------

struct DistResult {
  Instance output;
  std::vector<std::size_t> loads;       // Per rank.
  std::vector<std::size_t> wire_bytes;  // Per rank, received framing bytes.
};

DistResult RunDistributed(const std::string& name, transport::TransportKind
                          kind, std::size_t procs, std::size_t m,
                          std::uint64_t base_seed, const TraceConfig& trace) {
  // The parent resolves the process count the same way the workers will.
  const Scenario shape = BuildScenario(name, procs, m, base_seed);
  const std::size_t p = shape.servers;

  // Pre-fork resources: one connected socket pair per unordered pair of
  // ranks (ends[i][j] is rank i's end), plus one report pipe per rank.
  std::vector<std::vector<int>> ends(p, std::vector<int>(p, -1));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i + 1; j < p; ++j) {
      const std::array<int, 2> pair = transport::SocketPair(kind);
      ends[i][j] = pair[0];
      ends[j][i] = pair[1];
    }
  }
  std::vector<std::array<int, 2>> pipes(p);
  for (std::size_t r = 0; r < p; ++r) {
    LAMP_CHECK(::pipe(pipes[r].data()) == 0);
  }

  std::vector<pid_t> pids(p, -1);
  for (std::size_t rank = 0; rank < p; ++rank) {
    const pid_t pid = ::fork();
    LAMP_CHECK_MSG(pid >= 0, "mpc_procs: fork failed");
    if (pid > 0) {
      pids[rank] = pid;
      continue;
    }
    // Worker: drop everything that is not ours, build the mesh, run.
    for (std::size_t r = 0; r < p; ++r) {
      ::close(pipes[r][0]);
      if (r != rank) ::close(pipes[r][1]);
    }
    std::vector<transport::FramedFd> peers(p);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (ends[i][j] < 0) continue;
        if (i == rank) {
          peers[j] = transport::FramedFd(ends[i][j]);
        } else {
          ::close(ends[i][j]);
        }
      }
    }
    const Scenario mine = BuildScenario(name, procs, m, base_seed);
    RunWorker(mine, rank, kind, std::move(peers),
              transport::FramedFd(pipes[rank][1]), base_seed, trace);
    std::_Exit(0);
  }

  // Parent: close the worker-side fds, collect reports, reap.
  for (const std::vector<int>& row : ends) {
    for (const int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (std::size_t r = 0; r < p; ++r) ::close(pipes[r][1]);

  DistResult result;
  transport::FactBatchRows batch;  // Reused across workers.
  result.loads.assign(p, 0);
  result.wire_bytes.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) {
    transport::FramedFd chan(pipes[r][0]);
    for (;;) {
      const transport::WireFrame frame = chan.ReadFrame();
      if (frame.type == transport::FrameType::kShutdown) break;
      LAMP_CHECK(frame.from == r);
      if (frame.type == transport::FrameType::kStats) {
        const auto stats = transport::DecodeStatsPayload(frame.payload);
        LAMP_CHECK(stats.has_value());
        result.loads[r] = stats->received;
        result.wire_bytes[r] = stats->wire_bytes;
      } else {
        LAMP_CHECK(frame.type == transport::FrameType::kFactBatch);
        LAMP_CHECK(transport::DecodeFactBatchRows(frame.payload, 0, batch));
        batch.ForEachRun([&result](RelationId relation, const Value* rows,
                                   std::size_t count, std::size_t arity) {
          result.output.InsertRows(relation, rows, count, arity);
        });
      }
    }
  }
  for (std::size_t r = 0; r < p; ++r) {
    int status = 0;
    LAMP_CHECK(::waitpid(pids[r], &status, 0) == pids[r]);
    LAMP_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "mpc_procs: worker exited abnormally");
  }
  return result;
}

// --- driver -------------------------------------------------------------

struct Options {
  std::string scenario = "all";
  transport::TransportKind kind = transport::TransportKind::kTcp;
  bool kind_set = false;  // --selfcheck sweeps both families unless set.
  std::size_t procs = 4;
  std::size_t m = 4000;
  std::uint64_t seed = 7;
  bool selfcheck = false;
  std::string trace_prefix;  // $LAMP_TRACE_SHARD; empty = tracing off.
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: mpc_procs [--scenario NAME|all] [--transport tcp|uds]\n"
      "                 [--procs N] [--m N] [--seed N] [--selfcheck]\n"
      "scenarios:");
  for (const char* name : kScenarioNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// The batch frame bytes each rank of the mesh must receive: the
/// simulator's closed form \p ref plus one empty round-0 batch frame per
/// idle channel, found by re-running the route step on every share.
std::vector<std::size_t> MeshWireBytes(const Scenario& scenario,
                                       const RoundStats& ref) {
  const std::size_t p = scenario.servers;
  const std::size_t empty = transport::VarintSize(0) + transport::VarintSize(0);
  std::vector<std::size_t> bytes = ref.wire_bytes;
  for (NodeId source = 0; source < p; ++source) {
    const Instance local = MpcSimulator::InputShare(scenario.input, p, source);
    MpcSimulator::Outbox outbox;
    MpcSimulator::RouteServer(scenario.route, source, local, p, outbox);
    for (NodeId target = 0; target < p; ++target) {
      if (target != source && outbox[target].empty()) {
        bytes[target] += transport::FactBatchFrameSize(source, target, empty);
      }
    }
  }
  return bytes;
}

/// Runs one scenario distributed, checks it against the in-process
/// reference and emits the audit record. Returns true when everything
/// matched.
bool RunOne(const std::string& name, const Options& opts) {
  const Scenario scenario =
      BuildScenario(name, opts.procs, opts.m, opts.seed);
  const std::size_t p = scenario.servers;

  // In-process ground truth (inline, single-threaded, inproc backend —
  // the --transport flag selects the *inter-process* mesh only).
  MpcSimulator sim(p);
  sim.LoadInput(scenario.input);
  sim.RunRound(scenario.route,
               [&scenario](NodeId, const Instance& received) {
                 return MpcSimulator::ComputeResult{
                     Instance(), Evaluate(scenario.query, received)};
               });

  const TraceConfig trace =
      MakeTraceConfig(opts.trace_prefix, name, opts.kind, p, opts.seed);
  const DistResult dist =
      RunDistributed(name, opts.kind, opts.procs, opts.m, opts.seed, trace);

  bool ok = dist.output == sim.output();
  const RoundStats& ref_round = sim.stats().rounds.at(0);
  const std::vector<std::size_t> wire = MeshWireBytes(scenario, ref_round);
  for (std::size_t r = 0; r < p && ok; ++r) {
    ok = dist.loads[r] == ref_round.received[r] && dist.wire_bytes[r] == wire[r];
  }

  std::size_t max_load = 0;
  std::size_t wire_total = 0;
  for (std::size_t r = 0; r < p; ++r) {
    max_load = std::max(max_load, dist.loads[r]);
    wire_total += dist.wire_bytes[r];
  }
  std::printf(
      "%-20s %-4s procs=%-3zu out=%zu digest=%016llx ref=%016llx"
      " max-load=%zu wire=%zuB (in-proc %zuB) %s\n",
      name.c_str(),
      std::string(transport::TransportKindName(opts.kind)).c_str(), p,
      dist.output.Size(),
      static_cast<unsigned long long>(InstanceDigest(dist.output)),
      static_cast<unsigned long long>(InstanceDigest(sim.output())),
      max_load, wire_total, sim.stats().TotalWireBytes(),
      ok ? "OK" : "MISMATCH");

  // Audit the *measured* run against the strategy's closed-form bound,
  // exactly like the benches audit the simulator.
  RunStats measured;
  RoundStats round;
  round.received = dist.loads;
  round.wire_bytes = dist.wire_bytes;
  measured.rounds.push_back(std::move(round));
  const obs::audit::Catalog catalog =
      obs::audit::BuildCatalog(scenario.schema, scenario.input);
  obs::audit::LoadBound bound =
      scenario.strategy == obs::audit::Strategy::kHyperCube
          ? obs::audit::HyperCubeBound(scenario.query, scenario.schema,
                                       catalog, scenario.shares)
          : obs::audit::BoundFor(scenario.strategy, scenario.query,
                                 scenario.schema, catalog, p);
  obs::audit::AuditRecord record = obs::audit::MakeAuditRecord(
      "mpc_procs",
      name + "/" + std::string(transport::TransportKindName(opts.kind)),
      scenario.strategy, p, std::move(bound), measured);
  record.params.Set("m", opts.m);
  record.params.Set("procs", p);
  record.params.Set("transport",
                    std::string(transport::TransportKindName(opts.kind)));
  record.expected_violation = scenario.expected_violation;

  // With tracing on, merge the shards the workers just wrote and check
  // the merge invariants inline: complete pairing (every cross-process
  // batch matched) and causal order (aligned send strictly before recv).
  // The measured latency percentiles land in the audit record next to
  // the wire bytes.
  if (trace.enabled()) {
    std::vector<std::string> paths;
    for (std::size_t r = 0; r < p; ++r) paths.push_back(trace.PathFor(p, r));
    std::string err;
    const auto merged = obs::dist::LoadMergedTrace(paths, &err);
    if (!merged.has_value()) {
      std::fprintf(stderr, "mpc_procs: %s\n", err.c_str());
      LAMP_CHECK_MSG(false, "mpc_procs: trace shards do not merge");
    }
    LAMP_CHECK_MSG(merged->pairs.size() == p * (p - 1) &&
                       merged->unmatched_sends == 0 &&
                       merged->unmatched_recvs == 0,
                   "mpc_procs: merged trace did not pair every batch");
    for (const obs::dist::MatchedPair& pair : merged->pairs) {
      LAMP_CHECK_MSG(pair.send_ns < pair.recv_ns,
                     "mpc_procs: aligned send does not precede recv");
    }
    record.round_wire_p50_ns.assign(record.round_wire_bytes.size(), 0);
    record.round_wire_p99_ns.assign(record.round_wire_bytes.size(), 0);
    for (const obs::dist::RoundLatency& rl :
         obs::dist::RoundLatencies(*merged)) {
      if (rl.round < record.round_wire_p50_ns.size()) {
        record.round_wire_p50_ns[rl.round] = rl.stats.p50_ns;
        record.round_wire_p99_ns[rl.round] = rl.stats.p99_ns;
      }
    }
    const obs::dist::LatencyStats e2e = obs::dist::EndToEndLatency(*merged);
    const obs::audit::CausalReport causal =
        obs::audit::BuildCausalReport(*merged);
    std::printf(
        "  trace: shards=%zu pairs=%zu wire-p50=%lluns p99=%lluns"
        " max-depth=%llu dropped=%llu\n",
        static_cast<std::size_t>(p), merged->pairs.size(),
        static_cast<unsigned long long>(e2e.p50_ns),
        static_cast<unsigned long long>(e2e.p99_ns),
        static_cast<unsigned long long>(causal.max_depth),
        static_cast<unsigned long long>(merged->total_dropped));
  }
  obs::audit::GlobalAuditSink().Add(std::move(record));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep the process single-threaded: workers are forked, and fork() and
  // pool threads do not mix. The reference run is bit-identical at every
  // thread count anyway.
  lamp::par::SetDefaultThreads(1);
  lamp::transport::SetActiveKind(lamp::transport::TransportKind::kInProcess);

  Options opts;
  if (const char* env = std::getenv("LAMP_TRACE_SHARD");
      env != nullptr && env[0] != '\0') {
    opts.trace_prefix = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == flag && i + 1 < argc) return argv[++i];
      Usage();
      return {};
    };
    if (arg == "--selfcheck") {
      opts.selfcheck = true;
    } else if (arg.rfind("--scenario", 0) == 0) {
      opts.scenario = value("--scenario");
    } else if (arg.rfind("--transport", 0) == 0) {
      lamp::transport::TransportKind kind;
      if (!lamp::transport::ParseTransportKind(value("--transport"), &kind) ||
          kind == lamp::transport::TransportKind::kInProcess) {
        std::fprintf(stderr, "mpc_procs: --transport must be tcp or uds\n");
        return 2;
      }
      opts.kind = kind;
      opts.kind_set = true;
    } else if (arg.rfind("--procs", 0) == 0) {
      opts.procs = static_cast<std::size_t>(std::stoul(value("--procs")));
      if (opts.procs == 0) Usage();
    } else if (arg.rfind("--m", 0) == 0) {
      opts.m = static_cast<std::size_t>(std::stoul(value("--m")));
    } else if (arg.rfind("--seed", 0) == 0) {
      opts.seed = std::stoull(value("--seed"));
    } else {
      Usage();
    }
  }

  std::vector<std::string> names;
  if (opts.scenario == "all") {
    names.assign(std::begin(kScenarioNames), std::end(kScenarioNames));
  } else {
    names.push_back(opts.scenario);
  }

  bool all_ok = true;
  if (opts.selfcheck) {
    // The CI smoke matrix: both socket families (or just the requested
    // one), growing process counts, every scenario — each compared
    // against the in-process reference.
    std::vector<lamp::transport::TransportKind> kinds = {
        lamp::transport::TransportKind::kTcp,
        lamp::transport::TransportKind::kUds};
    if (opts.kind_set) kinds = {opts.kind};
    for (auto kind : kinds) {
      for (std::size_t procs : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        Options sweep = opts;
        sweep.kind = kind;
        sweep.procs = procs;
        for (const std::string& name : names) {
          all_ok = RunOne(name, sweep) && all_ok;
        }
      }
    }
  } else {
    for (const std::string& name : names) {
      all_ok = RunOne(name, opts) && all_ok;
    }
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "mpc_procs: distributed run diverged from the in-process"
                 " reference\n");
    return 1;
  }
  return lamp::obs::audit::FinalizeGlobalAudit();
}
