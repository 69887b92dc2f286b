// trace_dump: renders a trace — the lamp.traceshard.v1 shards of one run
// (obs/dist/shard.h) merged into one timeline — as human-readable text.
//
//   trace_dump <shard.jsonl>...
//                              merge and render the shards of one run: a
//                              single shard (a local recording, e.g. from
//                              fault_hunt --out) or the p shards of a
//                              traced mpc_procs mesh
//   trace_dump --demo-mpc      trace a HyperCube triangle run, render it
//   trace_dump --demo-net      trace a broadcast transducer run, render it
//   trace_dump --transport tcp --demo-mpc
//                              demo over a socket backend; the trace then
//                              carries transport.connect/send/recv events
//                              (rendered as the Transport section, and as
//                              the transport.wire_bytes counter track in
//                              --chrome output)
//   trace_dump --diff <a.jsonl> <b.jsonl>
//                              align two one-shard recordings and report
//                              the first divergent net event
//   trace_dump ... --json      emit the lamp.merged_trace.v1 document
//   trace_dump ... --chrome    emit Chrome Trace Event Format JSON (open
//                              in Perfetto / chrome://tracing)
//   trace_dump ... --strict    exit 3 when any shard reports dropped
//                              events (ring overflow)
//   trace_dump ... --stats     print per-kind event counts and drop
//                              totals only (ring-buffer sizing view)
//
// The rendering starts with the shard table, then one section per layer:
// the MPC section renders one heatmap row per round (per-server load as
// block glyphs, normalised to the round maximum) so routing skew is
// visible at a glance; the net section lists transitions in delivery
// order, which is the causal order of the run. Traces with matched
// cross-process pairs end with wire-latency percentiles and the
// cross-process causal profile.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/audit/causal.h"
#include "obs/cli.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "transport/transport.h"

namespace lamp {
namespace {

using obs::dist::AlignedEvent;
using obs::dist::MergedTrace;
using Events = std::vector<AlignedEvent>;

bool AnyKind(const Events& events, std::string_view prefix) {
  return std::any_of(events.begin(), events.end(), [&](const AlignedEvent& e) {
    return e.event->kind.rfind(prefix, 0) == 0;
  });
}

void RenderMpc(const Events& events) {
  // round -> (p, total, per-server loads).
  struct Round {
    std::uint64_t p = 0;
    std::uint64_t total = 0;
    std::map<std::uint32_t, std::uint64_t> loads;
  };
  std::map<std::uint32_t, Round> rounds;
  for (const AlignedEvent& ae : events) {
    const obs::dist::ShardEvent& e = *ae.event;
    if (e.kind == "mpc.round_begin") {
      rounds[e.a].p = e.value;
    } else if (e.kind == "mpc.server_load") {
      rounds[e.a].loads[e.b] = e.value;
    } else if (e.kind == "mpc.round_end") {
      rounds[e.a].total = e.value;
    }
  }
  if (rounds.empty()) return;

  std::printf("== MPC rounds (%zu) ==\n", rounds.size());
  std::printf("   load heatmap: one glyph per server, normalised per round"
              " ('.' = zero)\n");
  for (const auto& [idx, round] : rounds) {
    std::uint64_t max_load = 0;
    for (const auto& [server, load] : round.loads) {
      max_load = std::max(max_load, load);
    }
    std::string heat;
    for (std::uint64_t s = 0; s < round.p; ++s) {
      const auto it = round.loads.find(static_cast<std::uint32_t>(s));
      heat += obs::LoadGlyph(it == round.loads.end() ? 0 : it->second,
                             max_load);
    }
    std::printf("  round %2u  p=%-5llu total=%-9llu max=%-8llu |%s|\n", idx,
                static_cast<unsigned long long>(round.p),
                static_cast<unsigned long long>(round.total),
                static_cast<unsigned long long>(max_load), heat.c_str());
  }
  std::printf("\n");
}

void RenderNet(const Events& events) {
  if (!AnyKind(events, "net.")) return;

  std::printf("== Transducer network timeline ==\n");
  for (const AlignedEvent& ae : events) {
    const obs::dist::ShardEvent& e = *ae.event;
    const double t_us = static_cast<double>(ae.t_ns) / 1000.0;
    if (e.kind == "net.start") {
      std::printf("  %10.1fus  start      node %u (heartbeat)\n", t_us, e.a);
    } else if (e.kind == "net.broadcast") {
      std::printf("  %10.1fus  broadcast  node %u sends %llu fact(s) to all"
                  " others\n",
                  t_us, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.deliver") {
      std::printf("  %10.1fus  deliver    #%-4u -> node %u (%llu fact(s))\n",
                  t_us, e.b, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.drop") {
      std::printf("  %10.1fus  drop       attempt #%-4u -> node %u fails"
                  " (will retransmit)\n",
                  t_us, e.b, e.a);
    } else if (e.kind == "net.duplicate") {
      std::printf("  %10.1fus  duplicate  #%-4u -> node %u (copy stays in"
                  " flight)\n",
                  t_us, e.b, e.a);
    } else if (e.kind == "net.crash") {
      std::printf("  %10.1fus  crash      node %u goes down (%s state)\n",
                  t_us, e.a, e.value != 0 ? "durable" : "volatile");
    } else if (e.kind == "net.restart") {
      std::printf("  %10.1fus  restart    node %u back up (%llu message(s)"
                  " requeued)\n",
                  t_us, e.a, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.partition") {
      std::printf("  %10.1fus  partition  %llu node(s) isolated\n", t_us,
                  static_cast<unsigned long long>(e.value));
    } else if (e.kind == "net.heal") {
      std::printf("  %10.1fus  heal       partition removed\n", t_us);
    } else if (e.kind == "net.quiescent") {
      std::printf("  %10.1fus  quiescent  after %llu transition(s)\n", t_us,
                  static_cast<unsigned long long>(e.value));
    }
  }
  std::printf("\n");
}

// Transport sections: one summary line per connect (clique setup), then
// per-endpoint egress totals as a heatmap — skewed routing shows up as a
// lopsided byte distribution even before the tuple-level MPC heatmaps.
void RenderTransport(const Events& events) {
  if (!AnyKind(events, "transport.")) return;

  std::printf("== Transport (lamp.wire.v1) ==\n");
  static const char* kKindNames[] = {"inproc", "tcp", "uds"};
  std::map<std::uint32_t, std::uint64_t> sent_bytes;
  std::uint64_t frames_sent = 0, bytes_sent = 0;
  std::uint64_t frames_recv = 0, bytes_recv = 0;
  for (const AlignedEvent& ae : events) {
    const obs::dist::ShardEvent& e = *ae.event;
    if (e.kind == "transport.connect") {
      const char* backend = e.b < 3 ? kKindNames[e.b] : "unknown";
      std::printf("  connect: %u endpoint(s) over %s (%llu fd(s))\n", e.a,
                  backend, static_cast<unsigned long long>(e.value));
    } else if (e.kind == "transport.send") {
      ++frames_sent;
      bytes_sent += e.value;
      sent_bytes[e.a] += e.value;
    } else if (e.kind == "transport.recv") {
      ++frames_recv;
      bytes_recv += e.value;
    }
  }
  std::printf("  sent: %llu frame(s), %llu byte(s); received: %llu"
              " frame(s), %llu byte(s)\n",
              static_cast<unsigned long long>(frames_sent),
              static_cast<unsigned long long>(bytes_sent),
              static_cast<unsigned long long>(frames_recv),
              static_cast<unsigned long long>(bytes_recv));
  if (!sent_bytes.empty()) {
    std::uint64_t max = 0;
    for (const auto& [endpoint, bytes] : sent_bytes) max = std::max(max, bytes);
    std::string heat;
    for (std::uint32_t ep = 0; ep <= sent_bytes.rbegin()->first; ++ep) {
      const auto it = sent_bytes.find(ep);
      heat += obs::LoadGlyph(it == sent_bytes.end() ? 0 : it->second, max);
    }
    std::printf("  egress bytes per endpoint (max=%llu) |%s|\n",
                static_cast<unsigned long long>(max), heat.c_str());
  }
  std::printf("\n");
}

void RenderDatalog(const Events& events) {
  if (!AnyKind(events, "datalog.iteration")) return;
  std::printf("== Datalog iterations ==\n");
  for (const AlignedEvent& ae : events) {
    const obs::dist::ShardEvent& e = *ae.event;
    if (e.kind != "datalog.iteration") continue;
    std::printf("  stratum %u  iter %2u  delta=%llu\n", e.a, e.b,
                static_cast<unsigned long long>(e.value));
  }
  std::printf("\n");
}

void RenderSpans(const Events& events) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Agg> spans;
  for (const AlignedEvent& ae : events) {
    const obs::dist::ShardEvent& e = *ae.event;
    if (e.kind != "span" || e.label.empty()) continue;
    Agg& agg = spans[e.label];
    ++agg.count;
    agg.total_ns += e.value;
  }
  if (spans.empty()) return;
  std::printf("== Span aggregates ==\n");
  for (const auto& [label, agg] : spans) {
    std::printf("  %-16s count=%-5llu total=%.3fms mean=%.1fus\n",
                label.c_str(), static_cast<unsigned long long>(agg.count),
                static_cast<double>(agg.total_ns) / 1e6,
                static_cast<double>(agg.total_ns) / 1e3 /
                    static_cast<double>(agg.count));
  }
  std::printf("\n");
}

/// Wire-latency percentiles per round and end to end, then the
/// cross-process causal profile. Only traces with matched pairs (a
/// multi-process mesh) have either.
void RenderPairs(const MergedTrace& merged) {
  if (merged.pairs.empty()) return;
  std::printf("== wire latency (aligned send -> recv) ==\n");
  std::printf("  %-8s %-8s %-12s %-12s %-12s %-12s\n", "round", "pairs",
              "p50", "p95", "p99", "max");
  const auto row = [](const std::string& round,
                      const obs::dist::LatencyStats& s, const char* unit) {
    std::printf("  %-8s %-8zu %-12llu %-12llu %-12llu %-12llu%s\n",
                round.c_str(), s.count,
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p95_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.max_ns), unit);
  };
  for (const obs::dist::RoundLatency& rl : obs::dist::RoundLatencies(merged)) {
    row(std::to_string(rl.round), rl.stats, "");
  }
  row("all", obs::dist::EndToEndLatency(merged), "  (ns)");
  std::printf("\n== cross-process causality ==\n%s\n",
              obs::audit::BuildCausalReport(merged).Render().c_str());
}

/// The default rendering: per-shard health (each process's dropped-event
/// count — a truncated shard silently skews every number, so it is
/// surfaced per rank, not just as a total) and clock offset, then every
/// layer section, then the cross-process view.
void Render(const MergedTrace& merged) {
  std::printf("trace: %llu process(es), label '%s', trace id %016llx\n",
              static_cast<unsigned long long>(merged.procs),
              merged.label.c_str(),
              static_cast<unsigned long long>(merged.trace_id));
  std::printf("  matched pairs: %zu  unmatched: %llu send(s) / %llu"
              " recv(s)\n\n",
              merged.pairs.size(),
              static_cast<unsigned long long>(merged.unmatched_sends),
              static_cast<unsigned long long>(merged.unmatched_recvs));
  std::printf("== shards ==\n");
  for (const obs::dist::TraceShard& shard : merged.shards) {
    std::printf("  rank %-3llu events=%-6zu emitted=%-6llu dropped=%-6llu"
                " offset=%+lldns\n",
                static_cast<unsigned long long>(shard.header.rank),
                shard.events.size(),
                static_cast<unsigned long long>(shard.header.total_emitted),
                static_cast<unsigned long long>(shard.header.dropped),
                static_cast<long long>(merged.offset_ns[shard.header.rank]));
  }
  std::printf("\n");

  const Events events = obs::dist::AlignedEvents(merged);
  RenderMpc(events);
  RenderNet(events);
  RenderTransport(events);
  RenderDatalog(events);
  RenderSpans(events);
  RenderPairs(merged);
}

/// The --stats view: how full the rings got and what filled them.
/// Everything a user needs to size Tracer capacity without opening a
/// Chrome trace: kept/emitted/dropped totals plus per-kind counts of the
/// kept events.
void RenderStats(const MergedTrace& merged) {
  std::uint64_t total = 0;
  std::uint64_t kept = 0;
  std::uint64_t most = 0;  // Largest per-process emitted count.
  std::map<std::string, std::uint64_t> by_kind;
  for (const obs::dist::TraceShard& shard : merged.shards) {
    total += shard.header.total_emitted;
    kept += shard.events.size();
    most = std::max(most, shard.header.total_emitted);
    for (const obs::dist::ShardEvent& e : shard.events) ++by_kind[e.kind];
  }
  std::printf("emitted:  %llu\n", static_cast<unsigned long long>(total));
  std::printf("kept:     %llu\n", static_cast<unsigned long long>(kept));
  std::printf("dropped:  %llu (ring overflow)\n",
              static_cast<unsigned long long>(merged.total_dropped));
  std::printf("shards:   %zu\n", merged.shards.size());
  if (merged.total_dropped > 0) {
    // The next power of two holding a whole process's events is enough
    // for any of its threads' rings.
    std::uint64_t need = 1;
    while (need < most) need <<= 1;
    std::printf("          (a Tracer capacity of %llu would have kept"
                " every event)\n",
                static_cast<unsigned long long>(need));
  }
  if (by_kind.empty()) return;
  std::printf("\nper-kind counts:\n");
  std::vector<std::pair<std::string, std::uint64_t>> sorted(by_kind.begin(),
                                                            by_kind.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second > y.second;
              return x.first < y.first;
            });
  for (const auto& [kind, count] : sorted) {
    std::printf("  %-20s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }
}

// --- Two-trace diff -----------------------------------------------------

/// One line of the diff view: the event as the timeline renders it,
/// minus the wall-clock column (schedules are compared causally, so
/// t_ns differences are noise).
std::string EventKey(const obs::dist::ShardEvent& e) {
  return e.kind + " a=" + std::to_string(e.a) + " b=" + std::to_string(e.b) +
         " value=" + std::to_string(e.value);
}

std::vector<std::string> NetEventKeys(const MergedTrace& trace) {
  std::vector<std::string> keys;
  for (const AlignedEvent& ae : obs::dist::AlignedEvents(trace)) {
    if (ae.event->kind.rfind("net.", 0) == 0) {
      keys.push_back(EventKey(*ae.event));
    }
  }
  return keys;
}

/// Aligns the two runs' net-event sequences by (kind, a, b, value) and
/// reports the first step where they differ — for a witness/reference
/// pair from the fault explorer, that is the first delivery (or injected
/// fault) distinguishing the divergent schedule from the correct one.
int DiffTraces(const MergedTrace& left, const MergedTrace& right,
               const std::string& left_name,
               const std::string& right_name) {
  const std::vector<std::string> a = NetEventKeys(left);
  const std::vector<std::string> b = NetEventKeys(right);
  std::printf("diff: %s (%zu net event(s)) vs %s (%zu net event(s))\n\n",
              left_name.c_str(), a.size(), right_name.c_str(), b.size());

  std::size_t common = 0;
  while (common < a.size() && common < b.size() && a[common] == b[common]) {
    ++common;
  }
  if (common == a.size() && common == b.size()) {
    std::printf("traces are identical (%zu shared net event(s))\n", common);
    return 0;
  }

  const std::size_t kContext = 4;
  const std::size_t from = common > kContext ? common - kContext : 0;
  std::printf("first divergence at net event #%zu (%zu shared before"
              " it)\n\n",
              common, common);
  for (std::size_t i = from; i < common; ++i) {
    std::printf("    #%-4zu  %s\n", i, a[i].c_str());
  }
  const std::size_t kAfter = 3;
  for (std::size_t i = common; i < std::min(a.size(), common + kAfter);
       ++i) {
    std::printf("  < #%-4zu  %s\n", i, a[i].c_str());
  }
  if (common >= a.size()) {
    std::printf("  < (end of %s)\n", left_name.c_str());
  }
  for (std::size_t i = common; i < std::min(b.size(), common + kAfter);
       ++i) {
    std::printf("  > #%-4zu  %s\n", i, b[i].c_str());
  }
  if (common >= b.size()) {
    std::printf("  > (end of %s)\n", right_name.c_str());
  }
  std::printf("\n  (<) %s   (>) %s\n", left_name.c_str(),
              right_name.c_str());
  return 1;
}

// --- inputs -------------------------------------------------------------

MergedTrace DemoMpcTrace() {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
  Rng rng(7);
  Instance db;
  AddRandomGraph(schema, schema.IdOf("R"), 4000, 600, rng, db);
  AddRandomGraph(schema, schema.IdOf("S"), 4000, 600, rng, db);
  AddRandomGraph(schema, schema.IdOf("T"), 4000, 600, rng, db);
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(tracer);
    (void)RunHyperCubeUniform(q, db, 64);
  }
  return obs::dist::LocalTrace(tracer);
}

MergedTrace DemoNetTrace() {
  Schema schema;
  const RelationId e = schema.AddRelation("E", 2);
  const ConjunctiveQuery triangle = ParseQuery(
      schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  Rng rng(7);
  Instance graph;
  AddRandomGraph(schema, e, 40, 12, rng, graph);
  AddTriangleClusters(schema, e, 2, 100, graph);
  MonotoneBroadcastProgram program(
      [&triangle](const Instance& instance) {
        return Evaluate(triangle, instance);
      });
  TransducerNetwork net(DistributeRoundRobin(graph, 4), program, nullptr,
                        /*aware=*/false);
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(tracer);
    (void)net.Run(/*seed=*/3);
  }
  return obs::dist::LocalTrace(tracer);
}

/// Loads and merges the shards of one run; errors go to stderr.
std::optional<MergedTrace> LoadTrace(const std::vector<std::string>& files) {
  std::string err;
  std::optional<MergedTrace> merged = obs::dist::LoadMergedTrace(files, &err);
  if (!merged.has_value()) {
    std::fprintf(stderr, "trace_dump: %s\n", err.c_str());
  }
  return merged;
}

int Main(int argc, char** argv) {
  transport::ConfigureFromCommandLine(&argc, argv);
  bool raw_json = false;
  bool chrome = false;
  bool strict = false;
  bool diff = false;
  bool stats = false;
  std::string demo;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      raw_json = true;
    } else if (arg == "--chrome") {
      chrome = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--demo-mpc" || arg == "--demo-net") {
      demo = arg;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: trace_dump [--json | --chrome | --stats] [--strict]"
          " (<shard.jsonl>... | --demo-mpc | --demo-net)\n"
          "       trace_dump --diff <a.jsonl> <b.jsonl>\n"
          "\n"
          "The shard files of one run are merged into one trace: a single\n"
          "shard is a local recording (fault_hunt --out writes them); the\n"
          "p shards of a traced mpc_procs run (LAMP_TRACE_SHARD=<prefix>\n"
          "mpc_procs ...) are clock-aligned via the ring seed-exchange\n"
          "timing, their send/recv pairs matched by (sender rank, span)\n"
          "and rendered as per-round latency percentiles plus a\n"
          "cross-process causal profile.\n"
          "\n"
          "--json emits the lamp.merged_trace.v1 document.\n"
          "--chrome converts the trace to the Chrome Trace Event Format;\n"
          "save it to a file and open it at ui.perfetto.dev or in\n"
          "chrome://tracing (ranks map to processes, threads to tracks,\n"
          "spans to slices, loads to counter tracks, matched pairs to\n"
          "flow arrows).\n"
          "--strict exits with status 3 when any shard reports dropped\n"
          "events, so pipelines notice truncated recordings.\n"
          "--stats prints only per-kind event counts plus the\n"
          "kept/emitted/dropped totals — enough to size the Tracer ring\n"
          "buffer without rendering the timeline.\n"
          "--diff aligns two recordings' transducer-network events by\n"
          "(kind, actor, payload), ignoring wall-clock time, and reports\n"
          "the first divergent delivery — pair it with the witness and\n"
          "reference shards written by fault_hunt.\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (diff) {
    if (files.size() != 2) {
      std::fprintf(stderr, "trace_dump: --diff needs exactly two shard"
                           " files\n");
      return 2;
    }
    const std::optional<MergedTrace> left = LoadTrace({files[0]});
    const std::optional<MergedTrace> right = LoadTrace({files[1]});
    if (!left.has_value() || !right.has_value()) return 2;
    return DiffTraces(*left, *right, files[0], files[1]);
  }
  if (demo.empty() == files.empty()) {
    std::fprintf(stderr,
                 "trace_dump: need shard files, --demo-mpc or --demo-net"
                 " (see --help)\n");
    return 2;
  }

  std::optional<MergedTrace> trace;
  if (demo == "--demo-mpc") {
    trace = DemoMpcTrace();
  } else if (demo == "--demo-net") {
    trace = DemoNetTrace();
  } else {
    trace = LoadTrace(files);
    if (!trace.has_value()) return 2;
  }

  if (trace->total_dropped > 0) {
    std::fprintf(stderr,
                 "trace_dump: WARNING: %llu event(s) dropped to ring"
                 " overflow — the rendered timeline is TRUNCATED (record"
                 " with a larger Tracer capacity to keep everything)\n",
                 static_cast<unsigned long long>(trace->total_dropped));
  }
  if (raw_json) {
    std::printf("%s\n", obs::dist::MergedTraceJson(*trace).Dump(2).c_str());
  } else if (chrome) {
    std::printf("%s\n", obs::dist::MergedChromeTrace(*trace).Dump(1).c_str());
  } else if (stats) {
    RenderStats(*trace);
  } else {
    Render(*trace);
  }
  return strict && trace->total_dropped > 0 ? 3 : 0;
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
