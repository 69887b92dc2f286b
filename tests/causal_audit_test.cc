// Cross-validation of the causal coordination profile (obs/audit/causal.h)
// against the static fragment analyzer (lamp::sa) — the CALM theorem's
// operational signature made executable:
//
//  * a query whose Datalog form the analyzer *certifies* monotone (class
//    M, negation-free fragment), evaluated by the monotone broadcast
//    strategy on a replicated (ideal) distribution, must show a
//    coordination-free causal profile: the first output fact appears at
//    causal depth 0, during a heartbeat, before any message is read;
//  * the coordinated barrier strategy — which the analyzer's world calls
//    non-monotone territory (it counts peers before daring to output) —
//    must show strictly positive coordination depth on the *same* ideal
//    distribution, on every seed.
//
// The gap between those two profiles is Section 5.1's
// coordination-freeness, measured rather than assumed.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cq/eval.h"
#include "cq/parser.h"
#include "net/network.h"
#include "net/programs.h"
#include "obs/audit/causal.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/trace.h"
#include "relational/generators.h"
#include "sa/analyzer.h"

namespace lamp {
namespace {

using obs::audit::CausalReport;

struct Profile {
  NetworkRunResult result;
  CausalReport report;
};

/// Runs \p program on \p locals under a tracer and extracts the causal
/// profile alongside the run result.
Profile RunProfiled(TransducerProgram& program, std::vector<Instance> locals,
                    std::uint64_t seed) {
  obs::Tracer tracer;
  Profile p;
  {
    obs::ScopedTracer install(tracer);
    TransducerNetwork net(std::move(locals), program, nullptr,
                          /*aware=*/true);
    p.result = net.Run(seed);
  }
  p.report = obs::audit::BuildCausalReport(obs::dist::LocalTrace(tracer));
  return p;
}

/// The shared workload: the 2-step reachability join on a small path
/// graph, monotone by construction.
struct Workload {
  Schema schema;
  ConjunctiveQuery query;
  Instance graph;
  Instance expected;

  Workload() {
    query = ParseQuery(schema, "H(x,z) <- E(x,y), E(y,z)");
    AddPathGraph(schema, schema.IdOf("E"), 8, graph);
    expected = Evaluate(query, graph);
  }
};

// The static side of the cross-validation: the Datalog form of the
// workload query is certified into class M by the negation-free fragment.
TEST(CausalCrossvalTest, AnalyzerCertifiesTheMonotoneWorkload) {
  Schema schema;
  const sa::ProgramAnalysis analysis = sa::AnalyzeProgramText(
      schema,
      "# @edb E/2\n"
      "H(x,z) <- E(x,y), E(y,z)\n");
  ASSERT_TRUE(analysis.parse_ok);
  ASSERT_TRUE(analysis.fragments.strongest.has_value());
  EXPECT_EQ(*analysis.fragments.strongest, sa::Fragment::kNegationFree);
  EXPECT_TRUE(
      analysis.fragments.Verdict(sa::Fragment::kNegationFree).certified);
}

// The dynamic side: on a replicated distribution the monotone broadcast
// strategy computes the certified query with coordination depth 0 — the
// first output appears during a heartbeat, on every seed.
TEST(CausalCrossvalTest, CertifiedMonotoneRunsCoordinationFree) {
  Workload w;
  const auto query = [&w](const Instance& instance) {
    return Evaluate(w.query, instance);
  };
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    MonotoneBroadcastProgram program(query);
    const Profile p =
        RunProfiled(program, DistributeReplicated(w.graph, 3), seed);
    EXPECT_EQ(p.result.output, w.expected) << "seed " << seed;
    EXPECT_EQ(p.result.coordination_depth(), 0u) << "seed " << seed;
    EXPECT_TRUE(p.report.CoordinationFree()) << "seed " << seed;
    EXPECT_TRUE(p.report.has_output) << "seed " << seed;
  }
}

// The pinned non-monotone contrast: the counting barrier cannot output
// before consuming messages, so its coordination depth is strictly
// greater than the monotone program's 0 — on the same ideal
// distribution, on every seed.
TEST(CausalCrossvalTest, CoordinatedBarrierHasStrictlyGreaterDepth) {
  Workload w;
  const auto query = [&w](const Instance& instance) {
    return Evaluate(w.query, instance);
  };
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    Schema barrier_schema = w.schema;
    CoordinatedBarrierProgram barrier(query, barrier_schema);
    const Profile p =
        RunProfiled(barrier, DistributeReplicated(w.graph, 3), seed);
    // Still correct — coordination buys safety, not new answers here.
    EXPECT_EQ(p.result.output, w.expected) << "seed " << seed;
    EXPECT_GE(p.result.coordination_depth(), 1u) << "seed " << seed;
    EXPECT_FALSE(p.report.CoordinationFree()) << "seed " << seed;
    EXPECT_TRUE(p.report.has_output) << "seed " << seed;
  }
}

// The gauges the runner exports and the profile reconstructed from the
// trace must agree — they are two views of the same instrumentation.
TEST(CausalCrossvalTest, GaugesMatchTraceReport) {
  Workload w;
  const auto query = [&w](const Instance& instance) {
    return Evaluate(w.query, instance);
  };
  Schema barrier_schema = w.schema;
  CoordinatedBarrierProgram barrier(query, barrier_schema);
  const Profile p =
      RunProfiled(barrier, DistributeReplicated(w.graph, 3), 5);
  EXPECT_EQ(p.result.coordination_depth(), p.report.coordination_depth);
  EXPECT_EQ(p.result.causal_max_depth(), p.report.max_depth);
  EXPECT_GE(p.report.deliveries, 1u);
  EXPECT_FALSE(p.report.critical_path.empty());
  // The critical path is causally ordered: depths strictly increase.
  for (std::size_t i = 1; i < p.report.critical_path.size(); ++i) {
    EXPECT_LT(p.report.critical_path[i - 1].depth,
              p.report.critical_path[i].depth);
  }
}

// Section 5.1's probe, profiled: the heartbeat-only run reads no message
// at all, so its causal profile is coordination-free by construction and
// the monotone program still computes the query on replicated locals.
TEST(CausalCrossvalTest, HeartbeatOnlyRunIsCoordinationFree) {
  Workload w;
  const auto query = [&w](const Instance& instance) {
    return Evaluate(w.query, instance);
  };
  MonotoneBroadcastProgram program(query);
  obs::Tracer tracer;
  NetworkRunResult result;
  {
    obs::ScopedTracer install(tracer);
    TransducerNetwork net(DistributeReplicated(w.graph, 3), program,
                          nullptr, /*aware=*/true);
    result = net.RunWithoutDelivery();
  }
  const CausalReport report =
      obs::audit::BuildCausalReport(obs::dist::LocalTrace(tracer));
  EXPECT_EQ(result.output, w.expected);
  EXPECT_EQ(result.coordination_depth(), 0u);
  EXPECT_EQ(report.deliveries, 0u);
  EXPECT_TRUE(report.CoordinationFree());
  EXPECT_TRUE(report.has_output);
}

// One trace model, one loader: the causal report and the Chrome export of
// the in-memory one-shard trace must equal those built after the shard
// went through WriteShard and ParseShard — thread ids and labels included.
TEST(CausalCrossvalTest, FileAndLivePathsAgree) {
  Workload w;
  const auto query = [&w](const Instance& instance) {
    return Evaluate(w.query, instance);
  };
  MonotoneBroadcastProgram monotone(query);
  Schema barrier_schema = w.schema;
  CoordinatedBarrierProgram barrier(query, barrier_schema);
  for (TransducerProgram* program :
       {static_cast<TransducerProgram*>(&monotone),
        static_cast<TransducerProgram*>(&barrier)}) {
    obs::Tracer tracer;
    {
      obs::ScopedTracer install(tracer);
      TransducerNetwork net(DistributeReplicated(w.graph, 3), *program,
                            nullptr, /*aware=*/true);
      (void)net.Run(/*seed=*/5);
      // A labelled span from a second thread: its events get tid 1.
      std::thread([] { obs::TraceSpan span("side_thread"); }).join();
    }
    const obs::dist::MergedTrace live = obs::dist::LocalTrace(tracer);

    std::stringstream file;
    obs::dist::WriteShard(file, obs::dist::ShardFromTracer(tracer));
    std::string error;
    std::optional<obs::dist::TraceShard> shard =
        obs::dist::ParseShard(file, &error);
    ASSERT_TRUE(shard.has_value()) << error;
    std::vector<obs::dist::TraceShard> shards;
    shards.push_back(std::move(*shard));
    const auto loaded = obs::dist::MergeShards(std::move(shards), &error);
    ASSERT_TRUE(loaded.has_value()) << error;

    const CausalReport report = obs::audit::BuildCausalReport(*loaded);
    EXPECT_TRUE(report.has_output);
    EXPECT_EQ(report.ToJson().Dump(),
              obs::audit::BuildCausalReport(live).ToJson().Dump());
    EXPECT_EQ(obs::dist::MergedChromeTrace(*loaded).Dump(),
              obs::dist::MergedChromeTrace(live).Dump());
    std::size_t side_spans = 0;
    for (const obs::dist::ShardEvent& e : loaded->shards[0].events) {
      if (e.label != "side_thread") continue;
      ++side_spans;
      EXPECT_EQ(e.tid, 1u);
    }
    EXPECT_EQ(side_spans, 1u);
  }
}

}  // namespace
}  // namespace lamp
