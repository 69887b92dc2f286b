// Distributed-trace shard merging (obs/dist): clock-offset recovery,
// causal repair, Lamport depths and the golden-pinned merged document.
//
// The synthetic mesh is built on an explicit "true" wall clock: every
// event gets a mesh timestamp, and rank r's shard records it as
// mesh - skew[r] (each process clock starts at its own epoch). The ring
// metadata is derived from the same model, so the merger must recover
// exactly skew[r] - min(skew) — a known answer, asserted to the
// nanosecond. A second scenario corrupts the ring estimate so only the
// difference-constraint repair can restore send < recv.
//
// Regenerate the golden after an intentional format change with:
//   LAMP_REGEN_GOLDEN=1 ./build/tests/dist_trace_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit/causal.h"
#include "obs/dist/merge.h"
#include "obs/dist/shard.h"
#include "obs/trace.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::obs::dist {
namespace {

std::string GoldenPath() {
  return std::string(LAMP_TESTS_DIR) + "/golden/merged_trace.json";
}

constexpr std::uint64_t kTraceId = 0xabcdef12345678ull;
constexpr std::uint64_t kProcs = 3;
// Per-rank clock skew: rank r's local clock reads mesh_time - kSkew[r].
constexpr std::uint64_t kSkew[kProcs] = {0, 250000, 777000};
// Ring fold lap in mesh time: starts at kT0, one hop per rank.
constexpr std::uint64_t kT0 = 1000000;
constexpr std::uint64_t kHop = 3000;

std::uint64_t Local(std::uint64_t mesh_ns, std::uint64_t rank) {
  return mesh_ns - kSkew[rank];
}

// One cross-process message in mesh time.
struct SyntheticPair {
  std::uint32_t from;
  std::uint32_t to;
  std::uint64_t span;
  std::uint64_t round;
  std::uint64_t send_mesh_ns;
  std::uint64_t recv_mesh_ns;
};

// A causal chain: two round-0 roots from rank 0, then rank 1 forwards
// after consuming pair 0 (depth 2), then rank 2 forwards after consuming
// pairs 1 and 2 (depth 3, parent = the deeper pair 2).
const std::vector<SyntheticPair>& Pairs() {
  static const std::vector<SyntheticPair> pairs = {
      {0, 1, 0, 0, 1010000, 1010500},
      {0, 2, 1, 0, 1010100, 1010700},
      {1, 2, 0, 1, 1011000, 1011400},
      {2, 0, 0, 1, 1012000, 1012900},
  };
  return pairs;
}

std::vector<TraceShard> SyntheticShards() {
  std::vector<TraceShard> shards(kProcs);
  for (std::uint64_t r = 0; r < kProcs; ++r) {
    ShardHeader& h = shards[r].header;
    h.rank = r;
    h.procs = kProcs;
    h.trace_id = kTraceId;
    h.label = "synthetic";
    h.ring_fold_ns = Local(kT0 + r * kHop, r);
    if (r == 0) {
      h.ring_t0_ns = Local(kT0, 0);
      h.ring_t1_ns = Local(kT0 + kProcs * kHop, 0);
    }
  }
  for (const SyntheticPair& p : Pairs()) {
    shards[p.from].events.push_back(
        {Local(p.send_mesh_ns, p.from), "dist.send", p.to,
         static_cast<std::uint32_t>(p.round), p.span, ""});
    shards[p.to].events.push_back(
        {Local(p.recv_mesh_ns, p.to), "dist.recv", p.from,
         static_cast<std::uint32_t>(p.round), p.span, ""});
  }
  for (TraceShard& s : shards) {
    s.header.total_emitted = s.events.size();
  }
  return shards;
}

TEST(DistTraceTest, RecoversKnownSkewExactly) {
  std::string error;
  const auto merged = MergeShards(SyntheticShards(), &error);
  ASSERT_TRUE(merged.has_value()) << error;

  // The ring metadata is generated from the uniform-hop model the
  // estimator assumes, so recovery is exact: offset[r] == skew[r]
  // (rank 0 has the smallest skew, so normalisation is a no-op).
  ASSERT_EQ(merged->offset_ns.size(), kProcs);
  for (std::uint64_t r = 0; r < kProcs; ++r) {
    EXPECT_EQ(merged->offset_ns[r], static_cast<std::int64_t>(kSkew[r]))
        << "rank " << r;
  }

  // Aligned pair timestamps are therefore the original mesh times.
  ASSERT_EQ(merged->pairs.size(), Pairs().size());
  EXPECT_EQ(merged->unmatched_sends, 0u);
  EXPECT_EQ(merged->unmatched_recvs, 0u);
  for (std::size_t i = 0; i < merged->pairs.size(); ++i) {
    const MatchedPair& got = merged->pairs[i];
    const SyntheticPair& want = Pairs()[i];  // Already in send order.
    EXPECT_EQ(got.from, want.from) << i;
    EXPECT_EQ(got.to, want.to) << i;
    EXPECT_EQ(got.span, want.span) << i;
    EXPECT_EQ(got.round, want.round) << i;
    EXPECT_EQ(got.send_ns, want.send_mesh_ns) << i;
    EXPECT_EQ(got.recv_ns, want.recv_mesh_ns) << i;
  }
}

TEST(DistTraceTest, LamportDepthsFollowTheCausalChain) {
  std::string error;
  const auto merged = MergeShards(SyntheticShards(), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->pairs.size(), 4u);

  EXPECT_EQ(merged->pairs[0].depth, 1u);  // Root.
  EXPECT_EQ(merged->pairs[0].parent, 0u);
  EXPECT_EQ(merged->pairs[1].depth, 1u);  // Root.
  EXPECT_EQ(merged->pairs[1].parent, 0u);
  EXPECT_EQ(merged->pairs[2].depth, 2u);  // Sender consumed pair 0.
  EXPECT_EQ(merged->pairs[2].parent, 1u);
  EXPECT_EQ(merged->pairs[3].depth, 3u);  // Deepest consumed is pair 2.
  EXPECT_EQ(merged->pairs[3].parent, 3u);
  EXPECT_EQ(merged->max_depth, 3u);

  // The cross-process causal report agrees with the hand-computed chain.
  const audit::CausalReport report = audit::BuildCausalReport(*merged);
  EXPECT_EQ(report.deliveries, 4u);
  EXPECT_EQ(report.max_depth, 3u);
}

TEST(DistTraceTest, RepairRestoresCausalityUnderBadEstimates) {
  // Corrupt rank 2's ring probe so the estimator places its clock 50 µs
  // too early — every recv on rank 2 would align before its send. The
  // constraint repair must push rank 2 forward until send < recv again.
  std::vector<TraceShard> shards = SyntheticShards();
  shards[2].header.ring_fold_ns += 50000;
  std::string error;
  const auto merged = MergeShards(std::move(shards), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->pairs.size(), 4u);
  for (const MatchedPair& pair : merged->pairs) {
    EXPECT_LT(pair.send_ns, pair.recv_ns)
        << pair.from << "->" << pair.to << " span " << pair.span;
  }
  // Repair is minimal: the binding constraint into rank 2 is clamped to
  // exactly the enforced minimum latency, not pushed any further.
  std::uint64_t min_latency_into_2 = ~0ull;
  for (const MatchedPair& pair : merged->pairs) {
    if (pair.to == 2) {
      min_latency_into_2 = std::min(min_latency_into_2, pair.latency_ns());
    }
  }
  EXPECT_EQ(min_latency_into_2, 1u);
}

TEST(DistTraceTest, LatencyStatsPerRoundAndEndToEnd) {
  std::string error;
  const auto merged = MergeShards(SyntheticShards(), &error);
  ASSERT_TRUE(merged.has_value()) << error;

  const LatencyStats all = EndToEndLatency(*merged);
  EXPECT_EQ(all.count, 4u);
  EXPECT_EQ(all.max_ns, 900u);
  EXPECT_LE(all.p50_ns, all.p95_ns);
  EXPECT_LE(all.p95_ns, all.p99_ns);
  EXPECT_LE(all.p99_ns, all.max_ns);

  const std::vector<RoundLatency> rounds = RoundLatencies(*merged);
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].round, 0u);
  EXPECT_EQ(rounds[0].stats.count, 2u);  // Latencies 500, 600.
  EXPECT_EQ(rounds[0].stats.max_ns, 600u);
  EXPECT_EQ(rounds[1].round, 1u);
  EXPECT_EQ(rounds[1].stats.count, 2u);  // Latencies 400, 900.
  EXPECT_EQ(rounds[1].stats.max_ns, 900u);
}

TEST(DistTraceTest, DroppedEventsPropagateToTheMerge) {
  std::vector<TraceShard> shards = SyntheticShards();
  shards[1].header.dropped = 3;
  shards[2].header.dropped = 4;
  std::string error;
  const auto merged = MergeShards(std::move(shards), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->total_dropped, 7u);
}

TEST(DistTraceTest, RejectsInconsistentShardSets) {
  std::string error;
  {
    std::vector<TraceShard> shards = SyntheticShards();
    shards.pop_back();  // Missing rank 2.
    EXPECT_FALSE(MergeShards(std::move(shards), &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  {
    std::vector<TraceShard> shards = SyntheticShards();
    shards[1].header.rank = 0;  // Duplicate rank.
    EXPECT_FALSE(MergeShards(std::move(shards), &error).has_value());
  }
  {
    std::vector<TraceShard> shards = SyntheticShards();
    shards[2].header.trace_id ^= 1;  // Shard from a different run.
    EXPECT_FALSE(MergeShards(std::move(shards), &error).has_value());
  }
  EXPECT_FALSE(MergeShards({}, &error).has_value());
}

TEST(DistTraceTest, RejectsCausallyInconsistentPairsQuickly) {
  // Every recv stamped before its send, in both directions: the
  // difference constraints have a positive cycle, so no clock offsets
  // exist. The merge must say so after O(p) relaxation passes, not
  // after a number of passes that grows with the pair count.
  std::vector<TraceShard> shards(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    shards[r].header.rank = r;
    shards[r].header.procs = 2;
  }
  const std::uint32_t kPairs = 50000;
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    for (std::uint32_t from = 0; from < 2; ++from) {
      shards[from].events.push_back(
          {1000000 + i, "dist.send", 1 - from, 0, i, "", 0});
      shards[1 - from].events.push_back(
          {1000 + i, "dist.recv", from, 0, i, "", 0});
    }
  }
  std::string error;
  EXPECT_FALSE(MergeShards(std::move(shards), &error).has_value());
  EXPECT_NE(error.find("causally consistent"), std::string::npos) << error;
}

TEST(DistTraceTest, ShardIoRoundTrip) {
  // A real Tracer through WriteShard/ParseShard: the on-disk lines must
  // reproduce the header metadata and every event, in order, with the
  // emitting thread's index.
  Tracer tracer(16);
  tracer.Emit(EventKind::kDistSend, 1, 0, 7, nullptr);
  tracer.Emit(EventKind::kDistRecv, 2, 0, 9, nullptr);
  std::thread([&tracer] {
    tracer.Emit(EventKind::kSpan, 3, 0, 1234, "proc.route");
  }).join();

  ShardHeader header;
  header.rank = 1;
  header.procs = 4;
  header.trace_id = kTraceId;
  header.label = "io_roundtrip";
  header.ring_fold_ns = 4242;

  std::stringstream ss;
  WriteShard(ss, ShardFromTracer(tracer, header));
  std::string error;
  const auto shard = ParseShard(ss, &error);
  ASSERT_TRUE(shard.has_value()) << error;
  EXPECT_EQ(shard->header.rank, 1u);
  EXPECT_EQ(shard->header.procs, 4u);
  EXPECT_EQ(shard->header.trace_id, kTraceId);
  EXPECT_EQ(shard->header.label, "io_roundtrip");
  EXPECT_EQ(shard->header.ring_fold_ns, 4242u);
  EXPECT_EQ(shard->header.dropped, 0u);
  EXPECT_EQ(shard->header.total_emitted, 3u);
  ASSERT_EQ(shard->events.size(), 3u);
  EXPECT_EQ(shard->events[0].kind, "dist.send");
  EXPECT_EQ(shard->events[0].a, 1u);
  EXPECT_EQ(shard->events[0].value, 7u);
  EXPECT_EQ(shard->events[0].tid, 0u);
  EXPECT_EQ(shard->events[1].kind, "dist.recv");
  EXPECT_EQ(shard->events[2].kind, "span");
  EXPECT_EQ(shard->events[2].label, "proc.route");
  EXPECT_EQ(shard->events[2].tid, 1u);
  // Only the second thread's line carries a "tid" field.
  EXPECT_EQ(ss.str().find("\"tid\""), ss.str().rfind("\"tid\""));

  // A truncated tail (crashed worker) still loads: the partial last line
  // is skipped, the prefix survives.
  std::stringstream full;
  WriteShard(full, ShardFromTracer(tracer, header));
  std::string text = full.str();
  text.resize(text.size() - 10);
  std::stringstream truncated(text);
  const auto partial = ParseShard(truncated, &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_EQ(partial->events.size(), 2u);
}

TEST(DistTraceTest, OutOfRangeNumbersLoadWithoutOverflow) {
  // Shard bytes are untrusted: numbers far outside the integer range
  // (1e999 parses as infinity) saturate instead of overflowing the cast.
  std::stringstream in(
      "{\"schema\":\"lamp.traceshard.v1\",\"rank\":0,\"procs\":1,"
      "\"dropped\":-1e300}\n"
      "{\"t_ns\": 1e300, \"kind\": \"span\", \"value\": 1e999}\n"
      "{\"t_ns\": -1e999, \"kind\": \"net.output\", \"a\": 1e20}\n");
  std::string error;
  auto shard = ParseShard(in, &error);
  ASSERT_TRUE(shard.has_value()) << error;
  ASSERT_EQ(shard->events.size(), 2u);
  EXPECT_EQ(shard->events[0].t_ns,
            static_cast<std::uint64_t>(INT64_MAX));
  EXPECT_EQ(shard->events[0].value,
            static_cast<std::uint64_t>(INT64_MAX));
  std::vector<TraceShard> shards;
  shards.push_back(std::move(*shard));
  const auto merged = MergeShards(std::move(shards), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_TRUE(MergedChromeTrace(*merged).IsObject());

  // Saturated timestamps on a matched pair or in the ring probe would
  // overflow the clock alignment: the merge rejects them instead.
  {
    std::vector<TraceShard> bad = SyntheticShards();
    bad[0].events[0].t_ns = INT64_MAX;  // Pair 0's send.
    EXPECT_FALSE(MergeShards(std::move(bad), &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  {
    std::vector<TraceShard> bad = SyntheticShards();
    bad[0].header.ring_t1_ns = UINT64_MAX;
    EXPECT_FALSE(MergeShards(std::move(bad), &error).has_value());
  }

  // A malformed header is still an error, not a crash.
  for (const char* header :
       {"{\"schema\":\"lamp.traceshard.v1\",\"rank\":1e999",
        "{\"schema\":\"lamp.trace.v1\",\"rank\":0}", "[1e300]", ""}) {
    std::stringstream bad(header);
    error.clear();
    EXPECT_FALSE(ParseShard(bad, &error).has_value()) << header;
    EXPECT_FALSE(error.empty()) << header;
  }
}

TEST(DistTraceTest, ShardPathEncodesLabelProcsAndRank) {
  EXPECT_EQ(ShardPath("/tmp/t", "repartition/tcp", 4, 2),
            "/tmp/t.repartition_tcp.p4.r2.jsonl");
}

TEST(DistTraceTest, MergedTraceMatchesGoldenFile) {
  std::string error;
  const auto merged = MergeShards(SyntheticShards(), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  const std::string got = MergedTraceJson(*merged).Dump(2) + "\n";

  if (std::getenv("LAMP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    out << got;
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing golden " << GoldenPath()
      << " — regenerate with LAMP_REGEN_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "merged-trace JSON drifted from the golden. If the change is "
         "intentional, rerun with LAMP_REGEN_GOLDEN=1.";
}

TEST(DistTraceTest, ChromeExportHasOneLanePerRankAndFlowArrows) {
  std::string error;
  const auto merged = MergeShards(SyntheticShards(), &error);
  ASSERT_TRUE(merged.has_value()) << error;
  const JsonValue doc = MergedChromeTrace(*merged);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  std::size_t lanes = 0;
  std::size_t flow_starts = 0;
  std::size_t flow_ends = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (e.Find("name")->AsString() == "process_name") ++lanes;
    if (ph->AsString() == "s") ++flow_starts;
    if (ph->AsString() == "f") ++flow_ends;
  }
  EXPECT_EQ(lanes, kProcs);
  EXPECT_EQ(flow_starts, Pairs().size());
  EXPECT_EQ(flow_ends, Pairs().size());
}

}  // namespace
}  // namespace lamp::obs::dist
