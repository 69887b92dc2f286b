#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "cq/eval.h"

namespace perfbench {

namespace {

/// Router bookkeeping of one pool lane. Each lane writes only its own
/// slot; RunRound reads them after the round has joined every lane.
struct alignas(64) LaneSlot {
  std::int64_t last_return_ns = -1;
  std::uint64_t calls = 0;
  std::uint64_t targets = 0;
  std::uint64_t remote = 0;
};

constexpr std::size_t kMaxLanes = 64;
LaneSlot g_lanes[kMaxLanes];
std::atomic<std::size_t> g_next_lane{0};

LaneSlot& ThisLane() {
  thread_local const std::size_t lane = g_next_lane.fetch_add(1);
  if (lane >= kMaxLanes) {
    std::fprintf(stderr, "perfbench: more than %zu router lanes\n", kMaxLanes);
    std::abort();
  }
  return g_lanes[lane];
}

void Violation(const char* what, std::int64_t a, std::int64_t b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "mpc window check failed: %s (%lld vs %lld)",
                what, static_cast<long long>(a), static_cast<long long>(b));
  throw WindowViolation(buf);
}

}  // namespace

lamp::MpcSimulator::Router RoundProbe::WrapRouter(
    lamp::MpcSimulator::Router inner) {
  return [inner = std::move(inner)](lamp::NodeId source,
                                    const lamp::Fact& fact) {
    std::vector<lamp::NodeId> targets = inner(source, fact);
    LaneSlot& lane = ThisLane();
    ++lane.calls;
    lane.targets += targets.size();
    for (lamp::NodeId t : targets) lane.remote += t != source ? 1 : 0;
    lane.last_return_ns = NowNs();
    return targets;
  };
}

lamp::MpcSimulator::Computer RoundProbe::EvaluateComputer(
    const lamp::ConjunctiveQuery& query) {
  return [this, &query](lamp::NodeId server, const lamp::Instance& received) {
    Server& s = servers_[server];
    s.entry_ns = NowNs();
    lamp::CqEvalStats stats;
    lamp::Instance output = lamp::Evaluate(query, received, &stats);
    s.eval_ns = NowNs() - s.entry_ns;
    s.rows_in = received.Size();
    s.rows_out = output.Size();
    s.rows_scanned = stats.rows_scanned;
    lamp::MpcSimulator::ComputeResult result{lamp::Instance(),
                                             std::move(output)};
    s.return_ns = NowNs();
    return result;
  };
}

void RoundProbe::RunRound(lamp::MpcSimulator& sim,
                          const lamp::MpcSimulator::Router& route,
                          const lamp::MpcSimulator::Computer& compute,
                          std::size_t lanes, LayerTrace& trace) {
  if (sim.num_servers() != servers_.size()) {
    Violation("probe sized for another cluster",
              static_cast<std::int64_t>(servers_.size()),
              static_cast<std::int64_t>(sim.num_servers()));
  }
  for (LaneSlot& lane : g_lanes) lane = LaneSlot();
  for (Server& s : servers_) s = Server();
  const std::size_t rounds_before = sim.stats().NumRounds();
  std::uint64_t held = 0;  // Every held fact is routed once.
  for (const lamp::Instance& local : sim.locals()) held += local.Size();

  const std::int64_t start = NowNs();
  sim.RunRound(route, compute);
  const std::int64_t end = NowNs();

  std::int64_t last_route = -1;
  std::uint64_t calls = 0;
  for (const LaneSlot& lane : g_lanes) {
    if (lane.calls == 0) continue;
    last_route = std::max(last_route, lane.last_return_ns);
    calls += lane.calls;
    trace.mpc_route_targets += lane.targets;
    trace.mpc_remote_targets += lane.remote;
  }
  if (calls != held) {
    Violation("the probes did not see one Router call per held fact",
              static_cast<std::int64_t>(calls),
              static_cast<std::int64_t>(held));
  }
  trace.mpc_route_calls += calls;
  std::int64_t first_entry = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_return = -1;
  std::int64_t max_eval = 0;
  std::int64_t sum_eval = 0;
  for (const Server& s : servers_) {
    if (s.entry_ns < 0 || s.return_ns < s.entry_ns) {
      Violation("a server's Computer did not run once", s.entry_ns,
                s.return_ns);
    }
    first_entry = std::min(first_entry, s.entry_ns);
    last_return = std::max(last_return, s.return_ns);
    max_eval = std::max(max_eval, s.eval_ns);
    sum_eval += s.eval_ns;
    trace.cq_rows_in += s.rows_in;
    trace.cq_rows_out += s.rows_out;
    trace.cq_rows_scanned += s.rows_scanned;
  }
  const std::int64_t route_ns = last_route - start;
  const std::int64_t exchange_ns = first_entry - last_route;
  const std::int64_t compute_ns = last_return - first_entry;
  const std::int64_t fold_ns = end - last_return;
  if (route_ns < 0) Violation("route window negative", last_route, start);
  if (exchange_ns < 0) {
    Violation("route and compute windows overlap", last_route, first_entry);
  }
  if (compute_ns < 0) {
    Violation("compute window negative", first_entry, last_return);
  }
  if (fold_ns < 0) Violation("fold window negative", last_return, end);
  if (sim.stats().NumRounds() != rounds_before + 1) {
    Violation("RunRound did not append one round",
              static_cast<std::int64_t>(sim.stats().NumRounds()),
              static_cast<std::int64_t>(rounds_before + 1));
  }

  trace.mpc_route_ns += route_ns;
  trace.mpc_exchange_ns += exchange_ns;
  trace.mpc_compute_ns += compute_ns;
  trace.mpc_fold_ns += fold_ns;
  trace.compute_lane_ns += compute_ns * static_cast<std::int64_t>(lanes);
  const lamp::RoundStats& round = sim.stats().rounds.back();
  trace.mpc_windowed_load += round.TotalLoad();
  trace.mpc_max_load_sum += static_cast<double>(round.MaxLoad());
  trace.mpc_avg_load_sum += round.AvgLoad();
  trace.cq_eval_busy_ns += sum_eval;
  trace.cq_max_eval_sum += static_cast<double>(max_eval);
  trace.cq_mean_eval_sum +=
      static_cast<double>(sum_eval) / static_cast<double>(servers_.size());
}

void TimedProgram::OnStart(lamp::NodeContext& ctx) {
  const std::int64_t t0 = NowNs();
  inner_.OnStart(ctx);
  trace_.net_transition_ns += NowNs() - t0;
  ++trace_.net_transitions;
}

void TimedProgram::OnReceive(lamp::NodeContext& ctx,
                             const lamp::Message& message) {
  const std::size_t before = ctx.state().Size();
  const std::int64_t t0 = NowNs();
  inner_.OnReceive(ctx, message);
  trace_.net_transition_ns += NowNs() - t0;
  ++trace_.net_transitions;
  ++trace_.net_messages;
  trace_.net_delivered_facts += message.size();
  trace_.net_state_growth += ctx.state().Size() - before;
}

}  // namespace perfbench
