#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cq/cq.h"
#include "mpc/simulator.h"
#include "net/transducer.h"

/// \file
/// Layer probes that observe the library from outside: they wrap the
/// callbacks the public API accepts (MpcSimulator's Router and Computer,
/// a TransducerProgram) and time the calls the benchmark makes, so no
/// library code is instrumented. A traced query folds what its probes saw
/// into a LayerTrace.

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A traced run broke a window invariant. It fails the run: a metric built
/// on inconsistent windows would be meaningless.
class WindowViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-layer sums over the traced queries. Times are nanoseconds; the
/// report divides by the number of traced passes.
struct LayerTrace {
  // mpc: windows of every RunRound, plus the time around it.
  std::int64_t mpc_prepare_ns = 0;     // Simulator, router, computer.
  std::int64_t mpc_load_input_ns = 0;  // MpcSimulator::LoadInput.
  std::int64_t mpc_route_ns = 0;       // Entry -> last Router return.
  std::int64_t mpc_exchange_ns = 0;    // -> first Computer entry.
  std::int64_t mpc_compute_ns = 0;     // -> last Computer return.
  std::int64_t mpc_fold_ns = 0;        // -> RunRound return.
  std::int64_t mpc_whole_run_ns = 0;   // Strategies without a public router.
  std::uint64_t mpc_route_calls = 0;
  std::uint64_t mpc_route_targets = 0;
  std::uint64_t mpc_remote_targets = 0;  // Targets other than the source.
  std::uint64_t mpc_windowed_load = 0;   // Load counted in probed rounds.
  double mpc_max_load_sum = 0;  // Sum over rounds of the max server load.
  double mpc_avg_load_sum = 0;  // Sum over rounds of the mean server load.
  std::int64_t compute_lane_ns = 0;  // Compute window x pool lanes.

  // cq: the Evaluate calls inside the Computer.
  std::int64_t cq_eval_busy_ns = 0;
  double cq_max_eval_sum = 0;   // Sum over rounds of the slowest server.
  double cq_mean_eval_sum = 0;  // Sum over rounds of the mean server.
  std::uint64_t cq_rows_in = 0;
  std::uint64_t cq_rows_out = 0;
  std::uint64_t cq_rows_scanned = 0;

  // datalog
  std::int64_t datalog_parse_ns = 0;
  std::int64_t datalog_eval_ns = 0;
  std::uint64_t datalog_iterations = 0;
  std::uint64_t datalog_facts_derived = 0;
  std::uint64_t datalog_rows_scanned = 0;

  // net
  std::int64_t net_run_ns = 0;
  std::int64_t net_transition_ns = 0;
  std::uint64_t net_transitions = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_delivered_facts = 0;
  std::uint64_t net_state_growth = 0;

  // transport: a loopback transport like the one an mpc_wire simulator
  // opens inside its RunRound, built outside the query timer.
  std::int64_t transport_build_ns = 0;

  // Freeing the query's result, the last part of the query time.
  std::int64_t free_ns = 0;

  /// Sum of the layer windows that tile each query.
  std::int64_t CoveredNs() const {
    return mpc_prepare_ns + mpc_load_input_ns + mpc_route_ns +
           mpc_exchange_ns + mpc_compute_ns + mpc_fold_ns + mpc_whole_run_ns +
           datalog_parse_ns + datalog_eval_ns + net_run_ns + free_ns;
  }
};

/// Probes one MpcSimulator::RunRound from outside. The route window ends
/// at the last Router return, seen from any pool lane; the compute window
/// spans the Computer calls. Together with the exchange and fold gaps they
/// are consecutive differences of five timestamps, so they tile the
/// RunRound call by construction; what RunRound() checks is that the
/// timestamps come in that order and that the probes saw the whole round.
class RoundProbe {
 public:
  explicit RoundProbe(std::size_t servers) : servers_(servers) {}
  RoundProbe(const RoundProbe&) = delete;
  RoundProbe& operator=(const RoundProbe&) = delete;

  /// Wraps \p inner; the wrapper counts calls and targets per pool lane
  /// and stamps each return, for the next RunRound to collect.
  static lamp::MpcSimulator::Router WrapRouter(
      lamp::MpcSimulator::Router inner);

  /// The computation every one-round strategy runs (cq::Evaluate of
  /// \p query on the received data), stamped per server. \p query and the
  /// probe must outlive the returned Computer.
  lamp::MpcSimulator::Computer EvaluateComputer(
      const lamp::ConjunctiveQuery& query);

  /// Runs one round on \p sim and folds its windows into \p trace.
  /// Throws WindowViolation when the windows are inconsistent.
  void RunRound(lamp::MpcSimulator& sim,
                const lamp::MpcSimulator::Router& route,
                const lamp::MpcSimulator::Computer& compute,
                std::size_t lanes, LayerTrace& trace);

 private:
  struct Server {
    std::int64_t entry_ns = -1;
    std::int64_t eval_ns = 0;
    std::int64_t return_ns = -1;
    std::size_t rows_in = 0;
    std::size_t rows_out = 0;
    std::size_t rows_scanned = 0;
  };
  std::vector<Server> servers_;
};

/// Decorates a TransducerProgram: times every transition and counts
/// deliveries and the state growth they cause.
class TimedProgram : public lamp::TransducerProgram {
 public:
  TimedProgram(lamp::TransducerProgram& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  void OnStart(lamp::NodeContext& ctx) override;
  void OnReceive(lamp::NodeContext& ctx, const lamp::Message& message) override;

 private:
  lamp::TransducerProgram& inner_;
  LayerTrace& trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
