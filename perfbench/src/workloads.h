#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpc/join_strategies.h"
#include "mpc/simulator.h"
#include "net/network.h"
#include "oracle.h"
#include "probes.h"
#include "transport/transport.h"

/// \file
/// The three workloads. Each generates its inputs from the workload seed and
/// holds a fixed query mix; one pass runs every query of the mix once, in
/// order. The library sees only the generated Instances.

namespace perfbench {

/// Lanes of the lamp::par pool: one caller, two lanes, on a 4-core host.
inline constexpr std::size_t kLanes = 2;

/// The paper's cost measures for one query.
struct Costs {
  std::uint64_t max_load = 0;  // RunStats::MaxLoad (mpc only).
  std::uint64_t comm = 0;      // Tuples communicated.
  std::uint64_t wire = 0;      // lamp.wire.v1 bytes.

  void Add(const Costs& o) {
    max_load += o.max_load;
    comm += o.comm;
    wire += o.wire;
  }
  friend bool operator==(const Costs& a, const Costs& b) {
    return a.max_load == b.max_load && a.comm == b.comm && a.wire == b.wire;
  }
};

/// One query's result. It keeps whatever holds the output (the simulator,
/// the run result) so the output is read after the query timer stops.
struct Answer {
  std::unique_ptr<lamp::MpcSimulator> sim;
  std::optional<lamp::MpcRunResult> whole;
  std::optional<lamp::NetworkRunResult> net;
  lamp::Instance instance;
  lamp::RelationId relation = 0;  // The relation holding the result.

  /// The instance that holds the result rows.
  const lamp::Instance& Output() const;
  Digest OutputDigest() const { return DigestRelation(Output(), relation); }
  Costs GetCosts() const;
};

struct Query {
  std::string name;
  std::size_t input_tuples = 0;
  /// Runs the query once. \p pass selects the network scheduler seed;
  /// with a non-null \p trace the layer probes record into it.
  std::function<Answer(std::uint64_t pass, LayerTrace* trace)> run;
  /// The expected output, computed without the code path under test.
  std::function<Digest()> reference;
  /// For queries whose simulator opens a socket transport: builds and
  /// frees a loopback transport of the same kind and size, returning the
  /// build time in nanoseconds. Traced passes call it before the query
  /// timer starts. Null for every other query.
  std::function<std::int64_t()> transport_build;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::vector<Query>& mix() const { return mix_; }
  lamp::transport::TransportKind transport() const { return transport_; }

  /// Digest over every generated input; differs between seeds.
  Digest InputDigest() const;

 protected:
  std::vector<Query> mix_;
  std::vector<const lamp::Instance*> inputs_;
  lamp::transport::TransportKind transport_ =
      lamp::transport::TransportKind::kInProcess;
};

/// Generates the inputs of workload \p name from \p seed and parses its
/// queries; nullptr when the name is unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

/// The workload names MakeWorkload accepts.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
