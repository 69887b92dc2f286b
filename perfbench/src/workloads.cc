#include "workloads.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/shares_skew.h"
#include "net/datalog_program.h"
#include "net/programs.h"
#include "relational/generators.h"

namespace perfbench {

namespace {

using lamp::ConjunctiveQuery;
using lamp::Instance;
using lamp::MpcSimulator;
using lamp::Rng;

/// Routing seed of the strategy functions (bench_join_strategies uses 7).
constexpr std::uint64_t kRouteSeed = 7;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return lamp::HashCombine(lamp::HashMix(a), b);
}

/// The directed path over [0, n) with its node labels permuted by \p rng,
/// so that every seed gives another input of the same shape.
void AddShuffledPath(lamp::RelationId rel, std::size_t n, Rng& rng,
                     Instance& out) {
  std::vector<std::int64_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<std::int64_t>(i);
  rng.Shuffle(label);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out.Insert(lamp::Fact(rel, {label[i], label[i + 1]}));
  }
}

/// A random strongly connected graph: a Hamiltonian cycle through [0, n) in
/// random order plus random chords up to \p m distinct edges. Its
/// transitive closure is all n^2 pairs on every seed, so the closure work
/// does not vary with the seed.
void AddStronglyConnectedGraph(lamp::RelationId rel, std::size_t n,
                               std::size_t m, Rng& rng, Instance& out) {
  std::vector<std::int64_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<std::int64_t>(i);
  rng.Shuffle(label);
  for (std::size_t i = 0; i < n; ++i) {
    out.Insert(lamp::Fact(rel, {label[i], label[(i + 1) % n]}));
  }
  for (std::size_t added = n; added < m;) {
    const auto x = static_cast<std::int64_t>(rng.Uniform(n));
    const auto y = static_cast<std::int64_t>(rng.Uniform(n));
    if (x != y && out.Insert(lamp::Fact(rel, {x, y}))) ++added;
  }
}

/// The circulant digraph i -> i + o (mod n) for every offset o, with its
/// node labels permuted by \p rng. Every seed gives an isomorphic graph,
/// so path and triangle counts do not vary with the seed.
void AddCirculantGraph(lamp::RelationId rel, std::size_t n,
                       const std::vector<std::size_t>& offsets, Rng& rng,
                       Instance& out) {
  std::vector<std::int64_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<std::int64_t>(i);
  rng.Shuffle(label);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o : offsets) {
      out.Insert(lamp::Fact(rel, {label[i], label[(i + o) % n]}));
    }
  }
}

/// \p m distinct uniform pairs over [0, \p domain)^2 whose column
/// \p join_col is shifted to [1, \p domain], so no pair meets the join
/// value 0.
void AddUniformAvoidingZero(lamp::RelationId rel, std::size_t m,
                            std::size_t domain, std::size_t join_col,
                            Rng& rng, Instance& out) {
  for (std::size_t added = 0; added < m;) {
    std::int64_t v[2] = {static_cast<std::int64_t>(rng.Uniform(domain)),
                         static_cast<std::int64_t>(rng.Uniform(domain))};
    v[join_col] += 1;
    if (out.Insert(lamp::Fact(rel, {v[0], v[1]}))) ++added;
  }
}

// ---------------------------------------------------------------------------
// mpc_wire
// ---------------------------------------------------------------------------

enum class Strategy {
  kRepartition,
  kFragmentReplicate,
  kHyperCube,
  kSharesSkew
};

/// Servers of a HyperCube grid.
std::size_t Cells(const lamp::Shares& shares) {
  std::size_t cells = 1;
  for (std::size_t s : shares) cells *= s;
  return cells;
}

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kRepartition: return "repartition";
    case Strategy::kFragmentReplicate: return "fragment_replicate";
    case Strategy::kHyperCube: return "hypercube";
    case Strategy::kSharesSkew: return "shares_skew";
  }
  return "?";
}

class MpcWorkload : public Workload {
 public:
  explicit MpcWorkload(std::uint64_t seed);

 private:
  /// Servers, one loopback TCP endpoint each.
  static constexpr std::size_t kServers = 4;
  /// Tuples per relation of the join inputs.
  static constexpr std::size_t kJoinTuples = 20000;
  /// Tuples per relation of the triangle input.
  static constexpr std::size_t kTriangleTuples = 20000;
  /// Triangles planted into the triangle input, so its output is not empty.
  static constexpr std::size_t kPlantedTriangles = 200;

  void Add(const char* input_name, const ConjunctiveQuery& query,
           const Instance& input, Strategy strategy);
  Answer Run(const ConjunctiveQuery& query, const Instance& input,
             Strategy strategy, LayerTrace* trace) const;
  /// Servers of the simulator a routed strategy builds.
  std::size_t Servers(Strategy strategy) const;

  lamp::Schema schema_;
  ConjunctiveQuery join_;
  ConjunctiveQuery triangle_;
  lamp::Shares triangle_shares_;
  Instance skew_free_;
  Instance heavy_;
  Instance triangles_;
};

MpcWorkload::MpcWorkload(std::uint64_t seed) {
  transport_ = lamp::transport::TransportKind::kTcp;
  join_ = lamp::ParseQuery(schema_, "H(x,y,z) <- R(x,y), S(y,z)");
  triangle_ =
      lamp::ParseQuery(schema_, "T(x,y,z) <- E1(x,y), E2(y,z), E3(z,x)");
  // The best integer grid within the servers (1x2x2): rounded LP shares
  // would need 2x2x2.
  triangle_shares_ = lamp::OptimizeIntegerShares(
      triangle_, kServers,
      std::vector<double>(3, static_cast<double>(kTriangleTuples)));

  const lamp::RelationId r = schema_.IdOf("R");
  const lamp::RelationId s = schema_.IdOf("S");
  const std::size_t m = kJoinTuples;
  // Skew-free: matching relations that meet on the join column.
  Rng rng(Mix(seed, 1));
  lamp::AddMatchingRelation(schema_, r, m, 0, rng, skew_free_);
  lamp::AddMatchingRelation(schema_, s, m, static_cast<std::int64_t>(m), rng,
                            skew_free_);
  // Heavy hitter (bench_join_strategies' skewed input): half of R shares
  // the join value 0, which ten S tuples match. The value is fixed so that
  // the hot server is the same on every seed, and the uniform tuples never
  // take it, so it has exactly ten partners on every seed.
  rng = Rng(Mix(seed, 2));
  const std::int64_t heavy = 0;
  for (std::size_t i = 0; i < m / 2; ++i) {
    heavy_.Insert(lamp::Fact(r, {static_cast<std::int64_t>(i), heavy}));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    heavy_.Insert(lamp::Fact(s, {heavy, static_cast<std::int64_t>(i)}));
  }
  AddUniformAvoidingZero(r, m / 2, 16 * m, 1, rng, heavy_);
  AddUniformAvoidingZero(s, m - 10, 16 * m, 0, rng, heavy_);
  // Triangle: three random matchings over one domain plus planted
  // triangles on fresh values.
  rng = Rng(Mix(seed, 3));
  const lamp::RelationId e[3] = {schema_.IdOf("E1"), schema_.IdOf("E2"),
                                 schema_.IdOf("E3")};
  const std::size_t n = kTriangleTuples;
  for (lamp::RelationId rel : e) {
    std::vector<std::int64_t> image(n);
    for (std::size_t i = 0; i < n; ++i) image[i] = static_cast<std::int64_t>(i);
    rng.Shuffle(image);
    for (std::size_t i = 0; i < n; ++i) {
      triangles_.Insert(
          lamp::Fact(rel, {static_cast<std::int64_t>(i), image[i]}));
    }
  }
  for (std::size_t k = 0; k < kPlantedTriangles; ++k) {
    const auto a = static_cast<std::int64_t>(n + 3 * k);
    triangles_.Insert(lamp::Fact(e[0], {a, a + 1}));
    triangles_.Insert(lamp::Fact(e[1], {a + 1, a + 2}));
    triangles_.Insert(lamp::Fact(e[2], {a + 2, a}));
  }
  inputs_ = {&skew_free_, &heavy_, &triangles_};

  Add("skew_free", join_, skew_free_, Strategy::kRepartition);
  Add("skew_free", join_, skew_free_, Strategy::kFragmentReplicate);
  Add("heavy_hitter", join_, heavy_, Strategy::kRepartition);
  Add("heavy_hitter", join_, heavy_, Strategy::kSharesSkew);
  Add("triangle", triangle_, triangles_, Strategy::kHyperCube);
}

void MpcWorkload::Add(const char* input_name, const ConjunctiveQuery& query,
                      const Instance& input, Strategy strategy) {
  Query q;
  q.name = std::string(input_name) + "/" + StrategyName(strategy);
  q.input_tuples = input.Size();
  q.run = [this, &query, &input, strategy](std::uint64_t, LayerTrace* trace) {
    return Run(query, input, strategy, trace);
  };
  q.reference = [&query, &input] {
    return DigestRelation(lamp::Evaluate(query, input),
                          query.head().relation);
  };
  if (strategy != Strategy::kSharesSkew) {
    q.transport_build = [kind = transport_, servers = Servers(strategy)] {
      const std::int64_t t0 = NowNs();
      auto built = lamp::transport::MakeLoopbackTransport(kind, servers);
      const std::int64_t t1 = NowNs();
      built.reset();
      return t1 - t0;
    };
  }
  mix_.push_back(std::move(q));
}

std::size_t MpcWorkload::Servers(Strategy strategy) const {
  return strategy == Strategy::kHyperCube ? Cells(triangle_shares_) : kServers;
}

Answer MpcWorkload::Run(const ConjunctiveQuery& query, const Instance& input,
                        Strategy strategy, LayerTrace* trace) const {
  Answer answer;
  answer.relation = query.head().relation;
  const std::int64_t t0 = NowNs();
  if (strategy == Strategy::kSharesSkew) {
    // No public router: timed whole.
    answer.whole = lamp::SharesSkewJoin(query, input, kServers, kRouteSeed);
    if (trace != nullptr) trace->mpc_whole_run_ns += NowNs() - t0;
    return answer;
  }
  MpcSimulator::Router router;
  std::size_t servers = kServers;
  switch (strategy) {
    case Strategy::kRepartition:
      router = lamp::RepartitionRouter(query, kServers, kRouteSeed);
      break;
    case Strategy::kFragmentReplicate:
      router = lamp::FragmentReplicateRouter(query, kServers, kRouteSeed);
      break;
    default: {
      auto policy = std::make_shared<const lamp::HypercubePolicy>(
          query, triangle_shares_, lamp::MakeUniverse(1));
      servers = policy->NumNodes();
      router = [policy](lamp::NodeId, const lamp::Fact& f) {
        return policy->ResponsibleNodes(f);
      };
    }
  }
  answer.sim = std::make_unique<MpcSimulator>(servers);
  if (trace == nullptr) {
    answer.sim->LoadInput(input);
    answer.sim->RunRound(router, [&query](lamp::NodeId,
                                          const Instance& received) {
      return MpcSimulator::ComputeResult{Instance(),
                                         lamp::Evaluate(query, received)};
    });
    return answer;
  }
  RoundProbe probe(servers);
  const MpcSimulator::Router routed = probe.WrapRouter(std::move(router));
  const MpcSimulator::Computer compute = probe.EvaluateComputer(query);
  const std::int64_t t1 = NowNs();
  answer.sim->LoadInput(input);
  const std::int64_t t2 = NowNs();
  probe.RunRound(*answer.sim, routed, compute, kLanes, *trace);
  trace->mpc_prepare_ns += t1 - t0;
  trace->mpc_load_input_ns += t2 - t1;
  return answer;
}

// ---------------------------------------------------------------------------
// datalog_tc
// ---------------------------------------------------------------------------

class DatalogWorkload : public Workload {
 public:
  explicit DatalogWorkload(std::uint64_t seed);

 private:
  static constexpr std::size_t kGraphNodes = 200;
  static constexpr std::size_t kGraphEdges = 400;
  static constexpr std::size_t kLongPath = 200;
  static constexpr std::size_t kShortPath = 40;

  void Add(const char* name, const char* text, const char* output,
           const Instance& edb, bool complement);

  lamp::Schema schema_;
  lamp::RelationId e_;
  Instance graph_;
  Instance long_path_;
  Instance short_path_;
};

DatalogWorkload::DatalogWorkload(std::uint64_t seed) {
  e_ = schema_.AddRelation("E", 2);
  Rng rng(Mix(seed, 5));
  AddStronglyConnectedGraph(e_, kGraphNodes, kGraphEdges, rng, graph_);
  AddShuffledPath(e_, kLongPath, rng, long_path_);
  AddShuffledPath(e_, kShortPath, rng, short_path_);
  inputs_ = {&graph_, &long_path_, &short_path_};

  Add("tc_linear/random_graph",
      "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)", "TC", graph_, false);
  Add("tc_nonlinear/path",
      "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)", "TC", long_path_,
      false);
  Add("not_tc/path",
      "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)\n"
      "OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)",
      "OUT", short_path_, true);
}

void DatalogWorkload::Add(const char* name, const char* text,
                          const char* output, const Instance& edb,
                          bool complement) {
  // Parsed once here so that set-up covers the queries; every run parses
  // the text again, as a submitted program would be.
  lamp::ParseProgram(schema_, text);
  const lamp::RelationId out = schema_.IdOf(output);
  Query q;
  q.name = name;
  q.input_tuples = edb.Size();
  q.run = [this, text, out, &edb](std::uint64_t, LayerTrace* trace) {
    Answer answer;
    answer.relation = out;
    const std::int64_t t0 = NowNs();
    const lamp::DatalogProgram program = lamp::ParseProgram(schema_, text);
    const std::int64_t t1 = NowNs();
    lamp::DatalogStats stats;
    answer.instance = lamp::EvaluateProgram(
        schema_, program, edb, trace != nullptr ? &stats : nullptr);
    if (trace != nullptr) {
      trace->datalog_parse_ns += t1 - t0;
      trace->datalog_eval_ns += NowNs() - t1;
      trace->datalog_iterations += stats.iterations;
      trace->datalog_facts_derived += stats.facts_derived;
      trace->datalog_rows_scanned += stats.rows_scanned;
    }
    return answer;
  };
  q.reference = [this, &edb, complement] {
    const std::vector<Edge> edges = EdgesOf(edb, e_);
    return complement ? NonClosureDigest(edges) : ClosureDigest(edges);
  };
  mix_.push_back(std::move(q));
}

// ---------------------------------------------------------------------------
// net_calm
// ---------------------------------------------------------------------------

class NetWorkload : public Workload {
 public:
  explicit NetWorkload(std::uint64_t seed);

 private:
  static constexpr std::size_t kNodes = 4;
  static constexpr std::size_t kTcGraphNodes = 50;
  static constexpr std::size_t kTcGraphEdges = 100;
  static constexpr std::size_t kTriGraphNodes = 60;
  static constexpr std::size_t kPlantedTriangles = 4;

  void Add(const char* name, lamp::TransducerProgram& program,
           const Instance& graph, lamp::RelationId output,
           std::function<Digest()> reference);

  std::uint64_t seed_;
  lamp::Schema schema_;
  lamp::RelationId e_;
  lamp::DatalogProgram tc_;
  ConjunctiveQuery triangle_;
  ConjunctiveQuery open_triangle_;
  Instance tc_graph_;
  Instance tri_graph_;
  std::deque<std::vector<Instance>> locals_;  // Stable element addresses.
  std::unique_ptr<lamp::DistributedDatalogProgram> tc_program_;
  std::unique_ptr<lamp::MonotoneBroadcastProgram> triangle_program_;
  std::unique_ptr<lamp::CoordinatedBarrierProgram> open_program_;
};

NetWorkload::NetWorkload(std::uint64_t seed) : seed_(seed) {
  e_ = schema_.AddRelation("E", 2);
  tc_ = lamp::ParseProgram(schema_,
                           "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)");
  triangle_ = lamp::ParseQuery(
      schema_, "T(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z");
  open_triangle_ =
      lamp::ParseQuery(schema_, "O(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  Rng rng(Mix(seed, 6));
  AddStronglyConnectedGraph(e_, kTcGraphNodes, kTcGraphEdges, rng, tc_graph_);
  AddCirculantGraph(e_, kTriGraphNodes, {1, 2, 3, 5, 8, 13, 21, 34}, rng,
                    tri_graph_);
  lamp::AddTriangleClusters(schema_, e_, kPlantedTriangles,
                            static_cast<std::int64_t>(kTriGraphNodes),
                            tri_graph_);
  inputs_ = {&tc_graph_, &tri_graph_};

  tc_program_ =
      std::make_unique<lamp::DistributedDatalogProgram>(schema_, tc_);
  triangle_program_ = std::make_unique<lamp::MonotoneBroadcastProgram>(
      [this](const Instance& i) { return lamp::Evaluate(triangle_, i); });
  open_program_ = std::make_unique<lamp::CoordinatedBarrierProgram>(
      [this](const Instance& i) { return lamp::Evaluate(open_triangle_, i); },
      schema_);

  Add("tc/distributed_datalog", *tc_program_, tc_graph_, schema_.IdOf("TC"),
      [this] { return ClosureDigest(EdgesOf(tc_graph_, e_)); });
  Add("triangle/monotone_broadcast", *triangle_program_, tri_graph_,
      triangle_.head().relation, [this] {
        return DigestRelation(lamp::Evaluate(triangle_, tri_graph_),
                              triangle_.head().relation);
      });
  Add("open_triangle/coordinated_barrier", *open_program_, tri_graph_,
      open_triangle_.head().relation, [this] {
        return DigestRelation(lamp::Evaluate(open_triangle_, tri_graph_),
                              open_triangle_.head().relation);
      });
}

void NetWorkload::Add(const char* name, lamp::TransducerProgram& program,
                      const Instance& graph, lamp::RelationId output,
                      std::function<Digest()> reference) {
  locals_.push_back(lamp::DistributeRoundRobin(graph, kNodes));
  const std::vector<Instance>& locals = locals_.back();
  const std::uint64_t index = mix_.size();
  Query q;
  q.name = name;
  q.input_tuples = graph.Size();
  q.run = [this, &program, &locals, output, index](std::uint64_t pass,
                                                   LayerTrace* trace) {
    // One scheduler seed per query: every pass explores new schedules.
    const std::uint64_t schedule = Mix(Mix(seed_, pass), index);
    Answer answer;
    answer.relation = output;
    if (trace == nullptr) {
      lamp::TransducerNetwork network(locals, program);
      answer.net = network.Run(schedule);
      return answer;
    }
    TimedProgram timed(program, *trace);
    const std::int64_t t0 = NowNs();
    lamp::TransducerNetwork network(locals, timed);
    answer.net = network.Run(schedule);
    trace->net_run_ns += NowNs() - t0;
    return answer;
  };
  q.reference = std::move(reference);
  mix_.push_back(std::move(q));
}

}  // namespace

const Instance& Answer::Output() const {
  if (sim != nullptr) return sim->output();
  if (whole.has_value()) return whole->output;
  if (net.has_value()) return net->output;
  return instance;
}

Costs Answer::GetCosts() const {
  const lamp::RunStats* stats = sim != nullptr      ? &sim->stats()
                                : whole.has_value() ? &whole->stats
                                                    : nullptr;
  if (stats != nullptr) {
    return Costs{stats->MaxLoad(), stats->TotalCommunication(),
                 stats->TotalWireBytes()};
  }
  if (net.has_value()) {
    return Costs{0, net->facts_transferred(), net->wire_bytes()};
  }
  return Costs{};
}

Digest Workload::InputDigest() const {
  Digest digest;
  for (const Instance* input : inputs_) digest.Add(DigestInstance(*input));
  return digest;
}

std::vector<std::string> WorkloadNames() {
  return {"mpc_wire", "datalog_tc", "net_calm"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "mpc_wire") return std::make_unique<MpcWorkload>(seed);
  if (name == "datalog_tc") return std::make_unique<DatalogWorkload>(seed);
  if (name == "net_calm") return std::make_unique<NetWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
