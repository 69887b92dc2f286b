// The repository benchmark: one caller in a closed loop issues one query at
// a time against the public API of lamp::mpc, cq, datalog and net, two
// lamp::par lanes wide.
//
//   lampbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it times whole queries in CPU time and prints the
// end-to-end metrics; with --trace 1 it alternates untraced and probed
// passes and prints the per-layer metrics, wall-time latency among them.
// The last line of stdout is one JSON object; perfbench/README.md defines
// every metric.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "oracle.h"
#include "par/thread_pool.h"
#include "probes.h"
#include "transport/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-up runs this many times before the first query, and once more
/// after every timed pass of an end-to-end run, so that its median samples
/// the host over the whole run, as the query times do.
constexpr std::size_t kSetupRuns = 5;
/// p90 must keep at least ten samples beyond it.
constexpr std::size_t kMinSamples = 100;
/// Untraced/traced pass pairs a trace run makes at least.
constexpr std::size_t kMinTracePairs = 3;
/// Warm-up runs whole untraced passes for at least this long before any
/// pass is timed. The host runs faster for a few seconds after being idle,
/// and one pass was too short to get past that.
constexpr double kWarmupSeconds = 3;
/// Blocks at least this large get their own mapping (glibc's largest
/// automatic threshold on 64-bit hosts).
constexpr int kMmapThresholdBytes = 32 << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lampbench: %s\nusage: lampbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      seed_given = end != value.c_str() && *end == '\0';
      if (!seed_given) Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1" ? 1 : 0;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty() || !seed_given || args.seconds <= 0 ||
      args.trace < 0) {
    Usage("all four flags are required");
  }
  return args;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between closest ranks.
double Percentile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// CPU time of every thread of this process: the caller, the pool lane and,
/// on mpc_wire, the relay thread. Unlike wall time it leaves out the time
/// the hypervisor gives this VM's vCPUs to other guests (steal), which on a
/// shared host swings by minutes and moves every wall time with it.
std::int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Counts queries and checks each output against its reference outside the
/// timed region. A failed query counts as infinitely slow.
struct Tally {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<std::vector<double>> wall_by_query;  // Indexed like the mix.
  std::vector<std::vector<double>> cpu_by_query;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Record(std::size_t query, double wall, double cpu, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      wall = cpu = std::numeric_limits<double>::infinity();
    }
    wall_ms.push_back(wall);
    cpu_ms.push_back(cpu);
    if (wall_by_query.size() <= query) {
      wall_by_query.resize(query + 1);
      cpu_by_query.resize(query + 1);
    }
    wall_by_query[query].push_back(wall);
    cpu_by_query[query].push_back(cpu);
  }
};

/// The outcome of one pass of the mix.
struct Pass {
  double ms = 0;                 // Summed query wall time.
  double cpu_ms = 0;             // Summed query CPU time.
  double completed_tuples = 0;   // Input tuples of the correct queries.
  Costs costs;                   // Summed cost measures.
  std::vector<Digest> outputs;   // One digest per query.
};

/// Runs every query of the mix once. A query's time, wall and CPU, is its
/// run call plus freeing its answer, which closes whatever the run opened
/// (on mpc_wire the loopback transport); the output check between the two
/// is not timed.
Pass RunPass(const Workload& w, const std::vector<Digest>& references,
             std::uint64_t pass_index, LayerTrace* trace, Tally* tally) {
  Pass pass;
  for (std::size_t i = 0; i < w.mix().size(); ++i) {
    const Query& q = w.mix()[i];
    if (trace != nullptr && q.transport_build) {
      trace->transport_build_ns += q.transport_build();
    }
    Answer answer;
    bool threw = false;
    const std::int64_t c0 = CpuNs();
    const std::int64_t t0 = NowNs();
    try {
      answer = q.run(pass_index, trace);
    } catch (const WindowViolation&) {
      throw;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lampbench: query %s aborted: %s\n",
                   q.name.c_str(), e.what());
      threw = true;
    }
    const std::int64_t run_ns = NowNs() - t0;
    const std::int64_t run_cpu_ns = CpuNs() - c0;
    const Digest out = threw ? Digest{} : answer.OutputDigest();
    const bool ok = !threw && out == references[i];
    if (!ok && !threw) {
      std::fprintf(stderr,
                   "lampbench: query %s output differs from the reference "
                   "(%" PRIu64 " rows vs %" PRIu64 ")\n",
                   q.name.c_str(), out.count, references[i].count);
    }
    if (!threw) pass.costs.Add(answer.GetCosts());
    pass.outputs.push_back(out);
    const std::int64_t c1 = CpuNs();
    const std::int64_t t1 = NowNs();
    answer = Answer();
    const std::int64_t free_ns = NowNs() - t1;
    const std::int64_t free_cpu_ns = CpuNs() - c1;
    if (trace != nullptr) trace->free_ns += free_ns;
    const double ms = NsToMs(run_ns + free_ns);
    const double cpu_ms = NsToMs(run_cpu_ns + free_cpu_ns);
    pass.ms += ms;
    pass.cpu_ms += cpu_ms;
    if (ok) pass.completed_tuples += static_cast<double>(q.input_tuples);
    if (tally != nullptr) tally->Record(i, ms, cpu_ms, ok);
  }
  return pass;
}

/// The oracle must reject a corrupted output: the first query's answer
/// with one row changed, and with one row added. Exits if it does not.
void OracleSelfTest(const Workload& w, const std::vector<Digest>& references) {
  const Answer answer = w.mix()[0].run(0, nullptr);
  const lamp::RowsView rows = answer.Output().RowsOf(answer.relation);
  if (rows.num_rows == 0) {
    std::fprintf(stderr, "lampbench: self-test needs a non-empty output\n");
    std::exit(3);
  }
  std::vector<lamp::Value> changed(rows.Row(0), rows.Row(0) + rows.arity);
  changed[0] = lamp::Value(-1 - changed[0].v);
  lamp::Instance replaced;
  lamp::Instance added;
  replaced.InsertRow(answer.relation, changed.data(), rows.arity);
  for (std::size_t i = 0; i < rows.num_rows; ++i) {
    if (i > 0) replaced.InsertRow(answer.relation, rows.Row(i), rows.arity);
    added.InsertRow(answer.relation, rows.Row(i), rows.arity);
  }
  added.InsertRow(answer.relation, changed.data(), rows.arity);

  Tally tally;
  const lamp::Instance* outputs[] = {&answer.Output(), &replaced, &added};
  for (const lamp::Instance* output : outputs) {
    const bool ok =
        DigestRelation(*output, answer.relation) == references[0];
    tally.Record(0, 1, 1, ok);
  }
  if (tally.failed != 2) {
    std::fprintf(stderr,
                 "lampbench: oracle self-test failed (%zu of 3 outputs "
                 "flagged, expected the 2 corrupted ones)\n",
                 tally.failed);
    std::exit(3);
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; a percentile made of failed queries prints as
    // the largest double.
    const double value = std::isfinite(metrics[i].value)
                             ? metrics[i].value
                             : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The resident-set high-water mark of this process image (VmHWM).
/// getrusage's ru_maxrss would also count the launching process, whose
/// peak survives exec.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

/// CPU seconds to generate the inputs of \p args' workload and parse its
/// queries into \p w, which it replaces. Set-up runs on the calling thread
/// alone.
double TimedSetup(const Args& args, std::unique_ptr<Workload>& w) {
  w.reset();
  const std::int64_t c0 = CpuNs();
  w = MakeWorkload(args.workload, args.seed);
  const double s = NsToMs(CpuNs() - c0) / 1e3;
  if (w == nullptr) Usage("unknown workload");
  return s;
}

/// p50 and p90 of \p samples, printed with the number beyond p90.
std::pair<double, double> P50P90(std::vector<double> samples,
                                 const char* what) {
  std::sort(samples.begin(), samples.end());
  const double p50 = Percentile(samples, 0.5);
  const double p90 = Percentile(samples, 0.9);
  std::printf("# %s p50=%.3f p90=%.3f over %zu queries (%zu beyond p90)\n",
              what, p50, p90, samples.size(),
              static_cast<std::size_t>(
                  std::count_if(samples.begin(), samples.end(),
                                [p90](double v) { return v > p90; })));
  return {p50, p90};
}

std::vector<Metric> EndToEnd(const Workload& w,
                             const std::vector<Digest>& references,
                             const Args& args, std::vector<double> setup_s,
                             Tally& tally) {
  std::vector<double> tuples_per_cpu_s;  // One value per pass.
  const std::int64_t start = NowNs();
  for (std::uint64_t pass = 1;; ++pass) {
    const Pass p = RunPass(w, references, pass, nullptr, &tally);
    tuples_per_cpu_s.push_back(Ratio(p.completed_tuples, p.cpu_ms / 1e3));
    std::unique_ptr<Workload> copy;
    setup_s.push_back(TimedSetup(args, copy));
    const double elapsed = NsToMs(NowNs() - start) / 1e3;
    if (elapsed >= args.seconds && tally.attempted >= kMinSamples) break;
  }
  const auto [p50, p90] = P50P90(tally.cpu_ms, "query_cpu_ms");
  P50P90(tally.wall_ms, "query_wall_ms");
  for (std::size_t i = 0; i < w.mix().size(); ++i) {
    std::printf("#   %-40s median cpu %9.3f ms, wall %9.3f ms\n",
                w.mix()[i].name.c_str(), Median(tally.cpu_by_query[i]),
                Median(tally.wall_by_query[i]));
  }
  return {
      {"query_cpu_ms_p50", p50, "ms"},
      {"query_cpu_ms_p90", p90, "ms"},
      {"input_tuples_per_cpu_s", Median(tuples_per_cpu_s), "tuples/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metrics. Counts come from pass 0, whose inputs and network
/// schedules the seed fixes, so they repeat exactly; layer times are means
/// over every traced pass, and the wall-time latency comes from the
/// untraced passes, which \p tally records.
std::vector<Metric> PerLayer(const Workload& w,
                             const std::vector<Digest>& references,
                             double seconds, Tally& tally) {
  Tally traced;
  const Pass plain0 = RunPass(w, references, 0, nullptr, &tally);
  LayerTrace first;
  const Pass traced0 = RunPass(w, references, 0, &first, &traced);
  if (!(plain0.costs == traced0.costs) || plain0.outputs != traced0.outputs) {
    std::fprintf(stderr,
                 "lampbench: the traced pass changed the result (costs or "
                 "output digests differ from the untraced pass)\n");
    std::exit(3);
  }

  LayerTrace all = first;
  double traced_ms = traced0.ms;
  std::size_t traced_passes = 1;
  std::vector<double> plain_pass_ms;
  std::vector<double> traced_pass_ms;
  const std::int64_t start = NowNs();
  for (std::uint64_t pass = 1;; ++pass) {
    // Alternate which side runs first so drift hits both alike.
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pass % 2 == 0)) {
        plain_pass_ms.push_back(
            RunPass(w, references, pass, nullptr, &tally).ms);
      } else {
        const Pass p = RunPass(w, references, pass, &all, &traced);
        traced_pass_ms.push_back(p.ms);
        traced_ms += p.ms;
        ++traced_passes;
      }
    }
    const double elapsed = NsToMs(NowNs() - start) / 1e3;
    if (elapsed >= seconds && plain_pass_ms.size() >= kMinTracePairs) break;
  }

  const auto [wall_p50, wall_p90] = P50P90(tally.wall_ms, "query_wall_ms");
  tally.attempted += traced.attempted;
  tally.failed += traced.failed;

  const double n = static_cast<double>(traced_passes);
  const auto ms = [n](std::int64_t ns) { return NsToMs(ns) / n; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const Costs& c = plain0.costs;
  const double plain_median = Median(plain_pass_ms);
  return {
      {"query.wall_ms_p50", wall_p50, "ms"},
      {"query.wall_ms_p90", wall_p90, "ms"},
      {"mpc.prepare_ms", ms(all.mpc_prepare_ns), "ms"},
      {"mpc.load_input_ms", ms(all.mpc_load_input_ns), "ms"},
      {"mpc.route_ms", ms(all.mpc_route_ns), "ms"},
      {"mpc.exchange_ms", ms(all.mpc_exchange_ns), "ms"},
      {"mpc.compute_ms", ms(all.mpc_compute_ns), "ms"},
      {"mpc.fold_ms", ms(all.mpc_fold_ns), "ms"},
      {"mpc.whole_run_ms", ms(all.mpc_whole_run_ns), "ms"},
      {"mpc.route_calls", count(first.mpc_route_calls), "count"},
      {"mpc.route_targets", count(first.mpc_route_targets), "count"},
      {"mpc.replication",
       Ratio(count(first.mpc_route_targets), count(first.mpc_route_calls)),
       "ratio"},
      {"mpc.dedup_useful_frac",
       Ratio(count(first.mpc_windowed_load), count(first.mpc_remote_targets)),
       "ratio"},
      {"mpc.load_skew", Ratio(first.mpc_max_load_sum, first.mpc_avg_load_sum),
       "ratio"},
      {"cq.eval_busy_ms", ms(all.cq_eval_busy_ns), "ms"},
      {"cq.straggler_ratio", Ratio(all.cq_max_eval_sum, all.cq_mean_eval_sum),
       "ratio"},
      {"cq.rows_in", count(first.cq_rows_in), "count"},
      {"cq.rows_out", count(first.cq_rows_out), "count"},
      {"cq.rows_scanned", count(first.cq_rows_scanned), "count"},
      {"par.compute_efficiency",
       Ratio(static_cast<double>(all.cq_eval_busy_ns),
             static_cast<double>(all.compute_lane_ns)),
       "ratio"},
      {"transport.bytes_per_tuple", Ratio(count(c.wire), count(c.comm)),
       "B/tuple"},
      {"transport.build_ms", ms(all.transport_build_ns), "ms"},
      {"query.free_ms", ms(all.free_ns), "ms"},
      {"datalog.parse_ms", ms(all.datalog_parse_ns), "ms"},
      {"datalog.eval_ms", ms(all.datalog_eval_ns), "ms"},
      {"datalog.iterations", count(first.datalog_iterations), "count"},
      {"datalog.facts_derived", count(first.datalog_facts_derived), "count"},
      {"datalog.rows_scanned", count(first.datalog_rows_scanned), "count"},
      {"datalog.scan_per_fact",
       Ratio(count(first.datalog_rows_scanned),
             count(first.datalog_facts_derived)),
       "ratio"},
      {"net.run_ms", ms(all.net_run_ns), "ms"},
      {"net.transition_busy_ms", ms(all.net_transition_ns), "ms"},
      {"net.delivery_ms", ms(all.net_run_ns - all.net_transition_ns), "ms"},
      {"net.transitions", count(first.net_transitions), "count"},
      {"net.messages", count(first.net_messages), "count"},
      {"net.new_fact_frac",
       Ratio(count(first.net_state_growth), count(first.net_delivered_facts)),
       "ratio"},
      {"cost.max_load_tuples", count(c.max_load), "tuples"},
      {"cost.comm_tuples", count(c.comm), "tuples"},
      {"cost.wire_bytes", count(c.wire), "B"},
      {"trace.coverage_frac",
       Ratio(NsToMs(all.CoveredNs()), traced_ms), "ratio"},
      {"trace.overhead_frac",
       Ratio(Median(traced_pass_ms) - plain_median, plain_median), "ratio"},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // glibc moves its mmap threshold up to the largest block freed so far and
  // hands freed heap back to the kernel past a threshold, so peak RSS and
  // page faults would depend on the order in which the lanes and the relay
  // thread free their blocks. Fixed thresholds make both repeat.
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, 2 * kMmapThresholdBytes);

  // Set-up: generate the inputs and parse the queries, several times.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  while (setup_s.size() < kSetupRuns) setup_s.push_back(TimedSetup(args, w));
  lamp::par::SetDefaultThreads(kLanes);
  lamp::transport::SetActiveKind(w->transport());

  std::vector<Digest> references;
  for (const Query& q : w->mix()) references.push_back(q.reference());
  OracleSelfTest(*w, references);

  const Digest inputs = w->InputDigest();
  std::printf("# workload=%s seed=%" PRIu64 " transport=%s lanes=%zu "
              "queries/pass=%zu input_digest=%" PRIu64 ":%016" PRIx64 "\n",
              args.workload.c_str(), args.seed,
              std::string(lamp::transport::TransportKindName(w->transport()))
                  .c_str(),
              kLanes, w->mix().size(), inputs.count, inputs.sum);

  // Warm-up: lazy set-up (pool, sockets, caches) happens here too.
  const std::int64_t warmup_start = NowNs();
  do {
    RunPass(*w, references, 0, nullptr, nullptr);
  } while (NsToMs(NowNs() - warmup_start) / 1e3 < kWarmupSeconds);

  Tally tally;
  std::vector<Metric> metrics;
  try {
    if (args.trace == 0) {
      metrics = EndToEnd(*w, references, args, setup_s, tally);
    } else {
      metrics = PerLayer(*w, references, args.seconds, tally);
    }
  } catch (const WindowViolation& e) {
    std::fprintf(stderr, "lampbench: %s\n", e.what());
    return 3;
  }
  PrintResult(tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
