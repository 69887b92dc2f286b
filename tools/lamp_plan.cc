// lamp_plan: static cost-based distribution planner CLI.
//
//   lamp_plan [options] "H(x,z) <- R(x,y), S(y,z)"...
//                          plan query literals against a statistics catalog
//   lamp_plan [options] --demo
//                          build skew-free and skewed demo workloads,
//                          derive their catalogs, and plan both (no files)
//   lamp_plan check --pins FILE <records.jsonl>...
//                          planner-agreement gate: every
//                          lamp.plan_agreement.v1 record must Agree() or
//                          be pinned; dangling pins fail too
//
//   --catalog FILE     lamp.catalog.v1 JSON (required unless --demo)
//   --p N              server budget (default 4)
//   --json             emit the lamp.plan.v1 document (array when more
//                      than one query is planned)
//   --explain          text mode: include formulas and applied rewrites
//   --strict           exit 1 when a certificate carries hazards or no
//                      feasible strategy
//   --report FILE      check mode: write a JSON gate summary
//
// Exit codes: 0 clean, 1 strict violations, 2 usage or I/O errors,
// 5 (kPlanGateFailExit) failed agreement gate.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/parser.h"
#include "obs/audit/catalog.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "relational/instance.h"
#include "sa/plan/agreement.h"
#include "sa/plan/plan.h"

namespace lamp::sa::plan {
namespace {

struct Cli {
  bool demo = false;
  bool json = false;
  bool strict = false;
  bool explain = false;
  std::string catalog_path;
  std::size_t p = 4;
  std::vector<std::string> queries;
};

/// The demo workloads mirror bench_join_strategies: a skew-free binary
/// join where repartition is optimal, and the same join with half of R
/// landing on one join value, where only the skew-aware strategies keep
/// the load near m/sqrt(p).
struct DemoScenario {
  std::string name;
  Schema schema;
  obs::audit::Catalog catalog;
  ConjunctiveQuery query;
};

DemoScenario MakeDemo(bool skewed) {
  DemoScenario scenario;
  scenario.name = skewed ? "skewed" : "skew_free";
  scenario.query =
      ParseQuery(scenario.schema, "H(x,z) <- R(x,y), S(y,z)");
  const RelationId r = scenario.schema.IdOf("R");
  const RelationId s = scenario.schema.IdOf("S");
  constexpr std::size_t kFacts = 20000;
  const auto range = static_cast<std::int64_t>(16 * kFacts);
  Rng rng(skewed ? 7 : 3);
  Instance instance;
  for (std::size_t i = 0; i < kFacts; ++i) {
    const bool heavy = skewed && i < kFacts / 2;
    const Value y =
        heavy ? Value{0} : Value{rng.UniformInt(1, range)};
    instance.Insert(Fact{r, {Value{rng.UniformInt(0, range)}, y}});
  }
  for (std::size_t i = 0; i < kFacts; ++i) {
    const bool heavy = skewed && i < 10;
    const Value y =
        heavy ? Value{0} : Value{rng.UniformInt(1, range)};
    instance.Insert(Fact{s, {y, Value{rng.UniformInt(0, range)}}});
  }
  scenario.catalog = obs::audit::BuildCatalog(scenario.schema, instance);
  return scenario;
}

int RunPlan(const Cli& cli) {
  struct Planned {
    std::string name;
    PlanCertificate cert;
  };
  std::vector<Planned> results;
  PlanOptions options;
  options.p = cli.p;

  if (cli.demo) {
    for (const bool skewed : {false, true}) {
      DemoScenario scenario = MakeDemo(skewed);
      Planned& out = results.emplace_back();
      out.name = scenario.name;
      out.cert = PlanQuery(scenario.query, scenario.schema,
                           scenario.catalog, options);
    }
  } else {
    const std::optional<std::string> text = obs::ReadFile(cli.catalog_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "lamp_plan: cannot read %s\n",
                   cli.catalog_path.c_str());
      return 2;
    }
    const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
    if (!doc.has_value()) {
      std::fprintf(stderr, "lamp_plan: %s is not valid JSON\n",
                   cli.catalog_path.c_str());
      return 2;
    }
    const std::optional<obs::audit::Catalog> catalog =
        obs::audit::Catalog::FromJson(*doc);
    if (!catalog.has_value()) {
      std::fprintf(stderr,
                   "lamp_plan: %s is not a lamp.catalog.v1 document\n",
                   cli.catalog_path.c_str());
      return 2;
    }
    for (const std::string& text_query : cli.queries) {
      Schema schema;
      CqParseResult parsed = TryParseQuery(schema, text_query);
      if (!parsed.ok()) {
        std::fprintf(stderr, "lamp_plan: %s: %s\n", text_query.c_str(),
                     parsed.error.c_str());
        return 2;
      }
      Planned& out = results.emplace_back();
      out.name = text_query;
      out.cert =
          PlanQuery(*parsed.query, schema, *catalog, options);
    }
  }

  if (cli.json) {
    if (results.size() == 1) {
      std::printf("%s\n", results[0].cert.ToJson().Dump(2).c_str());
    } else {
      obs::JsonValue out = obs::JsonValue::Array();
      for (Planned& planned : results) {
        out.PushBack(planned.cert.ToJson());
      }
      std::printf("%s\n", out.Dump(2).c_str());
    }
  } else {
    for (const Planned& planned : results) {
      if (cli.demo) std::printf("== %s ==\n", planned.name.c_str());
      std::printf("%s\n", planned.cert.RenderText(cli.explain).c_str());
    }
  }

  if (cli.strict) {
    for (const Planned& planned : results) {
      if (planned.cert.Winner() == nullptr ||
          !planned.cert.hazards.empty()) {
        return 1;
      }
    }
  }
  return 0;
}

int RunCheck(int argc, char** argv) {
  std::string pins_path;
  std::string report_path;
  std::vector<std::string> record_files;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--pins") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_plan: --pins needs a file\n");
        return 2;
      }
      pins_path = argv[++i];
    } else if (arg == "--report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_plan: --report needs a file\n");
        return 2;
      }
      report_path = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "lamp_plan: unknown check option %s\n", argv[i]);
      return 2;
    } else {
      record_files.emplace_back(arg);
    }
  }
  if (record_files.empty()) {
    std::fprintf(stderr,
                 "lamp_plan: check needs agreement record files\n");
    return 2;
  }

  std::vector<AgreementRecord> records;
  for (const std::string& path : record_files) {
    const std::optional<std::string> text = obs::ReadFile(path);
    if (!text.has_value()) {
      std::fprintf(stderr, "lamp_plan: cannot read %s\n", path.c_str());
      return 2;
    }
    std::istringstream lines(*text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] != '{') continue;  // Markers, noise.
      const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(line);
      if (!doc.has_value()) continue;
      // Files may interleave other record kinds (audit, bench); only
      // lamp.plan_agreement.v1 lines parse here.
      if (std::optional<AgreementRecord> record =
              AgreementRecord::FromJson(*doc)) {
        records.push_back(std::move(*record));
      }
    }
  }
  if (records.empty()) {
    std::fprintf(stderr,
                 "lamp_plan: no lamp.plan_agreement.v1 records found\n");
    return 2;
  }

  std::vector<AgreementPin> pins;
  if (!pins_path.empty()) {
    const std::optional<std::string> text = obs::ReadFile(pins_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "lamp_plan: cannot read %s\n",
                   pins_path.c_str());
      return 2;
    }
    const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
    std::optional<std::vector<AgreementPin>> parsed =
        doc.has_value() ? PinsFromJson(*doc) : std::nullopt;
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "lamp_plan: %s is not a lamp.plan_pins.v1 document "
                   "(every pin needs a reason)\n",
                   pins_path.c_str());
      return 2;
    }
    pins = std::move(*parsed);
  }

  const AgreementCheck check = CheckAgreement(records, pins);
  std::size_t agreed = 0;
  for (const AgreementRecord& record : records) {
    if (record.Agree()) ++agreed;
  }
  std::printf("plan-agreement: %zu record(s), %zu agree, %zu failure(s), "
              "%zu dangling pin(s)\n",
              records.size(), agreed, check.failures.size(),
              check.dangling_pins.size());
  for (const std::string& failure : check.failures) {
    std::printf("  FAIL %s\n", failure.c_str());
  }
  for (const std::string& dangling : check.dangling_pins) {
    std::printf("  DANGLING PIN %s\n", dangling.c_str());
  }

  if (!report_path.empty()) {
    obs::JsonValue report = obs::JsonValue::Object();
    report.Set("schema", "lamp.plan_agreement_report.v1");
    report.Set("records", records.size());
    report.Set("agreed", agreed);
    obs::JsonValue failures = obs::JsonValue::Array();
    for (const std::string& failure : check.failures) {
      failures.PushBack(failure);
    }
    report.Set("failures", std::move(failures));
    obs::JsonValue dangling = obs::JsonValue::Array();
    for (const std::string& pin : check.dangling_pins) {
      dangling.PushBack(pin);
    }
    report.Set("dangling_pins", std::move(dangling));
    obs::JsonValue details = obs::JsonValue::Array();
    for (const AgreementRecord& record : records) {
      details.PushBack(record.ToJson());
    }
    report.Set("details", std::move(details));
    std::ofstream out(report_path);
    if (!out) {
      std::fprintf(stderr, "lamp_plan: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    out << report.Dump(2) << "\n";
  }
  return check.Ok() ? 0 : kPlanGateFailExit;
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "check") == 0) {
    return RunCheck(argc, argv);
  }
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--demo") {
      cli.demo = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--strict") {
      cli.strict = true;
    } else if (arg == "--explain") {
      cli.explain = true;
    } else if (arg == "--catalog") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_plan: --catalog needs a file\n");
        return 2;
      }
      cli.catalog_path = argv[++i];
    } else if (arg == "--p") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lamp_plan: --p needs a number\n");
        return 2;
      }
      cli.p = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (cli.p == 0) {
        std::fprintf(stderr, "lamp_plan: --p must be positive\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: lamp_plan [--catalog FILE] [--p N] [--json] [--explain] "
          "[--strict] (\"H(..) <- ..\"... | --demo)\n"
          "       lamp_plan check --pins FILE [--report FILE] "
          "<records.jsonl>...\n");
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "lamp_plan: unknown option %s\n", argv[i]);
      return 2;
    } else {
      cli.queries.emplace_back(arg);
    }
  }
  if (cli.demo) {
    if (!cli.queries.empty() || !cli.catalog_path.empty()) {
      std::fprintf(stderr,
                   "lamp_plan: --demo takes no catalog or queries\n");
      return 2;
    }
  } else {
    if (cli.queries.empty() || cli.catalog_path.empty()) {
      std::fprintf(stderr,
                   "lamp_plan: pass --catalog FILE and query literals, or "
                   "--demo (try --help)\n");
      return 2;
    }
  }
  return RunPlan(cli);
}

}  // namespace
}  // namespace lamp::sa::plan

int main(int argc, char** argv) {
  return lamp::sa::plan::Main(argc, argv);
}
