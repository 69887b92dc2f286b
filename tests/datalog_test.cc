#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "relational/generators.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp {
namespace {

// Example 5.13 program (1): complement of transitive closure.
constexpr const char* kComplementTc = R"(
  TC(x,y) <- E(x,y)
  TC(x,y) <- TC(x,z), TC(z,y)
  OUT(x,y) <- ADom(x), ADom(y), !TC(x,y)
)";

// Example 5.13 program (2): edge relation when no triangle exists.
constexpr const char* kNoTriangle = R"(
  T(x,y,z) <- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z
  S(x) <- ADom(x), T(u,v,w)
  OUT(x,y) <- E(x,y), !S(x)
)";

constexpr const char* kWinMove = "WIN(x) <- MOVE(x,y), !WIN(y)";

TEST(Program, IdbEdbSplit) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kComplementTc);
  const auto idb = p.IdbRelations();
  EXPECT_EQ(idb.size(), 2u);
  EXPECT_TRUE(idb.count(schema.IdOf("TC")));
  EXPECT_TRUE(idb.count(schema.IdOf("OUT")));
  const auto edb = p.EdbRelations();
  EXPECT_TRUE(edb.count(schema.IdOf("E")));
  EXPECT_TRUE(edb.count(schema.IdOf("ADom")));
}

TEST(Program, StratifiesComplementTc) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kComplementTc);
  const auto strata = p.Stratify();
  ASSERT_TRUE(strata.has_value());
  ASSERT_EQ(strata->size(), 2u);
  // TC rules in stratum 0, OUT rule in stratum 1.
  EXPECT_EQ((*strata)[0].size(), 2u);
  EXPECT_EQ((*strata)[1].size(), 1u);
}

TEST(Program, WinMoveDoesNotStratify) {
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kWinMove);
  EXPECT_FALSE(p.Stratify().has_value());
}

TEST(Program, SemiPositivity) {
  Schema schema;
  // Negation on the EDB only.
  const DatalogProgram sp = ParseProgram(
      schema, "OUT(x,y) <- E(x,y), !F(x,y)");
  EXPECT_TRUE(sp.IsSemiPositive());

  Schema schema2;
  const DatalogProgram not_sp = ParseProgram(schema2, kComplementTc);
  EXPECT_FALSE(not_sp.IsSemiPositive());  // !TC negates an IDB relation.
}

TEST(Program, ConnectednessOfPaperExamples) {
  Schema schema;
  const DatalogProgram tc = ParseProgram(schema, kComplementTc);
  // TC rules are connected; the OUT rule (ADom(x), ADom(y)) is not.
  EXPECT_TRUE(DatalogProgram::IsConnectedRule(tc.rules()[0]));
  EXPECT_TRUE(DatalogProgram::IsConnectedRule(tc.rules()[1]));
  EXPECT_FALSE(DatalogProgram::IsConnectedRule(tc.rules()[2]));
  EXPECT_FALSE(tc.IsConnected());
  // Semi-connected: the disconnected rule sits in the last stratum.
  EXPECT_TRUE(tc.IsSemiConnected());
}

TEST(Program, NoTriangleProgramIsNotSemiConnected) {
  // The paper: "the rule defining S is not connected", and S feeds a
  // negation in a later stratum.
  Schema schema;
  const DatalogProgram p = ParseProgram(schema, kNoTriangle);
  ASSERT_TRUE(p.Stratify().has_value());
  EXPECT_FALSE(p.IsSemiConnected());
}

TEST(Eval, TransitiveClosureOnPath) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edb;
  AddPathGraph(schema, schema.IdOf("E"), 6, edb);  // 0 -> 1 -> ... -> 5.
  const Instance result = EvaluateProgram(schema, p, edb);
  const RelationId tc = schema.IdOf("TC");
  // |TC| of a 6-node path = 5+4+3+2+1 = 15.
  EXPECT_EQ(result.FactsOf(tc).size(), 15u);
  EXPECT_TRUE(result.Contains(Fact(tc, {0, 5})));
  EXPECT_FALSE(result.Contains(Fact(tc, {5, 0})));
}

TEST(Eval, TransitiveClosureOnCycleIsComplete) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), E(z,y)");
  Instance edb;
  AddCycleGraph(schema, schema.IdOf("E"), 5, edb);
  const Instance result = EvaluateProgram(schema, p, edb);
  EXPECT_EQ(result.FactsOf(schema.IdOf("TC")).size(), 25u);
}

TEST(Eval, SemiNaiveAgreesWithNaive) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema,
                                  "TC(x,y) <- E(x,y)\n"
                                  "TC(x,y) <- TC(x,z), TC(z,y)");
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Instance edb;
    AddRandomGraph(schema, schema.IdOf("E"), 30, 15, rng, edb);
    DatalogStats semi_stats;
    DatalogStats naive_stats;
    const Instance semi = EvaluateProgram(schema, p, edb, &semi_stats);
    const Instance naive = EvaluateProgramNaive(schema, p, edb, &naive_stats);
    // Results agree fact-for-fact on the TC relation.
    const RelationId tc = schema.IdOf("TC");
    EXPECT_EQ(semi.FactsOf(tc).size(), naive.FactsOf(tc).size());
    for (const Fact& f : naive.FactsOf(tc)) EXPECT_TRUE(semi.Contains(f));
    EXPECT_EQ(semi_stats.facts_derived, naive_stats.facts_derived);
  }
}

TEST(Eval, ComplementOfTransitiveClosure) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kComplementTc);
  Instance edb;
  // Two components: 0 -> 1 and the isolated loop 2 -> 2.
  edb.Insert(Fact(schema.IdOf("E"), {0, 1}));
  edb.Insert(Fact(schema.IdOf("E"), {2, 2}));
  const Instance result = EvaluateProgram(schema, p, edb);
  const RelationId out = schema.IdOf("OUT");
  // Reachable pairs: (0,1), (2,2). All 9 adom pairs minus these.
  EXPECT_EQ(result.FactsOf(out).size(), 7u);
  EXPECT_TRUE(result.Contains(Fact(out, {1, 0})));
  EXPECT_FALSE(result.Contains(Fact(out, {0, 1})));
}

TEST(Eval, NoTriangleProgramSemantics) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kNoTriangle);
  const RelationId e = schema.IdOf("E");
  const RelationId out = schema.IdOf("OUT");

  Instance no_triangle;
  no_triangle.Insert(Fact(e, {0, 1}));
  no_triangle.Insert(Fact(e, {1, 2}));
  const Instance r1 = EvaluateProgram(schema, p, no_triangle);
  EXPECT_EQ(r1.FactsOf(out).size(), 2u);  // OUT = E.

  Instance with_triangle = no_triangle;
  with_triangle.Insert(Fact(e, {2, 0}));
  const Instance r2 = EvaluateProgram(schema, p, with_triangle);
  EXPECT_TRUE(r2.FactsOf(out).empty());  // Triangle kills everything.
}

TEST(Eval, InequalityInRecursiveRule) {
  Schema schema;
  DatalogProgram p = ParseProgram(
      schema, "P(x,y) <- E(x,y), x != y\nP(x,y) <- P(x,z), E(z,y), x != y");
  Instance edb;
  AddCycleGraph(schema, schema.IdOf("E"), 4, edb);
  const Instance result = EvaluateProgram(schema, p, edb);
  // All pairs (x,y), x != y, reachable on the 4-cycle: 12 pairs.
  EXPECT_EQ(result.FactsOf(schema.IdOf("P")).size(), 12u);
}

TEST(WellFounded, WinMoveSimpleGame) {
  // Positions: 3 -> 2 -> 1 -> 0 (0 has no moves: losing).
  // 1 moves to 0 (loser) -> 1 wins; 2 -> 1 (winner) -> 2 loses;
  // 3 -> 2 (loser) -> 3 wins.
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {3, 2}));
  edb.Insert(Fact(move, {2, 1}));
  edb.Insert(Fact(move, {1, 0}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {1})));
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {3})));
  EXPECT_FALSE(model.true_facts.Contains(Fact(win, {2})));
  EXPECT_FALSE(model.true_facts.Contains(Fact(win, {0})));
  EXPECT_TRUE(model.undefined_facts.Empty());
}

TEST(WellFounded, DrawPositionsAreUndefined) {
  // A 2-cycle a <-> b: both positions are draws (undefined in WFS).
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {10, 11}));
  edb.Insert(Fact(move, {11, 10}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Empty());
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {10})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {11})));
}

TEST(WellFounded, MixedGameGraph) {
  // 0 <- losing leaf; 1 -> 0 wins; draw cycle 5 <-> 6 with an escape
  // 5 -> 0? No: give 6 -> 1: moving to a winning position doesn't help;
  // 6's only other option is the cycle -> still a draw.
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kWinMove);
  Instance edb;
  const RelationId move = schema.IdOf("MOVE");
  edb.Insert(Fact(move, {1, 0}));
  edb.Insert(Fact(move, {5, 6}));
  edb.Insert(Fact(move, {6, 5}));
  edb.Insert(Fact(move, {6, 1}));
  const WellFoundedModel model = EvaluateWellFounded(schema, p, edb);
  const RelationId win = schema.IdOf("WIN");
  EXPECT_TRUE(model.true_facts.Contains(Fact(win, {1})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {5})));
  EXPECT_TRUE(model.undefined_facts.Contains(Fact(win, {6})));
}

TEST(WellFounded, AgreesWithStratifiedOnStratifiedProgram) {
  Schema schema;
  DatalogProgram p = ParseProgram(schema, kComplementTc);
  Instance edb;
  AddPathGraph(schema, schema.IdOf("E"), 4, edb);
  const Instance stratified = EvaluateProgram(schema, p, edb);
  const WellFoundedModel wfs = EvaluateWellFounded(schema, p, edb);
  EXPECT_TRUE(wfs.undefined_facts.Empty());
  for (const Fact& f : wfs.true_facts.AllFacts()) {
    EXPECT_TRUE(stratified.Contains(f));
  }
  // Same OUT relation in both.
  const RelationId out = schema.IdOf("OUT");
  EXPECT_EQ(wfs.true_facts.FactsOf(out).size(),
            stratified.FactsOf(out).size());
}

// ------------------------------------------------------ TryParseProgram --

std::string ReadTestFile(const std::string& relative) {
  const std::string path = std::string(LAMP_TESTS_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> RenderRules(const Schema& schema,
                                     const DatalogProgram& program) {
  std::vector<std::string> out;
  for (const ConjunctiveQuery& rule : program.rules()) {
    out.push_back(rule.ToString(schema));
  }
  return out;
}

/// The error TryParseProgram gives for \p text (empty if it parsed).
std::string ParseError(std::string_view text) {
  Schema schema;
  return TryParseProgram(schema, text).error;
}

TEST(TryParseProgram, ValidTextGivesTheParseProgramResult) {
  for (const char* text : {kComplementTc, kNoTriangle, kWinMove, ""}) {
    Schema try_schema;
    const ProgramParseResult parsed = TryParseProgram(try_schema, text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(parsed.error.empty());
    Schema schema;
    const DatalogProgram program = ParseProgram(schema, text);
    EXPECT_EQ(RenderRules(try_schema, *parsed.program),
              RenderRules(schema, program));
    EXPECT_EQ(try_schema.NumRelations(), schema.NumRelations());
  }
}

TEST(TryParseProgram, MalformedLineIsNamed) {
  // Comments and blank lines count toward the 1-based line number.
  EXPECT_EQ(ParseError("# comment\n\nTC(x,y) <- E(x,y\n"),
            "line 3: expected ')'");
  EXPECT_EQ(ParseError("TC(x,y) <- E(x,y)\nTC(x,y) E(x,y)"),
            "line 2: expected '<-' or ':-' after head");
  EXPECT_EQ(ParseError("TC(x,y) <- E(x,y) junk"),
            "line 1: trailing input after query");
  EXPECT_EQ(ParseError("E(x) <- R(x)\nH(x) <- E(x,y)"),
            "line 2: relation 'E' used with arity 2 but registered with "
            "arity 1");
}

TEST(TryParseProgram, TruncatedLinesAreErrors) {
  for (const char* text :
       {"TC(x,y) <-", "TC(x,y) <- E(x,", "TC(", "TC(x,y) <- E(x,y), x !=",
        "TC(x,y) <- E(x,y),", "TC(x,y) <- !", "("}) {
    const std::string error = ParseError(text);
    EXPECT_EQ(error.rfind("line 1: ", 0), 0u) << text << " -> " << error;
  }
}

TEST(TryParseProgram, UnsafeRulesAreErrors) {
  EXPECT_EQ(ParseError("TC(x,y) <- E(x,y)\nH(x,z) <- E(x,y)"),
            "line 2: unsafe rule: head variable 'z' does not occur in a "
            "positive body atom");
  EXPECT_EQ(ParseError("Q(x) <- E(x,y), !R(x,w)"),
            "line 1: unsafe rule: variable 'w' of a negated atom does not "
            "occur in a positive body atom");
  EXPECT_EQ(ParseError("H(x) <- E(x,y), x != u"),
            "line 1: unsafe rule: variable 'u' of an inequality does not "
            "occur in a positive body atom");
  // Safe, but with nothing to evaluate the rule from.
  EXPECT_EQ(ParseError("H(1) <- !E(1,2)"),
            "line 1: rule has no positive body atom");
}

TEST(TryParseProgram, CommittedLintFixtures) {
  const struct {
    const char* file;
    std::size_t rules;  // 0: the file must be rejected.
    const char* error;
  } kCases[] = {
      {"data/sa/clean.dl", 3, ""},
      {"data/sa/cross_product.dl", 1, ""},
      {"data/sa/unstratifiable.dl", 2, ""},
      {"data/sa/unsafe.dl", 0,
       "line 6: unsafe rule: head variable 'z' does not occur in a positive "
       "body atom"},
  };
  for (const auto& c : kCases) {
    Schema schema;
    const ProgramParseResult parsed =
        TryParseProgram(schema, ReadTestFile(c.file));
    EXPECT_EQ(parsed.error, c.error) << c.file;
    if (c.rules == 0) {
      EXPECT_FALSE(parsed.ok()) << c.file;
    } else {
      ASSERT_TRUE(parsed.ok()) << c.file;
      EXPECT_EQ(parsed.program->rules().size(), c.rules) << c.file;
    }
  }
}

TEST(TryParseProgram, MutatedTextNeverAborts) {
  // Every prefix and a few thousand seeded byte mutations of a valid
  // program: each parse returns a program or a "line N: " error.
  const std::string base = kNoTriangle;
  std::vector<std::string> inputs;
  for (std::size_t n = 0; n <= base.size(); ++n) {
    inputs.push_back(base.substr(0, n));
  }
  const std::string alphabet = "(),!=<-: \n#xyzE0123456789\t\r%_\xff";
  Rng rng(515);
  for (int i = 0; i < 3000; ++i) {
    std::string text = base;
    for (std::uint64_t m = 1 + rng.Uniform(4); m > 0; --m) {
      const std::size_t pos = rng.Uniform(text.size());
      switch (rng.Uniform(3)) {
        case 0:
          text[pos] = alphabet[rng.Uniform(alphabet.size())];
          break;
        case 1:
          text.erase(pos, 1 + rng.Uniform(3));
          break;
        default:
          text.insert(pos, 1, alphabet[rng.Uniform(alphabet.size())]);
      }
    }
    inputs.push_back(std::move(text));
  }
  std::size_t accepted = 0;
  for (const std::string& text : inputs) {
    Schema schema;
    const ProgramParseResult parsed = TryParseProgram(schema, text);
    if (parsed.ok()) {
      ++accepted;
      for (const ConjunctiveQuery& rule : parsed.program->rules()) {
        EXPECT_FALSE(rule.SafetyViolation().has_value()) << text;
        EXPECT_FALSE(rule.body().empty()) << text;
      }
    } else {
      EXPECT_EQ(parsed.error.rfind("line ", 0), 0u) << text;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, inputs.size());
}

TEST(TryParseProgramDeathTest, ParseProgramAbortsWithTheLine) {
  Schema schema;
  EXPECT_DEATH(ParseProgram(schema, "TC(x,y) <- E(x,y)\nH(x,z) <- E(x,y)"),
               "line 2: unsafe rule");
}

}  // namespace
}  // namespace lamp
