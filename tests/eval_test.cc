#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/eval.h"
#include "cq/parser.h"
#include "relational/generators.h"

namespace lamp {
namespace {

TEST(Eval, BinaryJoin) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R(x,y), S(y,z)");
  const RelationId r = schema.IdOf("R");
  const RelationId s = schema.IdOf("S");
  Instance inst;
  inst.Insert(Fact(r, {1, 2}));
  inst.Insert(Fact(r, {3, 4}));
  inst.Insert(Fact(s, {2, 5}));
  inst.Insert(Fact(s, {2, 6}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 2u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1, 2, 5})));
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1, 2, 6})));
}

TEST(Eval, TriangleOnCycleGraphs) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), E(z,x)");
  const RelationId e = schema.IdOf("E");
  Instance tri;
  AddCycleGraph(schema, e, 3, tri);
  // A directed 3-cycle matches in 3 rotations.
  EXPECT_EQ(Evaluate(q, tri).Size(), 3u);
  Instance square;
  AddCycleGraph(schema, e, 4, square);
  EXPECT_TRUE(Evaluate(q, square).Empty());
}

TEST(Eval, SelfJoinRequiresSameRelation) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,z) <- R(x,y), R(y,z)");
  const RelationId r = schema.IdOf("R");
  Instance inst;
  inst.Insert(Fact(r, {1, 2}));
  inst.Insert(Fact(r, {2, 3}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 1u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1, 3})));
}

TEST(Eval, RepeatedVariableInsideAtom) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,x)");
  const RelationId r = schema.IdOf("R");
  Instance inst;
  inst.Insert(Fact(r, {1, 2}));
  inst.Insert(Fact(r, {3, 3}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 1u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {3})));
}

TEST(Eval, ConstantsInBody) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x, 7)");
  const RelationId r = schema.IdOf("R");
  Instance inst;
  inst.Insert(Fact(r, {1, 7}));
  inst.Insert(Fact(r, {2, 8}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 1u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1})));
}

TEST(Eval, InequalitiesPruneDerivations) {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y) <- E(x,y), x != y");
  const RelationId e = schema.IdOf("E");
  Instance inst;
  inst.Insert(Fact(e, {1, 1}));
  inst.Insert(Fact(e, {1, 2}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 1u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1, 2})));
}

TEST(Eval, OpenTriangleUsesNegation) {
  Schema schema;
  // Example 5.1(2) of the paper.
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  const RelationId e = schema.IdOf("E");
  Instance inst;
  inst.Insert(Fact(e, {1, 2}));
  inst.Insert(Fact(e, {2, 3}));
  const Instance result = Evaluate(q, inst);
  // (1,2,3) is open (E(3,1) missing); also wedges using a fact twice.
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {1, 2, 3})));
  // Closing the triangle removes it.
  inst.Insert(Fact(e, {3, 1}));
  EXPECT_FALSE(
      Evaluate(q, inst).Contains(Fact(schema.IdOf("H"), {1, 2, 3})));
}

TEST(Eval, EmptyInstanceYieldsEmptyResult) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,y)");
  EXPECT_TRUE(Evaluate(q, Instance()).Empty());
}

TEST(Eval, BooleanQueryDerivesNullaryFact) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H() <- R(x,x)");
  const RelationId r = schema.IdOf("R");
  Instance inst;
  inst.Insert(Fact(r, {5, 5}));
  const Instance result = Evaluate(q, inst);
  EXPECT_EQ(result.Size(), 1u);
  EXPECT_TRUE(result.Contains(Fact(schema.IdOf("H"), {})));
}

TEST(Eval, EnumerationVisitsEverySatisfyingValuation) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- E(x,y)");
  const RelationId e = schema.IdOf("E");
  Instance inst;
  for (int i = 0; i < 5; ++i) inst.Insert(Fact(e, {i, i + 1}));
  int count = 0;
  ForEachSatisfyingValuation(q, inst, [&count](const Valuation&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5);
}

TEST(Eval, EnumerationEarlyStop) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- E(x,y)");
  const RelationId e = schema.IdOf("E");
  Instance inst;
  for (int i = 0; i < 5; ++i) inst.Insert(Fact(e, {i, i + 1}));
  int count = 0;
  const bool finished =
      ForEachSatisfyingValuation(q, inst, [&count](const Valuation&) {
        return ++count < 2;
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(count, 2);
}

TEST(Eval, UnionOfQueries) {
  Schema schema;
  std::vector<ConjunctiveQuery> ucq;
  ucq.push_back(ParseQuery(schema, "H(x) <- R(x,y)"));
  ucq.push_back(ParseQuery(schema, "H(y) <- R(x,y)"));
  const RelationId r = schema.IdOf("R");
  Instance inst;
  inst.Insert(Fact(r, {1, 2}));
  const Instance result = EvaluateUnion(ucq, inst);
  EXPECT_EQ(result.Size(), 2u);
}

TEST(Eval, UniverseEnumerationCountsAssignments) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x,y) <- R(x,y)");
  const std::vector<Value> universe = {Value(1), Value(2), Value(3)};
  int count = 0;
  ForEachValuationOverUniverse(q, universe, [&count](const Valuation& v) {
    EXPECT_TRUE(v.IsTotal());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 9);
}

TEST(Eval, AgreesWithNaiveEnumerationOnRandomGraphs) {
  // Property test: the indexed backtracking evaluator must agree with a
  // naive evaluator that enumerates all valuations over the active domain.
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,z) <- E(x,y), E(y,z), E(z,x)");
  const RelationId e = schema.IdOf("E");
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Instance inst;
    AddRandomGraph(schema, e, 30, 10, rng, inst);
    const Instance fast = Evaluate(q, inst);

    Instance naive;
    const std::vector<Value> universe = inst.ActiveDomain();
    ForEachValuationOverUniverse(
        q, universe, [&q, &inst, &naive](const Valuation& v) {
          if (v.Satisfies(q, inst)) naive.Insert(v.ApplyToAtom(q.head()));
          return true;
        });
    EXPECT_EQ(fast, naive) << "trial " << trial;
  }
}

/// Q(I) built the way Evaluate builds non-full queries: every streamed head
/// row goes through InsertRows (one dedup probe per row). Also reports how
/// many rows the evaluation streamed, duplicates included.
Instance ViaInsertRows(const ConjunctiveQuery& q, const Instance& inst,
                       std::size_t* streamed) {
  Instance out;
  *streamed = 0;
  EvaluateIntoBatches(q, inst,
                      [&out, streamed](RelationId rel, const Value* rows,
                                       std::size_t count, std::size_t arity) {
                        out.InsertRows(rel, rows, count, arity);
                        *streamed += count;
                      });
  return out;
}

/// Same relations, same rows, same row order.
void ExpectSameRowSequences(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.Size(), b.Size());
  ASSERT_EQ(a.RelationBound(), b.RelationBound());
  for (RelationId r = 0; r < a.RelationBound(); ++r) {
    const RowsView ra = a.RowsOf(r);
    const RowsView rb = b.RowsOf(r);
    ASSERT_EQ(ra.num_rows, rb.num_rows) << "relation " << r;
    ASSERT_EQ(ra.arity, rb.arity) << "relation " << r;
    for (std::size_t i = 0; i < ra.num_rows * ra.arity; ++i) {
      ASSERT_EQ(ra.data[i], rb.data[i]) << "relation " << r << " value " << i;
    }
  }
}

TEST(Eval, FullQueryOutputMatchesInsertPathRowForRow) {
  // Full CQs take Evaluate's dedup-free path (their head rows are distinct
  // by construction); it must give the rows the probing path gives, in the
  // same order, and the evaluation must never stream a repeated row.
  Schema schema;
  const std::vector<std::string> texts = {
      "A(x,y,z) <- R(x,y), R(y,z)",            // Self-join.
      "B(x) <- R(x,x)",                        // Repeated variable.
      "C(x,1,y) <- R(x,y), S(y,2)",            // Constants, body and head.
      "D(x,y,x) <- R(x,y), S(y,x)",            // Repeated head variable.
      "E(x,y) <- R(x,y), !S(x,y)",             // Negated atom.
      "F(x,y,z) <- R(x,y), R(y,z), x != z",    // Inequality.
      "G() <- R(1,2), S(2,1)",                 // Ground body, nullary head.
      "T(x,y,z) <- R(x,y), S(y,z), R(z,x)",    // Triangle.
  };
  std::vector<ConjunctiveQuery> queries;
  for (const std::string& text : texts) {
    queries.push_back(ParseQuery(schema, text));
    ASSERT_TRUE(queries.back().IsFull()) << text;
  }
  const RelationId r = schema.IdOf("R");
  const RelationId s = schema.IdOf("S");
  std::vector<bool> nonempty(queries.size(), false);
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    Instance inst;
    for (int i = 0; i < 14; ++i) {
      inst.Insert(Fact(r, {rng.UniformInt(0, 4), rng.UniformInt(0, 4)}));
      inst.Insert(Fact(s, {rng.UniformInt(0, 4), rng.UniformInt(0, 4)}));
    }
    for (std::size_t k = 0; k < queries.size(); ++k) {
      std::size_t streamed = 0;
      const Instance expected = ViaInsertRows(queries[k], inst, &streamed);
      const Instance full = Evaluate(queries[k], inst);
      ExpectSameRowSequences(full, expected);
      EXPECT_EQ(streamed, full.Size()) << texts[k] << " trial " << trial;
      if (!full.Empty()) nonempty[k] = true;
    }
  }
  for (std::size_t k = 0; k < queries.size(); ++k) {
    EXPECT_TRUE(nonempty[k]) << "never derived anything: " << texts[k];
  }
}

TEST(Eval, ProjectingQueryStillDeduplicates) {
  Schema schema;
  const ConjunctiveQuery q = ParseQuery(schema, "H(x) <- R(x,y), R(y,z)");
  ASSERT_FALSE(q.IsFull());
  const RelationId r = schema.IdOf("R");
  Rng rng(99);
  bool collided = false;
  for (int trial = 0; trial < 20; ++trial) {
    Instance inst;
    for (int i = 0; i < 20; ++i) {
      inst.Insert(Fact(r, {rng.UniformInt(0, 5), rng.UniformInt(0, 5)}));
    }
    std::size_t streamed = 0;
    const Instance expected = ViaInsertRows(q, inst, &streamed);
    const Instance result = Evaluate(q, inst);
    ExpectSameRowSequences(result, expected);
    if (streamed > result.Size()) collided = true;
  }
  EXPECT_TRUE(collided) << "no trial produced a repeated head row";
}

}  // namespace
}  // namespace lamp
