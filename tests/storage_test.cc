// Columnar storage contract tests (DESIGN.md §Storage layout).
//
// Three parts. (1) A randomized property test drives Instance through the
// full mutation surface — InsertRow / Insert / InsertAll / ClearRelation —
// against a reference set-of-rows model, checking after every step that
// set semantics, per-relation insertion order, membership, ActiveDomain
// and the lazily built join indexes all agree with the model. (2) Reserve
// is invisible: the same operations with and without it mixed in agree
// on rows, membership and join index chains; likewise rows bulk-loaded
// with AdoptDistinctRows behave as if inserted one by one. (3) A
// digest-parity test pins the end-to-end contract the refactor must not
// move: the same MPC workload produces byte-identical output fingerprints
// at thread counts {1, 4} and across the inproc / tcp / uds transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "relational/instance.h"
#include "transport/transport.h"

namespace lamp {
namespace {

// ------------------------------------------------ reference model --

/// The specification Instance implements: a set of rows per relation that
/// also remembers first-insertion order.
class ReferenceModel {
 public:
  bool Insert(RelationId rel, const std::vector<std::int64_t>& row) {
    if (!seen_.insert({rel, row}).second) return false;
    rows_[rel].push_back(row);
    return true;
  }

  bool Contains(RelationId rel, const std::vector<std::int64_t>& row) const {
    return seen_.count({rel, row}) > 0;
  }

  void ClearRelation(RelationId rel) {
    for (const auto& row : rows_[rel]) seen_.erase({rel, row});
    rows_.erase(rel);
  }

  std::size_t Size() const { return seen_.size(); }

  const std::vector<std::vector<std::int64_t>>& RowsOf(RelationId rel) const {
    static const std::vector<std::vector<std::int64_t>> kEmpty;
    auto it = rows_.find(rel);
    return it == rows_.end() ? kEmpty : it->second;
  }

  std::vector<std::int64_t> ActiveDomain() const {
    std::set<std::int64_t> dom;
    for (const auto& [rel, rows] : rows_) {
      for (const auto& row : rows) dom.insert(row.begin(), row.end());
    }
    return {dom.begin(), dom.end()};
  }

  const std::map<RelationId, std::vector<std::vector<std::int64_t>>>& rows()
      const {
    return rows_;
  }

 private:
  std::map<RelationId, std::vector<std::vector<std::int64_t>>> rows_;
  std::set<std::pair<RelationId, std::vector<std::int64_t>>> seen_;
};

std::vector<std::int64_t> RandomRow(Rng& rng, std::size_t arity,
                                    std::int64_t domain) {
  std::vector<std::int64_t> row(arity);
  for (auto& v : row) v = rng.UniformInt(0, domain - 1);
  return row;
}

std::vector<Value> ToValues(const std::vector<std::int64_t>& row) {
  std::vector<Value> out;
  out.reserve(row.size());
  for (std::int64_t v : row) out.push_back(Value(v));
  return out;
}

/// Full agreement check: sizes, per-relation row sequences (insertion
/// order), membership of present rows, ActiveDomain.
void ExpectMatchesModel(const Instance& instance,
                        const ReferenceModel& model) {
  ASSERT_EQ(instance.Size(), model.Size());
  for (const auto& [rel, expected] : model.rows()) {
    const RowsView rows = instance.RowsOf(rel);
    ASSERT_EQ(rows.num_rows, expected.size()) << "relation " << rel;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Value* row = rows.Row(i);
      for (std::size_t j = 0; j < expected[i].size(); ++j) {
        ASSERT_EQ(row[j].v, expected[i][j])
            << "relation " << rel << " row " << i << " pos " << j;
      }
      const std::vector<Value> vals = ToValues(expected[i]);
      EXPECT_TRUE(instance.ContainsRow(rel, vals.data(), vals.size()));
    }
  }
  const std::vector<Value> dom = instance.ActiveDomain();
  const std::vector<std::int64_t> expected_dom = model.ActiveDomain();
  ASSERT_EQ(dom.size(), expected_dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i) {
    EXPECT_EQ(dom[i].v, expected_dom[i]);
  }
}

/// Probes every key of \p rel through IndexOn and checks the bucket chain
/// enumerates exactly the model's matching rows, in insertion order.
void ExpectIndexMatchesModel(const Instance& instance,
                             const ReferenceModel& model, RelationId rel,
                             std::size_t arity, std::uint64_t mask) {
  if (instance.NumRows(rel) == 0) return;
  std::vector<std::uint32_t> key_pos;
  for (std::size_t p = 0; p < arity; ++p) {
    if ((mask >> p) & 1) key_pos.push_back(static_cast<std::uint32_t>(p));
  }
  const JoinIndex& index = instance.IndexOn(rel, mask);
  ASSERT_EQ(index.key_pos, key_pos);
  const RowsView rows = instance.RowsOf(rel);
  const auto& expected = model.RowsOf(rel);

  // For every distinct key in the relation, gather the chain's rows and
  // compare with a model scan.
  std::set<std::vector<std::int64_t>> keys;
  for (const auto& row : expected) {
    std::vector<std::int64_t> key;
    for (std::uint32_t p : key_pos) key.push_back(row[p]);
    keys.insert(key);
  }
  for (const auto& key : keys) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::int64_t v : key) {
      h = HashCombine(h, static_cast<std::uint64_t>(v));
    }
    const std::size_t slot = static_cast<std::size_t>(h) & index.SlotMask();
    std::vector<std::size_t> via_index;
    for (std::uint32_t link = index.head[slot]; link != 0;
         link = index.next[link - 1]) {
      const std::size_t row_id = link - 1;
      const Value* row = rows.Row(row_id);
      bool match = true;
      for (std::size_t k = 0; k < key_pos.size(); ++k) {
        if (row[key_pos[k]].v != key[k]) {
          match = false;
          break;
        }
      }
      if (match) via_index.push_back(row_id);
    }
    std::vector<std::size_t> via_scan;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      bool match = true;
      for (std::size_t k = 0; k < key_pos.size(); ++k) {
        if (expected[i][key_pos[k]] != key[k]) {
          match = false;
          break;
        }
      }
      if (match) via_scan.push_back(i);
    }
    // Chains are threaded in ascending row id = insertion order.
    EXPECT_EQ(via_index, via_scan);
  }
}

TEST(StorageProperty, RandomOpsAgreeWithReferenceModel) {
  constexpr RelationId kRelations = 4;
  const std::size_t kArity[kRelations] = {2, 2, 3, 1};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(1000 + seed);
    Instance instance;
    ReferenceModel model;
    for (int step = 0; step < 600; ++step) {
      const RelationId rel = static_cast<RelationId>(rng.Uniform(kRelations));
      const std::size_t arity = kArity[rel];
      const std::uint64_t op = rng.Uniform(100);
      if (op < 55) {
        // InsertRow (sometimes via the Fact shim) — return values agree.
        const auto row = RandomRow(rng, arity, 12);
        const std::vector<Value> vals = ToValues(row);
        const bool fresh_model = model.Insert(rel, row);
        bool fresh = false;
        if (rng.Bernoulli(0.25)) {
          fresh = instance.Insert(Fact(rel, vals));
        } else {
          fresh = instance.InsertRow(rel, vals.data(), vals.size());
        }
        EXPECT_EQ(fresh, fresh_model);
      } else if (op < 70) {
        // Batch insert through InsertRows; count of new rows agrees.
        const std::size_t n = 1 + rng.Uniform(6);
        std::vector<Value> batch;
        std::size_t expected_added = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto row = RandomRow(rng, arity, 12);
          if (model.Insert(rel, row)) ++expected_added;
          const std::vector<Value> vals = ToValues(row);
          batch.insert(batch.end(), vals.begin(), vals.end());
        }
        EXPECT_EQ(instance.InsertRows(rel, batch.data(), n, arity),
                  expected_added);
      } else if (op < 80) {
        // InsertAll from a random second instance.
        Instance other;
        const std::size_t n = rng.Uniform(8);
        std::vector<std::vector<std::int64_t>> other_rows;
        for (std::size_t i = 0; i < n; ++i) {
          const auto row = RandomRow(rng, arity, 12);
          const std::vector<Value> vals = ToValues(row);
          if (other.InsertRow(rel, vals.data(), vals.size())) {
            other_rows.push_back(row);
          }
        }
        std::size_t expected_added = 0;
        for (const auto& row : other_rows) {
          if (model.Insert(rel, row)) ++expected_added;
        }
        EXPECT_EQ(instance.InsertAll(other), expected_added);
      } else if (op < 90) {
        // Membership of a random (usually absent) row.
        const auto row = RandomRow(rng, arity, 12);
        const std::vector<Value> vals = ToValues(row);
        EXPECT_EQ(instance.ContainsRow(rel, vals.data(), vals.size()),
                  model.Contains(rel, row));
      } else if (op < 95) {
        instance.ClearRelation(rel);
        model.ClearRelation(rel);
      } else {
        // Exercise the copy path: copies carry the data but rebuild their
        // index caches cold; both must still match the model.
        Instance copy = instance;
        ExpectMatchesModel(copy, model);
      }
      if (step % 97 == 0) ExpectMatchesModel(instance, model);
      if (step % 151 == 0) {
        for (RelationId r = 0; r < kRelations; ++r) {
          const std::size_t arity_r = kArity[r];
          const std::uint64_t mask = 1 + rng.Uniform((1u << arity_r) - 1);
          ExpectIndexMatchesModel(instance, model, r, arity_r, mask);
        }
      }
    }
    ExpectMatchesModel(instance, model);
  }
}

TEST(StorageProperty, EqualityIsInsertionOrderIndependent) {
  Rng rng(7);
  std::vector<std::vector<std::int64_t>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(RandomRow(rng, 2, 9));
  Instance a;
  Instance b;
  for (const auto& row : rows) {
    const std::vector<Value> vals = ToValues(row);
    a.InsertRow(0, vals.data(), 2);
  }
  std::vector<std::vector<std::int64_t>> shuffled = rows;
  rng.Shuffle(shuffled);
  for (const auto& row : shuffled) {
    const std::vector<Value> vals = ToValues(row);
    b.InsertRow(0, vals.data(), 2);
  }
  EXPECT_TRUE(a == b);
  const std::vector<Value> extra = {Value(100), Value(100)};
  b.InsertRow(0, extra.data(), 2);
  EXPECT_FALSE(a == b);
}

// ------------------------------------------------------ Reserve --

/// Rows of every relation, in order, plus each relation's join index over
/// every nonempty position mask: everything observable about the stored
/// rows.
void ExpectSameRowsAndIndexes(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.Size(), b.Size());
  // A Reserve may give an id storage before any row arrives, so the
  // bounds may differ; ids beyond either bound are empty.
  const RelationId bound = std::max(a.NumRelationIds(), b.NumRelationIds());
  for (RelationId rel = 0; rel < bound; ++rel) {
    const RowsView ra = a.RowsOf(rel);
    const RowsView rb = b.RowsOf(rel);
    ASSERT_EQ(ra.num_rows, rb.num_rows) << "relation " << rel;
    if (ra.num_rows == 0) continue;
    ASSERT_EQ(ra.arity, rb.arity) << "relation " << rel;
    ASSERT_TRUE(std::equal(ra.data, ra.data + ra.num_rows * ra.arity,
                           rb.data, [](Value x, Value y) { return x == y; }))
        << "relation " << rel;
    for (std::uint64_t mask = 1; mask < (1u << ra.arity); ++mask) {
      const JoinIndex& ia = a.IndexOn(rel, mask);
      const JoinIndex& ib = b.IndexOn(rel, mask);
      EXPECT_EQ(ia.key_pos, ib.key_pos);
      EXPECT_EQ(ia.head, ib.head) << "relation " << rel << " mask " << mask;
      EXPECT_EQ(ia.tail, ib.tail) << "relation " << rel << " mask " << mask;
      EXPECT_EQ(ia.next, ib.next) << "relation " << rel << " mask " << mask;
    }
  }
}

// Reserve only sizes storage: the same operation sequence with and without
// Reserve calls mixed in gives the same return values, row order,
// membership answers and join index chains.
TEST(StorageReserve, RandomOpsMatchTheSameOpsWithoutReserve) {
  constexpr RelationId kRelations = 4;
  const std::size_t kArity[kRelations] = {2, 3, 1, 0};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(2000 + seed);
    Instance reserved;
    Instance plain;
    for (int step = 0; step < 500; ++step) {
      const RelationId rel = static_cast<RelationId>(rng.Uniform(kRelations));
      const std::size_t arity = kArity[rel];
      const std::uint64_t op = rng.Uniform(100);
      if (op < 20) {
        // Sometimes exactly what follows, sometimes far more or less.
        reserved.Reserve(rel, arity, rng.Uniform(3) == 0 ? rng.Uniform(300)
                                                         : rng.Uniform(8));
      } else if (op < 55) {
        const std::vector<Value> row = ToValues(RandomRow(rng, arity, 15));
        EXPECT_EQ(reserved.InsertRow(rel, row.data(), arity),
                  plain.InsertRow(rel, row.data(), arity));
      } else if (op < 75) {
        const std::size_t n = 1 + rng.Uniform(40);
        std::vector<Value> batch;
        for (std::size_t i = 0; i < n; ++i) {
          const std::vector<Value> row = ToValues(RandomRow(rng, arity, 15));
          batch.insert(batch.end(), row.begin(), row.end());
        }
        EXPECT_EQ(reserved.InsertRows(rel, batch.data(), n, arity),
                  plain.InsertRows(rel, batch.data(), n, arity));
      } else if (op < 85) {
        Instance other;
        for (std::size_t i = rng.Uniform(30); i > 0; --i) {
          const std::vector<Value> row = ToValues(RandomRow(rng, arity, 15));
          other.InsertRow(rel, row.data(), arity);
        }
        EXPECT_EQ(reserved.InsertAll(other), plain.InsertAll(other));
      } else if (op < 95) {
        const std::vector<Value> row = ToValues(RandomRow(rng, arity, 15));
        EXPECT_EQ(reserved.ContainsRow(rel, row.data(), arity),
                  plain.ContainsRow(rel, row.data(), arity));
      } else {
        reserved.ClearRelation(rel);
        plain.ClearRelation(rel);
      }
      if (step % 53 == 0) ExpectSameRowsAndIndexes(reserved, plain);
    }
    ExpectSameRowsAndIndexes(reserved, plain);
    EXPECT_TRUE(reserved == plain);
  }
}

TEST(StorageReserve, ZeroRowsIsANoOp) {
  Instance instance;
  const std::vector<Value> row = {Value(1), Value(2)};
  instance.InsertRow(0, row.data(), 2);
  // Neither a new relation id nor a mismatched arity takes effect.
  instance.Reserve(5, 3, 0);
  instance.Reserve(0, 7, 0);
  EXPECT_EQ(instance.NumRelationIds(), 1u);
  EXPECT_EQ(instance.ArityOf(0), 2u);
  EXPECT_EQ(instance.Size(), 1u);
  EXPECT_TRUE(instance.ContainsRow(0, row.data(), 2));
}

TEST(StorageReserveDeathTest, ArityMismatchHitsTheCheck) {
  Instance instance;
  const std::vector<Value> row = {Value(1), Value(2)};
  instance.InsertRow(0, row.data(), 2);
  instance.Reserve(0, 2, 10);  // Matching arity: fine.
  EXPECT_DEATH(instance.Reserve(0, 3, 10), "arity");
}

// ---------------------------------------------- AdoptDistinctRows --

/// \p count distinct random rows of \p arity values (at most one row when
/// \p arity is 0), flat and row-major, in draw order.
std::vector<Value> DistinctRows(Rng& rng, std::size_t arity,
                                std::size_t count) {
  std::set<std::vector<std::int64_t>> seen;
  std::vector<Value> flat;
  while (seen.size() < count) {
    const std::vector<std::int64_t> row = RandomRow(rng, arity, 40);
    if (!seen.insert(row).second) continue;
    for (std::int64_t v : row) flat.push_back(Value(v));
  }
  return flat;
}

// Adopting distinct rows leaves the instance exactly as inserting them one
// by one would: rows, order, membership, join indexes, equality, copies,
// and every later insert, Reserve and ClearRelation.
TEST(StorageAdopt, AdoptedRowsBehaveAsInsertedOnes) {
  constexpr RelationId kRelations = 4;
  const std::size_t kArity[kRelations] = {2, 3, 1, 0};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(3000 + seed);
    Instance adopted;
    Instance inserted;
    for (RelationId rel = 0; rel < kRelations; ++rel) {
      const std::size_t arity = kArity[rel];
      // At most half of the 40^arity possible rows.
      std::size_t room = 1;
      for (std::size_t i = 0; i < arity; ++i) room *= 40;
      const std::size_t count =
          arity == 0 ? rng.Uniform(2)
                     : rng.Uniform(std::min<std::size_t>(
                           room / 2, seed < 4 ? 20 : 400));
      std::vector<Value> rows = DistinctRows(rng, arity, count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(inserted.InsertRow(rel, rows.data() + i * arity, arity));
      }
      adopted.AdoptDistinctRows(rel, arity, count, std::move(rows));
    }
    ExpectSameRowsAndIndexes(adopted, inserted);
    EXPECT_TRUE(adopted == inserted);

    const Instance copy = adopted;
    ExpectSameRowsAndIndexes(copy, inserted);
    EXPECT_TRUE(copy == inserted);

    for (int step = 0; step < 300; ++step) {
      const RelationId rel = static_cast<RelationId>(rng.Uniform(kRelations));
      const std::size_t arity = kArity[rel];
      const std::vector<Value> row = ToValues(RandomRow(rng, arity, 40));
      const std::uint64_t op = rng.Uniform(100);
      if (op < 45) {
        EXPECT_EQ(adopted.ContainsRow(rel, row.data(), arity),
                  inserted.ContainsRow(rel, row.data(), arity));
      } else if (op < 85) {
        EXPECT_EQ(adopted.InsertRow(rel, row.data(), arity),
                  inserted.InsertRow(rel, row.data(), arity));
      } else if (op < 97) {
        adopted.Reserve(rel, arity, rng.Uniform(50));
      } else {
        adopted.ClearRelation(rel);
        inserted.ClearRelation(rel);
      }
    }
    ExpectSameRowsAndIndexes(adopted, inserted);
    EXPECT_TRUE(adopted == inserted);
  }
}

TEST(StorageAdopt, AdoptedRowIsADuplicateOnInsert) {
  Instance instance;
  instance.AdoptDistinctRows(
      2, 2, 3, {Value(1), Value(2), Value(3), Value(4), Value(5), Value(6)});
  EXPECT_EQ(instance.Size(), 3u);
  const std::vector<Value> second = {Value(3), Value(4)};
  const std::vector<Value> fresh = {Value(4), Value(3)};
  EXPECT_TRUE(instance.ContainsRow(2, second.data(), 2));
  EXPECT_FALSE(instance.InsertRow(2, second.data(), 2));
  EXPECT_FALSE(instance.ContainsRow(2, fresh.data(), 2));
  EXPECT_TRUE(instance.InsertRow(2, fresh.data(), 2));
  EXPECT_EQ(instance.Size(), 4u);
  EXPECT_EQ(instance.RowsOf(2).Row(3)[0], Value(4));
}

TEST(StorageAdopt, ZeroRowsIsANoOp) {
  Instance instance;
  instance.AdoptDistinctRows(5, 3, 0, {});
  EXPECT_EQ(instance.NumRelationIds(), 0u);
  EXPECT_TRUE(instance.Empty());
  EXPECT_TRUE(instance == Instance());
}

TEST(StorageAdoptDeathTest, PreconditionsHitTheCheck) {
  Instance instance;
  const std::vector<Value> row = {Value(1), Value(2)};
  instance.InsertRow(0, row.data(), 2);
  EXPECT_DEATH(instance.AdoptDistinctRows(0, 2, 1, {Value(3), Value(4)}),
               "empty relation");
  EXPECT_DEATH(instance.AdoptDistinctRows(1, 2, 2, {Value(3), Value(4)}),
               "count \\* arity");
  EXPECT_DEATH(instance.AdoptDistinctRows(1, 3, 1, {Value(3), Value(4)}),
               "count \\* arity");
  EXPECT_DEATH(instance.AdoptDistinctRows(1, 0, 2, {}), "nullary");
}

// ------------------------------------------------- digest parity --

// FNV-1a accumulator (determinism_test.cc's): order-sensitive, so any
// change in dedup decisions or iteration order shows up.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
};

std::uint64_t InstanceFingerprint(const Instance& instance) {
  Fnv f;
  instance.ForEachFact([&](const Fact& fact) {
    f.Mix(HashMix(fact.relation));
    f.Mix(fact.args.size());
    for (Value v : fact.args) f.Mix(static_cast<std::uint64_t>(v.v));
  });
  return f.h;
}

class EnvRestorer {
 public:
  ~EnvRestorer() {
    transport::SetActiveKind(transport::TransportKind::kInProcess);
    par::SetDefaultThreads(1);
  }
};

std::uint64_t TriangleOutputFingerprint() {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  Rng rng(23);
  Instance db;
  for (const Atom& atom : q.body()) {
    AddUniformRelation(schema, atom.relation, /*m=*/300, /*domain_size=*/30,
                       rng, db);
  }
  const MpcRunResult run = RunHyperCubeUniform(q, db, /*num_servers=*/8);
  return InstanceFingerprint(run.output);
}

TEST(StorageDigestParity, SameDigestAcrossThreadsAndTransports) {
  EnvRestorer restore;
  constexpr transport::TransportKind kBackends[] = {
      transport::TransportKind::kInProcess,
      transport::TransportKind::kTcp,
      transport::TransportKind::kUds,
  };
  par::SetDefaultThreads(1);
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  const std::uint64_t reference = TriangleOutputFingerprint();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const transport::TransportKind backend : kBackends) {
      par::SetDefaultThreads(threads);
      transport::SetActiveKind(backend);
      EXPECT_EQ(TriangleOutputFingerprint(), reference)
          << "threads=" << threads
          << " backend=" << static_cast<int>(backend);
    }
  }
}

}  // namespace
}  // namespace lamp
