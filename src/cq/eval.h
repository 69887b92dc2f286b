#ifndef LAMP_CQ_EVAL_H_
#define LAMP_CQ_EVAL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "cq/cq.h"
#include "cq/valuation.h"
#include "relational/instance.h"

/// \file
/// Conjunctive-query evaluation.
///
/// Q(I) is the set of facts derivable by satisfying valuations (Section 2).
/// Evaluation is batch-at-a-time over the columnar storage: body atoms are
/// ordered greedily, each atom becomes one vectorized hash-join level
/// (build-once hash tables keyed on flat column slices of the instance,
/// probed with the whole batch of partial tuples), inequalities filter at
/// the first level where both sides are bound and negated atoms filter the
/// final batch. Enumeration order is the depth-first order the previous
/// tuple-at-a-time matcher produced, so result instances — and every golden
/// digest derived from them — stay byte-identical.

namespace lamp {

/// Visitor for satisfying valuations; return false to stop enumeration.
using ValuationVisitor = std::function<bool(const Valuation&)>;

/// Observability counters of one evaluation (the audit loop relates scan
/// volume to the closed-form load bounds).
struct CqEvalStats {
  /// Rows touched: every row swept into a hash index build plus every
  /// candidate row visited while probing (including hash-collision
  /// mismatches).
  std::size_t rows_scanned = 0;

  CqEvalStats& operator+=(const CqEvalStats& o) {
    rows_scanned += o.rows_scanned;
    return *this;
  }
};

/// Calls \p visit for every total valuation V of \p query with
/// V(body) subseteq \p instance that also satisfies the query's
/// inequalities and negated atoms (negation evaluated against
/// \p instance). Returns false iff the visitor stopped the enumeration.
bool ForEachSatisfyingValuation(const ConjunctiveQuery& query,
                                const Instance& instance,
                                const ValuationVisitor& visit,
                                CqEvalStats* stats = nullptr);

/// Q(I): all facts derived by satisfying valuations, each relation's rows
/// in emission order. A full CQ's rows are distinct by construction and
/// are adopted without dedup probes (Instance::AdoptDistinctRows); other
/// queries insert each derived row with set semantics.
Instance Evaluate(const ConjunctiveQuery& query, const Instance& instance,
                  CqEvalStats* stats = nullptr);

/// Row sink for EvaluateInto: one derived head row per satisfying
/// valuation (duplicates included, in enumeration order).
using RowSink = std::function<void(RelationId relation, const Value* row,
                                   std::size_t arity)>;

/// Streams the derived head rows of Q(I) into \p sink without
/// materialising an intermediate Instance. The sink must not mutate
/// \p instance (the join pipeline holds borrowed views into its storage).
void EvaluateInto(const ConjunctiveQuery& query, const Instance& instance,
                  const RowSink& sink, CqEvalStats* stats = nullptr);

/// Batch sink for EvaluateIntoBatches: \p rows holds \p count derived head
/// rows of \p arity values each, row-major and contiguous, valid only for
/// the duration of the call.
using RowBatchSink = std::function<void(RelationId relation,
                                        const Value* rows, std::size_t count,
                                        std::size_t arity)>;

/// Like EvaluateInto but delivers derived head rows in blocks (currently up
/// to 256 rows per call), amortising the sink indirection over whole
/// batches. Same enumeration order and the same no-mutation contract.
void EvaluateIntoBatches(const ConjunctiveQuery& query,
                         const Instance& instance, const RowBatchSink& sink,
                         CqEvalStats* stats = nullptr);

/// Union of Q(I) over the queries of a UCQ (all must share one schema; the
/// caller guarantees compatible head relations if it needs them).
Instance EvaluateUnion(const std::vector<ConjunctiveQuery>& queries,
                       const Instance& instance);

/// Calls \p visit for every *total* valuation of \p query over
/// \p universe — |universe|^#vars assignments; used by the exact deciders
/// of Section 4. Returns false iff the visitor stopped.
bool ForEachValuationOverUniverse(const ConjunctiveQuery& query,
                                  const std::vector<Value>& universe,
                                  const ValuationVisitor& visit);

}  // namespace lamp

#endif  // LAMP_CQ_EVAL_H_
