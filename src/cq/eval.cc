#include "cq/eval.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

namespace {

/// Batch (vectorized) matcher for the positive body with greedy static
/// atom ordering. Partial valuations live in a flat batch — one Value per
/// bound variable per tuple, in binding order — and each body atom is one
/// hash-join level probed with the whole batch against the instance's
/// persistent JoinIndex for that (relation, mask). Emission order is the
/// depth-first order of the previous tuple-at-a-time matcher: tuples
/// expand in batch order and each probe enumerates matching rows in
/// ascending row id (= insertion) order.
class BatchMatcher {
 public:
  static constexpr std::uint32_t kNoCol = 0xffffffffu;

  BatchMatcher(const ConjunctiveQuery& query, const Instance& instance)
      : query_(query), instance_(instance) {
    order_ = GreedyOrder();
    BuildPlans();
  }

  /// Batch column of each variable (kNoCol when the variable never occurs
  /// in the positive body).
  const std::vector<std::uint32_t>& ColOfVar() const { return col_of_var_; }

  /// Width of a final tuple: the number of distinct positive-body
  /// variables.
  std::size_t FinalWidth() const { return width_; }

  std::size_t RowsScanned() const { return rows_scanned_; }

  /// Enumerates blocks of final tuples (negation already applied) in
  /// depth-first order. \p sink receives a contiguous run of
  /// count * FinalWidth() values, valid only during the call; returning
  /// false stops the enumeration. Returns false iff the sink stopped.
  template <typename BlockSink>
  bool RunBlocks(BlockSink&& sink) {
    // Expand level 0 from the single empty tuple, then run each block of
    // level-0 matches through the remaining levels. Blocks bound batch
    // memory and keep early-exit visitors from paying for the whole join.
    static const Value kEmptyTuple[1] = {};
    std::vector<Value> base;
    const std::size_t n0 = ExpandLevel(0, kEmptyTuple, 0, 1, base);
    const std::size_t w0 = widths_[0];

    constexpr std::size_t kBlock = 256;
    std::vector<Value> cur;
    std::vector<Value> next;
    for (std::size_t lo = 0; lo < n0; lo += kBlock) {
      const std::size_t hi = std::min(n0, lo + kBlock);
      cur.assign(base.begin() + static_cast<std::ptrdiff_t>(lo * w0),
                 base.begin() + static_cast<std::ptrdiff_t>(hi * w0));
      std::size_t count = hi - lo;
      std::size_t width = w0;
      for (std::size_t level = 1; level < plans_.size() && count > 0;
           ++level) {
        next.clear();
        count = ExpandLevel(level, cur.data(), width, count, next);
        width = widths_[level];
        cur.swap(next);
      }
      if (count == 0) continue;
      if (!EmitBlock(cur.data(), width, count, sink)) return false;
    }
    return true;
  }

  /// Per-tuple enumeration on top of RunBlocks. \p sink receives a pointer
  /// to FinalWidth() values, valid only during the call.
  template <typename TupleSink>
  bool Run(TupleSink&& sink) {
    const std::size_t width = width_;
    return RunBlocks([&sink, width](const Value* tuples, std::size_t count) {
      for (std::size_t t = 0; t < count; ++t) {
        if (!sink(tuples + t * width)) return false;
      }
      return true;
    });
  }

 private:
  /// One key-building step for a masked atom position: a constant, or the
  /// batch column of an already-bound variable.
  struct KeyEntry {
    bool is_const;
    std::int64_t const_value;  // Valid when is_const.
    std::uint32_t col;         // Valid when !is_const.
  };

  /// An inequality filter, applied at the first level where both sides
  /// are bound. Each side is a constant or a batch column.
  struct IneqCheck {
    bool a_const;
    bool b_const;
    std::int64_t a_val;
    std::int64_t b_val;
    std::uint32_t a_col;
    std::uint32_t b_col;
  };

  /// Evaluation plan of one ordered body atom — one hash-join level.
  struct LevelPlan {
    RelationId relation;
    std::uint64_t mask;  // Constant + previously-bound positions.
    std::size_t atom_arity;
    std::vector<KeyEntry> key_entries;  // Masked positions, ascending.
    // (position, batch column) of each newly bound variable.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> bind_slots;
    // (position, earlier position) for a variable repeated *within* this
    // atom: the later position must equal its first occurrence.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dup_checks;
    std::vector<IneqCheck> ineqs;  // Inequalities first ready here.
  };

  /// Negated-atom filter over final tuples.
  struct NegPlan {
    RelationId relation;
    std::vector<KeyEntry> entries;  // One per position, in order.
  };

  /// Orders body atoms: start from the atom over the smallest relation,
  /// then repeatedly pick the atom sharing the most already-bound variables
  /// (ties broken by relation size). Bound-variable overlap is what turns
  /// each level into a selective hash probe.
  std::vector<std::size_t> GreedyOrder() const {
    const std::vector<Atom>& body = query_.body();
    std::vector<std::size_t> order;
    std::vector<bool> used(body.size(), false);
    std::vector<bool> bound_var(query_.NumVars(), false);

    auto atom_vars = [](const Atom& atom) {
      std::vector<VarId> vars;
      for (const Term& t : atom.terms) {
        if (t.IsVar()) vars.push_back(t.var);
      }
      return vars;
    };

    for (std::size_t step = 0; step < body.size(); ++step) {
      std::size_t best = body.size();
      std::size_t best_bound = 0;
      std::size_t best_size = 0;
      for (std::size_t i = 0; i < body.size(); ++i) {
        if (used[i]) continue;
        std::size_t bound = 0;
        for (VarId v : atom_vars(body[i])) {
          if (bound_var[v]) ++bound;
        }
        // Constants count as bound positions too.
        for (const Term& t : body[i].terms) {
          if (t.IsConst()) ++bound;
        }
        const std::size_t size = instance_.NumRows(body[i].relation);
        if (best == body.size() || bound > best_bound ||
            (bound == best_bound && size < best_size)) {
          best = i;
          best_bound = bound;
          best_size = size;
        }
      }
      used[best] = true;
      order.push_back(best);
      for (VarId v : atom_vars(body[best])) bound_var[v] = true;
    }
    return order;
  }

  void BuildPlans() {
    col_of_var_.assign(query_.NumVars(), kNoCol);
    std::vector<std::size_t> bind_level(query_.NumVars(), 0);
    width_ = 0;

    plans_.reserve(order_.size());
    widths_.reserve(order_.size());
    for (std::size_t level = 0; level < order_.size(); ++level) {
      const Atom& atom = query_.body()[order_[level]];
      LevelPlan plan;
      plan.relation = atom.relation;
      plan.mask = 0;
      plan.atom_arity = atom.terms.size();
      // First occurrence of each free variable *within this atom*.
      std::vector<std::pair<VarId, std::uint32_t>> first_pos;
      for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
        const Term& t = atom.terms[pos];
        if (t.IsConst()) {
          plan.mask |= std::uint64_t{1} << pos;
          plan.key_entries.push_back(KeyEntry{true, t.constant.v, 0});
          continue;
        }
        if (col_of_var_[t.var] != kNoCol && bind_level[t.var] < level) {
          // Bound by an earlier level: part of the join key.
          plan.mask |= std::uint64_t{1} << pos;
          plan.key_entries.push_back(KeyEntry{false, 0, col_of_var_[t.var]});
          continue;
        }
        // Free at this level: first occurrence binds, repeats must match.
        std::uint32_t first = kNoCol;
        for (const auto& [v, p] : first_pos) {
          if (v == t.var) {
            first = p;
            break;
          }
        }
        if (first != kNoCol) {
          plan.dup_checks.emplace_back(static_cast<std::uint32_t>(pos),
                                       first);
        } else {
          first_pos.emplace_back(t.var, static_cast<std::uint32_t>(pos));
          plan.bind_slots.emplace_back(static_cast<std::uint32_t>(pos),
                                       static_cast<std::uint32_t>(width_));
          col_of_var_[t.var] = static_cast<std::uint32_t>(width_);
          bind_level[t.var] = level;
          ++width_;
        }
      }
      plans_.push_back(std::move(plan));
      widths_.push_back(width_);
    }

    // Assign each inequality to the first level where both sides are
    // bound. A side over a variable that never occurs in the positive
    // body is never ready — the previous matcher never checked those
    // inequalities either.
    for (const auto& [a, b] : query_.inequalities()) {
      IneqCheck check;
      std::size_t level = 0;
      bool ready = true;
      auto side = [&](const Term& t, bool& is_const, std::int64_t& val,
                      std::uint32_t& col) {
        if (t.IsConst()) {
          is_const = true;
          val = t.constant.v;
          col = 0;
          return;
        }
        is_const = false;
        val = 0;
        col = col_of_var_[t.var];
        if (col == kNoCol) {
          ready = false;
          return;
        }
        level = std::max(level, bind_level[t.var]);
      };
      side(a, check.a_const, check.a_val, check.a_col);
      side(b, check.b_const, check.b_val, check.b_col);
      if (!ready) continue;
      plans_[level].ineqs.push_back(check);
    }

    for (const Atom& atom : query_.negated()) {
      NegPlan plan;
      plan.relation = atom.relation;
      for (const Term& t : atom.terms) {
        if (t.IsConst()) {
          plan.entries.push_back(KeyEntry{true, t.constant.v, 0});
        } else {
          LAMP_CHECK_MSG(col_of_var_[t.var] != kNoCol,
                         "negated atom over a variable the positive body "
                         "never binds");
          plan.entries.push_back(KeyEntry{false, 0, col_of_var_[t.var]});
        }
      }
      neg_plans_.push_back(std::move(plan));
    }
  }

  /// Expands one level: probes the level's join index with every input
  /// tuple, appending (input ++ new bindings) for every matching row in
  /// ascending row order. Inequalities assigned to this level filter the
  /// appended tuples. Returns the number of output tuples (tracked
  /// explicitly: a level that binds nothing widens tuples by zero).
  std::size_t ExpandLevel(std::size_t level, const Value* in,
                          std::size_t in_width, std::size_t in_count,
                          std::vector<Value>& out) {
    const LevelPlan& plan = plans_[level];
    const RowsView rows = instance_.RowsOf(plan.relation);
    if (rows.num_rows == 0 || rows.arity != plan.atom_arity) return 0;

    const bool scan_all = plan.mask == 0;
    const JoinIndex* index = nullptr;
    std::size_t slot_mask = 0;
    if (!scan_all) {
      index = &instance_.IndexOn(plan.relation, plan.mask, &rows_scanned_);
      slot_mask = index->SlotMask();
    }

    std::size_t out_count = 0;
    for (std::size_t t = 0; t < in_count; ++t) {
      const Value* tup = in + t * in_width;

      auto try_row = [&](std::size_t row_id) {
        const Value* row = rows.Row(row_id);
        ++rows_scanned_;
        for (const auto& [pos, first] : plan.dup_checks) {
          if (row[pos] != row[first]) return;
        }
        const std::size_t before = out.size();
        out.insert(out.end(), tup, tup + in_width);
        for (const auto& [pos, col] : plan.bind_slots) {
          out.push_back(row[pos]);
        }
        const Value* appended = out.data() + before;
        for (const IneqCheck& iq : plan.ineqs) {
          const std::int64_t av =
              iq.a_const ? iq.a_val : appended[iq.a_col].v;
          const std::int64_t bv =
              iq.b_const ? iq.b_val : appended[iq.b_col].v;
          if (av == bv) {
            out.resize(before);
            return;
          }
        }
        ++out_count;
      };

      if (scan_all) {
        for (std::size_t row_id = 0; row_id < rows.num_rows; ++row_id) {
          try_row(row_id);
        }
        continue;
      }

      // Assemble the probe key (constants interleaved with bound batch
      // columns, ascending position order) and walk the bucket chain.
      key_scratch_.clear();
      std::uint64_t h = 1469598103934665603ull;
      for (const KeyEntry& e : plan.key_entries) {
        const std::int64_t v = e.is_const ? e.const_value : tup[e.col].v;
        key_scratch_.push_back(v);
        h = HashCombine(h, static_cast<std::uint64_t>(v));
      }
      const std::size_t slot = static_cast<std::size_t>(h) & slot_mask;
      for (std::uint32_t link = index->head[slot]; link != 0;
           link = index->next[link - 1]) {
        const std::size_t row_id = link - 1;
        const Value* row = rows.Row(row_id);
        bool match = true;
        for (std::size_t k = 0; k < index->key_pos.size(); ++k) {
          if (row[index->key_pos[k]].v != key_scratch_[k]) {
            match = false;
            break;
          }
        }
        if (!match) {
          ++rows_scanned_;  // Hash-collision visit.
          continue;
        }
        try_row(row_id);
      }
    }
    return out_count;
  }

  /// Applies negation to a block of final tuples and feeds the surviving
  /// run to the sink in one call. Returns false iff the sink stopped.
  template <typename BlockSink>
  bool EmitBlock(const Value* tuples, std::size_t width, std::size_t count,
                 BlockSink&& sink) {
    if (neg_plans_.empty()) return sink(tuples, count);
    neg_filtered_.clear();
    std::size_t kept = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const Value* tup = tuples + t * width;
      bool negated = false;
      for (const NegPlan& plan : neg_plans_) {
        neg_scratch_.clear();
        for (const KeyEntry& e : plan.entries) {
          neg_scratch_.push_back(e.is_const ? Value(e.const_value)
                                            : tup[e.col]);
        }
        if (instance_.ContainsRow(plan.relation, neg_scratch_.data(),
                                  neg_scratch_.size())) {
          negated = true;
          break;
        }
      }
      if (negated) continue;
      neg_filtered_.insert(neg_filtered_.end(), tup, tup + width);
      ++kept;
    }
    if (kept == 0) return true;
    return sink(neg_filtered_.data(), kept);
  }

  const ConjunctiveQuery& query_;
  const Instance& instance_;
  std::vector<std::size_t> order_;
  std::vector<LevelPlan> plans_;
  std::vector<std::size_t> widths_;  // Batch width after each level.
  std::vector<NegPlan> neg_plans_;
  std::vector<std::uint32_t> col_of_var_;
  std::size_t width_ = 0;
  std::vector<std::int64_t> key_scratch_;
  std::vector<Value> neg_scratch_;
  std::vector<Value> neg_filtered_;
  std::size_t rows_scanned_ = 0;
};

/// Head projection plan: each head position is a constant or a batch
/// column of the matcher's final tuples.
struct HeadEntry {
  bool is_const;
  Value const_value;
  std::uint32_t col;
};

std::vector<HeadEntry> BuildHeadPlan(const ConjunctiveQuery& query,
                                     const BatchMatcher& matcher) {
  const std::vector<std::uint32_t>& col_of_var = matcher.ColOfVar();
  std::vector<HeadEntry> plan;
  plan.reserve(query.head().terms.size());
  for (const Term& t : query.head().terms) {
    if (t.IsConst()) {
      plan.push_back(HeadEntry{true, t.constant, 0});
    } else {
      LAMP_CHECK_MSG(col_of_var[t.var] != BatchMatcher::kNoCol,
                     "head variable the positive body never binds");
      plan.push_back(HeadEntry{false, Value(), col_of_var[t.var]});
    }
  }
  return plan;
}

template <typename BatchSink>
void EvaluateIntoBatchesImpl(const ConjunctiveQuery& query,
                             const Instance& instance, BatchSink&& sink,
                             CqEvalStats* stats) {
  LAMP_CHECK_MSG(!query.body().empty(),
                 "queries must have a nonempty positive body");
  BatchMatcher matcher(query, instance);
  const std::vector<HeadEntry> head_plan = BuildHeadPlan(query, matcher);
  const std::size_t head_arity = head_plan.size();
  const std::size_t width = matcher.FinalWidth();
  const RelationId head_rel = query.head().relation;

  std::vector<Value> rows_scratch;
  matcher.RunBlocks([&](const Value* tuples, std::size_t count) {
    rows_scratch.resize(count * head_arity);
    Value* out = rows_scratch.data();
    const Value* tup = tuples;
    for (std::size_t t = 0; t < count; ++t, tup += width) {
      for (std::size_t i = 0; i < head_arity; ++i) {
        out[i] = head_plan[i].is_const ? head_plan[i].const_value
                                       : tup[head_plan[i].col];
      }
      out += head_arity;
    }
    sink(head_rel, rows_scratch.data(), count, head_arity);
    return true;
  });
  if (stats != nullptr) stats->rows_scanned += matcher.RowsScanned();
}

}  // namespace

bool ForEachSatisfyingValuation(const ConjunctiveQuery& query,
                                const Instance& instance,
                                const ValuationVisitor& visit,
                                CqEvalStats* stats) {
  LAMP_CHECK_MSG(!query.body().empty(),
                 "queries must have a nonempty positive body");
  BatchMatcher matcher(query, instance);
  const std::vector<std::uint32_t>& col_of_var = matcher.ColOfVar();
  Valuation valuation(query.NumVars());
  const bool completed = matcher.Run([&](const Value* tup) {
    for (VarId v = 0; v < query.NumVars(); ++v) {
      if (col_of_var[v] != BatchMatcher::kNoCol) {
        valuation.Bind(v, tup[col_of_var[v]]);
      }
    }
    return visit(valuation);
  });
  if (stats != nullptr) stats->rows_scanned += matcher.RowsScanned();
  return completed;
}

void EvaluateInto(const ConjunctiveQuery& query, const Instance& instance,
                  const RowSink& sink, CqEvalStats* stats) {
  EvaluateIntoBatchesImpl(
      query, instance,
      [&sink](RelationId relation, const Value* rows, std::size_t count,
              std::size_t arity) {
        for (std::size_t t = 0; t < count; ++t) {
          sink(relation, rows + t * arity, arity);
        }
      },
      stats);
}

void EvaluateIntoBatches(const ConjunctiveQuery& query,
                         const Instance& instance, const RowBatchSink& sink,
                         CqEvalStats* stats) {
  EvaluateIntoBatchesImpl(query, instance, sink, stats);
}

Instance Evaluate(const ConjunctiveQuery& query, const Instance& instance,
                  CqEvalStats* stats) {
  Instance result;
  if (query.IsFull()) {
    // Distinct by construction: a full CQ's head fact determines its
    // valuation, each satisfying valuation maps every body atom to one row
    // of the (set) instance, and the matcher visits each choice of rows
    // once. So the head rows never repeat; collect them in emission order
    // and hand them over without a dedup probe.
    std::vector<Value> rows;
    std::size_t count = 0;
    EvaluateIntoBatchesImpl(
        query, instance,
        [&rows, &count](RelationId, const Value* block, std::size_t n,
                        std::size_t arity) {
          rows.insert(rows.end(), block, block + n * arity);
          count += n;
        },
        stats);
    result.AdoptDistinctRows(query.head().relation,
                             query.head().terms.size(), count,
                             std::move(rows));
    return result;
  }
  EvaluateIntoBatchesImpl(
      query, instance,
      [&result](RelationId relation, const Value* rows, std::size_t count,
                std::size_t arity) {
        result.InsertRows(relation, rows, count, arity);
      },
      stats);
  return result;
}

Instance EvaluateUnion(const std::vector<ConjunctiveQuery>& queries,
                       const Instance& instance) {
  Instance result;
  for (const ConjunctiveQuery& q : queries) {
    EvaluateIntoBatchesImpl(
        q, instance,
        [&result](RelationId relation, const Value* rows, std::size_t count,
                  std::size_t arity) {
          result.InsertRows(relation, rows, count, arity);
        },
        nullptr);
  }
  return result;
}

bool ForEachValuationOverUniverse(const ConjunctiveQuery& query,
                                  const std::vector<Value>& universe,
                                  const ValuationVisitor& visit) {
  const std::size_t n = query.NumVars();
  std::vector<std::size_t> idx(n, 0);
  if (universe.empty()) {
    if (n == 0) {
      return visit(Valuation(0));
    }
    return true;  // No valuations exist.
  }
  while (true) {
    Valuation v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.Bind(static_cast<VarId>(i), universe[idx[i]]);
    }
    if (!visit(v)) return false;
    std::size_t pos = 0;
    while (pos < n) {
      if (++idx[pos] < universe.size()) break;
      idx[pos] = 0;
      ++pos;
    }
    if (pos == n) return true;
  }
}

}  // namespace lamp
