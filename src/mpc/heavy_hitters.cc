#include "mpc/heavy_hitters.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace lamp {

namespace {

/// Calls visit(value, count) for every distinct value in column \p column
/// of \p relation, in ascending value order. Counts over a sorted copy of
/// the column, read straight off the row storage.
template <typename Visitor>
void ForEachColumnValue(const Instance& instance, RelationId relation,
                        std::size_t column, Visitor&& visit) {
  const RowsView rows = instance.RowsOf(relation);
  if (rows.empty()) return;
  LAMP_CHECK(column < rows.arity);
  std::vector<Value> values(rows.num_rows);
  for (std::size_t i = 0; i < rows.num_rows; ++i) {
    values[i] = rows.Row(i)[column];
  }
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size();) {
    std::size_t end = i + 1;
    while (end < values.size() && values[end] == values[i]) ++end;
    visit(values[i], end - i);
    i = end;
  }
}

}  // namespace

std::map<Value, std::size_t> ColumnFrequencies(const Instance& instance,
                                               RelationId relation,
                                               std::size_t column) {
  std::map<Value, std::size_t> freq;
  ForEachColumnValue(instance, relation, column,
                     [&freq](Value value, std::size_t count) {
                       freq.emplace_hint(freq.end(), value, count);
                     });
  return freq;
}

std::set<Value> HeavyHitters(const Instance& instance, RelationId relation,
                             std::size_t column, std::size_t threshold) {
  std::set<Value> heavy;
  ForEachColumnValue(instance, relation, column,
                     [&heavy, threshold](Value value, std::size_t count) {
                       if (count > threshold) {
                         heavy.emplace_hint(heavy.end(), value);
                       }
                     });
  return heavy;
}

std::set<Value> JoinHeavyHitters(const Instance& instance, RelationId left,
                                 std::size_t left_column, RelationId right,
                                 std::size_t right_column,
                                 std::size_t threshold) {
  std::set<Value> heavy = HeavyHitters(instance, left, left_column, threshold);
  const std::set<Value> more =
      HeavyHitters(instance, right, right_column, threshold);
  heavy.insert(more.begin(), more.end());
  return heavy;
}

}  // namespace lamp
