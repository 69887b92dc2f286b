#include "relational/instance.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

namespace {

static_assert(sizeof(Value) == sizeof(std::int64_t),
              "rows are compared with memcmp; Value must be a bare int64");

/// Returns \p values if already sorted, otherwise a sorted+deduped copy in
/// \p scratch. Lets RestrictTo/Touching accept unsorted literals while the
/// common caller (ActiveDomain output) pays no copy.
const std::vector<Value>& SortedView(const std::vector<Value>& values,
                                     std::vector<Value>& scratch) {
  if (std::is_sorted(values.begin(), values.end())) return values;
  scratch = values;
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
}

bool SortedContains(const std::vector<Value>& sorted, Value v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

}  // namespace

std::uint64_t Instance::HashRow(const Value* row, std::size_t arity) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < arity; ++i) {
    h = HashCombine(h, static_cast<std::uint64_t>(row[i].v));
  }
  return h;
}

void Instance::Rehash(Column& c, std::size_t new_slots) {
  c.slots.assign(new_slots, 0);
  const std::size_t mask = new_slots - 1;
  const Value* row = c.data.data();
  for (std::size_t id = 0; id < c.num_rows; ++id, row += c.arity) {
    std::size_t i = static_cast<std::size_t>(HashRow(row, c.arity)) & mask;
    while (c.slots[i] != 0) i = (i + 1) & mask;
    c.slots[i] = static_cast<std::uint32_t>(id) + 1;
  }
}

void Instance::Reserve(RelationId relation, std::size_t arity,
                       std::size_t extra_rows) {
  if (extra_rows == 0) return;
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  if (c.num_rows == 0) {
    c.arity = static_cast<std::uint32_t>(arity);
  } else {
    LAMP_CHECK_MSG(arity == c.arity,
                   "all rows of a relation must share one arity");
  }
  const std::size_t rows = c.num_rows + extra_rows;
  c.data.reserve(rows * arity);
  const std::size_t slots = SlotsFor(rows, c.slots.size());
  if (slots != c.slots.size()) Rehash(c, slots);
}

std::size_t Instance::SlotsFor(std::size_t rows, std::size_t current_slots) {
  // The smallest table the insert-time trigger would have grown to for
  // `rows` rows (load factor at most 7/8).
  std::size_t slots = std::max<std::size_t>(16, current_slots);
  while (rows * 8 > slots * 7) slots *= 2;
  return slots;
}

void Instance::AdoptDistinctRows(RelationId relation, std::size_t arity,
                                 std::size_t count,
                                 std::vector<Value>&& rows) {
  LAMP_CHECK_MSG(rows.size() == count * arity,
                 "adopted rows must hold count * arity values");
  LAMP_CHECK_MSG(arity != 0 || count <= 1,
                 "distinct nullary rows: at most one");
  LAMP_CHECK_MSG(NumRows(relation) == 0,
                 "rows are adopted only into an empty relation");
  if (count == 0) return;
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  c.arity = static_cast<std::uint32_t>(arity);
  c.num_rows = count;
  c.data = std::move(rows);
  size_ += count;
  Rehash(c, SlotsFor(count, c.slots.size()));
}

bool Instance::InsertRow(RelationId relation, const Value* row,
                         std::size_t arity) {
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  if (c.num_rows == 0) {
    c.arity = static_cast<std::uint32_t>(arity);
  } else {
    LAMP_CHECK_MSG(arity == c.arity,
                   "all rows of a relation must share one arity");
  }

  // Grow to keep the load factor below 7/8.
  if ((c.num_rows + 1) * 8 > c.slots.size() * 7) {
    Rehash(c, std::max<std::size_t>(16, c.slots.size() * 2));
  }

  const std::size_t mask = c.slots.size() - 1;
  const std::size_t row_bytes = arity * sizeof(Value);
  std::size_t i = static_cast<std::size_t>(HashRow(row, arity)) & mask;
  while (c.slots[i] != 0) {
    const std::size_t id = c.slots[i] - 1;
    if (row_bytes == 0 ||
        std::memcmp(c.data.data() + id * arity, row, row_bytes) == 0) {
      return false;  // Duplicate (set semantics).
    }
    i = (i + 1) & mask;
  }
  c.slots[i] = static_cast<std::uint32_t>(c.num_rows) + 1;
  c.data.insert(c.data.end(), row, row + arity);
  ++c.num_rows;
  ++size_;
  return true;
}

bool Instance::ContainsRow(RelationId relation, const Value* row,
                           std::size_t arity) const {
  if (relation >= by_relation_.size()) return false;
  const Column& c = by_relation_[relation];
  if (c.num_rows == 0 || arity != c.arity) return false;
  const std::size_t mask = c.slots.size() - 1;
  const std::size_t row_bytes = arity * sizeof(Value);
  std::size_t i = static_cast<std::size_t>(HashRow(row, arity)) & mask;
  while (c.slots[i] != 0) {
    const std::size_t id = c.slots[i] - 1;
    if (row_bytes == 0 ||
        std::memcmp(c.data.data() + id * arity, row, row_bytes) == 0) {
      return true;
    }
    i = (i + 1) & mask;
  }
  return false;
}

std::size_t Instance::InsertAll(const Instance& other) {
  std::size_t added = 0;
  for (RelationId r = 0; r < other.by_relation_.size(); ++r) {
    const Column& c = other.by_relation_[r];
    if (c.num_rows == 0) continue;
    added += InsertRowsImpl(r, c.data.data(), c.num_rows, c.arity, nullptr);
  }
  return added;
}

std::size_t Instance::InsertRows(RelationId relation, const Value* rows,
                                 std::size_t count, std::size_t arity) {
  return InsertRowsImpl(relation, rows, count, arity, nullptr);
}

std::size_t Instance::InsertRowsInto(RelationId relation, const Value* rows,
                                     std::size_t count, std::size_t arity,
                                     Instance& mirror) {
  return InsertRowsImpl(relation, rows, count, arity, &mirror);
}

std::size_t Instance::InsertRowsImpl(RelationId relation, const Value* rows,
                                     std::size_t count, std::size_t arity,
                                     Instance* mirror) {
  if (count == 0) return 0;
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  if (c.num_rows == 0) {
    c.arity = static_cast<std::uint32_t>(arity);
  } else {
    LAMP_CHECK_MSG(arity == c.arity,
                   "all rows of a relation must share one arity");
  }

  // Same per-insert growth trigger as InsertRow (a table presized by
  // Reserve never fires it); only the relation lookup and arity check are
  // hoisted out of the loop.
  const std::size_t row_bytes = arity * sizeof(Value);
  std::size_t mask = c.slots.empty() ? 0 : c.slots.size() - 1;
  std::size_t added = 0;
  const Value* row = rows;
  for (std::size_t t = 0; t < count; ++t, row += arity) {
    if ((c.num_rows + 1) * 8 > c.slots.size() * 7) {
      Rehash(c, std::max<std::size_t>(16, c.slots.size() * 2));
      mask = c.slots.size() - 1;
    }
    std::size_t i = static_cast<std::size_t>(HashRow(row, arity)) & mask;
    bool duplicate = false;
    while (c.slots[i] != 0) {
      const std::size_t id = c.slots[i] - 1;
      if (row_bytes == 0 ||
          std::memcmp(c.data.data() + id * arity, row, row_bytes) == 0) {
        duplicate = true;
        break;
      }
      i = (i + 1) & mask;
    }
    if (duplicate) continue;
    c.slots[i] = static_cast<std::uint32_t>(c.num_rows) + 1;
    c.data.insert(c.data.end(), row, row + arity);
    ++c.num_rows;
    ++added;
    if (mirror != nullptr) mirror->InsertRow(relation, row, arity);
  }
  size_ += added;
  return added;
}

void Instance::ClearRelation(RelationId relation) {
  if (relation >= by_relation_.size()) return;
  Column& c = by_relation_[relation];
  size_ -= c.num_rows;
  c.num_rows = 0;
  c.arity = 0;
  c.data.clear();
  std::fill(c.slots.begin(), c.slots.end(), 0);
  if (relation < indexes_.size()) indexes_[relation].clear();
}

const JoinIndex& Instance::IndexOn(RelationId relation, std::uint64_t mask,
                                   std::size_t* rows_indexed) const {
  if (indexes_.size() < by_relation_.size()) {
    indexes_.resize(by_relation_.size());
  }
  LAMP_CHECK(relation < by_relation_.size());
  auto& per_relation = indexes_[relation];
  JoinIndex* index = nullptr;
  for (auto& [m, idx] : per_relation) {
    if (m == mask) {
      index = idx.get();
      break;
    }
  }
  if (index == nullptr) {
    per_relation.emplace_back(mask, std::make_unique<JoinIndex>());
    index = per_relation.back().second.get();
    for (std::size_t pos = 0; pos < 64; ++pos) {
      if ((mask >> pos) & 1) {
        index->key_pos.push_back(static_cast<std::uint32_t>(pos));
      }
    }
  }

  const Column& c = by_relation_[relation];
  if (index->built_rows == c.num_rows) return *index;

  std::size_t slots = index->head.empty() ? 16 : index->head.size();
  while (slots < c.num_rows * 2) slots *= 2;
  if (slots != index->head.size()) {
    // Grown past the table's load limit: rebuild from row 0. The rebuild
    // cost amortises over the appends that caused it.
    index->head.assign(slots, 0);
    index->tail.assign(slots, 0);
    index->next.assign(c.num_rows, 0);
    index->built_rows = 0;
  } else {
    index->next.resize(c.num_rows, 0);
  }

  const std::size_t slot_mask = slots - 1;
  const Value* row = c.data.data() + index->built_rows * c.arity;
  for (std::size_t id = index->built_rows; id < c.num_rows;
       ++id, row += c.arity) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint32_t pos : index->key_pos) {
      h = HashCombine(h, static_cast<std::uint64_t>(row[pos].v));
    }
    const std::size_t slot = static_cast<std::size_t>(h) & slot_mask;
    const std::uint32_t link = static_cast<std::uint32_t>(id) + 1;
    if (index->head[slot] == 0) {
      index->head[slot] = link;
    } else {
      index->next[index->tail[slot] - 1] = link;
    }
    index->tail[slot] = link;
  }
  if (rows_indexed != nullptr) {
    *rows_indexed += c.num_rows - index->built_rows;
  }
  index->built_rows = c.num_rows;
  return *index;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(size_);
  ForEachFact([&out](const Fact& f) { out.push_back(f); });
  return out;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::vector<Value> dom;
  for (const Column& c : by_relation_) {
    dom.insert(dom.end(), c.data.begin(),
               c.data.begin() +
                   static_cast<std::ptrdiff_t>(c.num_rows * c.arity));
  }
  std::sort(dom.begin(), dom.end());
  dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
  return dom;
}

Instance Instance::RestrictTo(const std::vector<Value>& values) const {
  std::vector<Value> scratch;
  const std::vector<Value>& sorted = SortedView(values, scratch);
  Instance out;
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      bool inside = true;
      for (std::size_t j = 0; j < c.arity; ++j) {
        if (!SortedContains(sorted, row[j])) {
          inside = false;
          break;
        }
      }
      if (inside) out.InsertRow(r, row, c.arity);
    }
  }
  return out;
}

Instance Instance::Touching(const std::vector<Value>& values) const {
  std::vector<Value> scratch;
  const std::vector<Value>& sorted = SortedView(values, scratch);
  Instance out;
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      bool touches = false;
      for (std::size_t j = 0; j < c.arity; ++j) {
        if (SortedContains(sorted, row[j])) {
          touches = true;
          break;
        }
      }
      if (touches) out.InsertRow(r, row, c.arity);
    }
  }
  return out;
}

std::vector<Instance> Instance::Components() const {
  // Union-find over facts (global row ids in AllFacts order), merging
  // facts that share a value.
  struct RowRef {
    RelationId relation;
    const Value* row;
    std::uint32_t arity;
  };
  std::vector<RowRef> rows;
  rows.reserve(size_);
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      rows.push_back(RowRef{r, row, c.arity});
    }
  }

  std::vector<std::size_t> parent(rows.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});

  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&parent, &find](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };

  std::map<Value, std::size_t> first_owner;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::uint32_t j = 0; j < rows[i].arity; ++j) {
      auto [it, inserted] = first_owner.emplace(rows[i].row[j], i);
      if (!inserted) unite(i, it->second);
    }
  }

  std::map<std::size_t, Instance> groups;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    groups[find(i)].InsertRow(rows[i].relation, rows[i].row, rows[i].arity);
  }
  std::vector<Instance> out;
  out.reserve(groups.size());
  for (auto& [root, inst] : groups) out.push_back(std::move(inst));
  return out;
}

bool operator==(const Instance& a, const Instance& b) {
  if (a.size_ != b.size_) return false;
  for (RelationId r = 0; r < a.by_relation_.size(); ++r) {
    const Instance::Column& c = a.by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      if (!b.ContainsRow(r, row, c.arity)) return false;
    }
  }
  return true;
}

std::string Instance::ToString(const Schema& schema) const {
  std::vector<Fact> facts = AllFacts();
  std::sort(facts.begin(), facts.end());
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) os << ", ";
    os << FactToString(schema, facts[i]);
  }
  os << "}";
  return os.str();
}

}  // namespace lamp
