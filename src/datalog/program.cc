#include "datalog/program.h"

#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "cq/parser.h"

namespace lamp {

void DatalogProgram::AddRule(ConjunctiveQuery rule) {
  rules_.push_back(std::move(rule));
}

std::set<RelationId> DatalogProgram::IdbRelations() const {
  std::set<RelationId> idb;
  for (const ConjunctiveQuery& rule : rules_) {
    idb.insert(rule.head().relation);
  }
  return idb;
}

std::set<RelationId> DatalogProgram::EdbRelations() const {
  const std::set<RelationId> idb = IdbRelations();
  std::set<RelationId> edb;
  for (const ConjunctiveQuery& rule : rules_) {
    for (const Atom& atom : rule.body()) {
      if (idb.count(atom.relation) == 0) edb.insert(atom.relation);
    }
    for (const Atom& atom : rule.negated()) {
      if (idb.count(atom.relation) == 0) edb.insert(atom.relation);
    }
  }
  return edb;
}

std::optional<Stratification> DatalogProgram::Stratify() const {
  const std::set<RelationId> idb = IdbRelations();

  // stratum[] per IDB relation, relaxed to a fixpoint. A valid
  // stratification needs at most |idb| distinct strata; exceeding that
  // bound means a negative cycle.
  std::map<RelationId, std::size_t> stratum;
  for (RelationId rel : idb) stratum[rel] = 0;

  const std::size_t limit = idb.size() + 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ConjunctiveQuery& rule : rules_) {
      std::size_t& head_stratum = stratum[rule.head().relation];
      for (const Atom& atom : rule.body()) {
        if (idb.count(atom.relation) == 0) continue;
        if (head_stratum < stratum[atom.relation]) {
          head_stratum = stratum[atom.relation];
          changed = true;
        }
      }
      for (const Atom& atom : rule.negated()) {
        if (idb.count(atom.relation) == 0) continue;
        if (head_stratum < stratum[atom.relation] + 1) {
          head_stratum = stratum[atom.relation] + 1;
          changed = true;
          if (head_stratum >= limit) return std::nullopt;  // Negative cycle.
        }
      }
    }
  }

  // Group rules by their head's stratum, densely renumbered.
  std::set<std::size_t> used;
  for (const auto& [rel, s] : stratum) used.insert(s);
  std::map<std::size_t, std::size_t> dense;
  std::size_t next = 0;
  for (std::size_t s : used) dense[s] = next++;

  Stratification strata(next == 0 ? 1 : next);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    strata[dense[stratum[rules_[i].head().relation]]].push_back(i);
  }
  return strata;
}

bool DatalogProgram::HasNegation() const {
  for (const ConjunctiveQuery& rule : rules_) {
    if (!rule.negated().empty()) return true;
  }
  return false;
}

bool DatalogProgram::IsSemiPositive() const {
  const std::set<RelationId> idb = IdbRelations();
  for (const ConjunctiveQuery& rule : rules_) {
    for (const Atom& atom : rule.negated()) {
      if (idb.count(atom.relation) > 0) return false;
    }
  }
  return true;
}

bool DatalogProgram::IsConnectedRule(const ConjunctiveQuery& rule) {
  const std::vector<Atom>& body = rule.body();
  if (body.size() <= 1) return true;

  // Union-find over atoms, merged via shared variables.
  std::vector<std::size_t> parent(body.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::map<VarId, std::size_t> owner;
  for (std::size_t i = 0; i < body.size(); ++i) {
    for (const Term& t : body[i].terms) {
      if (!t.IsVar()) continue;
      auto [it, inserted] = owner.emplace(t.var, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  const std::size_t root = find(0);
  for (std::size_t i = 1; i < body.size(); ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

bool DatalogProgram::IsConnected() const {
  for (const ConjunctiveQuery& rule : rules_) {
    if (!IsConnectedRule(rule)) return false;
  }
  return true;
}

bool DatalogProgram::IsSemiConnected() const {
  const std::optional<Stratification> strata = Stratify();
  if (!strata.has_value()) return false;
  for (std::size_t k = 0; k + 1 < strata->size(); ++k) {
    for (std::size_t rule_idx : (*strata)[k]) {
      if (!IsConnectedRule(rules_[rule_idx])) return false;
    }
  }
  return true;
}

ProgramParseResult TryParseProgram(Schema& schema, std::string_view text) {
  ProgramParseResult result;
  DatalogProgram program;
  std::size_t start = 0;
  for (std::size_t line_no = 1; start <= text.size(); ++line_no) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    // Trim whitespace.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty() && line.front() != '#' && line.front() != '%') {
      CqParseResult parsed = TryParseQuery(schema, line);
      std::string error = parsed.error;
      if (parsed.ok()) {
        if (const std::optional<std::string> violation =
                parsed.query->SafetyViolation()) {
          error = "unsafe rule: " + *violation;
        } else if (parsed.query->body().empty()) {
          error = "rule has no positive body atom";
        }
      }
      if (!error.empty()) {
        result.error = "line " + std::to_string(line_no) + ": " + error;
        return result;
      }
      program.AddRule(std::move(*parsed.query));
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  result.program = std::move(program);
  return result;
}

DatalogProgram ParseProgram(Schema& schema, std::string_view text) {
  ProgramParseResult result = TryParseProgram(schema, text);
  if (!result.ok()) {
    LAMP_CHECK_MSG(false, result.error.c_str());
  }
  return std::move(*result.program);
}

}  // namespace lamp
