#ifndef LAMP_DATALOG_PROGRAM_H_
#define LAMP_DATALOG_PROGRAM_H_

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cq/cq.h"
#include "relational/schema.h"

/// \file
/// Datalog programs with stratified negation and inequalities
/// (Section 5.3 of the paper). A rule is a ConjunctiveQuery whose head
/// relation is intensional; rules may negate atoms and use !=.
///
/// The structural analyses implemented here are the ones Figure 2 of the
/// paper is built from:
///  * stratification (and its failure for programs like win-move);
///  * semi-positivity — negation applied to extensional relations only
///    (SP-Datalog, contained in Mdistinct);
///  * per-rule connectedness — the graph formed by the positive atoms is
///    connected — and semi-connectedness: every stratum except possibly
///    the last is connected (captures Mdisjoint together with value
///    invention).

namespace lamp {

/// A stratification: strata[k] lists the indices of the rules evaluated in
/// stratum k (bottom-up order).
using Stratification = std::vector<std::vector<std::size_t>>;

/// A Datalog program over some shared Schema.
class DatalogProgram {
 public:
  /// Appends a rule. The rule must be safe (Validate()d by the parser).
  void AddRule(ConjunctiveQuery rule);

  const std::vector<ConjunctiveQuery>& rules() const { return rules_; }

  /// Relations appearing in some rule head.
  std::set<RelationId> IdbRelations() const;

  /// Relations appearing in bodies but never in a head.
  std::set<RelationId> EdbRelations() const;

  /// Computes a stratification, or nullopt if the program has negative
  /// recursion (e.g. win-move).
  std::optional<Stratification> Stratify() const;

  /// True when some rule has a negated atom.
  bool HasNegation() const;

  /// True when every negated atom refers to an extensional relation.
  bool IsSemiPositive() const;

  /// True when the positive body atoms of \p rule form a connected
  /// hypergraph on variables (rules with <= 1 positive atom are connected).
  static bool IsConnectedRule(const ConjunctiveQuery& rule);

  /// True when every rule is connected.
  bool IsConnected() const;

  /// True when the program stratifies and every stratum except possibly
  /// the last consists of connected rules only (the effective syntax for
  /// queries distributing over components / class Mdisjoint).
  bool IsSemiConnected() const;

 private:
  std::vector<ConjunctiveQuery> rules_;
};

/// Outcome of TryParseProgram: a program whose every rule is safe and has
/// a positive body atom, or an error naming the first bad line.
struct ProgramParseResult {
  std::optional<DatalogProgram> program;
  std::string error;  // "line N: ..." (1-based); non-empty iff !program.

  bool ok() const { return program.has_value(); }
};

/// Parses a multi-line program: one rule per non-empty line (lines starting
/// with '#' or '%' are comments), in the rule syntax of cq/parser.h. For
/// untrusted text: a syntax or arity error, an unsafe rule
/// (ConjunctiveQuery::SafetyViolation) or a rule without a positive body
/// atom (nothing to evaluate it from) is returned as an error naming its
/// 1-based line; it never aborts. Relations named before the error stay
/// registered in \p schema.
ProgramParseResult TryParseProgram(Schema& schema, std::string_view text);

/// Aborting wrapper of TryParseProgram, for trusted in-repo literals: the
/// same program on valid text, a checked abort with the error otherwise.
DatalogProgram ParseProgram(Schema& schema, std::string_view text);

}  // namespace lamp

#endif  // LAMP_DATALOG_PROGRAM_H_
