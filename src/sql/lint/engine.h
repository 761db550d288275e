#ifndef QUERC_SQL_LINT_ENGINE_H_
#define QUERC_SQL_LINT_ENGINE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sql/dialect.h"
#include "sql/lint/diagnostic.h"
#include "sql/lint/rule.h"

namespace querc::sql::lint {

struct LintOptions {
  /// Dialect used to lex queries that do not carry their own hint.
  Dialect dialect = Dialect::kGeneric;
  /// Distinct literal bindings of one normalized template before the
  /// unparameterized-literals rule reports a hot spot.
  size_t hot_template_threshold = 8;
  /// Number of worst templates surfaced in LintReport::top_templates.
  size_t top_templates = 5;
};

/// Per-query lint outcome: the diagnostics plus the normalized template
/// fingerprint (used by callers aggregating per-template statistics).
struct QueryLint {
  size_t query_index = 0;
  std::string fingerprint;
  std::vector<Diagnostic> diagnostics;
};

/// One offending template in the workload-level aggregation.
struct TemplateLint {
  std::string fingerprint;
  size_t instances = 0;
  size_t diagnostics = 0;
  size_t example_query = 0;  // index of one instance
};

/// Aggregate result of linting a whole workload.
struct LintReport {
  /// Every diagnostic (per-query and workload-level), sorted by
  /// (query_index, span.offset, rule_id).
  std::vector<Diagnostic> diagnostics;
  /// rule id -> number of diagnostics it produced.
  std::map<std::string, size_t> rule_hits;
  /// Worst templates by diagnostic count (ties: more instances first).
  std::vector<TemplateLint> top_templates;
  size_t total_queries = 0;

  /// Number of diagnostics with severity >= `floor`.
  size_t CountAtLeast(Severity floor) const;
};

/// Runs a RuleRegistry over queries or whole workloads. Stateless after
/// construction: every method is const and safe to call concurrently.
class LintEngine {
 public:
  explicit LintEngine(LintOptions options = {},
                      const SchemaProvider* schema = nullptr);
  LintEngine(RuleRegistry registry, LintOptions options,
             const SchemaProvider* schema = nullptr);

  /// Runs every per-query rule over one statement. `dialect` overrides the
  /// engine's default (queries arriving in a labeled stream carry their
  /// own hint).
  QueryLint LintQuery(std::string_view text, size_t query_index,
                      Dialect dialect) const;
  QueryLint LintQuery(std::string_view text, size_t query_index = 0) const {
    return LintQuery(text, query_index, options_.dialect);
  }
  /// The same over `tokens`, which the caller already lexed from `text`
  /// with LexLenient under the query's dialect: a caller that needs the
  /// tokens anyway (the QWorker's embedding stage) lexes each query once.
  QueryLint LintQuery(std::string_view text, const TokenList& tokens,
                      size_t query_index = 0) const;

  /// Lints a batch: per-query rules on each text, then workload-level
  /// rules over the template map, then aggregation.
  LintReport LintTexts(const std::vector<std::string>& texts) const;

  const RuleRegistry& registry() const { return registry_; }
  const LintOptions& options() const { return options_; }
  const SchemaProvider* schema() const { return schema_; }

 private:
  RuleRegistry registry_;
  LintOptions options_;
  const SchemaProvider* schema_;
};

}  // namespace querc::sql::lint

#endif  // QUERC_SQL_LINT_ENGINE_H_
