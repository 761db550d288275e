#include "sql/lint/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "sql/lexer.h"
#include "sql/normalizer.h"

namespace querc::sql::lint {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "warning";
}

bool ParseSeverity(std::string_view name, Severity* out) {
  if (name == "info") {
    *out = Severity::kInfo;
  } else if (name == "warning") {
    *out = Severity::kWarning;
  } else if (name == "error") {
    *out = Severity::kError;
  } else {
    return false;
  }
  return true;
}

size_t LintReport::CountAtLeast(Severity floor) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= floor) ++n;
  }
  return n;
}

namespace {

void SortDiagnostics(std::vector<Diagnostic>* diagnostics) {
  std::stable_sort(diagnostics->begin(), diagnostics->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.query_index != b.query_index) {
                       return a.query_index < b.query_index;
                     }
                     if (a.span.offset != b.span.offset) {
                       return a.span.offset < b.span.offset;
                     }
                     return a.rule_id < b.rule_id;
                   });
}

}  // namespace

LintEngine::LintEngine(LintOptions options, const SchemaProvider* schema)
    : LintEngine(RuleRegistry::Builtin(), options, schema) {}

LintEngine::LintEngine(RuleRegistry registry, LintOptions options,
                       const SchemaProvider* schema)
    : registry_(std::move(registry)), options_(options), schema_(schema) {}

QueryLint LintEngine::LintQuery(std::string_view text, size_t query_index,
                                Dialect dialect) const {
  LexOptions lex_options;
  lex_options.dialect = dialect;
  return LintQuery(text, LexLenient(text, lex_options), query_index);
}

QueryLint LintEngine::LintQuery(std::string_view text, const TokenList& tokens,
                                size_t query_index) const {
  QueryShape shape = Analyze(tokens);

  QueryLint result;
  result.query_index = query_index;
  result.fingerprint = NormalizedText(tokens);

  QueryContext ctx;
  ctx.text = text;
  ctx.tokens = &tokens;
  ctx.shape = &shape;
  ctx.fingerprint = result.fingerprint;
  ctx.query_index = query_index;
  ctx.schema = schema_;

  for (const auto& rule : registry_.rules()) {
    rule->Check(ctx, &result.diagnostics);
  }
  for (Diagnostic& d : result.diagnostics) d.query_index = query_index;
  SortDiagnostics(&result.diagnostics);
  return result;
}

LintReport LintEngine::LintTexts(const std::vector<std::string>& texts) const {
  LintReport report;
  report.total_queries = texts.size();

  // Per-query pass. Token streams and shapes must outlive the workload
  // pass, so keep them alongside the contexts.
  struct Analyzed {
    TokenList tokens;
    QueryShape shape;
  };
  std::vector<Analyzed> analyzed(texts.size());
  std::vector<QueryContext> contexts(texts.size());
  LexOptions lex_options;
  lex_options.dialect = options_.dialect;
  for (size_t i = 0; i < texts.size(); ++i) {
    analyzed[i].tokens = LexLenient(texts[i], lex_options);
    analyzed[i].shape = Analyze(analyzed[i].tokens);
    QueryContext& ctx = contexts[i];
    ctx.text = texts[i];
    ctx.tokens = &analyzed[i].tokens;
    ctx.shape = &analyzed[i].shape;
    ctx.fingerprint = NormalizedText(analyzed[i].tokens);
    ctx.query_index = i;
    ctx.schema = schema_;
    for (const auto& rule : registry_.rules()) {
      size_t before = report.diagnostics.size();
      rule->Check(ctx, &report.diagnostics);
      for (size_t d = before; d < report.diagnostics.size(); ++d) {
        report.diagnostics[d].query_index = i;
      }
    }
  }

  // Template map: group queries by fingerprint, count distinct raw texts
  // (distinct literal bindings) and inspect the folded template.
  std::map<std::string, TemplateGroup> groups;
  std::map<std::string, std::set<std::string>> distinct_texts;
  for (size_t i = 0; i < texts.size(); ++i) {
    TemplateGroup& g = groups[contexts[i].fingerprint];
    if (g.query_indices.empty()) {
      g.fingerprint = contexts[i].fingerprint;
      for (const Token& t : *contexts[i].tokens) {
        if (t.type == TokenType::kNumber || t.type == TokenType::kString) {
          ++g.literal_tokens;
        } else if (t.type == TokenType::kParameter) {
          g.has_parameters = true;
        }
      }
    }
    g.query_indices.push_back(i);
    distinct_texts[contexts[i].fingerprint].insert(texts[i]);
  }
  std::vector<TemplateGroup> templates;
  templates.reserve(groups.size());
  for (auto& [fingerprint, group] : groups) {
    group.distinct_texts = distinct_texts[fingerprint].size();
    templates.push_back(std::move(group));
  }

  WorkloadContext workload;
  workload.queries = &contexts;
  workload.templates = &templates;
  workload.hot_template_threshold = options_.hot_template_threshold;
  for (const auto& rule : registry_.rules()) {
    rule->CheckWorkload(workload, &report.diagnostics);
  }

  SortDiagnostics(&report.diagnostics);
  for (const Diagnostic& d : report.diagnostics) {
    ++report.rule_hits[d.rule_id];
  }

  // Worst templates by diagnostic count (ties broken by instance count).
  std::map<std::string, size_t> template_diagnostics;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.query_index < contexts.size()) {
      ++template_diagnostics[contexts[d.query_index].fingerprint];
    }
  }
  for (const TemplateGroup& g : templates) {
    auto it = template_diagnostics.find(g.fingerprint);
    if (it == template_diagnostics.end() || it->second == 0) continue;
    TemplateLint t;
    t.fingerprint = g.fingerprint;
    t.instances = g.query_indices.size();
    t.diagnostics = it->second;
    t.example_query = g.query_indices.front();
    report.top_templates.push_back(std::move(t));
  }
  std::stable_sort(report.top_templates.begin(), report.top_templates.end(),
                   [](const TemplateLint& a, const TemplateLint& b) {
                     if (a.diagnostics != b.diagnostics) {
                       return a.diagnostics > b.diagnostics;
                     }
                     return a.instances > b.instances;
                   });
  if (report.top_templates.size() > options_.top_templates) {
    report.top_templates.resize(options_.top_templates);
  }
  return report;
}

}  // namespace querc::sql::lint
