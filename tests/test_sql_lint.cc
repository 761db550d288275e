#include "sql/lint/engine.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/catalog.h"
#include "engine/cost_model.h"
#include "engine/lint_advisor.h"
#include "obs/metrics.h"
#include "querc/qworker.h"
#include "querc/qworker_pool.h"
#include "sql/lexer.h"
#include "sql/lint/export.h"
#include "workload/snowflake_gen.h"
#include "workload/tpch_gen.h"

namespace querc::sql::lint {
namespace {

/// Tiny fixed schema for rules that need column->table resolution.
class FakeSchema : public SchemaProvider {
 public:
  std::string TableOfColumn(const std::string& column) const override {
    if (column.rfind("o_", 0) == 0) return "orders";
    if (column.rfind("l_", 0) == 0) return "lineitem";
    if (column.rfind("c_", 0) == 0) return "customer";
    return "";
  }
  bool HasTable(const std::string& table) const override {
    return table == "orders" || table == "lineitem" || table == "customer";
  }
  uint64_t TableRowCount(const std::string& table) const override {
    return HasTable(table) ? 1000000 : 0;
  }
  size_t TableColumnCount(const std::string& table) const override {
    return HasTable(table) ? 16 : 0;
  }
};

std::vector<std::string> RuleIds(const QueryLint& lint) {
  std::vector<std::string> ids;
  for (const Diagnostic& d : lint.diagnostics) ids.push_back(d.rule_id);
  return ids;
}

bool Fired(const QueryLint& lint, const std::string& rule_id) {
  for (const Diagnostic& d : lint.diagnostics) {
    if (d.rule_id == rule_id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-rule goldens: one positive and one negative query per rule.
// ---------------------------------------------------------------------------

TEST(LintRules, CartesianProductFiresOnCommaJoinWithoutPredicate) {
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT a FROM orders, lineitem WHERE a > 5");
  ASSERT_TRUE(Fired(lint, "cartesian-product")) << FormatText(LintReport{});
  EXPECT_EQ(lint.diagnostics[0].severity, Severity::kError);
}

TEST(LintRules, CartesianProductFiresOnExplicitCrossJoin) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders CROSS JOIN lineitem WHERE a > 5");
  EXPECT_TRUE(Fired(lint, "cartesian-product"));
}

TEST(LintRules, CartesianProductSilentOnProperJoin) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o JOIN lineitem l ON o.o_orderkey = "
      "l.l_orderkey");
  EXPECT_FALSE(Fired(lint, "cartesian-product"));
}

TEST(LintRules, CartesianProductSilentOnBareEquiJoin) {
  // The analyzer drops bare-bare equi-joins (the TPC-H comma-join idiom)
  // from QueryShape::joins; the rule must notice the textual join
  // predicate and stay silent rather than report a false positive.
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders, lineitem WHERE o_orderkey = l_orderkey");
  EXPECT_FALSE(Fired(lint, "cartesian-product"));
}

TEST(LintRules, MissingJoinPredicateFiresOnDisconnectedTable) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o, lineitem l, customer c "
      "WHERE o.o_orderkey = l.l_orderkey AND o.o_total > 5");
  ASSERT_TRUE(Fired(lint, "missing-join-predicate"));
  EXPECT_NE(lint.diagnostics[0].message.find("customer"), std::string::npos);
}

TEST(LintRules, MissingJoinPredicateSilentWhenConnected) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o, lineitem l, customer c "
      "WHERE o.o_orderkey = l.l_orderkey AND o.o_custkey = c.c_custkey");
  EXPECT_FALSE(Fired(lint, "missing-join-predicate"));
}

TEST(LintRules, MissingJoinPredicateResolvesBareColumnsViaSchema) {
  FakeSchema schema;
  LintEngine engine(LintOptions{}, &schema);
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o, lineitem l, customer c "
      "WHERE o.o_orderkey = l.l_orderkey AND c_acctbal > 0");
  // customer is only touched by a filter, never joined.
  EXPECT_TRUE(Fired(lint, "missing-join-predicate"));
}

TEST(LintRules, NonSargableFiresOnFunctionOverColumn) {
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT a FROM t WHERE YEAR(order_date) = 1995");
  ASSERT_TRUE(Fired(lint, "non-sargable-predicate"));
  EXPECT_EQ(lint.diagnostics[0].severity, Severity::kWarning);
}

TEST(LintRules, NonSargableFiresOnColumnArithmetic) {
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT a FROM t WHERE price * 2 > 100");
  EXPECT_TRUE(Fired(lint, "non-sargable-predicate"));
}

TEST(LintRules, NonSargableSilentOnBareColumnAndAggregates) {
  LintEngine engine;
  EXPECT_FALSE(Fired(
      engine.LintQuery("SELECT a FROM t WHERE order_date >= '1995-01-01'"),
      "non-sargable-predicate"));
  // Aggregates in HAVING are not index-scan candidates.
  EXPECT_FALSE(Fired(engine.LintQuery(
                         "SELECT a, SUM(x) FROM t GROUP BY a "
                         "HAVING SUM(x) > 100"),
                     "non-sargable-predicate"));
}

TEST(LintRules, SelectStarFiresAndReportsWideTable) {
  FakeSchema schema;
  LintEngine engine(LintOptions{}, &schema);
  QueryLint lint = engine.LintQuery("SELECT * FROM lineitem WHERE l_qty > 5");
  ASSERT_TRUE(Fired(lint, "select-star"));
  EXPECT_NE(lint.diagnostics[0].message.find("16 columns"),
            std::string::npos);
}

TEST(LintRules, SelectStarSilentOnCountStarAndExplicitColumns) {
  LintEngine engine;
  EXPECT_FALSE(
      Fired(engine.LintQuery("SELECT COUNT(*) FROM t"), "select-star"));
  EXPECT_FALSE(
      Fired(engine.LintQuery("SELECT a, b FROM t"), "select-star"));
}

TEST(LintRules, OrEqualityChainFiresAndSuggestsIn) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM t WHERE region = 'EU' OR region = 'US' OR "
      "region = 'APAC'");
  ASSERT_TRUE(Fired(lint, "or-equality-chain"));
  EXPECT_NE(lint.diagnostics[0].fix_hint.find("IN"), std::string::npos);
}

TEST(LintRules, OrEqualityChainSilentOnMixedColumns) {
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT a FROM t WHERE region = 'EU' OR tier = 1");
  EXPECT_FALSE(Fired(lint, "or-equality-chain"));
}

TEST(LintRules, RedundantDistinctFiresUnderGroupBy) {
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT DISTINCT region FROM t GROUP BY region");
  EXPECT_TRUE(Fired(lint, "redundant-distinct"));
}

TEST(LintRules, RedundantDistinctSilentOnAggregateDistinct) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT region, COUNT(DISTINCT user_id) FROM t GROUP BY region");
  EXPECT_FALSE(Fired(lint, "redundant-distinct"));
}

TEST(LintRules, ContradictionFiresOnConflictingEqualities) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM t WHERE status = 'paid' AND status = 'failed'");
  ASSERT_TRUE(Fired(lint, "predicate-contradiction"));
  EXPECT_EQ(lint.diagnostics[0].severity, Severity::kError);
}

TEST(LintRules, ContradictionFiresOnEmptyRange) {
  LintEngine engine;
  EXPECT_TRUE(Fired(
      engine.LintQuery("SELECT a FROM t WHERE x > 10 AND x < 5"),
      "predicate-contradiction"));
  EXPECT_TRUE(Fired(
      engine.LintQuery("SELECT a FROM t WHERE x = 100 AND x < 50"),
      "predicate-contradiction"));
}

TEST(LintRules, ContradictionFlagsTautologyAsWarning) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery("SELECT a FROM t WHERE 1 = 1");
  ASSERT_TRUE(Fired(lint, "predicate-contradiction"));
  EXPECT_EQ(lint.diagnostics[0].severity, Severity::kWarning);
}

TEST(LintRules, ContradictionSilentUnderDisjunction) {
  // x = 1 OR x = 2 is satisfiable; conjunction-only reasoning must not
  // run when OR is present.
  LintEngine engine;
  QueryLint lint =
      engine.LintQuery("SELECT a FROM t WHERE x = 1 OR x = 2");
  EXPECT_FALSE(Fired(lint, "predicate-contradiction"));
}

TEST(LintRules, ContradictionSilentOnCompatibleRange) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM t WHERE x >= 5 AND x <= 10 AND x = 7");
  EXPECT_FALSE(Fired(lint, "predicate-contradiction"));
}

TEST(LintRules, CorrelatedSubqueryFiresOnOuterAliasReference) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o WHERE EXISTS (SELECT 1 FROM lineitem l "
      "WHERE l.l_orderkey = o.o_orderkey)");
  ASSERT_TRUE(Fired(lint, "correlated-subquery"));
  EXPECT_EQ(lint.diagnostics[0].severity, Severity::kInfo);
}

TEST(LintRules, CorrelatedSubquerySilentOnUncorrelated) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT a FROM orders o WHERE o.o_total > "
      "(SELECT AVG(l.l_price) FROM lineitem l WHERE l.l_qty > 5)");
  EXPECT_FALSE(Fired(lint, "correlated-subquery"));
}

TEST(LintRules, UnparameterizedLiteralsFiresOnHotTemplate) {
  LintOptions options;
  options.hot_template_threshold = 4;
  LintEngine engine(options);
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back("SELECT a FROM t WHERE user_id = " +
                    std::to_string(1000 + i));
  }
  LintReport report = engine.LintTexts(texts);
  EXPECT_EQ(report.rule_hits["unparameterized-literals"], 1u);
}

TEST(LintRules, UnparameterizedLiteralsSilentWhenParameterized) {
  LintOptions options;
  options.hot_template_threshold = 4;
  LintEngine engine(options);
  std::vector<std::string> texts(8, "SELECT a FROM t WHERE user_id = ?");
  LintReport report = engine.LintTexts(texts);
  EXPECT_EQ(report.rule_hits.count("unparameterized-literals"), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level aggregation and severity gating.
// ---------------------------------------------------------------------------

TEST(LintEngineTest, CleanQueryProducesNoDiagnostics) {
  LintEngine engine;
  QueryLint lint = engine.LintQuery(
      "SELECT o.o_orderdate, SUM(l.l_price) FROM orders o JOIN lineitem l "
      "ON o.o_orderkey = l.l_orderkey WHERE o.o_orderdate >= '1995-01-01' "
      "GROUP BY o.o_orderdate ORDER BY o.o_orderdate");
  EXPECT_TRUE(lint.diagnostics.empty())
      << "unexpected: " << RuleIds(lint).front();
}

TEST(LintEngineTest, CountAtLeastRespectsSeverityOrder) {
  LintEngine engine;
  LintReport report = engine.LintTexts({
      "SELECT a FROM orders, lineitem",                    // error
      "SELECT a FROM t WHERE YEAR(d) = 1995",              // warning
      "SELECT a FROM t WHERE x = 1 OR x = 2 OR x = 3",     // info
  });
  EXPECT_EQ(report.CountAtLeast(Severity::kError), 1u);
  EXPECT_EQ(report.CountAtLeast(Severity::kWarning), 2u);
  EXPECT_EQ(report.CountAtLeast(Severity::kInfo), 3u);
  EXPECT_EQ(report.total_queries, 3u);
}

TEST(LintEngineTest, DiagnosticsSortedAndStampedWithQueryIndex) {
  LintEngine engine;
  LintReport report = engine.LintTexts({
      "SELECT a, b FROM t WHERE a > 5",     // clean
      "SELECT a FROM orders, lineitem",     // query 1
  });
  ASSERT_FALSE(report.diagnostics.empty());
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.query_index, 1u);
  }
  EXPECT_TRUE(std::is_sorted(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return a.query_index < b.query_index;
      }));
}

TEST(LintEngineTest, TopTemplatesRankWorstFirst) {
  LintEngine engine;
  std::vector<std::string> texts;
  // Template A: two instances, each with a cartesian error.
  texts.push_back("SELECT a FROM orders, lineitem WHERE a > 1");
  texts.push_back("SELECT a FROM orders, lineitem WHERE a > 2");
  // Template B: one clean instance.
  texts.push_back("SELECT a, b FROM t WHERE a > 3");
  LintReport report = engine.LintTexts(texts);
  ASSERT_FALSE(report.top_templates.empty());
  EXPECT_EQ(report.top_templates[0].instances, 2u);
  EXPECT_GE(report.top_templates[0].diagnostics, 2u);
}

// ---------------------------------------------------------------------------
// Zero false positives on the clean seed workloads. TPC-H is entirely
// clean except for two *true* positives baked into the spec text: Q21's
// correlated EXISTS subqueries and Q22's SUBSTRING(c_phone, ...) filters.
// ---------------------------------------------------------------------------

TEST(LintSeedWorkloads, TpchHasNoFalsePositives) {
  workload::TpchGenerator::Options gen;
  gen.instances_per_template = 2;
  workload::Workload queries = workload::TpchGenerator(gen).Generate();
  std::vector<std::string> texts;
  for (const auto& q : queries) texts.push_back(q.text);

  engine::Catalog catalog = engine::TpchCatalog();
  engine::CatalogSchemaProvider schema(&catalog);
  LintOptions options;
  options.dialect = Dialect::kSqlServer;
  LintEngine engine(options, &schema);
  LintReport report = engine.LintTexts(texts);

  EXPECT_EQ(report.CountAtLeast(Severity::kError), 0u);
  for (const auto& [rule, hits] : report.rule_hits) {
    EXPECT_TRUE(rule == "correlated-subquery" ||
                rule == "non-sargable-predicate")
        << rule << " fired " << hits << " times on clean TPC-H";
  }
  // The known true positives must keep firing.
  EXPECT_GT(report.rule_hits["correlated-subquery"], 0u);
  EXPECT_GT(report.rule_hits["non-sargable-predicate"], 0u);
}

TEST(LintSeedWorkloads, SnowflakeHasNoStructuralFalsePositives) {
  workload::SnowflakeGenerator::Options gen;
  gen.accounts = workload::SnowflakeGenerator::UniformAccounts(3, 60, 3);
  workload::Workload queries =
      workload::SnowflakeGenerator(gen).Generate();
  std::vector<std::string> texts;
  for (const auto& q : queries) texts.push_back(q.text);

  LintOptions options;
  options.dialect = Dialect::kSnowflake;
  LintEngine engine(options);
  LintReport report = engine.LintTexts(texts);

  // The generator emits contradictory conjunctions (two independent
  // literal draws on one column) — those hits are true positives. The
  // structural rules must stay silent.
  for (const char* rule :
       {"cartesian-product", "missing-join-predicate", "select-star",
        "redundant-distinct", "non-sargable-predicate",
        "or-equality-chain"}) {
    EXPECT_EQ(report.rule_hits.count(rule), 0u)
        << rule << " fired on the snowflake seed workload";
  }
}

/// Everything a diagnostic carries, as one comparable string.
std::string DiagnosticsText(const std::vector<Diagnostic>& diagnostics) {
  std::string text;
  for (const Diagnostic& d : diagnostics) {
    text += d.rule_id + "@" + std::to_string(d.span.offset) + "+" +
            std::to_string(d.span.length) + ":" +
            std::string(SeverityName(d.severity)) + ":" + d.message + "|" +
            d.fix_hint + "#" + std::to_string(d.query_index) + ";";
  }
  return text;
}

/// Seed workloads (TPC-H in the SQL Server dialect, Snowflake in its own)
/// plus a few offenders from every rule family.
workload::Workload LintCorpus() {
  workload::TpchGenerator::Options tpch;
  tpch.instances_per_template = 2;
  workload::Workload corpus;
  for (auto q : workload::TpchGenerator(tpch).Generate()) {
    q.dialect = Dialect::kSqlServer;
    corpus.Add(q);
  }
  workload::SnowflakeGenerator::Options snowflake;
  snowflake.accounts = workload::SnowflakeGenerator::UniformAccounts(3, 40, 3);
  for (auto q : workload::SnowflakeGenerator(snowflake).Generate()) {
    q.dialect = Dialect::kSnowflake;
    corpus.Add(q);
  }
  for (const char* text :
       {"SELECT * FROM orders, lineitem", "SELECT a FROM t WHERE 1 = 1",
        "SELECT a FROM t WHERE YEAR(d) = 1995 OR a = 1 OR a = 2",
        "SELECT DISTINCT a FROM t GROUP BY a",
        "SELECT a FROM t WHERE x = 1 AND x = 2"}) {
    workload::LabeledQuery q;
    q.text = text;
    corpus.Add(q);
  }
  // Offenders whose tokens depend on the dialect: bracketed identifiers
  // and `@` markers (SQL Server), `$n` markers (Snowflake).
  const std::pair<Dialect, const char*> dialect_texts[] = {
      {Dialect::kSqlServer, "SELECT [order id] FROM [orders], [line item]"},
      {Dialect::kSqlServer, "SELECT a FROM t WHERE x = @p OR x = @q"},
      {Dialect::kSnowflake, "SELECT * FROM t WHERE x = $1 OR x = $2"},
  };
  for (const auto& [dialect, text] : dialect_texts) {
    workload::LabeledQuery q;
    q.text = text;
    q.dialect = dialect;
    corpus.Add(q);
  }
  return corpus;
}

TEST(LintEngineTest, TokenOverloadMatchesTextOverload) {
  LintEngine engine;
  size_t diagnosed = 0;
  size_t index = 0;
  for (const auto& q : LintCorpus()) {
    LexOptions lex;
    lex.dialect = q.dialect;
    QueryLint from_text = engine.LintQuery(q.text, index, q.dialect);
    QueryLint from_tokens =
        engine.LintQuery(q.text, LexLenient(q.text, lex), index);
    EXPECT_EQ(from_tokens.fingerprint, from_text.fingerprint) << q.text;
    EXPECT_EQ(DiagnosticsText(from_tokens.diagnostics),
              DiagnosticsText(from_text.diagnostics))
        << q.text;
    diagnosed += from_text.diagnostics.empty() ? 0 : 1;
    ++index;
  }
  EXPECT_GT(diagnosed, 5u);
}

// ---------------------------------------------------------------------------
// Export formats.
// ---------------------------------------------------------------------------

LintReport SampleReport() {
  LintEngine engine;
  return engine.LintTexts({
      "SELECT a FROM orders, lineitem",
      "SELECT a FROM t WHERE YEAR(d) = 1995",
  });
}

TEST(LintExport, TextContainsDiagnosticsAndSummary) {
  std::string text = FormatText(SampleReport());
  EXPECT_NE(text.find("cartesian-product"), std::string::npos);
  EXPECT_NE(text.find("non-sargable-predicate"), std::string::npos);
  EXPECT_NE(text.find("2 queries linted"), std::string::npos);
  EXPECT_NE(text.find("rule hits:"), std::string::npos);
}

TEST(LintExport, JsonIsStructurallyValid) {
  std::string json = FormatJson(SampleReport());
  // Balanced braces/brackets outside strings — a cheap structural check
  // that catches missed commas/quotes in the hand-rolled serializer.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"total_queries\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rule_id\":\"cartesian-product\""),
            std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"rule_hits\""), std::string::npos);
}

TEST(LintExport, SarifHasRequiredStructure) {
  RuleRegistry registry = RuleRegistry::Builtin();
  std::string sarif = FormatSarif(SampleReport(), registry);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"querc-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"cartesian-product\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  // Every built-in rule is listed in tool.driver.rules.
  for (const auto& rule : registry.rules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule->id()) + "\""),
              std::string::npos)
        << rule->id();
  }
}

TEST(LintExport, SeverityNamesRoundTrip) {
  for (Severity s : {Severity::kInfo, Severity::kWarning, Severity::kError}) {
    Severity parsed = Severity::kInfo;
    EXPECT_TRUE(ParseSeverity(SeverityName(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  Severity unused = Severity::kInfo;
  EXPECT_FALSE(ParseSeverity("fatal", &unused));
}

// ---------------------------------------------------------------------------
// Advisor cross-check (engine layer).
// ---------------------------------------------------------------------------

TEST(LintAdvisor, IndexCoverageReportsUncoveredLargeTableFilter) {
  engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);
  engine::AdvisorLintOptions options;
  options.lint.dialect = Dialect::kSqlServer;
  // Zero budget: the advisor recommends nothing, so every large-table
  // filter column is uncovered.
  options.advisor.budget_minutes = 0.0;
  engine::AdvisorLintResult result = engine::LintWorkloadWithAdvisor(
      {"SELECT l_quantity FROM lineitem WHERE l_shipdate >= '1995-01-01'"},
      model, options);
  EXPECT_GT(result.report.rule_hits["index-coverage"], 0u);
  EXPECT_TRUE(result.advisor.config.empty());
}

TEST(LintAdvisor, IndexCoverageSilentWhenAdvisorCoversColumn) {
  engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);
  engine::AdvisorLintOptions options;
  options.lint.dialect = Dialect::kSqlServer;
  options.advisor.budget_minutes = 10.0;
  std::vector<std::string> texts(
      4, "SELECT l_quantity FROM lineitem WHERE l_shipdate >= '1995-01-01'");
  engine::AdvisorLintResult result =
      engine::LintWorkloadWithAdvisor(texts, model, options);
  ASSERT_FALSE(result.advisor.config.empty());
  EXPECT_EQ(result.report.rule_hits.count("index-coverage"), 0u);
}

// ---------------------------------------------------------------------------
// QWorker / QWorkerPool lint stage integration.
// ---------------------------------------------------------------------------

workload::LabeledQuery MakeQuery(const std::string& text) {
  workload::LabeledQuery q;
  q.text = text;
  q.account = "acct";
  q.user = "user";
  return q;
}

TEST(LintServiceIntegration, QWorkerAttachesDiagnosticsAndCounts) {
  core::QWorker::Options options;
  options.application = "lint_test_app";
  core::QWorker worker(options);
  core::ProcessedQuery out =
      worker.Process(MakeQuery("SELECT a FROM orders, lineitem"));
  ASSERT_FALSE(out.diagnostics.empty());
  EXPECT_EQ(out.diagnostics[0].rule_id, "cartesian-product");
  EXPECT_GE(worker.lint_diagnostic_count(), 1u);

  worker.Process(MakeQuery("SELECT a, b FROM t WHERE a > 5"));  // clean
  auto top = worker.TopOffendingTemplates(5);
  ASSERT_EQ(top.size(), 1u);  // only the offending template is tracked
  EXPECT_GE(top[0].diagnostics, 1u);

  // The per-rule counter is registered and advanced.
  auto snapshot =
      obs::MetricsRegistry::Global().Collect("querc_lint_hits_total");
  bool found = false;
  for (const auto& counter : snapshot.counters) {
    for (const auto& [key, value] : counter.labels) {
      if (key == "rule" && value == "cartesian-product" &&
          counter.value >= 1u) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintServiceIntegration, ServedDiagnosticsMatchTextLint) {
  // The worker lexes each query once for both embedding and lint; its
  // diagnostics must equal a standalone lint of the text in the query's
  // dialect.
  core::QWorker worker({.application = "lint-identity"});
  for (const auto& q : LintCorpus()) {
    core::ProcessedQuery out = worker.Process(q);
    EXPECT_EQ(DiagnosticsText(out.diagnostics),
              DiagnosticsText(
                  worker.lint_engine().LintQuery(q.text, 0, q.dialect)
                      .diagnostics))
        << q.text;
  }
}

TEST(LintServiceIntegration, LintStageCanBeDisabled) {
  core::QWorker::Options options;
  options.application = "lint_test_app_off";
  options.enable_lint = false;
  core::QWorker worker(options);
  core::ProcessedQuery out =
      worker.Process(MakeQuery("SELECT a FROM orders, lineitem"));
  EXPECT_TRUE(out.diagnostics.empty());
  EXPECT_EQ(worker.lint_diagnostic_count(), 0u);
}

// Regression: the original capped offender map silently refused every
// template that arrived after the cap — a hot offender that first showed
// up late was invisible forever, with no signal anything was missing. The
// tracker must instead evict the least-offending entry and count drops.
TEST(LintServiceIntegration, CappedTrackerSurfacesLateHotTemplate) {
  core::QWorker::Options options;
  options.application = "lint_test_cap";
  options.lint_template_cap = 4;
  core::QWorker worker(options);
  // Overflow the cap with distinct one-instance offenders (distinct
  // column lists => distinct normalized fingerprints, all cartesian).
  for (int i = 0; i < 8; ++i) {
    worker.Process(MakeQuery("SELECT c" + std::to_string(i) +
                             " FROM orders, lineitem"));
  }
  EXPECT_GT(worker.lint_templates_dropped(), 0u)
      << "overflowing the cap must be counted, not silent";
  // A hot offender arriving only after the tracker filled up must still
  // displace a cold entry and surface at the top.
  for (int i = 0; i < 10; ++i) {
    worker.Process(MakeQuery("SELECT hot FROM orders, lineitem WHERE x > " +
                             std::to_string(i)));
  }
  auto top = worker.TopOffendingTemplates(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].instances, 10u) << "late hot template did not surface";
  EXPECT_GE(top[0].diagnostics, 10u);
  EXPECT_FALSE(top[0].example_text.empty());

  // The drop counter is exported for scraping.
  auto snapshot = obs::MetricsRegistry::Global().Collect(
      "querc_lint_templates_dropped_total");
  ASSERT_FALSE(snapshot.counters.empty());
  EXPECT_GE(snapshot.counters[0].value, 1.0);
}

TEST(LintServiceIntegration, ZeroCapDropsEverythingButStillCounts) {
  core::QWorker::Options options;
  options.application = "lint_test_cap0";
  options.lint_template_cap = 0;
  core::QWorker worker(options);
  for (int i = 0; i < 3; ++i) {
    worker.Process(MakeQuery("SELECT a FROM orders, lineitem"));
  }
  EXPECT_TRUE(worker.TopOffendingTemplates(5).empty());
  EXPECT_EQ(worker.lint_templates_dropped(), 3u);
}

// Regression: the pool's cross-shard merge summed only `instances`,
// silently zeroing `diagnostics` (and any future field) in the merged
// view. Merge must be total over all LintTemplateStats fields.
TEST(LintServiceIntegration, LintTemplateStatsMergeIsTotal) {
  core::LintTemplateStats a;
  a.fingerprint = "fp";
  a.example_text = "SELECT 1";
  a.instances = 2;
  a.diagnostics = 3;
  core::LintTemplateStats b;
  b.instances = 5;
  b.diagnostics = 7;
  a.Merge(b);
  EXPECT_EQ(a.instances, 7u);
  EXPECT_EQ(a.diagnostics, 10u);
  EXPECT_EQ(a.fingerprint, "fp");
  EXPECT_EQ(a.example_text, "SELECT 1");

  // Merging into an empty aggregate adopts the identifying fields.
  core::LintTemplateStats empty;
  empty.Merge(a);
  EXPECT_EQ(empty.fingerprint, "fp");
  EXPECT_EQ(empty.example_text, "SELECT 1");
  EXPECT_EQ(empty.instances, 7u);
  EXPECT_EQ(empty.diagnostics, 10u);
}

// Cross-shard golden: one template spread round-robin over both shards
// must merge back with *every* field totalled, not just instances.
TEST(LintServiceIntegration, PoolMergeTotalsAllFieldsAcrossShards) {
  core::QWorkerPool::Options options;
  options.application = "lint_test_pool_total";
  options.num_shards = 2;
  options.partition = core::QWorkerPool::Partition::kRoundRobin;
  core::QWorkerPool pool(options);
  workload::Workload batch;
  for (int i = 0; i < 6; ++i) {
    batch.Add(MakeQuery("SELECT g FROM orders, lineitem WHERE g > " +
                        std::to_string(i)));
  }
  pool.ProcessBatch(batch);
  auto top = pool.TopOffendingTemplates(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].instances, 6u);
  EXPECT_EQ(top[0].diagnostics, 6u)
      << "cross-shard merge dropped the diagnostics field";
  EXPECT_FALSE(top[0].fingerprint.empty());
  EXPECT_FALSE(top[0].example_text.empty());
  EXPECT_EQ(pool.lint_templates_dropped(), 0u);
  // Per-shard drop counts surface in ShardStats (zero here: under cap).
  for (const auto& s : pool.Stats(/*lint_top_n=*/1)) {
    EXPECT_EQ(s.lint_templates_dropped, 0u);
  }
}

TEST(LintServiceIntegration, PoolMergesTemplatesAcrossShards) {
  core::QWorkerPool::Options options;
  options.application = "lint_test_pool";
  options.num_shards = 2;
  options.partition = core::QWorkerPool::Partition::kRoundRobin;
  core::QWorkerPool pool(options);
  workload::Workload batch;
  for (int i = 0; i < 4; ++i) {
    batch.Add(MakeQuery("SELECT a FROM orders, lineitem WHERE a > " +
                        std::to_string(i)));
  }
  pool.ProcessBatch(batch);
  EXPECT_GE(pool.lint_diagnostic_count(), 4u);
  auto top = pool.TopOffendingTemplates(3);
  ASSERT_FALSE(top.empty());
  // Round-robin spread the one template across both shards; the merged
  // view must sum the instances back together.
  EXPECT_EQ(top[0].instances, 4u);
  auto stats = pool.Stats(/*lint_top_n=*/2);
  size_t shard_total = 0;
  for (const auto& s : stats) shard_total += s.lint_diagnostics;
  EXPECT_EQ(shard_total, pool.lint_diagnostic_count());
}

}  // namespace
}  // namespace querc::sql::lint
