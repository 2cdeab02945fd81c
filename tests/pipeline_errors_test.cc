// Failure-path and edge-case tests: non-comparable queries (the paper's
// Q1-vs-Q4 case), malformed pipeline inputs, empty relations, the BART
// error injector's statistics, and the pipeline-level cooperative
// cancellation contract — what a fired CancelToken leaves behind in a
// MatchingContext (complete artifacts: cached; partial: never) and how
// deadlines interrupt a running stage-2 solve.

#include <gtest/gtest.h>

#include <chrono>

#include "common/cancel.h"
#include "core/pipeline.h"
#include "datagen/bart.h"
#include "datagen/synthetic.h"
#include "relational/csv.h"

namespace explain3d {
namespace {

Database TinyDb(const char* table, const char* csv) {
  Database db("d");
  db.PutTable(ParseCsv(table, csv).value());
  return db;
}

TEST(PipelineErrorsTest, NonComparableQueriesRejected) {
  // Figure 1's Q1 vs Q4: Campus does not correspond to Program in any
  // direct or containment relationship -> M_attr is empty -> not
  // comparable (Definition 2.2).
  Database d1 = TinyDb("D1", "Program:str\nCS\nEE\n");
  Database d4 =
      TinyDb("D4", "Campus:str,Num_major:int\nSouth,1\nNorth,2\n");
  PipelineInput input;
  input.db1 = &d1;
  input.db2 = &d4;
  input.sql1 = "SELECT COUNT(Program) FROM D1";
  input.sql2 = "SELECT SUM(Num_major) FROM D4";
  input.attr_matches = {};  // nothing matches
  Result<PipelineResult> r = RunExplain3D(input, Explain3DConfig());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("not comparable"), std::string::npos);
}

TEST(PipelineErrorsTest, MissingDatabasePointers) {
  PipelineInput input;
  input.sql1 = "SELECT COUNT(x) FROM t";
  input.sql2 = "SELECT COUNT(x) FROM t";
  input.attr_matches = {
      AttributeMatch::Single("x", "x", SemanticRelation::kEquivalent)};
  EXPECT_FALSE(RunExplain3D(input, Explain3DConfig()).ok());
}

TEST(PipelineErrorsTest, BadSqlAndMissingTablesPropagate) {
  Database d = TinyDb("T", "x:str\na\n");
  PipelineInput input;
  input.db1 = &d;
  input.db2 = &d;
  input.attr_matches = {
      AttributeMatch::Single("x", "x", SemanticRelation::kEquivalent)};

  input.sql1 = "SELEKT nonsense";
  input.sql2 = "SELECT COUNT(x) FROM T";
  EXPECT_EQ(RunExplain3D(input, Explain3DConfig()).status().code(),
            StatusCode::kParseError);

  input.sql1 = "SELECT COUNT(x) FROM NoSuchTable";
  EXPECT_EQ(RunExplain3D(input, Explain3DConfig()).status().code(),
            StatusCode::kNotFound);

  // Attribute match referencing a column absent from the provenance.
  input.sql1 = "SELECT COUNT(x) FROM T";
  input.attr_matches = {AttributeMatch::Single(
      "no_such_attr", "x", SemanticRelation::kEquivalent)};
  EXPECT_FALSE(RunExplain3D(input, Explain3DConfig()).ok());
}

TEST(PipelineErrorsTest, EmptyProvenanceStillWorks) {
  // A selective predicate can empty one side: everything on the other
  // side becomes a provenance-based explanation.
  Database d1 = TinyDb("T", "x:str\na\nb\n");
  Database d2 = TinyDb("T", "x:str\na\nb\n");
  PipelineInput input;
  input.db1 = &d1;
  input.db2 = &d2;
  input.sql1 = "SELECT COUNT(x) FROM T";
  input.sql2 = "SELECT COUNT(x) FROM T WHERE x = 'nothing matches this'";
  input.attr_matches = {
      AttributeMatch::Single("x", "x", SemanticRelation::kEquivalent)};
  Result<PipelineResult> r = RunExplain3D(input, Explain3DConfig());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().t2().size(), 0u);
  EXPECT_EQ(r.value().core().explanations.delta.size(), 2u);
  EXPECT_TRUE(r.value().core().explanations.evidence.empty());
}

// --- cooperative cancellation at the pipeline level -------------------------

SyntheticDataset CancelTestData(uint64_t seed) {
  SyntheticOptions gen;
  gen.n = 90;
  gen.d = 0.25;
  gen.v = 180;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

PipelineInput CancelTestInput(const SyntheticDataset& data,
                              MatchingContext* context) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.matching_context = context;
  return input;
}

// The service_test "hard solve" shape, at the pipeline level: one
// monolithic sub-problem through the assignment branch & bound with an
// effectively unbounded node limit — only a deadline/cancel ends it. The
// match must be one-sided (⊑, the NP-hard many-to-one shape): an ≡ unit
// solves as a polynomial matching in milliseconds.
AttributeMatches OneSidedMatch() {
  return {AttributeMatch::Single(
      "match_attr", "match_attr", SemanticRelation::kLessGeneral)};
}

Explain3DConfig HardSolveConfig() {
  Explain3DConfig config;
  config.num_threads = 1;
  config.batch_size = 0;
  config.decompose_components = false;
  config.exact_max_nodes = size_t{1} << 60;
  return config;
}

TEST(PipelineCancelTest, PreCancelledTokenNeverCachesPartialArtifacts) {
  SyntheticDataset data = CancelTestData(41);
  MatchingContext context;
  PipelineInput input = CancelTestInput(data, &context);
  Explain3DConfig config;
  config.num_threads = 1;

  // Token fires before (and therefore during) the stage-1 build: the
  // builder fails at its first cancellation point and the cache must not
  // inherit a partial block.
  CancelToken token;
  token.Cancel();
  input.cancel = &token;
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(context.size(), 0u);
  EXPECT_EQ(context.bytes(), 0u);
  EXPECT_EQ(context.misses(), 1u);  // the attempt counted as a miss
  EXPECT_EQ(context.hits(), 0u);

  // The identical request without the token rebuilds cold and succeeds.
  input.cancel = nullptr;
  Result<PipelineResult> retry = RunExplain3D(input, config);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(context.size(), 1u);
  EXPECT_GT(context.bytes(), 0u);
  EXPECT_EQ(context.misses(), 2u);
  EXPECT_EQ(context.evictions(), 0u);
}

TEST(PipelineCancelTest, CancelDuringSolveKeepsCompleteStage1Warm) {
  SyntheticDataset data = CancelTestData(42);
  MatchingContext context;
  PipelineInput input = CancelTestInput(data, &context);
  Explain3DConfig config;
  config.num_threads = 1;

  // The oracle runs after the artifacts are built and cached and before
  // the mapping/solve, so firing the token from inside it is exactly
  // "cancelled mid-request, stage 1 complete".
  CancelToken token;
  input.cancel = &token;
  input.calibration_oracle = [&token](const CanonicalRelation&,
                                      const CanonicalRelation&, const Table&,
                                      const Table&) {
    token.Cancel();
    return GoldPairs{};
  };
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  // The COMPLETE artifacts stayed cached, byte accounting intact.
  EXPECT_EQ(context.size(), 1u);
  size_t bytes_after_cancel = context.bytes();
  EXPECT_GT(bytes_after_cancel, 0u);
  EXPECT_EQ(context.evictions(), 0u);
  EXPECT_EQ(context.misses(), 1u);

  // An identical retry (no cancellation) warms off them: no second
  // build, and a real result. Its proven-optimal answer stores one
  // warm-start incumbent record; the bytes grow by exactly that record's
  // charge and nothing else.
  input.cancel = nullptr;
  input.calibration_oracle = nullptr;
  Result<PipelineResult> retry = RunExplain3D(input, config);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(context.hits(), 1u);
  EXPECT_EQ(context.misses(), 1u);
  EXPECT_EQ(context.size(), 1u);
  ASSERT_EQ(context.incumbent_entries(), 1u);
  auto records = context.IncumbentEntries();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(context.bytes(),
            bytes_after_cancel +
                IncumbentCharge(records[0].first, *records[0].second));

  // Cache counters stay consistent through an explicit drop.
  context.Clear();
  EXPECT_EQ(context.bytes(), 0u);
  EXPECT_EQ(context.size(), 0u);
}

TEST(PipelineCancelTest, DeadlineDuringSolveInterruptsWithoutDegradedResult) {
  SyntheticDataset data = CancelTestData(43);
  MatchingContext context;
  PipelineInput input = CancelTestInput(data, &context);
  // Dense uncalibrated instance: the uninterrupted solve takes far
  // longer than this test's whole budget.
  input.attr_matches = OneSidedMatch();
  input.mapping_options.use_blocking = false;
  input.mapping_options.min_probability = 1e-12;

  CancelToken deadline(0.3);
  input.cancel = &deadline;
  auto start = std::chrono::steady_clock::now();
  Result<PipelineResult> r = RunExplain3D(input, HardSolveConfig());
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Deadline + node-granularity poll latency + heavy sanitizer slack —
  // nowhere near the uninterrupted solve time.
  EXPECT_LT(elapsed, 10.0);
  // Stage 1 completed before the deadline: cached for a warm retry.
  EXPECT_EQ(context.size(), 1u);
}

TEST(PipelineCancelTest, MilpTimeLimitRoutesThroughTheDeadlineToken) {
  // The former wall-clock solver path (hit the limit → silently switch
  // to a time-truncated incumbent) is gone: a blown
  // milp_time_limit_seconds now FAILS the call with kDeadlineExceeded,
  // with no token required from the caller.
  SyntheticDataset data = CancelTestData(44);
  PipelineInput input = CancelTestInput(data, /*context=*/nullptr);
  input.attr_matches = OneSidedMatch();
  input.mapping_options.use_blocking = false;
  input.mapping_options.min_probability = 1e-12;

  Explain3DConfig config = HardSolveConfig();
  config.milp_time_limit_seconds = 0.3;
  auto start = std::chrono::steady_clock::now();
  Result<PipelineResult> r = RunExplain3D(input, config);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 10.0);
}

TEST(BartTest, ErrorRateRoughlyRespected) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("id", DataType::kInt64));
  s.AddColumn(Column("text", DataType::kString));
  s.AddColumn(Column("num", DataType::kInt64));
  Table t("T", s);
  for (int i = 0; i < 4000; ++i) {
    t.AppendUnchecked({i, "some text value " + std::to_string(i), i * 3});
  }
  db.PutTable(std::move(t));

  BartOptions opts;
  opts.error_rate = 0.05;
  opts.exclude_columns = {"id"};
  auto errors = InjectErrors(&db, opts).value();
  // Two eligible columns x 4000 rows at 5% each: expect ~400 errors.
  EXPECT_GT(errors.size(), 300u);
  EXPECT_LT(errors.size(), 520u);
  // The excluded id column must be untouched, and every logged error
  // must describe a real change.
  const Table& after = *db.GetTable("T").value();
  for (const BartError& e : errors) {
    EXPECT_NE(e.column, 0u) << "id column corrupted";
    EXPECT_NE(e.before.Compare(e.after), 0);
    EXPECT_EQ(after.row(e.row)[e.column].Compare(e.after), 0);
  }
  for (size_t r = 0; r < after.num_rows(); ++r) {
    EXPECT_EQ(after.row(r)[0].AsInt64(), static_cast<int64_t>(r));
  }
}

TEST(BartTest, ZeroRateLeavesDataIntact) {
  Database db("d");
  Schema s;
  s.AddColumn(Column("x", DataType::kString));
  Table t("T", s);
  t.AppendUnchecked({"hello"});
  db.PutTable(std::move(t));
  BartOptions opts;
  opts.error_rate = 0.0;
  EXPECT_TRUE(InjectErrors(&db, opts).value().empty());
  EXPECT_EQ(db.GetTable("T").value()->row(0)[0].AsString(), "hello");
}

TEST(BartTest, DeterministicUnderSeed) {
  auto make = [] {
    Database db("d");
    Schema s;
    s.AddColumn(Column("x", DataType::kString));
    Table t("T", s);
    for (int i = 0; i < 200; ++i) {
      t.AppendUnchecked({"value number " + std::to_string(i)});
    }
    db.PutTable(std::move(t));
    return db;
  };
  Database a = make(), b = make();
  BartOptions opts;
  opts.error_rate = 0.2;
  opts.seed = 123;
  auto ea = InjectErrors(&a, opts).value();
  auto eb = InjectErrors(&b, opts).value();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].row, eb[i].row);
    EXPECT_EQ(ea[i].after.Compare(eb[i].after), 0);
  }
}

}  // namespace
}  // namespace explain3d
