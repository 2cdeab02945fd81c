// Graceful-degradation suite: the fault-injection spec language, the
// anytime greedy fallback (Explain3DConfig::degradation_mode), the
// service retry/backoff policy, the health state machine, and the
// wall-clock watchdog.
//
// Contract under test: pressure NEVER produces a silent wrong answer.
// Either the exact result arrives, or the call fails with the caller's
// status, or — only when the caller opted into kFallbackGreedy — an
// explicitly-marked degraded result arrives carrying its quality
// metadata. A user cancel always wins over a fallback.

#include <gtest/gtest.h>

#include <cmath>
#include <chrono>
#include <thread>

#include "baselines/greedy.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "core/pipeline.h"
#include "core/probability_model.h"
#include "datagen/synthetic.h"
#include "service/service.h"

namespace explain3d {
namespace {

// Re-arms the process-wide injector for one test and guarantees the
// disarm even on assertion failure.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    Status s = FaultInjector::Instance().Configure(spec);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~FaultGuard() { FaultInjector::Instance().Disable(); }
};

// --- the fault spec language ------------------------------------------------
// The injector class is always compiled (only the probes gate on
// EXPLAIN3D_NO_FAULT_INJECTION), so the parser tests run in every build.

TEST(FaultSpecTest, ParsesAndCounts) {
  FaultGuard guard("seed=7; a.one=p1.0, a.two=n3; b.x=once2");
  FaultInjector& f = FaultInjector::Instance();
  EXPECT_TRUE(f.armed());
  // p1.0 fires every hit.
  EXPECT_TRUE(f.ShouldFire("a.one"));
  EXPECT_TRUE(f.ShouldFire("a.one"));
  // n3 fires hits 2, 5, 8, ... (every 3rd).
  EXPECT_FALSE(f.ShouldFire("a.two"));
  EXPECT_FALSE(f.ShouldFire("a.two"));
  EXPECT_TRUE(f.ShouldFire("a.two"));
  EXPECT_FALSE(f.ShouldFire("a.two"));
  // once2 fires exactly hit #2 (0-based).
  EXPECT_FALSE(f.ShouldFire("b.x"));
  EXPECT_FALSE(f.ShouldFire("b.x"));
  EXPECT_TRUE(f.ShouldFire("b.x"));
  EXPECT_FALSE(f.ShouldFire("b.x"));
  // Unarmed sites never fire and are not counted.
  EXPECT_FALSE(f.ShouldFire("c.unarmed"));
  EXPECT_EQ(f.TotalFires(), 4u);
  std::vector<FaultSiteStats> stats = f.SiteStats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].site, "a.one");
  EXPECT_EQ(stats[0].hits, 2u);
  EXPECT_EQ(stats[0].fires, 2u);
  EXPECT_EQ(stats[1].hits, 4u);
  EXPECT_EQ(stats[1].fires, 1u);
  EXPECT_EQ(stats[2].hits, 4u);
  EXPECT_EQ(stats[2].fires, 1u);
}

TEST(FaultSpecTest, PrefixPatternMatchesEverySiteBelow) {
  FaultGuard guard("stage1.*=p1.0");
  FaultInjector& f = FaultInjector::Instance();
  EXPECT_TRUE(f.ShouldFire("stage1.execute"));
  EXPECT_TRUE(f.ShouldFire("stage1.block"));
  EXPECT_FALSE(f.ShouldFire("stage2.solve"));
}

TEST(FaultSpecTest, ProbabilityScheduleIsSeedDeterministic) {
  auto draw = [](const std::string& spec, size_t hits) {
    FaultGuard guard(spec);
    std::vector<bool> fired;
    for (size_t i = 0; i < hits; ++i) {
      fired.push_back(FaultInjector::Instance().ShouldFire("s.x"));
    }
    return fired;
  };
  std::vector<bool> a = draw("seed=11;s.x=p0.5", 64);
  std::vector<bool> b = draw("seed=11;s.x=p0.5", 64);
  std::vector<bool> c = draw("seed=12;s.x=p0.5", 64);
  EXPECT_EQ(a, b);         // same seed → same schedule
  EXPECT_NE(a, c);         // different seed → different schedule
  size_t fires = 0;
  for (bool x : a) fires += x;
  EXPECT_GT(fires, 16u);   // p0.5 over 64 draws is nowhere near 0 or 64
  EXPECT_LT(fires, 48u);
}

TEST(FaultSpecTest, MalformedSpecsRejectedAndLeavePreviousArmed) {
  FaultInjector& f = FaultInjector::Instance();
  ASSERT_TRUE(f.Configure("good.site=p1.0").ok());
  for (const char* bad :
       {"a.b", "a.b=", "a.b=q5", "a.b=p1.5", "a.b=p-1", "a.b=nx",
        "a.b=n0", "seed=notanumber", "=p0.5"}) {
    EXPECT_FALSE(f.Configure(bad).ok()) << "accepted: " << bad;
    EXPECT_TRUE(f.armed()) << "disarmed by: " << bad;
    EXPECT_TRUE(f.ShouldFire("good.site")) << "schedule lost at: " << bad;
  }
  f.Disable();
  EXPECT_FALSE(f.armed());
  EXPECT_EQ(f.TotalFires(), 0u);  // Disable resets counters
  // Empty spec is a valid disarm.
  ASSERT_TRUE(f.Configure("").ok());
  EXPECT_FALSE(f.armed());
}

// --- shared builders --------------------------------------------------------

SyntheticDataset DegradeTestData(uint64_t seed, size_t n = 90) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 2 * n;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

PipelineInput BasicInput(const SyntheticDataset& data) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  return input;
}

// Dense, uncalibrated, undecomposed and one-sided (⊑, the NP-hard
// many-to-one shape; an ≡ unit would solve as a polynomial matching): one
// monolithic branch & bound whose uninterrupted solve takes far longer
// than any test budget here.
AttributeMatches OneSidedMatch() {
  return {AttributeMatch::Single(
      "match_attr", "match_attr", SemanticRelation::kLessGeneral)};
}

PipelineInput HardInput(const SyntheticDataset& data) {
  PipelineInput input = BasicInput(data);
  input.attr_matches = OneSidedMatch();
  input.mapping_options.use_blocking = false;
  input.mapping_options.min_probability = 1e-12;
  return input;
}

Explain3DConfig HardSolveConfig() {
  Explain3DConfig config;
  config.num_threads = 1;
  config.batch_size = 0;
  config.decompose_components = false;
  config.exact_max_nodes = size_t{1} << 60;
  return config;
}

// --- the anytime greedy fallback (pipeline level) ---------------------------

TEST(DegradationTest, StrictModeStillFailsAtTheDeadline) {
  SyntheticDataset data = DegradeTestData(51);
  PipelineInput input = HardInput(data);
  CancelToken deadline(0.3);
  input.cancel = &deadline;
  Result<PipelineResult> r = RunExplain3D(input, HardSolveConfig());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DegradationTest, FallbackReturnsMarkedDegradedResultWithinBudget) {
  SyntheticDataset data = DegradeTestData(51);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.degradation_mode = DegradationMode::kFallbackGreedy;

  CancelToken deadline(0.5);
  input.cancel = &deadline;
  auto start = std::chrono::steady_clock::now();
  Result<PipelineResult> r = RunExplain3D(input, config);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Explicitly marked, never silent.
  EXPECT_TRUE(r.value().degraded());
  const DegradationInfo& deg = r.value().degradation();
  EXPECT_EQ(deg.solver, DegradationInfo::Solver::kGreedyFallback);
  EXPECT_EQ(deg.interrupt_code, StatusCode::kDeadlineExceeded);
  // Budget-slice accounting: the budget is the token's remaining time at
  // stage-2 entry (≤ 0.5s), the reserved slice is its configured
  // fraction, and the exact solve never ran past its share.
  EXPECT_GT(deg.budget_seconds, 0.0);
  EXPECT_LE(deg.budget_seconds, 0.5 + 1e-9);
  EXPECT_NEAR(deg.reserved_seconds,
              deg.budget_seconds * config.fallback_budget_fraction, 1e-12);
  EXPECT_GT(deg.exact_seconds, 0.0);
  EXPECT_GT(deg.fallback_seconds, 0.0);
  EXPECT_EQ(deg.objective, r.value().core().explanations.log_probability);
  // The interrupted solve still proves an admissible optimistic bound, so
  // the caller can cap the fallback's optimality gap. Admissibility: the
  // bound can never sit below the achieved greedy objective.
  EXPECT_TRUE(std::isfinite(deg.incumbent_bound));
  EXPECT_GE(deg.incumbent_bound, deg.objective - 1e-6);
  // A degraded answer is never optimal by construction.
  EXPECT_FALSE(r.value().core().stats.all_optimal);
  // Poll latency + sanitizer slack — nowhere near the exact solve time.
  EXPECT_LT(elapsed, 10.0);
}

TEST(DegradationTest, ConfigBudgetAloneTriggersFallback) {
  // No caller token at all: milp_time_limit_seconds is the whole budget.
  SyntheticDataset data = DegradeTestData(52);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.degradation_mode = DegradationMode::kFallbackGreedy;
  config.milp_time_limit_seconds = 0.3;
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded());
  EXPECT_LE(r.value().degradation().budget_seconds, 0.3 + 1e-9);
}

TEST(DegradationTest, UserCancelAlwaysWinsOverFallback) {
  SyntheticDataset data = DegradeTestData(53);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.degradation_mode = DegradationMode::kFallbackGreedy;
  config.milp_time_limit_seconds = 30.0;

  // The oracle runs after stage-1 artifacts and before the solve; firing
  // the token there is "user cancelled mid-request".
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
}

TEST(DegradationTest, DegradedResultMatchesDirectGreedyBaseline) {
  // The fallback must be the Section-5.1.3 greedy over the SAME complete
  // stage-1 artifacts — no third algorithm, nothing partial.
  SyntheticDataset data = DegradeTestData(54, 40);
  PipelineInput input = HardInput(data);
  Explain3DConfig config = HardSolveConfig();
  config.degradation_mode = DegradationMode::kFallbackGreedy;
  CancelToken deadline(0.4);
  input.cancel = &deadline;
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().degraded());

  ProbabilityModel prob(config);
  ExplanationSet direct =
      GreedyBaseline(r.value().t1(), r.value().t2(),
                     r.value().initial_mapping(),
                     input.attr_matches.front(), prob);
  direct.log_probability = prob.Score(r.value().t1(), r.value().t2(),
                                      r.value().initial_mapping(), direct);
  const ExplanationSet& got = r.value().core().explanations;
  EXPECT_EQ(got.delta, direct.delta);
  EXPECT_EQ(got.value_changes, direct.value_changes);
  ASSERT_EQ(got.evidence.size(), direct.evidence.size());
  for (size_t i = 0; i < got.evidence.size(); ++i) {
    EXPECT_EQ(got.evidence[i].t1, direct.evidence[i].t1);
    EXPECT_EQ(got.evidence[i].t2, direct.evidence[i].t2);
  }
  EXPECT_EQ(got.log_probability, direct.log_probability);
}

TEST(DegradationTest, FastSolvesNeverDegradeAndStayBitIdentical) {
  // An easy instance under a generous budget: fallback mode must be a
  // no-op — same result as strict, not marked, exact solver throughout.
  SyntheticDataset data = DegradeTestData(55, 30);
  Explain3DConfig strict_config;
  strict_config.num_threads = 1;
  Result<PipelineResult> strict =
      RunExplain3D(BasicInput(data), strict_config);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();

  Explain3DConfig fb_config = strict_config;
  fb_config.degradation_mode = DegradationMode::kFallbackGreedy;
  CancelToken deadline(600.0);
  PipelineInput input = BasicInput(data);
  input.cancel = &deadline;
  Result<PipelineResult> fb = RunExplain3D(input, fb_config);
  ASSERT_TRUE(fb.ok()) << fb.status().ToString();
  EXPECT_FALSE(fb.value().degraded());
  EXPECT_EQ(fb.value().core().explanations.delta,
            strict.value().core().explanations.delta);
  EXPECT_EQ(fb.value().core().explanations.log_probability,
            strict.value().core().explanations.log_probability);
  EXPECT_EQ(fb.value().core().stats.all_optimal,
            strict.value().core().stats.all_optimal);
}

// --- injected faults through the pipeline -----------------------------------

TEST(DegradationTest, InjectedStage1FaultFailsTransientlyAndNeverCaches) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(56, 30);
  MatchingContext context;
  PipelineInput input = BasicInput(data);
  input.matching_context = &context;
  Explain3DConfig config;
  config.num_threads = 1;
  {
    FaultGuard guard("stage1.block=once0");
    Result<PipelineResult> r = RunExplain3D(input, config);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    // The failed build left nothing behind.
    EXPECT_EQ(context.size(), 0u);
    EXPECT_EQ(context.bytes(), 0u);
  }
  // The retry (fault disarmed) rebuilds cleanly.
  Result<PipelineResult> retry = RunExplain3D(input, config);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(context.size(), 1u);
}

TEST(DegradationTest, InjectedUnitSolveFaultSurfacesAsUnavailable) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(57, 30);
  PipelineInput input = BasicInput(data);
  Explain3DConfig config;
  config.num_threads = 1;
  // Kill the first stage-2 unit solve mid-pipeline: a failure with a
  // live token must surface as the transient kUnavailable, not as a
  // cancel the user never issued.
  FaultGuard guard("solve.unit=once0");
  Result<PipelineResult> r = RunExplain3D(input, config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Instance().SiteStats()[0].fires, 1u);
}

// --- service retry / health / watchdog --------------------------------------

ExplanationRequest ServiceRequest(const SyntheticDataset& data,
                                  DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.config.num_threads = 1;
  return req;
}

TEST(ServiceResilienceTest, RetryRecoversFromOneTransientFault) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(58, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  FaultGuard guard("service.claim=once0");
  ExplanationRequest req = ServiceRequest(data, h1, h2);
  req.retry.max_attempts = 3;
  TicketPtr ticket = service.Submit(std::move(req));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().degraded());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.completed_exact, 1u);
  EXPECT_EQ(stats.completed_degraded, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.fault_fires, 1u);
  // A transient in the recent-runs window marks the service degraded.
  EXPECT_EQ(stats.health, ServiceHealth::kDegraded);
  EXPECT_STREQ(ServiceHealthName(stats.health), "degraded");
}

TEST(ServiceResilienceTest, ExhaustedRetriesFailWithTheTransientStatus) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(59, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  FaultGuard guard("service.claim=p1.0");  // every attempt dies
  ExplanationRequest req = ServiceRequest(data, h1, h2);
  req.retry.max_attempts = 3;
  req.retry.initial_backoff_seconds = 0.001;
  TicketPtr ticket = service.Submit(std::move(req));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);  // failed ⊆ completed, counted exact
  EXPECT_EQ(stats.completed_exact, 1u);
  EXPECT_EQ(stats.completed_degraded, 0u);
  EXPECT_EQ(stats.completed,
            stats.completed_exact + stats.completed_degraded);
}

TEST(ServiceResilienceTest, BackoffNeverSleepsPastTheDeadline) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  // Regression: a backoff longer than the remaining deadline used to be
  // slept anyway — the ticket burned its whole deadline parked in the
  // retry loop and resolved kDeadlineExceeded instead of surfacing the
  // transient failure. The clamp fails fast: when backoff + estimated
  // rerun cannot fit before the deadline, the attempt's transient
  // status is returned at once.
  SyntheticDataset data = DegradeTestData(63, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  FaultGuard guard("service.claim=p1.0");  // every attempt dies transiently
  ExplanationRequest req = ServiceRequest(data, h1, h2);
  req.retry.max_attempts = 3;
  req.retry.initial_backoff_seconds = 30.0;  // far past the deadline
  req.retry.max_backoff_seconds = 30.0;      // the 0.5 default would mask it
  req.retry.jitter_fraction = 0.0;
  req.deadline_seconds = 5.0;
  auto start = std::chrono::steady_clock::now();
  TicketPtr ticket = service.Submit(std::move(req));
  const Result<PipelineResult>* r = ticket->WaitFor(20.0);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_NE(r, nullptr) << "clamped retry never resolved";
  EXPECT_EQ(r->status().code(), StatusCode::kUnavailable);
  EXPECT_LT(elapsed, 3.0);  // no 30 s park, no 5 s deadline burn
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 0u);  // the clamp fired before any re-attempt
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ServiceResilienceTest, DefaultPolicyNeverRetries) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault probes compiled out";
  }
  SyntheticDataset data = DegradeTestData(60, 24);
  Explain3DService service;
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  FaultGuard guard("service.claim=p1.0");
  TicketPtr ticket = service.Submit(ServiceRequest(data, h1, h2));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().retries, 0u);
}

TEST(ServiceResilienceTest, OverloadFlipsStrictRequestsToFallback) {
  SyntheticDataset blocker_data = DegradeTestData(61);
  SyntheticDataset easy_data = DegradeTestData(62, 24);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.admission_control = false;  // flood must QUEUE, not reject
  options.enable_coalescing = false;  // ...and not share one computation
  options.cancel_running_on_destruction = true;
  Explain3DService service(options);
  DatabaseHandle b1 = service.RegisterDatabase("b1", blocker_data.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", blocker_data.db2);
  DatabaseHandle e1 = service.RegisterDatabase("e1", easy_data.db1);
  DatabaseHandle e2 = service.RegisterDatabase("e2", easy_data.db2);

  EXPECT_EQ(service.Stats().health, ServiceHealth::kHealthy);

  // Occupy the only worker with an unbounded hard solve...
  ExplanationRequest blocker = ServiceRequest(blocker_data, b1, b2);
  blocker.attr_matches = OneSidedMatch();
  blocker.mapping_options.use_blocking = false;
  blocker.mapping_options.min_probability = 1e-12;
  blocker.config = HardSolveConfig();
  TicketPtr running = service.Submit(std::move(blocker));
  for (int i = 0; i < 2000 && service.Stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.Stats().running, 1u);

  // ...then flood the queue past overload_queue_factor × 1.
  std::vector<TicketPtr> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(service.Submit(ServiceRequest(easy_data, e1, e2)));
  }
  EXPECT_EQ(service.Stats().health, ServiceHealth::kOverloaded);

  // A strict, deadline-carrying submit now auto-flips to the fallback.
  ExplanationRequest probe = ServiceRequest(easy_data, e1, e2);
  probe.deadline_seconds = 600.0;
  ASSERT_EQ(probe.config.degradation_mode, DegradationMode::kStrict);
  TicketPtr probed = service.Submit(std::move(probe));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  // Deadline-free and already-non-strict requests are never touched.
  TicketPtr no_deadline = service.Submit(ServiceRequest(easy_data, e1, e2));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  // Unblock and drain: cancel everything still pending, then let the
  // destructor (cancel_running_on_destruction) stop the blocker.
  running->Cancel();
  for (const TicketPtr& t : flood) t->Wait();
  probed->Wait();
  no_deadline->Wait();
  // Pressure left the window → health recovers by itself.
  EXPECT_EQ(service.Stats().queue_depth, 0u);
  EXPECT_NE(service.Stats().health, ServiceHealth::kOverloaded);
}

// kStrict never returns a degraded answer, coalesced or not. The overload
// valve rewrites a deadline-carrying leader to the greedy fallback; an
// identical strict request without a deadline (the deadline is not part
// of the coalescing key, so the keys match) must not attach to it.
TEST(ServiceResilienceTest, OverloadFlippedLeaderNeverServesStrictFollower) {
  SyntheticDataset blocker_data = DegradeTestData(61);
  SyntheticDataset easy_data = DegradeTestData(62, 24);
  SyntheticDataset hard_data = DegradeTestData(64);
  ServiceOptions options;
  options.max_concurrency = 1;
  options.admission_control = false;  // flood must QUEUE, not reject
  options.cancel_running_on_destruction = true;
  Explain3DService service(options);
  DatabaseHandle b1 = service.RegisterDatabase("b1", blocker_data.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", blocker_data.db2);
  DatabaseHandle e1 = service.RegisterDatabase("e1", easy_data.db1);
  DatabaseHandle e2 = service.RegisterDatabase("e2", easy_data.db2);
  DatabaseHandle h1 = service.RegisterDatabase("h1", hard_data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("h2", hard_data.db2);

  // Oracle-free (coalescible) endless solves.
  auto hard_request = [](const SyntheticDataset& data, DatabaseHandle d1,
                         DatabaseHandle d2) {
    ExplanationRequest req = ServiceRequest(data, d1, d2);
    req.attr_matches = OneSidedMatch();
    req.mapping_options.use_blocking = false;
    req.mapping_options.min_probability = 1e-12;
    req.config = HardSolveConfig();
    return req;
  };
  TicketPtr running = service.Submit(hard_request(blocker_data, b1, b2));
  for (int i = 0; i < 2000 && service.Stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.Stats().running, 1u);

  // Distinct easy requests (the config seed splits their coalescing
  // keys) queue past overload_queue_factor × 1.
  std::vector<TicketPtr> flood;
  for (int i = 0; i < 4; ++i) {
    ExplanationRequest req = ServiceRequest(easy_data, e1, e2);
    req.config.seed = 100 + i;
    flood.push_back(service.Submit(std::move(req)));
  }
  ASSERT_EQ(service.Stats().health, ServiceHealth::kOverloaded);

  // The leader carries a deadline, so the valve flips it to the fallback;
  // its endless solve then answers degraded when the budget fires.
  ExplanationRequest leader_req = hard_request(hard_data, h1, h2);
  leader_req.deadline_seconds = 2.0;
  TicketPtr leader = service.Submit(std::move(leader_req));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);
  // The identical strict request without a deadline is never flipped.
  TicketPtr follower = service.Submit(hard_request(hard_data, h1, h2));
  EXPECT_EQ(service.Stats().auto_degraded, 1u);

  running->Cancel();
  for (const TicketPtr& t : flood) t->Wait();
  const Result<PipelineResult>* lr = leader->WaitFor(60.0);
  ASSERT_NE(lr, nullptr);
  ASSERT_TRUE(lr->ok()) << lr->status().ToString();
  EXPECT_TRUE(lr->value().degraded());

  // The strict follower runs for itself: still solving when the leader
  // answers, and it ends only by its own cancel — never degraded.
  EXPECT_EQ(follower->TryGet(), nullptr);
  follower->Cancel();
  const Result<PipelineResult>* fr = follower->WaitFor(60.0);
  ASSERT_NE(fr, nullptr);
  EXPECT_FALSE(fr->ok() && fr->value().degraded());
  EXPECT_EQ(fr->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.Stats().coalesced_hits, 0u);
}

// A budgeted (kFallbackGreedy) result depends on the deadline, which the
// coalescing key leaves out. A leader whose tight deadline degraded it
// must not hand that answer to an identical follower without a deadline:
// the follower gets exactly what its own solo run returns.
TEST(ServiceResilienceTest, DeadlineDegradedLeaderNeverServesNoDeadlineFollower) {
  SyntheticDataset data = DegradeTestData(65, 70);
  // One monolithic one-sided unit under the default node cap: a finite,
  // deterministic exact solve.
  auto request = [&](DatabaseHandle d1, DatabaseHandle d2) {
    ExplanationRequest req = ServiceRequest(data, d1, d2);
    req.attr_matches = OneSidedMatch();
    req.mapping_options.use_blocking = false;
    req.mapping_options.min_probability = 1e-12;
    req.config.batch_size = 0;
    req.config.decompose_components = false;
    req.config.degradation_mode = DegradationMode::kFallbackGreedy;
    return req;
  };

  // The follower's own solo run, outside any service.
  PipelineInput solo_input = HardInput(data);
  Explain3DConfig solo_config = request({}, {}).config;
  auto solo_start = std::chrono::steady_clock::now();
  Result<PipelineResult> solo = RunExplain3D(solo_input, solo_config);
  double solo_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - solo_start)
                      .count();
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  ASSERT_FALSE(solo.value().degraded());
  // The leader's deadline scales with this machine's solve time (~0.4 s
  // on a 4-core container, stage 1 ~1 ms), so the exact leg is always
  // interrupted and the fallback always has time to answer.
  ASSERT_GT(solo_s, 0.05) << "fixture solves too fast";
  const double leader_deadline = solo_s / 8;

  ServiceOptions options;
  options.max_concurrency = 1;
  options.admission_control = false;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
  ExplanationRequest leader_req = request(h1, h2);
  leader_req.deadline_seconds = leader_deadline;
  TicketPtr leader = service.Submit(std::move(leader_req));
  TicketPtr follower = service.Submit(request(h1, h2));

  const Result<PipelineResult>* lr = leader->WaitFor(60.0);
  ASSERT_NE(lr, nullptr);
  ASSERT_TRUE(lr->ok()) << lr->status().ToString();
  ASSERT_TRUE(lr->value().degraded());

  const Result<PipelineResult>* fr = follower->WaitFor(60.0);
  ASSERT_NE(fr, nullptr);
  ASSERT_TRUE(fr->ok()) << fr->status().ToString();
  EXPECT_FALSE(fr->value().degraded());
  const ExplanationSet& got = fr->value().core().explanations;
  const ExplanationSet& want = solo.value().core().explanations;
  EXPECT_EQ(got.log_probability, want.log_probability);
  EXPECT_TRUE(got.delta == want.delta);
  EXPECT_TRUE(got.value_changes == want.value_changes);
  EXPECT_TRUE(got.evidence == want.evidence);
  EXPECT_EQ(service.Stats().coalesced_hits, 0u);
}

TEST(ServiceResilienceTest, WatchdogFiresDeadlineDuringStalledPoll) {
  SyntheticDataset data = DegradeTestData(63, 24);
  ServiceOptions options;
  options.watchdog_interval_seconds = 0.01;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);

  // The oracle stalls the pipeline between cooperative polls for far
  // longer than the request's deadline: without the watchdog the token
  // would fire only at the NEXT natural poll; with it, fired_event
  // waiters (and the fires counter) see the expiry within one interval.
  ExplanationRequest req = ServiceRequest(data, h1, h2);
  req.deadline_seconds = 0.15;
  req.calibration_oracle = [](const CanonicalRelation&,
                              const CanonicalRelation&, const Table&,
                              const Table&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    return GoldPairs{};
  };
  TicketPtr ticket = service.Submit(std::move(req));
  const Result<PipelineResult>& r = ticket->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.watchdog_fires, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

}  // namespace
}  // namespace explain3d
