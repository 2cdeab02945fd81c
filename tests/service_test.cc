// Explain3DService tests: handle registry + generations (retirement via
// re-registration, asserted through the cache entry's use_count), ticket
// lifecycle (cancel-before-run, cancel-mid-queue, deadline on a queued
// request), error paths for unknown/retired handles, stats accounting,
// and the serving determinism contract — concurrent Submit from 4
// threads produces results bit-identical to serial RunExplain3D calls
// over the same inputs (the stage1_parallel_test pattern, lifted to the
// service layer).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/notification.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

namespace explain3d {
namespace {

SyntheticDataset MakeData(uint64_t seed, size_t n = 90) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 180;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

// Request over a registered pair, mirroring the PipelineInput the
// serial-baseline helper below builds.
ExplanationRequest MakeRequest(const SyntheticDataset& data,
                               DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  req.config.num_threads = 1;
  // No milp_time_limit_seconds pin anymore: the default is 0 (unlimited)
  // and a nonzero limit now fails the call via the deadline token
  // instead of silently switching solvers — there is no wall-clock-
  // dependent RESULT path left for load (or TSan's ~20x slowdown) to
  // perturb.
  return req;
}

PipelineResult SerialBaseline(const SyntheticDataset& data,
                              const ExplanationRequest& req) {
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = req.sql1;
  input.sql2 = req.sql2;
  input.attr_matches = req.attr_matches;
  input.mapping_options = req.mapping_options;
  input.calibration_gold = req.calibration_gold;
  input.calibration_oracle = req.calibration_oracle;
  return RunExplain3D(input, req.config).value();
}

void ExpectResultsBitIdentical(const PipelineResult& a,
                               const PipelineResult& b) {
  EXPECT_EQ(a.answer1(), b.answer1());
  EXPECT_EQ(a.answer2(), b.answer2());
  ASSERT_EQ(a.initial_mapping().size(), b.initial_mapping().size());
  for (size_t k = 0; k < a.initial_mapping().size(); ++k) {
    EXPECT_EQ(a.initial_mapping()[k].t1, b.initial_mapping()[k].t1) << k;
    EXPECT_EQ(a.initial_mapping()[k].t2, b.initial_mapping()[k].t2) << k;
    EXPECT_EQ(a.initial_mapping()[k].p, b.initial_mapping()[k].p) << k;
  }
  EXPECT_EQ(a.core().explanations.delta, b.core().explanations.delta);
  EXPECT_EQ(a.core().explanations.log_probability,
            b.core().explanations.log_probability);
}

// Oracle that parks its pipeline on `release`, pinning the (single)
// worker so the test can deterministically observe later requests while
// they are still queued. Fires `entered` first so the test can wait
// until the worker has definitely claimed the blocker.
CalibrationOracle ParkedOracle(Notification* entered,
                               Notification* release) {
  return [entered, release](const CanonicalRelation&,
                            const CanonicalRelation&, const Table&,
                            const Table&) {
    entered->Notify();
    release->WaitForNotification();
    return GoldPairs{};
  };
}

// Oracle that records which request ran (and in what order) — the
// scheduler-order probe of the priority tests. The oracle runs once per
// execution, warm or cold, so the recorded sequence is the claim order.
CalibrationOracle TaggingOracle(std::mutex* mu, std::vector<int>* order,
                                int tag) {
  return [mu, order, tag](const CanonicalRelation&, const CanonicalRelation&,
                          const Table&, const Table&) {
    std::lock_guard<std::mutex> lock(*mu);
    order->push_back(tag);
    return GoldPairs{};
  };
}

// A request whose uninterrupted stage-2 solve takes far longer than any
// test budget: one monolithic sub-problem (partitioning and component
// decomposition off), dense uncalibrated candidates (blocking off, tiny
// probability floor), and the assignment branch & bound given an
// astronomically high node limit.
// The match is one-sided (⊑, many-to-one: the NP-hard shape of Thm 3.5);
// under ≡ the unit would be a polynomial matching, solved in
// milliseconds. Only cooperative cancellation or a deadline can end it
// in test time — which is exactly what these tests measure.
ExplanationRequest MakeHardSolveRequest(const SyntheticDataset& data,
                                        DatabaseHandle h1,
                                        DatabaseHandle h2) {
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.attr_matches = {AttributeMatch::Single(
      "match_attr", "match_attr", SemanticRelation::kLessGeneral)};
  req.calibration_oracle = nullptr;  // raw similarities: ambiguous probs
  req.mapping_options.use_blocking = false;
  req.mapping_options.min_probability = 1e-12;
  req.config.batch_size = 0;
  req.config.decompose_components = false;
  req.config.exact_max_nodes = size_t{1} << 60;
  return req;
}

// --- registry + handles -----------------------------------------------------

TEST(ServiceRegistryTest, RegisterLookupAndGenerations) {
  Explain3DService service;
  SyntheticDataset data = MakeData(11);

  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  EXPECT_TRUE(h1.valid());
  EXPECT_NE(h1.id, h2.id);
  EXPECT_EQ(h1.generation, 1u);
  EXPECT_EQ(service.LookupDatabase("left").value(), h1);
  EXPECT_EQ(service.LookupDatabase("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Stats().registered_databases, 2u);

  // Re-registering keeps the slot id, bumps the generation.
  DatabaseHandle h1b = service.RegisterDatabase("left", data.db1);
  EXPECT_EQ(h1b.id, h1.id);
  EXPECT_EQ(h1b.generation, h1.generation + 1);
  EXPECT_NE(h1b, h1);
  EXPECT_EQ(service.LookupDatabase("left").value(), h1b);
  EXPECT_EQ(service.Stats().registered_databases, 2u);  // replaced, not added
}

TEST(ServiceErrorTest, UnknownAndInvalidHandlesFailTheTicket) {
  Explain3DService service;
  SyntheticDataset data = MakeData(12);
  DatabaseHandle real = service.RegisterDatabase("left", data.db1);

  // Default-constructed handle: InvalidArgument.
  TicketPtr t1 = service.Submit(MakeRequest(data, DatabaseHandle{}, real));
  EXPECT_EQ(t1->Wait().status().code(), StatusCode::kInvalidArgument);

  // Fabricated id this service never issued: NotFound.
  TicketPtr t2 = service.Submit(MakeRequest(data, real,
                                            DatabaseHandle{999, 1}));
  EXPECT_EQ(t2->Wait().status().code(), StatusCode::kNotFound);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceErrorTest, RetiredHandleFailsButCurrentOneWorks) {
  Explain3DService service;
  SyntheticDataset data = MakeData(13);
  DatabaseHandle old1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  DatabaseHandle new1 = service.RegisterDatabase("left", data.db1);

  TicketPtr stale = service.Submit(MakeRequest(data, old1, h2));
  EXPECT_EQ(stale->Wait().status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stale->Wait().status().message().find("retired"),
            std::string::npos);

  TicketPtr fresh = service.Submit(MakeRequest(data, new1, h2));
  ASSERT_TRUE(fresh->Wait().ok());
  PipelineResult baseline = SerialBaseline(data, MakeRequest(data, new1, h2));
  ExpectResultsBitIdentical(fresh->Wait().value(), baseline);
}

// --- generation-based cache retirement --------------------------------------

TEST(ServiceCacheTest, ReRegisterRetiresArtifactsOnlyWhenContentChanges) {
  Explain3DService service;
  SyntheticDataset data = MakeData(14);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  TicketPtr t1 = service.Submit(MakeRequest(data, h1, h2));
  const Result<PipelineResult>& r1 = t1->Wait();
  ASSERT_TRUE(r1.ok());
  TicketPtr t2 = service.Submit(MakeRequest(data, h1, h2));
  ASSERT_TRUE(t2->Wait().ok());

  // Warm serving: one cache entry, second request hit it; owners are the
  // cache entry plus both returned results.
  EXPECT_EQ(service.cache().size(), 1u);
  EXPECT_EQ(service.Stats().warm_hits, 1u);
  EXPECT_EQ(service.Stats().cold_misses, 1u);
  EXPECT_EQ(r1.value().artifacts().get(),
            t2->TryGet()->value().artifacts().get());
  EXPECT_EQ(r1.value().artifacts().use_count(), 3);

  // Re-registering IDENTICAL contents bumps the generation (the old
  // handle retires) but keeps the cache warm: keys follow the DATA, so
  // the new handle's first request is a warm hit on the same block.
  DatabaseHandle h1b = service.RegisterDatabase("left", data.db1);
  EXPECT_EQ(h1b.generation, h1.generation + 1);
  EXPECT_EQ(service.cache().size(), 1u);
  TicketPtr t3 = service.Submit(MakeRequest(data, h1b, h2));
  const Result<PipelineResult>& r3 = t3->Wait();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().artifacts().get(), r1.value().artifacts().get());
  EXPECT_EQ(service.Stats().warm_hits, 2u);
  EXPECT_EQ(service.Stats().cold_misses, 1u);

  // Re-registering CHANGED contents retires the pair's cached
  // artifacts...
  SyntheticDataset changed = MakeData(15);
  DatabaseHandle h1c = service.RegisterDatabase("left", changed.db1);
  EXPECT_EQ(h1c.generation, h1b.generation + 1);
  EXPECT_EQ(service.cache().size(), 0u);
  // ...while already-returned results keep co-owning the (now
  // cache-orphaned) block: the three results remain as owners.
  EXPECT_EQ(r1.value().artifacts().use_count(), 3);
  EXPECT_GT(r1.value().t1().size(), 0u);

  // The new contents build fresh artifacts — a different block.
  TicketPtr t4 = service.Submit(MakeRequest(data, h1c, h2));
  const Result<PipelineResult>& r4 = t4->Wait();
  ASSERT_TRUE(r4.ok());
  EXPECT_NE(r4.value().artifacts().get(), r1.value().artifacts().get());
  EXPECT_EQ(service.Stats().cold_misses, 2u);
}

// --- cancellation and deadlines ---------------------------------------------

TEST(ServiceTicketTest, CancelBeforeRunCompletesWithCancelled) {
  ServiceOptions options;
  options.max_concurrency = 1;  // one worker: FIFO claim order
  Explain3DService service(options);
  SyntheticDataset data = MakeData(15, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // Pin the only worker inside the blocker's pipeline.
  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  // The victim cannot be claimed while the blocker runs: Cancel wins.
  TicketPtr victim = service.Submit(MakeRequest(data, h1, h2));
  EXPECT_EQ(victim->TryGet(), nullptr);
  EXPECT_TRUE(victim->Cancel());
  EXPECT_FALSE(victim->Cancel());  // second cancel: already terminal
  ASSERT_TRUE(victim->done());
  EXPECT_EQ(victim->Wait().status().code(), StatusCode::kCancelled);

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  EXPECT_FALSE(blocked->Cancel());  // terminal: too late to cancel

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceTicketTest, CancelMidQueueSkipsOnlyTheCancelledRequest) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(16, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  // The worker has claimed the blocker: everything after queues behind it.
  entered.WaitForNotification();

  // Three queued requests; cancel the middle one while all three wait.
  TicketPtr a = service.Submit(MakeRequest(data, h1, h2));
  TicketPtr b = service.Submit(MakeRequest(data, h1, h2));
  TicketPtr c = service.Submit(MakeRequest(data, h1, h2));
  EXPECT_EQ(service.Stats().queue_depth, 3u);
  EXPECT_TRUE(b->Cancel());

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  EXPECT_TRUE(a->Wait().ok());
  EXPECT_EQ(b->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(c->Wait().ok());
  // Neighbors are unaffected — and warm: they share the blocker's block.
  EXPECT_EQ(a->TryGet()->value().artifacts().get(),
            c->TryGet()->value().artifacts().get());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServiceTicketTest, DeadlineExpiresWhileQueued) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(17, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  // Queued behind the blocker with a deadline no queue wait can meet.
  ExplanationRequest doomed = MakeRequest(data, h1, h2);
  doomed.deadline_seconds = 1e-9;
  TicketPtr t = service.Submit(doomed);
  // And one with a generous deadline that the wait comfortably meets.
  ExplanationRequest fine = MakeRequest(data, h1, h2);
  fine.deadline_seconds = 3600;
  TicketPtr ok = service.Submit(fine);

  release.Notify();
  EXPECT_EQ(t->Wait().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ok->Wait().ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 2u);  // blocker + the generous-deadline one
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ServiceTicketTest, DestructionCancelsQueuedRequests) {
  SyntheticDataset data = MakeData(18, 60);
  Notification entered, release;
  TicketPtr blocked, queued;
  std::thread releaser;
  {
    ServiceOptions options;
    options.max_concurrency = 1;
    Explain3DService service(options);
    DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
    ExplanationRequest blocker = MakeRequest(data, h1, h2);
    blocker.calibration_oracle = ParkedOracle(&entered, &release);
    blocked = service.Submit(blocker);
    entered.WaitForNotification();  // the worker holds the blocker
    queued = service.Submit(MakeRequest(data, h1, h2));
    // `queued` can only terminate via the destructor's drain (the single
    // worker is parked); once it does, let the blocker finish so the
    // destructor's runner wait can return.
    releaser = std::thread([&] {
      queued->Wait();
      release.Notify();
    });
  }  // ~Explain3DService: cancels `queued`, then waits for the blocker
  releaser.join();
  // Tickets outlive the service: the queued one was cancelled, the
  // in-flight one ran to completion.
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(blocked->Wait().ok());
}

TEST(ServiceTicketTest, DestructionCanCancelRunningRequestsWhenOptedIn) {
  // Default destruction drains in-flight runs to completion — which,
  // now that solves can be unbounded, may take arbitrarily long. The
  // opt-in policy fires running tickets' tokens instead, bounding
  // shutdown to the cooperative cancellation latency.
  SyntheticDataset data = MakeData(38);
  TicketPtr endless;
  std::chrono::steady_clock::time_point teardown_start;
  {
    ServiceOptions options;
    options.max_concurrency = 1;
    options.cancel_running_on_destruction = true;
    Explain3DService service(options);
    DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
    endless = service.Submit(MakeHardSolveRequest(data, h1, h2));
    // Make sure the worker is genuinely inside the run before dying.
    while (service.Stats().running == 0 && endless->TryGet() == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    teardown_start = std::chrono::steady_clock::now();
  }  // ~Explain3DService fires the endless solve's token
  double shutdown_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - teardown_start)
                          .count();
  EXPECT_LT(shutdown_s, 30.0);  // vs effectively-infinite drain
  ASSERT_TRUE(endless->done());
  EXPECT_EQ(endless->Wait().status().code(), StatusCode::kCancelled);
}

// --- concurrency + determinism ----------------------------------------------

TEST(ServiceDeterminismTest, ConcurrentSubmitsMatchSerialRunsBitForBit) {
  // 4 submitter threads × 3 requests over 2 dataset pairs, against a
  // 4-worker service. Every result must be bit-identical to a serial
  // RunExplain3D of the same request — regardless of queue order,
  // concurrency, or whether it was served warm or cold.
  ServiceOptions options;
  options.max_concurrency = 4;
  Explain3DService service(options);
  SyntheticDataset data_a = MakeData(19, 80);
  SyntheticDataset data_b = MakeData(20, 70);
  DatabaseHandle a1 = service.RegisterDatabase("a1", data_a.db1);
  DatabaseHandle a2 = service.RegisterDatabase("a2", data_a.db2);
  DatabaseHandle b1 = service.RegisterDatabase("b1", data_b.db1);
  DatabaseHandle b2 = service.RegisterDatabase("b2", data_b.db2);

  // Request variants: dataset pair × solver batch size.
  struct Variant {
    const SyntheticDataset* data;
    DatabaseHandle h1, h2;
    size_t batch_size;
  };
  std::vector<Variant> variants = {
      {&data_a, a1, a2, 1000}, {&data_a, a1, a2, 100},
      {&data_b, b1, b2, 1000}, {&data_b, b1, b2, 50},
  };
  auto make_request = [&](const Variant& v) {
    ExplanationRequest req = MakeRequest(*v.data, v.h1, v.h2);
    req.config.batch_size = v.batch_size;
    return req;
  };

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 3;
  std::vector<std::vector<TicketPtr>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kThreads; ++s) {
    submitters.emplace_back([&, s] {
      for (size_t k = 0; k < kPerThread; ++k) {
        const Variant& v = variants[(s + k) % variants.size()];
        tickets[s].push_back(service.Submit(make_request(v)));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  // Serial baselines, one per variant (cold, no service, no cache).
  std::vector<PipelineResult> baselines;
  for (const Variant& v : variants) {
    baselines.push_back(SerialBaseline(*v.data, make_request(v)));
  }

  for (size_t s = 0; s < kThreads; ++s) {
    ASSERT_EQ(tickets[s].size(), kPerThread);
    for (size_t k = 0; k < kPerThread; ++k) {
      const Result<PipelineResult>& r = tickets[s][k]->Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectResultsBitIdentical(r.value(),
                                baselines[(s + k) % variants.size()]);
    }
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.failed, 0u);
  // Two pairs, each (db-pair, query, attr) cached once — though racing
  // cold misses may legitimately build an entry's block more than once.
  EXPECT_EQ(service.cache().size(), 2u);
  EXPECT_GE(stats.warm_hits + stats.cold_misses, kThreads * kPerThread);
  // Latency percentiles cover every successful completion, ordered.
  EXPECT_EQ(stats.total_seconds.count, kThreads * kPerThread);
  EXPECT_LE(stats.total_seconds.p50, stats.total_seconds.p99);
  EXPECT_LE(stats.total_seconds.p99, stats.total_seconds.max);
  EXPECT_GT(stats.stage1_seconds.max, 0.0);
}

TEST(ServiceDeterminismTest, AutoThreadRequestsMatchSerialRunsAtAnyWidth) {
  // A request that leaves num_threads on auto runs with its slot's share
  // of the cores: all of them at max_concurrency 1, one at 64 slots.
  // Either way its answer is the serial one.
  SyntheticDataset data = MakeData(21, 80);
  ExplanationRequest serial_req = MakeRequest(data, {}, {});
  PipelineResult baseline = SerialBaseline(data, serial_req);
  for (size_t width : {size_t{1}, size_t{64}}) {
    ServiceOptions options;
    options.max_concurrency = width;
    Explain3DService service(options);
    DatabaseHandle h1 = service.RegisterDatabase("d1", data.db1);
    DatabaseHandle h2 = service.RegisterDatabase("d2", data.db2);
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.config.num_threads = 0;
    TicketPtr ticket = service.Submit(std::move(req));
    const Result<PipelineResult>& r = ticket->Wait();
    ASSERT_TRUE(r.ok()) << "width " << width << ": "
                        << r.status().ToString();
    ExpectResultsBitIdentical(r.value(), baseline);
  }
}

// --- cooperative cancellation of RUNNING requests ---------------------------

TEST(ServiceCancelTest, CancelMidSolveResolvesQuickly) {
  // The acceptance bar of this PR: a request cancelled mid-stage-2 on a
  // problem whose uninterrupted solve takes ≥1 s (here: effectively
  // unbounded) resolves kCancelled within milliseconds. The assertion
  // bound carries heavy slack for sanitizer/CI slowdown; bench_service
  // measures the actual figure (sub-50 ms).
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(31);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  TicketPtr t = service.Submit(MakeHardSolveRequest(data, h1, h2));
  // Give the worker time to get deep into the solve (stage 1 on this
  // dataset is a few ms; the solve alone would run far past any test
  // budget). Even if the machine is slow enough that the cancel lands in
  // stage 1, the resolution path is the same cooperative poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(t->TryGet(), nullptr) << "hard solve finished before cancel — "
                                     "the instance is not hard enough";
  auto cancelled_at = std::chrono::steady_clock::now();
  EXPECT_TRUE(t->Cancel());  // running: delivered cooperatively
  const Result<PipelineResult>* r = t->WaitFor(30.0);
  double latency = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - cancelled_at)
                       .count();
  ASSERT_NE(r, nullptr) << "cancelled request never resolved";
  EXPECT_EQ(r->status().code(), StatusCode::kCancelled);
  EXPECT_LT(latency, 2.0);  // bench target: <0.05s; slack for TSan/CI
  EXPECT_FALSE(t->Cancel());  // terminal now

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // The interrupted run recorded no success-latency sample, but its
  // truncated run time DID feed the admission cost series (a lower
  // bound the estimator must learn from).
  EXPECT_EQ(stats.total_seconds.count, 0u);
  EXPECT_EQ(stats.run_seconds.count, 1u);
  EXPECT_GT(stats.run_seconds.p50, 0.0);
}

TEST(ServiceCancelTest, DeadlineMidSolveResolvesWithDeadlineExceeded) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(32);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  ExplanationRequest req = MakeHardSolveRequest(data, h1, h2);
  req.deadline_seconds = 2.0;  // generous enough that stage 1 finishes
                               // even under TSan; the endless solve
                               // guarantees it still fires mid-stage-2
  auto submitted_at = std::chrono::steady_clock::now();
  TicketPtr t = service.Submit(req);
  const Result<PipelineResult>* r = t->WaitFor(60.0);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - submitted_at)
                       .count();
  ASSERT_NE(r, nullptr) << "deadline request never resolved";
  EXPECT_EQ(r->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 20.0);  // deadline 2s + poll latency + TSan slack

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // Normally stage 1 finishes well inside the deadline, so its COMPLETE
  // artifacts get cached for an identical retry (== 1). If an extreme
  // sanitizer slowdown fires the token during stage 1 instead, the
  // contract is that NOTHING (partial) is cached — never more than the
  // one complete block either way.
  EXPECT_LE(service.cache().size(), 1u);
}

TEST(ServiceCancelTest, ConfigBudgetBlowoutCountsAsFailedNotDeadline) {
  // milp_time_limit_seconds is a property of the WORK (the request's
  // own config), not of scheduling: blowing it fails the completion,
  // it must not inflate the scheduler's deadline_exceeded counter —
  // that bucket is reserved for the request deadline.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(36);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  ExplanationRequest req = MakeHardSolveRequest(data, h1, h2);
  req.config.milp_time_limit_seconds = 0.3;  // stage-2 budget, no deadline
  TicketPtr t = service.Submit(req);
  const Result<PipelineResult>* r = t->WaitFor(60.0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status().code(), StatusCode::kDeadlineExceeded);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

// --- priority scheduling ----------------------------------------------------

TEST(ServicePriorityTest, HigherBandsFirstFifoWithinBand) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.starvation_every = 0;  // strict priority for exact order
  Explain3DService service(options);
  SyntheticDataset data = MakeData(33, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag) {
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.calibration_oracle = TaggingOracle(&order_mu, &order, tag);
    return req;
  };
  std::vector<TicketPtr> tickets;
  tickets.push_back(service.Submit(tagged(0), SubmitOptions{0, ""}));
  tickets.push_back(service.Submit(tagged(1), SubmitOptions{0, ""}));
  tickets.push_back(service.Submit(tagged(2), SubmitOptions{2, ""}));
  tickets.push_back(service.Submit(tagged(3), SubmitOptions{2, ""}));
  EXPECT_EQ(service.Stats().queue_depth, 4u);
  EXPECT_EQ(service.Stats().priority_bands.at(2).queue_depth, 2u);
  EXPECT_EQ(service.Stats().priority_bands.at(0).queue_depth, 2u);

  release.Notify();
  for (const TicketPtr& t : tickets) ASSERT_TRUE(t->Wait().ok());
  // Band 2 drains first (in submit order), then band 0 (in submit order).
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1}));
  // Per-band completion latencies were recorded.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.priority_bands.at(2).total_seconds.count, 2u);
  EXPECT_EQ(stats.priority_bands.at(0).total_seconds.count, 3u);  // +blocker
}

TEST(ServicePriorityTest, StarvationEscapeRunsTheOldestRequest) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.starvation_every = 3;  // every 3rd claim takes the oldest
  Explain3DService service(options);
  SyntheticDataset data = MakeData(34, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag) {
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.calibration_oracle = TaggingOracle(&order_mu, &order, tag);
    return req;
  };
  // The low-priority victim queues FIRST, then a deep stack of
  // high-priority work lands on top of it.
  std::vector<TicketPtr> tickets;
  tickets.push_back(service.Submit(tagged(99), SubmitOptions{0, ""}));
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(service.Submit(tagged(i), SubmitOptions{5, ""}));
  }

  release.Notify();
  for (const TicketPtr& t : tickets) ASSERT_TRUE(t->Wait().ok());
  // Under strict priority the victim would run dead last; the escape
  // hatch bounds its wait to one anti-starvation cycle.
  auto pos = std::find(order.begin(), order.end(), 99) - order.begin();
  EXPECT_LT(static_cast<size_t>(pos), options.starvation_every)
      << "low-priority request starved past the escape-hatch bound";
}

// --- admission control ------------------------------------------------------

TEST(ServiceAdmissionTest, PredictablyDoomedDeadlineRejectedAtSubmit) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(35, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // Establish a run-time estimate (no estimate → everything admits).
  ASSERT_TRUE(service.Submit(MakeRequest(data, h1, h2))->Wait().ok());
  ASSERT_TRUE(service.Submit(MakeRequest(data, h1, h2))->Wait().ok());
  ServiceStats warm = service.Stats();
  ASSERT_EQ(warm.completed, 2u);
  ASSERT_GT(warm.run_seconds.p50, 0.0);

  // Park the worker and stack up a backlog.
  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();
  std::vector<TicketPtr> backlog;
  for (int i = 0; i < 3; ++i) {
    backlog.push_back(service.Submit(MakeRequest(data, h1, h2)));
  }
  // Cache-traffic snapshot AFTER the blocker's own warm hit: anything
  // that moves from here on would be the rejected request's doing.
  ServiceStats before = service.Stats();

  // A deadline no possible schedule can meet: rejected synchronously,
  // before it ever queues.
  ExplanationRequest doomed = MakeRequest(data, h1, h2);
  doomed.deadline_seconds = 1e-6;
  TicketPtr rejected = service.Submit(doomed);
  const Result<PipelineResult>* r = rejected->TryGet();
  ASSERT_NE(r, nullptr) << "admission rejection must be synchronous";
  EXPECT_EQ(r->status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(rejected->Cancel());  // already terminal

  // Rejected work left no trace: no cache traffic, no latency samples,
  // no queue presence.
  ServiceStats after = service.Stats();
  EXPECT_EQ(after.rejected, 1u);
  EXPECT_EQ(after.queue_depth, 3u);
  EXPECT_EQ(after.total_seconds.count, warm.total_seconds.count);
  EXPECT_EQ(after.warm_hits, before.warm_hits);
  EXPECT_EQ(after.cold_misses, before.cold_misses);

  // A generous deadline admits even against the same backlog.
  ExplanationRequest fine = MakeRequest(data, h1, h2);
  fine.deadline_seconds = 3600;
  TicketPtr admitted = service.Submit(fine);
  EXPECT_EQ(admitted->TryGet(), nullptr);  // queued, not rejected

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  for (const TicketPtr& t : backlog) EXPECT_TRUE(t->Wait().ok());
  EXPECT_TRUE(admitted->Wait().ok());

  // Terminal balance: every submit landed in exactly one bucket.
  ServiceStats done_stats = service.Stats();
  EXPECT_EQ(done_stats.submitted, 8u);
  EXPECT_EQ(done_stats.completed, 7u);
  EXPECT_EQ(done_stats.rejected, 1u);
  EXPECT_EQ(done_stats.cancelled + done_stats.deadline_exceeded, 0u);
}

TEST(ServiceAdmissionTest, IdleServiceAdmitsDeadlinesShorterThanP50) {
  // Rejection-lockout regression: run_p50_ only refreshes when admitted
  // work completes, so an idle service must ADMIT a deadline shorter
  // than the (possibly stale, possibly irrelevant) p50 — the probe
  // starts immediately, its waste is bounded by the deadline token, and
  // its outcome keeps the estimator honest. Only backlogged requests
  // are rejected up front.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(37, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  ASSERT_TRUE(service.Submit(MakeRequest(data, h1, h2))->Wait().ok());
  ASSERT_TRUE(service.Submit(MakeRequest(data, h1, h2))->Wait().ok());
  ASSERT_GT(service.Stats().run_seconds.p50, 1e-5);
  // Wait() returns from inside the worker's Process call; the runner
  // decrements the `running` gauge just after. Let it settle so the
  // service is observably idle before the probe.
  while (service.Stats().running > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Idle service, free slot, deadline far below p50: admitted anyway.
  ExplanationRequest probe = MakeRequest(data, h1, h2);
  probe.deadline_seconds = 1e-5;
  TicketPtr t = service.Submit(probe);
  const Result<PipelineResult>* r = t->WaitFor(30.0);
  ASSERT_NE(r, nullptr);
  EXPECT_NE(r->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().rejected, 0u);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

// --- stage-2 warm starts + portfolio (ROADMAP 2) ----------------------------

// Only a fully-optimal run records a (complete) incumbent entry; the
// default batch size leaves these datasets one big node-limit-truncated
// unit, so the warm-start tests shrink the batches until every unit
// solves to proven optimality (a mix of MILP and assignment units).
ExplanationRequest MakeOptimalRequest(const SyntheticDataset& data,
                                      DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.config.batch_size = 25;
  return req;
}

TEST(ServiceWarmStartTest, ResubmitServesWarmAndStaysBitIdentical) {
  Explain3DService service;
  SyntheticDataset data = MakeData(41);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // Cold: nothing recorded yet — the incumbent lookup must miss, and no
  // solve unit may claim a warm seed.
  TicketPtr t1 = service.Submit(MakeOptimalRequest(data, h1, h2));
  ASSERT_TRUE(t1->Wait().ok());
  ServiceStats cold = service.Stats();
  EXPECT_EQ(cold.warm_start_hits, 0u);
  EXPECT_EQ(cold.incumbent_hits, 0u);
  EXPECT_EQ(cold.incumbent_misses, 1u);
  EXPECT_EQ(cold.incumbent_entries, 1u);  // the cold run recorded its optimum

  // Warm: the identical request finds the record, seeds its engines, and
  // must still return the bit-identical answer.
  TicketPtr t2 = service.Submit(MakeOptimalRequest(data, h1, h2));
  ASSERT_TRUE(t2->Wait().ok());
  ServiceStats warm = service.Stats();
  EXPECT_EQ(warm.incumbent_hits, 1u);
  EXPECT_GT(warm.warm_start_hits, 0u);
  EXPECT_EQ(warm.incumbent_entries, 1u);  // re-recorded, not duplicated
  ExpectResultsBitIdentical(t2->Wait().value(), t1->Wait().value());
  ExpectResultsBitIdentical(
      t2->Wait().value(),
      SerialBaseline(data, MakeOptimalRequest(data, h1, h2)));
}

TEST(ServiceWarmStartTest, ContentChangeRetiresIncumbentRecords) {
  Explain3DService service;
  SyntheticDataset data = MakeData(42);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  TicketPtr t1 = service.Submit(MakeOptimalRequest(data, h1, h2));
  ASSERT_TRUE(t1->Wait().ok());
  ASSERT_EQ(service.Stats().incumbent_entries, 1u);

  // Re-registering IDENTICAL contents keeps the incumbent record — the
  // optimum was recorded against this exact data, so the new handle's
  // resubmit warm-starts straight off it.
  DatabaseHandle h1b = service.RegisterDatabase("left", data.db1);
  ASSERT_EQ(service.Stats().incumbent_entries, 1u);
  TicketPtr t2 = service.Submit(MakeOptimalRequest(data, h1b, h2));
  ASSERT_TRUE(t2->Wait().ok());
  EXPECT_EQ(service.Stats().incumbent_hits, 1u);
  EXPECT_GT(service.Stats().warm_start_hits, 0u);
  ExpectResultsBitIdentical(t2->Wait().value(), t1->Wait().value());

  // Re-registering CHANGED contents retires the pair's incumbent record
  // together with its stage-1 artifacts: the stale optimum (recorded
  // against the OLD data) must never seed the new one.
  SyntheticDataset changed = MakeData(43);
  DatabaseHandle h1c = service.RegisterDatabase("left", changed.db1);
  EXPECT_EQ(service.Stats().incumbent_entries, 0u);

  size_t warm_before = service.Stats().warm_start_hits;
  TicketPtr t3 = service.Submit(MakeOptimalRequest(data, h1c, h2));
  ASSERT_TRUE(t3->Wait().ok());
  ServiceStats after = service.Stats();
  EXPECT_EQ(after.warm_start_hits, warm_before);  // no stale seed consulted
  EXPECT_EQ(after.incumbent_hits, 1u);            // unchanged by this run
  EXPECT_EQ(after.incumbent_misses, 2u);  // the cold run and this one
  EXPECT_EQ(after.incumbent_entries, 1u);
}

TEST(ServicePortfolioTest, PortfolioEqualsStrictWhenExactFinishesInBudget) {
  Explain3DService service;
  SyntheticDataset data = MakeData(43);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  TicketPtr strict = service.Submit(MakeRequest(data, h1, h2));
  ASSERT_TRUE(strict->Wait().ok());
  EXPECT_FALSE(strict->Wait().value().degraded());

  // A portfolio run whose exact attempt finishes comfortably inside the
  // (generous) budget returns the exact answer — bit-identical to
  // strict mode, not flagged degraded.
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.config.portfolio = true;
  req.deadline_seconds = 3600;
  TicketPtr portfolio = service.Submit(req);
  ASSERT_TRUE(portfolio->Wait().ok()) << portfolio->Wait().status().ToString();
  EXPECT_FALSE(portfolio->Wait().value().degraded());
  ExpectResultsBitIdentical(portfolio->Wait().value(), strict->Wait().value());
  EXPECT_EQ(service.Stats().completed_degraded, 0u);
}

TEST(ServicePortfolioTest, PortfolioReturnsGreedyWhenBudgetFires) {
  // The PR-6 hard-solve request under a deadline: strict mode fails with
  // kDeadlineExceeded, portfolio mode COMPLETES with the greedy leg's
  // answer, marked degraded and carrying an admissible optimality bound.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(44);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  ExplanationRequest req = MakeHardSolveRequest(data, h1, h2);
  req.config.portfolio = true;
  req.deadline_seconds = 2.0;
  TicketPtr t = service.Submit(req);
  const Result<PipelineResult>* r = t->WaitFor(60.0);
  ASSERT_NE(r, nullptr) << "portfolio request never resolved";
  ASSERT_TRUE(r->ok()) << r->status().ToString();

  const DegradationInfo& deg = r->value().degradation();
  EXPECT_TRUE(r->value().degraded());
  EXPECT_EQ(deg.solver, DegradationInfo::Solver::kGreedyPortfolio);
  EXPECT_EQ(deg.interrupt_code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deg.objective, r->value().core().explanations.log_probability);
  // The abandoned exact attempt (seeded by this very greedy answer)
  // published its open-node bound: finite, and at least the greedy score.
  EXPECT_TRUE(std::isfinite(deg.incumbent_bound));
  EXPECT_GE(deg.incumbent_bound, deg.objective - 1e-6);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.completed_degraded, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(ServiceBatchTest, SubmitBatchAlignsTicketsWithRequests) {
  Explain3DService service;
  SyntheticDataset data = MakeData(21, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  std::vector<ExplanationRequest> requests;
  for (int i = 0; i < 4; ++i) requests.push_back(MakeRequest(data, h1, h2));
  // One bad request in the middle keeps the alignment honest.
  requests[2].db2 = DatabaseHandle{424242, 7};

  std::vector<TicketPtr> tickets = service.SubmitBatch(std::move(requests));
  ASSERT_EQ(tickets.size(), 4u);
  EXPECT_TRUE(tickets[0]->Wait().ok());
  EXPECT_TRUE(tickets[1]->Wait().ok());
  EXPECT_EQ(tickets[2]->Wait().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(tickets[3]->Wait().ok());
  // All four warm off one block: the batch shares stage-1 artifacts.
  EXPECT_EQ(tickets[0]->TryGet()->value().artifacts().get(),
            tickets[3]->TryGet()->value().artifacts().get());
}

// --- multi-tenant serving: request coalescing --------------------------------

// Identical ORACLE-FREE requests are the coalescible unit: a closure has
// no comparable identity, so MakeRequest's row-entity oracle (and the
// parked/tagging probes above) all opt out of sharing automatically.
ExplanationRequest MakeCoalescibleRequest(const SyntheticDataset& data,
                                          DatabaseHandle h1,
                                          DatabaseHandle h2) {
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.calibration_oracle = nullptr;
  return req;
}

// Oracle whose pass dominates the run time — the "expensive pair" of the
// keyed-admission test. Runs on every execution, warm or cold, like the
// tagging oracle above, so repeated submits stay uniformly slow.
CalibrationOracle SleepOracle(double seconds) {
  return [seconds](const CanonicalRelation&, const CanonicalRelation&,
                   const Table&, const Table&) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return GoldPairs{};
  };
}

TEST(ServiceCoalesceTest, EightIdenticalSubmitsShareOneComputation) {
  // The acceptance bar of this PR: 8 concurrent identical submits cost
  // exactly one stage-1 build and one solve, and every ticket resolves
  // from the SAME PipelineResult — bit-identical to a serial run.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(51);
  SyntheticDataset other = MakeData(52, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  DatabaseHandle o1 = service.RegisterDatabase("oleft", other.db1);
  DatabaseHandle o2 = service.RegisterDatabase("oright", other.db2);

  // Pin the only worker inside an UNRELATED pair so all 8 submits land
  // while nothing runs — the pure queued-coalescing path.
  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(other, o1, o2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(service.Submit(MakeCoalescibleRequest(data, h1, h2)));
  }
  // One leader holds one queue slot; the 7 followers hold none.
  EXPECT_EQ(service.Stats().queue_depth, 1u);

  // A request differing in a result-affecting config knob must NOT join
  // the group: different RequestResultKey, own queue slot.
  ExplanationRequest off_key = MakeCoalescibleRequest(data, h1, h2);
  off_key.config.batch_size = 50;
  TicketPtr separate = service.Submit(off_key);
  EXPECT_EQ(service.Stats().queue_depth, 2u);

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  for (const TicketPtr& t : tickets) {
    ASSERT_TRUE(t->Wait().ok()) << t->Wait().status().ToString();
  }
  ASSERT_TRUE(separate->Wait().ok());

  // Zero-copy share: all 8 results hold the SAME artifacts block...
  const PipelineResult& first = tickets[0]->TryGet()->value();
  for (const TicketPtr& t : tickets) {
    EXPECT_EQ(t->TryGet()->value().artifacts().get(), first.artifacts().get());
  }
  // ...bit-identical to a serial RunExplain3D of the same request.
  PipelineResult baseline =
      SerialBaseline(data, MakeCoalescibleRequest(data, h1, h2));
  for (const TicketPtr& t : tickets) {
    ExpectResultsBitIdentical(t->TryGet()->value(), baseline);
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, 7u);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  // One stage-1 build for the coalesced pair (the blocker's pair built
  // its own; the off-key request warmed off the leader's block)...
  EXPECT_EQ(stats.cold_misses, 2u);
  EXPECT_EQ(stats.warm_hits, 1u);
  // ...and one solve: only blocker + leader + off-key ever ran, so the
  // incumbent store saw exactly 3 lookups for 10 submits.
  EXPECT_EQ(stats.incumbent_hits + stats.incumbent_misses, 3u);
}

TEST(ServiceCoalesceTest, FollowerAttachesWhileLeaderRuns) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(53);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // An oracle-free hard solve in portfolio mode, capped at the default
  // node limit: a finite, deterministic search of a few hundred
  // milliseconds that COMPLETES with a shareable (non-degraded) answer —
  // a wide-open window for a second submit to attach while the leader
  // is mid-run.
  ExplanationRequest leader_req = MakeHardSolveRequest(data, h1, h2);
  leader_req.config.portfolio = true;
  leader_req.config.exact_max_nodes = Explain3DConfig().exact_max_nodes;
  TicketPtr leader = service.Submit(leader_req);
  while (service.Stats().running == 0 && leader->TryGet() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(leader->TryGet(), nullptr) << "leader finished before attach";

  // Identical computation (the deadline is not part of the result key,
  // only result-affecting inputs are): attaches to the RUNNING leader.
  ExplanationRequest follower_req = leader_req;
  follower_req.deadline_seconds = 30.0;  // its own, far away
  TicketPtr follower = service.Submit(follower_req);
  EXPECT_EQ(service.Stats().queue_depth, 0u);  // no slot: it's a follower

  const Result<PipelineResult>* lr = leader->WaitFor(60.0);
  const Result<PipelineResult>* fr = follower->WaitFor(60.0);
  ASSERT_NE(lr, nullptr);
  ASSERT_NE(fr, nullptr);
  ASSERT_TRUE(lr->ok()) << lr->status().ToString();
  ASSERT_TRUE(fr->ok()) << fr->status().ToString();
  // The follower shares the leader's result zero-copy. (A degraded
  // leader result is never shared: DeadlineDegradedLeaderNeverServes-
  // NoDeadlineFollower in tests/degradation_test.cc.)
  EXPECT_FALSE(lr->value().degraded());
  EXPECT_FALSE(fr->value().degraded());
  EXPECT_EQ(fr->value().artifacts().get(), lr->value().artifacts().get());
  EXPECT_EQ(fr->value().core().explanations.log_probability,
            lr->value().core().explanations.log_probability);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.completed_degraded, 0u);
}

TEST(ServiceCoalesceTest, CancelledQueuedLeaderPromotesFollower) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(54);
  SyntheticDataset other = MakeData(55, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  DatabaseHandle o1 = service.RegisterDatabase("oleft", other.db1);
  DatabaseHandle o2 = service.RegisterDatabase("oright", other.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(other, o1, o2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  TicketPtr leader = service.Submit(MakeCoalescibleRequest(data, h1, h2));
  TicketPtr follower = service.Submit(MakeCoalescibleRequest(data, h1, h2));
  EXPECT_EQ(service.Stats().queue_depth, 1u);

  // Cancelling the leader kills ONLY the leader: its terminal state is
  // its own, while the follower is promoted to a fresh leader when the
  // worker reaps the dead one.
  EXPECT_TRUE(leader->Cancel());
  EXPECT_EQ(leader->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(follower->TryGet(), nullptr);  // survives the cancel

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  ASSERT_TRUE(follower->Wait().ok()) << follower->Wait().status().ToString();
  ExpectResultsBitIdentical(
      follower->TryGet()->value(),
      SerialBaseline(data, MakeCoalescibleRequest(data, h1, h2)));

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);       // blocker + promoted follower
  EXPECT_EQ(stats.coalesced_hits, 0u);  // the follower ran for itself
}

TEST(ServiceCoalesceTest, CancelledRunningLeaderPromotesFollower) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.cancel_running_on_destruction = true;  // unbounded solves below
  Explain3DService service(options);
  SyntheticDataset data = MakeData(56);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  TicketPtr leader = service.Submit(MakeHardSolveRequest(data, h1, h2));
  while (service.Stats().running == 0 && leader->TryGet() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(leader->TryGet(), nullptr);
  TicketPtr follower = service.Submit(MakeHardSolveRequest(data, h1, h2));
  EXPECT_EQ(service.Stats().queue_depth, 0u);

  // A mid-run cancel resolves the leader cooperatively — and must not
  // take the follower down with it: an interrupted result is never
  // shared, the follower is re-enqueued as its own (endless) leader.
  EXPECT_TRUE(leader->Cancel());
  const Result<PipelineResult>* lr = leader->WaitFor(30.0);
  ASSERT_NE(lr, nullptr) << "cancelled leader never resolved";
  EXPECT_EQ(lr->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(follower->TryGet(), nullptr);

  EXPECT_TRUE(follower->Cancel());
  const Result<PipelineResult>* fr = follower->WaitFor(30.0);
  ASSERT_NE(fr, nullptr) << "promoted follower never resolved";
  EXPECT_EQ(fr->status().code(), StatusCode::kCancelled);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.coalesced_hits, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServiceCoalesceTest, StaleLeaderAfterReRegistrationPromotesFollower) {
  // Re-registration between the leader's submit and its claim: the key
  // follows the data CONTENT, so an identical re-registration keeps the
  // group shared — and when the stale-handle leader fails at claim, the
  // fresh-handle follower is promoted and serves the group's answer.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(57);
  SyntheticDataset other = MakeData(58, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  DatabaseHandle o1 = service.RegisterDatabase("oleft", other.db1);
  DatabaseHandle o2 = service.RegisterDatabase("oright", other.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(other, o1, o2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  TicketPtr leader = service.Submit(MakeCoalescibleRequest(data, h1, h2));
  // IDENTICAL contents, new generation: h1 retires, the key stays.
  DatabaseHandle h1b = service.RegisterDatabase("left", data.db1);
  TicketPtr follower = service.Submit(MakeCoalescibleRequest(data, h1b, h2));
  EXPECT_EQ(service.Stats().queue_depth, 1u);  // same content → attached

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  // The leader's retired handle fails at claim — its own failure only.
  EXPECT_EQ(leader->Wait().status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(follower->Wait().ok()) << follower->Wait().status().ToString();
  ExpectResultsBitIdentical(
      follower->TryGet()->value(),
      SerialBaseline(data, MakeCoalescibleRequest(data, h1b, h2)));

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, 0u);
  EXPECT_EQ(stats.completed, 3u);  // blocker + failed leader + follower
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ServiceCoalesceTest, ChangedContentNeverJoinsTheOldGroup) {
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(59);
  SyntheticDataset changed = MakeData(60);
  SyntheticDataset other = MakeData(61, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);
  DatabaseHandle o1 = service.RegisterDatabase("oleft", other.db1);
  DatabaseHandle o2 = service.RegisterDatabase("oright", other.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(other, o1, o2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  TicketPtr old_gen = service.Submit(MakeCoalescibleRequest(data, h1, h2));
  EXPECT_EQ(service.Stats().queue_depth, 1u);
  // CHANGED contents: the new generation's identity differs, so an
  // otherwise-identical submit must NOT share the old generation's
  // computation — cross-generation coalescing would serve stale data.
  DatabaseHandle h1c = service.RegisterDatabase("left", changed.db1);
  TicketPtr new_gen = service.Submit(MakeCoalescibleRequest(data, h1c, h2));
  EXPECT_EQ(service.Stats().queue_depth, 2u);  // its own leader slot

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  EXPECT_EQ(old_gen->Wait().status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(new_gen->Wait().ok()) << new_gen->Wait().status().ToString();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, 0u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);  // the retired-handle leader
}

// --- multi-tenant serving: fairness + quotas --------------------------------

TEST(ServiceFairnessTest, ClientsTakeTurnsWithinABand) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.starvation_every = 0;  // isolate the round-robin order
  Explain3DService service(options);
  SyntheticDataset data = MakeData(62, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag) {
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.calibration_oracle = TaggingOracle(&order_mu, &order, tag);
    return req;
  };
  // Client "a" floods 4 deep BEFORE client "b"'s single request lands —
  // all in the same priority band.
  std::vector<TicketPtr> tickets;
  tickets.push_back(service.Submit(tagged(1), SubmitOptions{0, "a"}));
  tickets.push_back(service.Submit(tagged(2), SubmitOptions{0, "a"}));
  tickets.push_back(service.Submit(tagged(3), SubmitOptions{0, "a"}));
  tickets.push_back(service.Submit(tagged(4), SubmitOptions{0, "a"}));
  tickets.push_back(service.Submit(tagged(100), SubmitOptions{0, "b"}));

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  for (const TicketPtr& t : tickets) ASSERT_TRUE(t->Wait().ok());
  // Round-robin across clients, FIFO within one: b's request runs right
  // after a's FIRST — the flood delays it by exactly one run, not four.
  EXPECT_EQ(order, (std::vector<int>{1, 100, 2, 3, 4}));
}

TEST(ServiceQuotaTest, FloodingClientIsRejectedOthersUntouched) {
  ServiceOptions options;
  options.max_concurrency = 1;
  options.per_client_max_queued = 2;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(63, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // The blocker is CLAIMED, not queued: it must not count against its
  // client's queue quota.
  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(data, h1, h2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker, SubmitOptions{0, "flood"});
  entered.WaitForNotification();

  TicketPtr f1 = service.Submit(MakeRequest(data, h1, h2),
                                SubmitOptions{0, "flood"});
  TicketPtr f2 = service.Submit(MakeRequest(data, h1, h2),
                                SubmitOptions{0, "flood"});
  EXPECT_EQ(f1->TryGet(), nullptr);
  EXPECT_EQ(f2->TryGet(), nullptr);
  // The third queued request breaches the quota: synchronous
  // kResourceExhausted, never queued, never run.
  TicketPtr f3 = service.Submit(MakeRequest(data, h1, h2),
                                SubmitOptions{0, "flood"});
  const Result<PipelineResult>* r = f3->TryGet();
  ASSERT_NE(r, nullptr) << "quota rejection must be synchronous";
  EXPECT_EQ(r->status().code(), StatusCode::kResourceExhausted);
  // Another tenant's traffic is untouched by the flood.
  TicketPtr calm = service.Submit(MakeRequest(data, h1, h2),
                                  SubmitOptions{0, "calm"});
  EXPECT_EQ(calm->TryGet(), nullptr);

  ServiceStats mid = service.Stats();
  EXPECT_EQ(mid.quota_rejected, 1u);
  EXPECT_EQ(mid.rejected, 0u);  // quota ≠ admission: separate buckets
  EXPECT_EQ(mid.queue_depth, 3u);

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  EXPECT_TRUE(f1->Wait().ok());
  EXPECT_TRUE(f2->Wait().ok());
  EXPECT_TRUE(calm->Wait().ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.quota_rejected, 1u);
}

TEST(ServiceQuotaTest, InflightCapSkipsTheCappedClientNotTheQueue) {
  ServiceOptions options;
  options.max_concurrency = 2;
  options.per_client_max_inflight = 1;
  Explain3DService service(options);
  SyntheticDataset data = MakeData(64, 60);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  Notification e1, r1, e2, r2, e3, r3;
  auto parked = [&](Notification* e, Notification* r) {
    ExplanationRequest req = MakeRequest(data, h1, h2);
    req.calibration_oracle = ParkedOracle(e, r);
    return req;
  };
  TicketPtr a1 = service.Submit(parked(&e1, &r1), SubmitOptions{0, "a"});
  e1.WaitForNotification();  // client a: 1 in flight — at its cap
  TicketPtr a2 = service.Submit(parked(&e2, &r2), SubmitOptions{0, "a"});
  TicketPtr b1 = service.Submit(parked(&e3, &r3), SubmitOptions{0, "b"});
  // The free worker slot goes to b: a is at its inflight cap, so a2
  // waits even though it queued first — skipped, not rejected.
  e3.WaitForNotification();
  EXPECT_FALSE(e2.HasBeenNotified());
  EXPECT_EQ(service.Stats().running, 2u);
  EXPECT_EQ(service.Stats().queue_depth, 1u);

  // a's finishing run releases the cap: a2 is claimed next.
  r1.Notify();
  e2.WaitForNotification();
  r2.Notify();
  r3.Notify();
  EXPECT_TRUE(a1->Wait().ok());
  EXPECT_TRUE(a2->Wait().ok());
  EXPECT_TRUE(b1->Wait().ok());
  EXPECT_EQ(service.Stats().quota_rejected, 0u);
}

// --- multi-tenant serving: keyed admission estimates -------------------------

TEST(ServiceAdmissionTest, KeyedEstimateAdmitsWarmPairDespiteSlowGlobal) {
  // p50-poisoning regression: one slow pair used to drag the single
  // global run-time estimate up and bounce every fast tenant's
  // deadline. The keyed rings price each (db-identity, config) pair by
  // its own history.
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  SyntheticDataset slow = MakeData(65, 60);
  SyntheticDataset fast = MakeData(66, 48);
  DatabaseHandle s1 = service.RegisterDatabase("sleft", slow.db1);
  DatabaseHandle s2 = service.RegisterDatabase("sright", slow.db2);
  DatabaseHandle f1 = service.RegisterDatabase("fleft", fast.db1);
  DatabaseHandle f2 = service.RegisterDatabase("fright", fast.db2);

  // Warm both keyed rings: 3 completions each. The slow pair's oracle
  // sleeps 1.5 s per run (oracles run every execution, warm or cold),
  // so half the global window is ~1.5 s samples.
  auto slow_req = [&] {
    ExplanationRequest req = MakeRequest(slow, s1, s2);
    req.calibration_oracle = SleepOracle(1.5);
    return req;
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(slow_req())->Wait().ok());
    ASSERT_TRUE(service.Submit(MakeRequest(fast, f1, f2))->Wait().ok());
  }
  ServiceStats warm = service.Stats();
  ASSERT_EQ(warm.completed, 6u);
  ASSERT_GT(warm.run_seconds.p50, 0.7);  // the global estimate IS poisoned

  // Park the only worker so probes face ahead == max_concurrency (the
  // estimate branch, not the free-slot always-admit path).
  Notification entered, release;
  ExplanationRequest blocker = MakeRequest(slow, s1, s2);
  blocker.calibration_oracle = ParkedOracle(&entered, &release);
  TicketPtr blocked = service.Submit(blocker);
  entered.WaitForNotification();

  // A deadline feasible for the fast pair but not the slow one. Under
  // the old global estimate BOTH would bounce (~2 × 1.5 s > 1.8 s); the
  // keyed estimate admits the fast pair...
  ExplanationRequest fast_probe = MakeRequest(fast, f1, f2);
  fast_probe.deadline_seconds = 1.8;
  TicketPtr admitted = service.Submit(fast_probe);
  EXPECT_EQ(admitted->TryGet(), nullptr)
      << "fast pair must admit on its own (warm) keyed estimate";
  // ...and still rejects the slow pair on ITS keyed history.
  ExplanationRequest slow_probe = slow_req();
  slow_probe.deadline_seconds = 1.8;
  TicketPtr rejected = service.Submit(slow_probe);
  const Result<PipelineResult>* r = rejected->TryGet();
  ASSERT_NE(r, nullptr) << "slow-pair probe must reject synchronously";
  EXPECT_EQ(r->status().code(), StatusCode::kUnavailable);

  release.Notify();
  EXPECT_TRUE(blocked->Wait().ok());
  const Result<PipelineResult>* ar = admitted->WaitFor(60.0);
  ASSERT_NE(ar, nullptr);
  EXPECT_NE(ar->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().rejected, 1u);
}

// --- priority-band overflow aggregation --------------------------------------

TEST(ServiceStatsTest, PrioritiesPastTheBandCapAggregateNotDrop) {
  // Regression: the 64-band tracking cap used to silently DROP the
  // latency samples of every completion past it. They now aggregate
  // under the kOverflowBand sentinel, with the truncation flagged.
  Explain3DService service;
  SyntheticDataset data = MakeData(67, 40);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  for (int p = 0; p < 100; ++p) {
    ASSERT_TRUE(
        service.Submit(MakeRequest(data, h1, h2), SubmitOptions{p, ""})->Wait().ok())
        << "priority " << p;
  }

  ServiceStats stats = service.Stats();
  EXPECT_TRUE(stats.bands_truncated);
  // The first 64 distinct priorities keep their own slice...
  ASSERT_EQ(stats.priority_bands.count(0), 1u);
  ASSERT_EQ(stats.priority_bands.count(63), 1u);
  EXPECT_EQ(stats.priority_bands.count(64), 0u);
  EXPECT_EQ(stats.priority_bands.count(99), 0u);
  // ...and completions past the cap aggregate under the sentinel
  // instead of disappearing: 36 of the 100 land there.
  ASSERT_EQ(stats.priority_bands.count(ServiceStats::kOverflowBand), 1u);
  EXPECT_EQ(
      stats.priority_bands.at(ServiceStats::kOverflowBand).total_seconds.count,
      36u);
  EXPECT_EQ(stats.priority_bands.size(), 65u);
  // Global accounting stays exact throughout.
  EXPECT_EQ(stats.completed, 100u);
  EXPECT_EQ(stats.total_seconds.count, 100u);
}

}  // namespace
}  // namespace explain3d
