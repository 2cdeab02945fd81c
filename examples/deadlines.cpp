// Deadlines, cancellation, priorities, and admission control — the
// compiled twin of the docs/API.md "Deadlines & cancellation" section.
//
// Build & run:  ./build/deadlines
//
// Demonstrates:
//   1. cancelling a RUNNING request mid-solve (resolves kCancelled in
//      milliseconds — cooperative CancelToken polling at solver node
//      granularity);
//   2. an end-to-end deadline expiring inside stage 2
//      (kDeadlineExceeded), with the complete stage-1 artifacts still
//      cached for a warm retry;
//   3. priorities: an interactive request jumping a background backlog;
//   4. admission control: a predictably-doomed deadline rejected at
//      Submit (kUnavailable) instead of queueing dead work.

#include <chrono>
#include <cstdio>
#include <thread>

#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"

using namespace explain3d;

namespace {

SyntheticDataset MakeData(uint64_t seed) {
  SyntheticOptions gen;
  gen.n = 120;
  gen.d = 0.25;
  gen.v = 200;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

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
  return req;
}

// A request whose stage-2 solve runs effectively forever: only the
// cancel/deadline machinery can end it (see docs/API.md). The match is
// one-sided (⊑, many-to-one), the NP-hard case; an ≡ unit would solve as
// a polynomial matching in milliseconds.
ExplanationRequest MakeEndlessRequest(const SyntheticDataset& data,
                                      DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req = MakeRequest(data, h1, h2);
  req.attr_matches = {AttributeMatch::Single(
      "match_attr", "match_attr", SemanticRelation::kLessGeneral)};
  req.calibration_oracle = nullptr;
  req.mapping_options.use_blocking = false;
  req.mapping_options.min_probability = 1e-12;
  req.config.batch_size = 0;
  req.config.decompose_components = false;
  req.config.exact_max_nodes = size_t{1} << 60;
  return req;
}

}  // namespace

int main() {
  SyntheticDataset data = MakeData(7);
  ServiceOptions options;
  options.max_concurrency = 1;
  Explain3DService service(options);
  DatabaseHandle h1 = service.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = service.RegisterDatabase("right", data.db2);

  // --- 1. cancel a RUNNING request -----------------------------------------
  {
    TicketPtr ticket = service.Submit(MakeEndlessRequest(data, h1, h2));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto cancelled_at = std::chrono::steady_clock::now();
    ticket->Cancel();  // cooperative: token fires, solver unwinds
    const Result<PipelineResult>& r = ticket->Wait();
    double ms = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - cancelled_at)
                    .count() *
                1e3;
    std::printf("cancel mid-solve: %s after %.2f ms\n",
                StatusCodeName(r.status().code()), ms);
  }

  // --- 2. deadline expiring mid-solve --------------------------------------
  {
    ExplanationRequest req = MakeEndlessRequest(data, h1, h2);
    req.deadline_seconds = 0.5;  // end-to-end budget, armed at Submit
    TicketPtr ticket = service.Submit(req);
    const Result<PipelineResult>& r = ticket->Wait();
    std::printf("deadline mid-solve: %s (stage-1 artifacts cached: %zu)\n",
                StatusCodeName(r.status().code()), service.cache().size());
  }

  // --- 3. priorities: interactive work jumps a backlog ---------------------
  {
    std::vector<TicketPtr> background;
    for (int i = 0; i < 6; ++i) {
      background.push_back(service.Submit(MakeRequest(data, h1, h2)));
    }
    SubmitOptions interactive;
    interactive.priority = 5;
    TicketPtr urgent = service.Submit(MakeRequest(data, h1, h2), interactive);
    urgent->Wait();
    size_t background_pending = 0;
    for (const TicketPtr& t : background) {
      if (t->TryGet() == nullptr) ++background_pending;
    }
    std::printf("priority: urgent done while %zu/6 background still "
                "pending\n",
                background_pending);
    for (const TicketPtr& t : background) t->Wait();
  }

  // --- 4. admission control -------------------------------------------------
  {
    // Stack a backlog behind the single worker, then ask for the
    // impossible: with an observed p50 run time, the service rejects at
    // Submit instead of queueing doomed work.
    std::vector<TicketPtr> backlog;
    for (int i = 0; i < 4; ++i) {
      backlog.push_back(service.Submit(MakeRequest(data, h1, h2)));
    }
    ExplanationRequest doomed = MakeRequest(data, h1, h2);
    doomed.deadline_seconds = 1e-6;
    TicketPtr rejected = service.Submit(doomed);
    const Result<PipelineResult>* r = rejected->TryGet();
    std::printf("admission control: %s\n",
                r == nullptr ? "queued (no estimate yet)"
                             : r->status().ToString().c_str());
    for (const TicketPtr& t : backlog) t->Wait();
  }

  ServiceStats stats = service.Stats();
  std::printf(
      "totals: submitted=%zu completed=%zu cancelled=%zu "
      "deadline_exceeded=%zu rejected=%zu\n",
      stats.submitted, stats.completed, stats.cancelled,
      stats.deadline_exceeded, stats.rejected);
  return 0;
}
