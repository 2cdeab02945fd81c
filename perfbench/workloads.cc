// The four benchmark workloads. Each runs on a fixed dataset, builds its
// request stream from the seed, repeats its setup (data generation +
// registration + untimed warm-up), and then drives the timed phase
// through the public Explain3DService API:
//
//   imdb-adhoc    one closed-loop client; distinct IMDb analyst questions,
//                 so every request misses the stage-1 cache.
//   synth-capped  one closed-loop client; warm repeats on the synthetic
//                 fixture whose largest unit exhausts the node cap.
//   wide-restart  each operation restarts a persistent service, restores
//                 its store, re-registers both databases and answers.
//   service-mix   open-loop Zipf traffic with writes that re-register
//                 view 2, under a cache budget below the working set.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "datagen/imdb.h"
#include "datagen/synthetic.h"
#include "harness.h"
#include "provenance/canonical.h"
#include "provenance/provenance.h"
#include "relational/parser.h"

namespace perfbench {

using namespace explain3d;

namespace {

// Setup is repeated at least kMinSetupRepeats times and until
// kMinSetupSeconds have passed, so cheap setups get a steadier median.
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 50;
constexpr double kMinSetupSeconds = 1.5;

// Each workload runs on one fixed dataset; the run's seed shapes the
// request stream (order, picks, arrival times). Stage-2 search time on a
// node-capped fixture varies up to 3x between generator seeds, which
// would swamp every run-to-run comparison. Synthetic seed 7 is the
// ROADMAP fixture, on which the default exact answer scores below
// greedy; IMDb seed 2024 is the generator default.
constexpr uint64_t kImdbDataSeed = 2024;
constexpr uint64_t kSynthDataSeed = 7;

// Latency limits of slo_met_share, one per workload.
constexpr double kImdbSloSeconds = 0.25;
constexpr double kSynthSloSeconds = 0.5;
constexpr double kWideSloSeconds = 0.5;
constexpr double kMixSloSeconds = 1.0;

// service-mix traffic shape.
constexpr double kMixRatePerSecond = 80;
constexpr size_t kMixWriteEvery = 200;  // every K-th arrival is a write
constexpr double kMixZipfExponent = 1.0;
// Far below the 60-question working set, so most requests build stage 1
// cold and both latency percentiles sit inside the cold-build mode (a
// budget that holds the Zipf head puts the median on the warm/cold
// boundary, where it jumps between runs).
constexpr size_t kMixCacheBudgetBytes = 256u << 10;

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what, r.status());
  return std::move(r).value();
}

double DirectoryBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string FreshDir(const Args& args, const std::string& name) {
  std::string dir = args.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Times RegisterDatabase and accumulates the mean into the run.
struct RegisterClock {
  double total = 0;
  size_t count = 0;
  DatabaseHandle Register(Explain3DService* service, const std::string& name,
                          Database db) {
    Clock::time_point start = Clock::now();
    DatabaseHandle h = service->RegisterDatabase(name, std::move(db));
    total += SecondsSince(start);
    ++count;
    return h;
  }
  double Mean() const { return count == 0 ? 0 : total / count; }
};

/// Fills an op from a terminal ticket result.
void FillOp(const Result<PipelineResult>& r, OpRecord* op) {
  op->ok = r.ok();
  if (!r.ok()) {
    op->error = r.status().ToString();
    return;
  }
  const PipelineResult& res = r.value();
  const Explain3DStats& st = res.core().stats;
  op->run_seconds = res.total_seconds();
  op->nodes = st.total_nodes;
  op->units = st.num_subproblems;
  op->milp_units = st.milp_solved;
  op->assignment_units = st.exact_solved;
  op->warm_start_hits = st.warm_start_hits;
  op->digest = Digest(res);
}

/// Records the first answer per key as its reference (and the greedy
/// objective on the same inputs). Harness work, never inside a timing.
void NoteReference(WorkloadRun* run, size_t spec,
                   const Result<PipelineResult>& r) {
  if (!r.ok() || run->reference.count(spec) != 0) return;
  run->reference[spec] = Digest(r.value());
  run->greedy_objective[spec] = GreedyObjective(r.value(), run->specs[spec]);
}

/// Output check: every OK answer equals its key's reference answer.
void CheckAgainstReference(WorkloadRun* run, const char* check) {
  for (OpRecord& op : run->ops) {
    if (!op.ok) continue;
    auto it = run->reference.find(op.spec);
    if (it == run->reference.end()) continue;
    if (op.digest == it->second) continue;
    op.ok = false;
    op.error = std::string(check) + ": answer differs from reference";
  }
}

/// Ops whose request failed or whose check failed, listed with cause.
void CollectFailures(WorkloadRun* run) {
  for (const OpRecord& op : run->ops) {
    if (op.ok) continue;
    run->check_failures.push_back("op " + run->specs[op.spec].key.substr(0, 60) +
                                  ": " + op.error);
  }
}

/// Service counters over a window (after - before).
void TakeServiceDeltas(const ServiceStats& before, const ServiceStats& after,
                       WorkloadRun* run) {
  double submitted = static_cast<double>(after.submitted - before.submitted);
  double warm = static_cast<double>(after.warm_hits - before.warm_hits);
  double cold = static_cast<double>(after.cold_misses - before.cold_misses);
  run->coalesced_share +=
      submitted > 0
          ? static_cast<double>(after.coalesced_hits - before.coalesced_hits) /
                submitted
          : 0;
  run->cache_hit_rate += warm + cold > 0 ? warm / (warm + cold) : 0;
  run->cache_evictions +=
      static_cast<double>(after.cache_evictions - before.cache_evictions);
  run->rejected += static_cast<double>(
      (after.rejected - before.rejected) +
      (after.quota_rejected - before.quota_rejected));
  run->persisted_entries +=
      static_cast<double>(after.persisted_entries - before.persisted_entries);
  run->persist_errors +=
      static_cast<double>(after.persist_errors - before.persist_errors);
  run->queue_p50 = after.queue_seconds.p50;
  run->queue_p90 = after.queue_seconds.p90;
  run->run_p50 = after.run_seconds.p50;
}

/// Repeats `setup` (see kMinSetupRepeats), records each duration, and
/// returns the last state.
template <typename State, typename Fn>
std::unique_ptr<State> RepeatedSetup(WorkloadRun* run, Fn setup) {
  std::unique_ptr<State> state;
  double total = 0;
  for (int i = 0; i < kMaxSetupRepeats; ++i) {
    if (i >= kMinSetupRepeats && total >= kMinSetupSeconds) break;
    state.reset();  // release the previous state before building anew
    Clock::time_point start = Clock::now();
    state = setup();
    run->setup_seconds.push_back(SecondsSince(start));
    total += run->setup_seconds.back();
  }
  return state;
}

/// Runs one request to completion on an idle service.
Result<PipelineResult> RunSolo(Explain3DService* service,
                               const RequestSpec& spec, DatabaseHandle h1,
                               DatabaseHandle h2) {
  TicketPtr t = service->Submit(MakeRequest(spec, h1, h2));
  return t->Wait();
}

// --- IMDb question sets ---------------------------------------------------

RequestSpec ImdbSpec(const ImdbQueryPair& q) {
  RequestSpec spec;
  spec.key = q.name + "|" + q.sql1 + "|" + q.sql2;
  spec.sql1 = q.sql1;
  spec.sql2 = q.sql2;
  spec.attr_matches = q.attr_matches;
  spec.oracle_col1 = q.entity_col1;
  spec.oracle_col2 = q.entity_col2;
  // Single-threaded: at this size the parallel stage-1 path is no faster
  // and doubles the run-to-run latency spread.
  spec.config.num_threads = 1;
  return spec;
}

/// Templates Q1-Q10 over [year_lo, year_hi], deduplicated by (sql1, sql2).
std::vector<RequestSpec> ImdbQuestions(int year_lo, int year_hi) {
  const std::vector<std::string>& genres = ImdbGenres();
  std::vector<RequestSpec> out;
  std::set<std::pair<std::string, std::string>> seen;
  for (int year = year_lo; year <= year_hi; ++year) {
    const std::string& genre = genres[static_cast<size_t>(year) % genres.size()];
    for (const ImdbQueryPair& q : ImdbTemplates(year, genre)) {
      if (!seen.insert({q.sql1, q.sql2}).second) continue;
      out.push_back(ImdbSpec(q));
    }
  }
  return out;
}

ImdbDataset MakeImdb() {
  ImdbOptions opts;
  opts.num_movies = 2000;
  opts.num_persons = 3000;
  opts.seed = kImdbDataSeed;
  return Must(GenerateImdb(opts), "GenerateImdb");
}

// --- imdb-adhoc -----------------------------------------------------------

struct ImdbState {
  ImdbDataset data;
  std::vector<RequestSpec> specs;
  std::unique_ptr<Explain3DService> service;
  DatabaseHandle h1, h2;
};

void StartImdbService(ImdbState* s, RegisterClock* reg) {
  s->service.reset();  // the old cache goes before the new service starts
  s->service = std::make_unique<Explain3DService>();
  s->h1 = reg->Register(s->service.get(), "view1", s->data.view1);
  s->h2 = reg->Register(s->service.get(), "view2", s->data.view2);
}

WorkloadRun RunImdbAdhoc(const Args& args, double seconds) {
  WorkloadRun run;
  run.slo_seconds = kImdbSloSeconds;
  run.replay_caches = false;
  RegisterClock reg;
  auto state = RepeatedSetup<ImdbState>(&run, [&] {
    auto s = std::make_unique<ImdbState>();
    s->data = MakeImdb();
    s->specs = ImdbQuestions(1972, 2002);
    Rng rng(DeriveSeed(args.seed, 12));
    rng.Shuffle(&s->specs);
    StartImdbService(s.get(), &reg);
    // Warm-up: a question outside the timed list (threads, allocator).
    RequestSpec warm = ImdbSpec(ImdbTemplates(1971, "Drama")[4]);
    Must(RunSolo(s->service.get(), warm, s->h1, s->h2), "imdb warm-up");
    return s;
  });
  run.specs = state->specs;

  // Closed loop over the shuffled question list. When the list is used
  // up, a fresh service (outside the clock) starts the next pass, so
  // every timed request still misses the stage-1 cache.
  ServiceStats before = state->service->Stats();
  size_t next = 0;
  while (run.phase_seconds < seconds) {
    if (next == run.specs.size()) {
      TakeServiceDeltas(before, state->service->Stats(), &run);
      StartImdbService(state.get(), &reg);
      before = state->service->Stats();
      next = 0;
    }
    OpRecord op;
    op.spec = next++;
    op.due = run.phase_seconds;
    Clock::time_point start = Clock::now();
    TicketPtr t = state->service->Submit(
        MakeRequest(run.specs[op.spec], state->h1, state->h2));
    const Result<PipelineResult>& r = t->Wait();
    op.latency = SecondsSince(start);
    run.phase_seconds += op.latency;
    FillOp(r, &op);
    NoteReference(&run, op.spec, r);
    run.ops.push_back(std::move(op));
  }
  // Passes that did not finish still count their requests.
  ServiceStats after = state->service->Stats();
  TakeServiceDeltas(before, after, &run);
  size_t passes = (run.ops.size() + run.specs.size() - 1) / run.specs.size();
  run.coalesced_share /= static_cast<double>(passes);
  run.cache_hit_rate /= static_cast<double>(passes);
  CheckAgainstReference(&run, "repeat");
  run.register_seconds = reg.Mean();
  run.db1_versions.push_back(
      std::make_shared<const Database>(state->data.view1));
  run.db2_versions.push_back(
      std::make_shared<const Database>(state->data.view2));
  return run;
}

// --- synthetic fixtures ---------------------------------------------------

struct SynthState {
  SyntheticDataset data;
  std::unique_ptr<Explain3DService> service;
  DatabaseHandle h1, h2;
};

RequestSpec SynthSpec(const SyntheticDataset& data, size_t batch_size) {
  RequestSpec spec;
  spec.key = "synthetic|batch=" + std::to_string(batch_size);
  spec.sql1 = data.sql1;
  spec.sql2 = data.sql2;
  spec.attr_matches = data.attr_matches;
  spec.mapping_options.min_probability = 1e-4;
  spec.oracle_rows1 =
      std::make_shared<const std::vector<int64_t>>(data.row_entities1);
  spec.oracle_rows2 =
      std::make_shared<const std::vector<int64_t>>(data.row_entities2);
  spec.config.batch_size = batch_size;
  return spec;
}

SyntheticDataset MakeSynth(size_t n, double d, size_t v, uint64_t seed) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = d;
  gen.v = v;
  gen.seed = seed;
  return Must(GenerateSynthetic(gen), "GenerateSynthetic");
}

// --- synth-capped ---------------------------------------------------------

WorkloadRun RunSynthCapped(const Args& args, double seconds) {
  WorkloadRun run;
  run.slo_seconds = kSynthSloSeconds;
  run.replay_prewarmed = true;
  RegisterClock reg;
  auto state = RepeatedSetup<SynthState>(&run, [&] {
    auto s = std::make_unique<SynthState>();
    s->data = MakeSynth(500, 0.25, 300, kSynthDataSeed);
    s->service = std::make_unique<Explain3DService>();
    s->h1 = reg.Register(s->service.get(), "db1", s->data.db1);
    s->h2 = reg.Register(s->service.get(), "db2", s->data.db2);
    // Untimed warm-up of both request shapes; their answers are the
    // references every timed repeat must equal.
    run.specs = {SynthSpec(s->data, 1000), SynthSpec(s->data, 60)};
    run.reference.clear();
    run.greedy_objective.clear();
    for (size_t i = 0; i < run.specs.size(); ++i) {
      Result<PipelineResult> r =
          RunSolo(s->service.get(), run.specs[i], s->h1, s->h2);
      if (!r.ok()) Fail("synth warm-up", r.status());
      NoteReference(&run, i, r);
    }
    return s;
  });

  ServiceStats before = state->service->Stats();
  // Strict alternation of the two shapes; the seed picks the first.
  for (size_t i = args.seed % 2; run.phase_seconds < seconds; ++i) {
    OpRecord op;
    op.spec = i % run.specs.size();
    op.due = run.phase_seconds;
    Clock::time_point start = Clock::now();
    TicketPtr t = state->service->Submit(
        MakeRequest(run.specs[op.spec], state->h1, state->h2));
    const Result<PipelineResult>& r = t->Wait();
    op.latency = SecondsSince(start);
    run.phase_seconds += op.latency;
    FillOp(r, &op);
    run.ops.push_back(std::move(op));
  }
  TakeServiceDeltas(before, state->service->Stats(), &run);
  CheckAgainstReference(&run, "repeat");
  run.register_seconds = reg.Mean();
  run.db1_versions.push_back(
      std::make_shared<const Database>(state->data.db1));
  run.db2_versions.push_back(
      std::make_shared<const Database>(state->data.db2));
  return run;
}

// --- wide-restart ---------------------------------------------------------

struct WideState {
  SyntheticDataset data;
  std::string store_dir;
};

WorkloadRun RunWideRestart(const Args& args, double seconds) {
  WorkloadRun run;
  run.slo_seconds = kWideSloSeconds;
  run.replay_prewarmed = true;
  RegisterClock reg;
  ServiceOptions options;
  auto state = RepeatedSetup<WideState>(&run, [&] {
    auto s = std::make_unique<WideState>();
    s->data = MakeSynth(8000, 0.1, 8000, kSynthDataSeed);
    s->store_dir = FreshDir(args, "wide-restart-store");
    run.specs = {SynthSpec(s->data, 1000)};
    // Single-threaded requests: with the parallel path on, run-to-run
    // latency on this fixture varies up to 2x (nested parallel MILP
    // solves of thousands of tiny units), which no bound could absorb.
    run.specs[0].config.num_threads = 1;
    run.reference.clear();
    run.greedy_objective.clear();
    // One cold answer, persisted: the image every restart restores.
    options.persist_dir = s->store_dir;
    Explain3DService service(options);
    DatabaseHandle h1 = reg.Register(&service, "db1", s->data.db1);
    DatabaseHandle h2 = reg.Register(&service, "db2", s->data.db2);
    Result<PipelineResult> r = RunSolo(&service, run.specs[0], h1, h2);
    if (!r.ok()) Fail("wide-restart cold request", r.status());
    NoteReference(&run, 0, r);
    Status flushed = service.FlushPersistence();
    if (!flushed.ok()) Fail("wide-restart flush", flushed);
    return s;
  });
  run.store_bytes = DirectoryBytes(state->store_dir);

  // Each operation: construct (restore) → re-register both databases →
  // first answer. The copies handed to RegisterDatabase are made outside
  // the clock; teardown counts in the phase wall time.
  double restore_total = 0;
  size_t warm_restarts = 0;
  while (run.phase_seconds < seconds) {
    Database copy1 = state->data.db1;
    Database copy2 = state->data.db2;
    OpRecord op;
    op.due = run.phase_seconds;
    Clock::time_point start = Clock::now();
    auto service = std::make_unique<Explain3DService>(options);
    restore_total += SecondsSince(start);
    DatabaseHandle h1 = reg.Register(service.get(), "db1", std::move(copy1));
    DatabaseHandle h2 = reg.Register(service.get(), "db2", std::move(copy2));
    TicketPtr t = service->Submit(MakeRequest(run.specs[0], h1, h2));
    const Result<PipelineResult>& r = t->Wait();
    op.latency = SecondsSince(start);
    FillOp(r, &op);
    ServiceStats st = service->Stats();
    if (st.cold_misses == 0 && st.warm_hits > 0) ++warm_restarts;
    run.persisted_entries += static_cast<double>(st.persisted_entries);
    run.persist_errors += static_cast<double>(st.persist_errors);
    run.queue_p50 = st.queue_seconds.p50;
    run.queue_p90 = st.queue_seconds.p90;
    run.run_p50 = st.run_seconds.p50;
    service.reset();
    run.phase_seconds += SecondsSince(start);
    run.ops.push_back(std::move(op));
  }
  double restarts = static_cast<double>(run.ops.size());
  run.restore_seconds = restore_total / restarts;
  run.restore_hit = static_cast<double>(warm_restarts) / restarts;
  run.cache_hit_rate = run.restore_hit;
  CheckAgainstReference(&run, "restored");
  run.register_seconds = reg.Mean();
  run.db1_versions.push_back(
      std::make_shared<const Database>(state->data.db1));
  run.db2_versions.push_back(
      std::make_shared<const Database>(state->data.db2));
  return run;
}

// --- service-mix ----------------------------------------------------------

/// Labels for the calibrator computed through the stage-1 public
/// functions (parse, provenance, canonicalize) and the entity oracle —
/// a plain GoldPairs value, so identical requests can coalesce.
GoldPairs GoldThroughStage1(const Database& db1, const Database& db2,
                            const RequestSpec& spec) {
  const AttributeMatch& attr = spec.attr_matches.front();
  SelectStmtPtr s1 = Must(ParseSql(spec.sql1), "parse sql1");
  SelectStmtPtr s2 = Must(ParseSql(spec.sql2), "parse sql2");
  ProvenanceRelation p1 = Must(DeriveProvenance(db1, *s1), "provenance 1");
  ProvenanceRelation p2 = Must(DeriveProvenance(db2, *s2), "provenance 2");
  CanonicalRelation t1 = Must(Canonicalize(p1, attr.attrs1), "canonical 1");
  CanonicalRelation t2 = Must(Canonicalize(p2, attr.attrs2), "canonical 2");
  return MakeOracle(spec)(t1, t2, p1.table, p2.table);
}

struct MixState {
  ImdbDataset data;
  Database view2_alt;  ///< view 2 plus one unlinked person row
  std::vector<RequestSpec> specs;
  std::string store_dir;
  std::unique_ptr<Explain3DService> service;
};

struct Arrival {
  double due = 0;
  bool write = false;
  size_t spec = 0;
};

struct Pending {
  TicketPtr ticket;
  Clock::time_point due;
  OpRecord op;
};

WorkloadRun RunServiceMix(const Args& args, double seconds) {
  WorkloadRun run;
  run.slo_seconds = kMixSloSeconds;
  RegisterClock reg;
  ServiceOptions options;
  options.max_concurrency = 4;
  options.cache_budget_bytes = kMixCacheBudgetBytes;
  auto state = RepeatedSetup<MixState>(&run, [&] {
    auto s = std::make_unique<MixState>();
    s->data = MakeImdb();
    s->view2_alt = s->data.view2;
    Table* person = Must(s->view2_alt.GetMutableTable("Person"), "Person");
    person->AppendUnchecked(
        {Value(int64_t{1} << 40), Value("Extra Person"), Value("F"),
         Value("1900-01-01")});
    // Zipf rank order is the question order (year, then template),
    // the same for every seed: the seed shapes the picks and arrival
    // times, not which question is the hottest.
    s->specs = ImdbQuestions(1990, 1995);
    for (RequestSpec& spec : s->specs) {
      spec.calibration_gold =
          GoldThroughStage1(s->data.view1, s->data.view2, spec);
      spec.oracle_col1.clear();
      spec.oracle_col2.clear();
    }
    s->store_dir = FreshDir(args, "service-mix-store");
    options.persist_dir = s->store_dir;
    s->service = std::make_unique<Explain3DService>(options);
    DatabaseHandle h1 = reg.Register(s->service.get(), "view1", s->data.view1);
    DatabaseHandle h2 = reg.Register(s->service.get(), "view2", s->data.view2);
    // Warm-up: the four most popular questions, serially.
    for (size_t i = 0; i < 4; ++i) {
      Must(RunSolo(s->service.get(), s->specs[i], h1, h2), "mix warm-up");
    }
    return s;
  });
  run.specs = state->specs;
  Explain3DService* service = state->service.get();

  // The arrival schedule, all from the seed: rate x seconds arrivals at
  // uniformly random times (a Poisson process conditioned on its count,
  // so every seed offers the same load), Zipf picks, and every
  // kMixWriteEvery-th arrival a write.
  std::vector<Arrival> schedule(
      static_cast<size_t>(kMixRatePerSecond * seconds));
  {
    Rng rng(DeriveSeed(args.seed, 42));
    std::vector<double> times;
    for (size_t i = 0; i < schedule.size(); ++i) {
      times.push_back(rng.UniformDouble() * seconds);
    }
    std::sort(times.begin(), times.end());
    for (size_t i = 0; i < schedule.size(); ++i) {
      schedule[i].due = times[i];
      schedule[i].write = i % kMixWriteEvery == kMixWriteEvery - 1;
      schedule[i].spec = rng.Zipf(run.specs.size(), kMixZipfExponent);
    }
  }

  ServiceStats before = service->Stats();
  std::mutex inbox_mu;
  std::vector<Pending> inbox;
  std::atomic<bool> generator_done{false};
  std::atomic<size_t> stale_resubmits{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point last_done = start;

  // Collector: a client that notices completions (polling every 100 µs),
  // resubmits requests whose view-2 handle went stale during a
  // re-registration, and times each request from its due time.
  std::thread collector([&] {
    std::vector<Pending> pending;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        for (Pending& p : inbox) pending.push_back(std::move(p));
        inbox.clear();
      }
      if (pending.empty() && generator_done.load()) {
        std::lock_guard<std::mutex> lock(inbox_mu);
        if (inbox.empty()) break;
        continue;
      }
      for (size_t i = 0; i < pending.size();) {
        const Result<PipelineResult>* r = pending[i].ticket->TryGet();
        if (r == nullptr) {
          ++i;
          continue;
        }
        Pending& p = pending[i];
        if (!r->ok() && r->status().code() == StatusCode::kInvalidArgument &&
            r->status().message().find("retired") != std::string::npos) {
          DatabaseHandle h1 = Must(service->LookupDatabase("view1"), "view1");
          DatabaseHandle h2 = Must(service->LookupDatabase("view2"), "view2");
          p.op.data_version = h2.generation - 1;
          p.ticket = service->Submit(MakeRequest(run.specs[p.op.spec], h1, h2));
          stale_resubmits.fetch_add(1);
          ++i;
          continue;
        }
        Clock::time_point now = Clock::now();
        p.op.latency = std::chrono::duration<double>(now - p.due).count();
        FillOp(*r, &p.op);
        last_done = std::max(last_done, now);
        run.ops.push_back(std::move(p.op));
        if (i + 1 != pending.size()) pending[i] = std::move(pending.back());
        pending.pop_back();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Generator: sends each arrival at its due time, whatever the backlog.
  DatabaseHandle h1 = Must(service->LookupDatabase("view1"), "view1");
  DatabaseHandle h2 = Must(service->LookupDatabase("view2"), "view2");
  Database next_view2 = state->view2_alt;
  for (const Arrival& a : schedule) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.due));
    std::this_thread::sleep_until(due);
    run.lag_max = std::max(
        run.lag_max, std::chrono::duration<double>(Clock::now() - due).count());
    if (a.write) {
      h2 = reg.Register(service, "view2", std::move(next_view2));
      // Prepare the other content for the next write, in the slack
      // before the next arrival (counted in loadgen.lag_max_s if late).
      next_view2 = h2.generation % 2 == 0 ? state->data.view2
                                          : state->view2_alt;
      continue;
    }
    Pending p;
    p.due = due;
    p.op.spec = a.spec;
    p.op.due = a.due;
    p.op.data_version = h2.generation - 1;
    p.ticket = service->Submit(MakeRequest(run.specs[a.spec], h1, h2));
    std::lock_guard<std::mutex> lock(inbox_mu);
    inbox.push_back(std::move(p));
  }
  generator_done.store(true);
  collector.join();
  run.phase_seconds = std::chrono::duration<double>(last_done - start).count();
  run.stale_resubmits = static_cast<double>(stale_resubmits.load());
  TakeServiceDeltas(before, service->Stats(), &run);
  std::sort(run.ops.begin(), run.ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.due < b.due; });

  // Output check: each key's answers (coalesced or not, on either view-2
  // content) equal a solo run on the idle service. Every question gets
  // one, so neg_objective_mean covers the same keys whatever the picks.
  h1 = Must(service->LookupDatabase("view1"), "view1");
  h2 = Must(service->LookupDatabase("view2"), "view2");
  for (size_t spec = 0; spec < run.specs.size(); ++spec) {
    Result<PipelineResult> r = RunSolo(service, run.specs[spec], h1, h2);
    if (!r.ok()) {
      run.check_failures.push_back("solo " + run.specs[spec].key.substr(0, 60) +
                                   ": " + r.status().ToString());
      continue;
    }
    NoteReference(&run, spec, r);
  }
  CheckAgainstReference(&run, "coalesced-vs-solo");
  run.store_bytes = DirectoryBytes(state->store_dir);
  run.register_seconds = reg.Mean();
  run.db1_versions.push_back(
      std::make_shared<const Database>(state->data.view1));
  run.db2_versions.push_back(
      std::make_shared<const Database>(state->data.view2));
  run.db2_versions.push_back(
      std::make_shared<const Database>(state->view2_alt));
  return run;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "imdb-adhoc", "synth-capped", "wide-restart", "service-mix"};
  return names;
}

WorkloadRun RunWorkload(const Args& args, double seconds) {
  WorkloadRun run;
  if (args.workload == "imdb-adhoc") {
    run = RunImdbAdhoc(args, seconds);
  } else if (args.workload == "synth-capped") {
    run = RunSynthCapped(args, seconds);
  } else if (args.workload == "wide-restart") {
    run = RunWideRestart(args, seconds);
  } else {
    run = RunServiceMix(args, seconds);
  }
  CollectFailures(&run);
  return run;
}

}  // namespace perfbench
