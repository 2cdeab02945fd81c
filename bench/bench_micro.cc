// Microbenchmarks (google-benchmark): the building blocks whose costs
// drive the figure-level results — similarity, calibration, blocking,
// LP/MILP solving, the EXP-3D encoders, and the graph partitioner.

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/exact_solver.h"
#include "core/matching_context.h"
#include "core/milp_encoder.h"
#include "core/partitioning.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "matching/blocking.h"
#include "matching/mapping_generator.h"
#include "matching/similarity.h"
#include "matching/token_interning.h"
#include "milp/branch_and_bound.h"
#include "partition/partitioner.h"
#include "provenance/canonical.h"
#include "storage/io.h"
#include "storage/snapshot.h"

namespace explain3d {
namespace {

// --- fixtures -------------------------------------------------------------

// Keys hold [min_words, max_words] tokens each (equal bounds draw no
// extra randomness, keeping the default fixtures' RNG stream unchanged).
CanonicalRelation RandomRelation(size_t n, uint64_t seed,
                                 size_t min_words = 5,
                                 size_t max_words = 5) {
  Rng rng(seed);
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  rel.agg = AggFunc::kSum;
  for (size_t i = 0; i < n; ++i) {
    CanonicalTuple t;
    std::string key;
    size_t words = min_words == max_words
                       ? min_words
                       : min_words + rng.Index(max_words - min_words + 1);
    for (size_t w = 0; w < words; ++w) {
      key += "w" + std::to_string(rng.Index(500)) + " ";
    }
    t.key = {Value(key)};
    t.impact = static_cast<double>(rng.UniformInt(1, 10));
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

TupleMapping RandomMapping(size_t n1, size_t n2, size_t edges,
                           uint64_t seed) {
  Rng rng(seed);
  TupleMapping mapping;
  for (size_t k = 0; k < edges; ++k) {
    mapping.emplace_back(rng.Index(n1), rng.Index(n2),
                         rng.UniformDouble(0.06, 0.98));
  }
  SortMapping(&mapping);
  mapping.erase(std::unique(mapping.begin(), mapping.end(),
                            [](const TupleMatch& a, const TupleMatch& b) {
                              return a.t1 == b.t1 && a.t2 == b.t2;
                            }),
                mapping.end());
  return mapping;
}

// --- similarity -----------------------------------------------------------

void BM_JaccardSimilarity(benchmark::State& state) {
  std::string a = "department of computer and information sciences";
  std::string b = "college of information and computer science";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSimilarity(a, b));
  }
}
BENCHMARK(BM_JaccardSimilarity);

void BM_JaroSimilarity(benchmark::State& state) {
  std::string a = "foodservice systems administration";
  std::string b = "food business management";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroSimilarity);

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "turfgrass management";
  std::string b = "turf grass managment";
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizedLevenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

// --- token interning --------------------------------------------------------

void BM_TokenDictionaryIntern(benchmark::State& state) {
  // Zipf-ish token stream: a small hot vocabulary plus a long tail.
  Rng rng(5);
  std::vector<std::string> stream;
  for (int i = 0; i < 4096; ++i) {
    size_t id = rng.Bernoulli(0.8) ? rng.Index(64) : rng.Index(4096);
    stream.push_back("tok" + std::to_string(id));
  }
  for (auto _ : state) {
    TokenDictionary dict;
    for (const std::string& tok : stream) {
      benchmark::DoNotOptimize(dict.Intern(tok));
    }
  }
}
BENCHMARK(BM_TokenDictionaryIntern);

void BM_JaccardTokenIds(benchmark::State& state) {
  // The interned counterpart of BM_JaccardSimilarity: id sets are cached,
  // so per-pair work is one uint32 merge-intersection.
  TokenDictionary dict;
  std::string a = "department of computer and information sciences";
  std::string b = "college of information and computer science";
  auto intern = [&](const std::string& s) {
    TokenIdSet ids;
    for (const std::string& tok : TokenizeWords(s)) {
      ids.push_back(dict.Intern(tok));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };
  TokenIdSet ia = intern(a), ib = intern(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardOfTokenIds(ia, ib));
  }
}
BENCHMARK(BM_JaccardTokenIds);

// Candidate scoring: the matching stage's hot loop — one combined key
// similarity per blocking candidate. The "Strings" variant re-tokenizes
// and string-compares per pair (the pre-interning pipeline); "Interned"
// tokenizes each tuple once up front and scores over cached token-id sets
// (includes the interning cost, amortized over the candidate set).

void BM_CandidateScoringStrings(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  CanonicalRelation t1 = RandomRelation(n, 41);
  CanonicalRelation t2 = RandomRelation(n, 42);
  CandidatePairs pairs = GenerateCandidates(t1, t2);
  for (auto _ : state) {
    double total = 0;
    for (const auto& [i, j] : pairs) {
      total += KeySimilarity(t1.tuples[i].key, t2.tuples[j].key,
                             StringMetric::kJaccard);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_CandidateScoringStrings)->Arg(500)->Arg(2000);

void BM_CandidateScoringInterned(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  CanonicalRelation t1 = RandomRelation(n, 41);
  CanonicalRelation t2 = RandomRelation(n, 42);
  CandidatePairs pairs = GenerateCandidates(t1, t2);
  for (auto _ : state) {
    TokenDictionary dict;
    InternedRelation i1(t1, &dict), i2(t2, &dict);
    double total = 0;
    for (const auto& [i, j] : pairs) {
      total += InternedKeySimilarity(i1, i, i2, j);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_CandidateScoringInterned)->Arg(500)->Arg(2000);

// Parallel candidate scoring: the same hot loop as "Interned", fanned out
// over the shared pipeline pool (args: n, threads). Per-pair work is one
// uint32 merge-intersection written to a private slot, so throughput
// should scale near-linearly with threads on a multicore machine and show
// no overhead at threads=1 (the serial inline path).
void BM_CandidateScoringParallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  CanonicalRelation t1 = RandomRelation(n, 41);
  CanonicalRelation t2 = RandomRelation(n, 42);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict), i2(t2, &dict);
  CandidatePairs pairs = GenerateCandidates(i1, i2);
  for (auto _ : state) {
    std::vector<double> sim =
        ScoreCandidates(i1, i2, pairs, StringMetric::kJaccard, threads);
    benchmark::DoNotOptimize(sim.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_CandidateScoringParallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4});

// Levenshtein candidate scoring with and without a similarity floor
// (args: n, floor_percent). The floor arms the length-bound early exit in
// NormalizedLevenshtein: pairs whose length difference alone proves
// sub-floor similarity skip the O(|a|·|b|) DP entirely. Keys here are
// length-skewed (1–8 tokens, the shape of real entity keys — compare
// IMDb's "CS" vs "Computer Science and Engineering"), which is exactly
// where blocking's loose token collisions produce many length-mismatched
// pairs for the bound to kill. floor_percent=0 is the exact baseline.
void BM_CandidateScoringLevenshteinFloor(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  double floor = static_cast<double>(state.range(1)) / 100.0;
  CanonicalRelation t1 = RandomRelation(n, 41, 1, 8);
  CanonicalRelation t2 = RandomRelation(n, 42, 1, 8);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict), i2(t2, &dict);
  CandidatePairs pairs = GenerateCandidates(i1, i2);
  for (auto _ : state) {
    std::vector<double> sim = ScoreCandidates(
        i1, i2, pairs, StringMetric::kLevenshtein, 1, floor);
    benchmark::DoNotOptimize(sim.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_CandidateScoringLevenshteinFloor)
    ->Args({500, 0})
    ->Args({500, 70})
    ->Args({500, 90})
    ->Args({2000, 0})
    ->Args({2000, 70})
    ->Args({2000, 90});

// Parallel InternedRelation construction (args: n, threads): phase 1
// tokenizes per tuple on the pool, phase 2 interns serially, so the
// dictionary stays deterministic while the tokenization scales.
void BM_InternedRelationBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  CanonicalRelation rel = RandomRelation(n, 43);
  for (auto _ : state) {
    TokenDictionary dict;
    InternedRelation interned(rel, &dict, /*with_bags=*/true, threads);
    benchmark::DoNotOptimize(interned.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_InternedRelationBuild)
    ->Args({4000, 1})
    ->Args({4000, 2})
    ->Args({4000, 4});

// --- blocking + mapping generation ----------------------------------------

void BM_Blocking(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  CanonicalRelation t1 = RandomRelation(n, 1);
  CanonicalRelation t2 = RandomRelation(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(t1, t2));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Blocking)->Arg(200)->Arg(1000)->Arg(4000)->Complexity();

// Blocking with parallel postings construction and probing (args: n,
// threads); candidates are bit-identical for every thread count.
void BM_BlockingParallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  CanonicalRelation t1 = RandomRelation(n, 1);
  CanonicalRelation t2 = RandomRelation(n, 2);
  TokenDictionary dict;
  InternedRelation i1(t1, &dict, /*with_bags=*/false, threads);
  InternedRelation i2(t2, &dict, /*with_bags=*/false, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(i1, i2, threads));
  }
}
BENCHMARK(BM_BlockingParallel)
    ->Args({4000, 1})
    ->Args({4000, 2})
    ->Args({4000, 4});

void BM_InitialMapping(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  CanonicalRelation t1 = RandomRelation(n, 3);
  CanonicalRelation t2 = RandomRelation(n, 4);
  MappingGenOptions opts;
  opts.num_threads = 1;  // the serial baseline; see BM_InitialMappingParallel
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateInitialMapping(t1, t2, GoldPairs{}, opts));
  }
}
BENCHMARK(BM_InitialMapping)->Arg(500)->Arg(2000);

// Full stage-1 mapping generation fanned out over the shared pool (args:
// n, threads): interning, blocking, and scoring all parallel.
void BM_InitialMappingParallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  CanonicalRelation t1 = RandomRelation(n, 3);
  CanonicalRelation t2 = RandomRelation(n, 4);
  MappingGenOptions opts;
  opts.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateInitialMapping(t1, t2, GoldPairs{}, opts));
  }
}
BENCHMARK(BM_InitialMappingParallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4});

// Warm vs cold MatchingContext on the end-to-end pipeline: a warm context
// skips execution, provenance, canonicalization, interning, and blocking,
// leaving only scoring + calibration + stage 2 — the repeated
// interactive-query serving path.
void BM_PipelineStage1(benchmark::State& state) {
  bool warm = state.range(0) != 0;
  SyntheticOptions gen;
  gen.n = 500;
  gen.d = 0.25;
  gen.v = 300;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  Explain3DConfig config;
  MatchingContext context;
  if (warm) {
    input.matching_context = &context;
    benchmark::DoNotOptimize(RunExplain3D(input, config).ok());  // fill
  }
  for (auto _ : state) {
    Result<PipelineResult> r = RunExplain3D(input, config);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PipelineStage1)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"warm"})
    ->Unit(benchmark::kMillisecond);

// Warm-cache serving cost of the reference-based PipelineResult: with the
// context primed, RunExplain3D copies nothing upstream of stage 2 — the
// result holds an ArtifactsPtr into the cached block, so warm time is
// scoring + calibration + stage-2 solve only. The counters report the
// per-call stage split; stage2_frac near the non-stage-2 remainder
// staying flat as data grows is the no-O(data)-copy signature. Compare
// BM_PipelineStage1/warm:1 across data sizes.
//
// The batch arg picks Explain3DConfig::batch_size, ws toggles
// Explain3DConfig::warm_start. At the default batch (1000) the biggest
// sub-problem hits the exact node cap, so the run is not fully optimal
// and the warm-start incumbent store never engages (warm_start_hits
// stays 0 — the no-cold-regression row). batch:60 partitions into
// fully-optimal sub-problems, so the prime run stores incumbents and
// every timed ws:1 iteration solves with per-unit pruning floors — the
// repeated-request serving shape; ws:0 is its cold reference.
void BM_PipelineWarmRun(benchmark::State& state) {
  SyntheticOptions gen;
  gen.n = static_cast<size_t>(state.range(0));
  gen.d = 0.25;
  gen.v = 300;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  Explain3DConfig config;
  config.batch_size = static_cast<size_t>(state.range(1));
  config.warm_start = state.range(2) != 0;
  MatchingContext context;
  input.matching_context = &context;
  benchmark::DoNotOptimize(RunExplain3D(input, config).ok());  // prime
  double stage1 = 0, stage2 = 0, total = 0;
  size_t warm_hits = 0;
  for (auto _ : state) {
    Result<PipelineResult> r = RunExplain3D(input, config);
    benchmark::DoNotOptimize(r.ok());
    stage1 += r.value().stage1_seconds();
    stage2 += r.value().stage2_seconds();
    total += r.value().total_seconds();
    warm_hits = r.value().core().stats.warm_start_hits;
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["stage1_ms"] = 1e3 * stage1 / iters;
  state.counters["stage2_ms"] = 1e3 * stage2 / iters;
  state.counters["stage2_frac"] = total > 0 ? stage2 / total : 0;
  state.counters["warm_start_hits"] = static_cast<double>(warm_hits);
}
BENCHMARK(BM_PipelineWarmRun)
    ->Args({500, 1000, 1})
    ->Args({2000, 1000, 1})
    ->Args({500, 60, 0})
    ->Args({500, 60, 1})
    ->ArgNames({"n", "batch", "ws"})
    ->Unit(benchmark::kMillisecond);

// --- LP / MILP solver -------------------------------------------------------

void BM_SimplexDense(benchmark::State& state) {
  // Random feasible LP with m rows, 2m variables.
  size_t m = static_cast<size_t>(state.range(0));
  Rng rng(7);
  milp::Model model;
  for (size_t j = 0; j < 2 * m; ++j) {
    model.AddContinuous("x" + std::to_string(j), 0, 10,
                        rng.UniformDouble(-1, 1));
  }
  for (size_t r = 0; r < m; ++r) {
    milp::LinExpr e;
    for (size_t j = 0; j < 2 * m; ++j) {
      if (rng.Bernoulli(0.2)) e.Add(j, rng.UniformDouble(-2, 2));
    }
    model.AddConstraint(e, milp::Relation::kLe,
                        rng.UniformDouble(5, 50));
  }
  milp::SimplexSolver solver(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetComplexityN(static_cast<int64_t>(m));
}
BENCHMARK(BM_SimplexDense)->Arg(20)->Arg(60)->Arg(150)->Complexity();

void BM_MilpKnapsack(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  milp::Model model;
  milp::LinExpr weight;
  for (size_t j = 0; j < n; ++j) {
    milp::VarId v = model.AddBinary(
        "b" + std::to_string(j),
        static_cast<double>(rng.UniformInt(1, 30)));
    weight.Add(v, static_cast<double>(rng.UniformInt(1, 12)));
  }
  model.AddConstraint(weight, milp::Relation::kLe,
                      static_cast<double>(3 * n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::MilpSolver(model).Solve());
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(12)->Arg(24);

// --- EXP-3D engines ---------------------------------------------------------

struct Exp3dInstance {
  CanonicalRelation t1, t2;
  TupleMapping mapping;
  AttributeMatch attr =
      AttributeMatch::Single("k", "k", SemanticRelation::kEquivalent);
  SubProblem whole;
};

Exp3dInstance MakeInstance(size_t n, size_t edges) {
  Exp3dInstance inst;
  inst.t1 = RandomRelation(n, 21);
  inst.t2 = RandomRelation(n, 22);
  inst.mapping = RandomMapping(n, n, edges, 23);
  for (size_t i = 0; i < n; ++i) {
    inst.whole.t1_ids.push_back(i);
    inst.whole.t2_ids.push_back(i);
  }
  for (size_t k = 0; k < inst.mapping.size(); ++k) {
    inst.whole.match_ids.push_back(k);
  }
  return inst;
}

void BM_MilpEncodeAndSolve(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Exp3dInstance inst = MakeInstance(n, n * 2);
  ProbabilityModel prob((Explain3DConfig()));
  MilpEncoder encoder(inst.t1, inst.t2, inst.mapping, inst.attr, prob);
  for (auto _ : state) {
    EncodedMilp enc = encoder.Encode(inst.whole);
    benchmark::DoNotOptimize(milp::MilpSolver(enc.model).Solve());
  }
}
BENCHMARK(BM_MilpEncodeAndSolve)->Arg(6)->Arg(12);

// ≡ units: both sides capped, so SolveComponentExact runs the polynomial
// max-weight matching engine.
void BM_OneToOneSolve(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Exp3dInstance inst = MakeInstance(n, n * 3);
  ProbabilityModel prob((Explain3DConfig()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveComponentExact(
        inst.t1, inst.t2, inst.mapping, inst.attr, prob, inst.whole));
  }
}
BENCHMARK(BM_OneToOneSolve)->Arg(20)->Arg(100)->Arg(400);

// ⊑ units: one side capped (the NP-hard many-to-one case), solved by the
// assignment branch & bound. `nodes` and `proven` show how far the
// default node cap carries the search.
void BM_AssignmentBnb(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Exp3dInstance inst = MakeInstance(n, n * 3);
  inst.attr = AttributeMatch::Single("k", "k", SemanticRelation::kLessGeneral);
  ProbabilityModel prob((Explain3DConfig()));
  size_t nodes = 0, proven = 0;
  for (auto _ : state) {
    Result<ExactSolveResult> r = SolveComponentExact(
        inst.t1, inst.t2, inst.mapping, inst.attr, prob, inst.whole);
    nodes += r.value().nodes;
    proven += r.value().proven_optimal ? 1 : 0;
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["nodes"] = static_cast<double>(nodes) / iters;
  state.counters["proven"] = static_cast<double>(proven) / iters;
}
BENCHMARK(BM_AssignmentBnb)->Arg(8)->Arg(12)->Arg(16);

// Warm starts (ROADMAP 2): the same solve re-run with the previous run's
// incumbent record seeding every unit's search as a prune-only floor.
// warm:0 is the cold baseline; warm:1 should show the node-count drop in
// the nodes counter (warm_hits confirms every engine unit was seeded).
void BM_SolverWarmStart(benchmark::State& state) {
  bool warm = state.range(1) != 0;
  size_t n = static_cast<size_t>(state.range(0));
  Exp3dInstance inst = MakeInstance(n, n * 2);
  Explain3DConfig config;
  Explain3DSolver solver(config);
  SolverIncumbents rec;
  Explain3DInput record_input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  record_input.incumbents_out = &rec;
  benchmark::DoNotOptimize(solver.Solve(record_input).ok());
  Explain3DInput input{&inst.t1, &inst.t2, inst.attr, inst.mapping};
  if (warm) input.warm_start = &rec;
  size_t nodes = 0, hits = 0;
  for (auto _ : state) {
    Result<Explain3DResult> r = solver.Solve(input);
    nodes += r.value().stats.total_nodes;
    hits += r.value().stats.warm_start_hits;
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["nodes"] = static_cast<double>(nodes) / iters;
  state.counters["warm_hits"] = static_cast<double>(hits) / iters;
  state.counters["record_complete"] = rec.complete ? 1 : 0;
}
BENCHMARK(BM_SolverWarmStart)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({24, 0})
    ->Args({24, 1})
    ->ArgNames({"n", "warm"});

// Parallel branch & bound (ROADMAP 2): the B&B expands nodes in
// deterministic waves and fans the wave's LP relaxations across the
// shared pool. The Section-3.2 encoding is the shape wave parallelism
// targets — each node's LP carries the full constraint system, so the
// per-node work is large enough to amortize the fan-out. The solution is
// bit-identical for every thread count; only wall-clock may move.
void BM_SolverParallelBnb(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  Exp3dInstance inst = MakeInstance(7, 14);
  ProbabilityModel prob((Explain3DConfig()));
  MilpEncoder encoder(inst.t1, inst.t2, inst.mapping, inst.attr, prob);
  EncodedMilp enc = encoder.Encode(inst.whole);
  milp::MilpOptions opts;
  opts.num_threads = threads;
  size_t nodes = 0;
  for (auto _ : state) {
    milp::MilpSolver solver(enc.model, opts);
    benchmark::DoNotOptimize(solver.Solve());
    nodes += solver.stats().nodes;
  }
  state.counters["nodes"] =
      static_cast<double>(nodes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SolverParallelBnb)->Arg(1)->Arg(2)->Arg(4);

// --- partitioning ------------------------------------------------------------

void BM_GraphPartitioner(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  TupleMapping mapping = RandomMapping(n, n, n * 4, 31);
  Graph g = BuildMatchGraph(n, n, mapping, true, 0.1, 0.9, 100);
  PartitionOptions opts;
  opts.num_parts = std::max<size_t>(2, 2 * n / 1000);
  opts.max_part_weight = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionGraph(g, opts));
  }
}
BENCHMARK(BM_GraphPartitioner)->Arg(2000)->Arg(8000);

void BM_PrePartition(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  TupleMapping mapping = RandomMapping(n, n, n * 4, 37);
  Explain3DConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrePartition(n, n, mapping, config, 1000));
  }
}
BENCHMARK(BM_PrePartition)->Arg(2000)->Arg(8000);

// --- persistence tier --------------------------------------------------------

// One pipeline-built stage-1 block at the benchmark's data size, via the
// same harvest the service's write-behind uses.
std::pair<std::string, ArtifactsPtr> SnapshotFixture(size_t n) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 300;
  SyntheticDataset data = GenerateSynthetic(gen).value();
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  MatchingContext context;
  input.matching_context = &context;
  benchmark::DoNotOptimize(RunExplain3D(input, Explain3DConfig()).ok());
  return context.Entries().front();
}

// Full snapshot write: encode (checksummed segment layout) + atomic
// write + fsync. This is the per-block cost of a write-behind pass.
void BM_SnapshotSave(benchmark::State& state) {
  auto [key, art] = SnapshotFixture(static_cast<size_t>(state.range(0)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench-snapshot.e3ds")
          .string();
  size_t bytes = 0;
  for (auto _ : state) {
    std::vector<uint8_t> enc = storage::EncodeArtifacts(key, *art);
    bytes = enc.size();
    benchmark::DoNotOptimize(
        storage::WriteFileAtomic(path, enc.data(), enc.size()).ok());
  }
  state.counters["file_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotSave)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// Warm-restart load: mmap + checksum verification + zero-copy wrap of
// the columnar arrays into an ArtifactsPtr. The CSR columns are
// borrowed from the mapping, so this cost stays flat in the column
// payload — compare against BM_SnapshotSave, which streams every byte.
void BM_SnapshotMmapLoad(benchmark::State& state) {
  auto [key, art] = SnapshotFixture(static_cast<size_t>(state.range(0)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench-snapshot-load.e3ds")
          .string();
  std::vector<uint8_t> enc = storage::EncodeArtifacts(key, *art);
  if (!storage::WriteFileAtomic(path, enc.data(), enc.size()).ok()) {
    state.SkipWithError("snapshot write failed");
    return;
  }
  for (auto _ : state) {
    Result<storage::MmapFile> file = storage::MmapFile::Open(path);
    Result<storage::DecodedArtifacts> decoded = storage::DecodeArtifacts(
        std::make_shared<storage::MmapFile>(std::move(file).value()));
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.counters["file_bytes"] = static_cast<double>(enc.size());
  state.SetBytesProcessed(static_cast<int64_t>(enc.size()) *
                          state.iterations());
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotMmapLoad)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace explain3d

BENCHMARK_MAIN();
