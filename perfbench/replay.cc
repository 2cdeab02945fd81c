// Traced run: replays a workload's operations through each layer's
// public functions, timing every call from outside the program.
//
// The replay mirrors the service's cache behaviour: a key's stage-1
// front end (execute, provenance, canonicalize, intern, block) is built
// once and reused by its repeats, exactly as the stage-1 cache serves
// them, and re-registering view 2 (service-mix) retires every entry.
// LRU eviction under a cache budget is not mirrored, so on service-mix
// the replay under-counts stage-1 work relative to the service.
//
// Layers on the blocking path of a request: relational, provenance,
// matching (with simd beneath it), core (Explain3DSolver::Solve, with
// partition and milp beneath it). SmartPartition and the greedy
// baseline are timed in extra calls that do not count towards the
// blocking path.

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "baselines/greedy.h"
#include "common/thread_pool.h"
#include "core/partitioning.h"
#include "core/probability_model.h"
#include "core/solver.h"
#include "harness.h"
#include "matching/blocking.h"
#include "matching/token_interning.h"
#include "provenance/canonical.h"
#include "provenance/provenance.h"
#include "relational/executor.h"
#include "relational/parser.h"

namespace perfbench {

using namespace explain3d;

namespace {

/// The cacheable stage-1 front end of one key. Heap-allocated and never
/// moved: the interned relations point into t1/t2/dict.
struct FrontEnd {
  ProvenanceRelation p1, p2;
  CanonicalRelation t1, t2;
  TokenDictionary dict;
  std::unique_ptr<InternedRelation> i1, i2;
  CandidatePairs candidates;
  SolverIncumbents incumbents;  ///< complete record of an earlier solve
  bool has_incumbents = false;
};

/// Per-layer time (seconds) and work counters, summed over replayed ops.
struct LayerTotals {
  double relational = 0, derive = 0, canonicalize = 0;
  double intern = 0, block = 0, score = 0;
  double partition = 0, solve = 0, greedy = 0;
  double op_wall = 0;  ///< blocking-path wall time of each replayed op
  double rows = 0, candidates = 0, yield = 0, largest_unit = 0;
  double bound_gap = 0, minus_greedy = 0;
  double service_run = 0;  ///< the same ops' PipelineResult::total_seconds
  size_t ops = 0;

  double Blocking() const {
    return relational + derive + canonicalize + intern + block + score +
           solve;
  }
};

/// Times `fn` into `*acc` and returns its result.
template <typename Fn>
auto Timed(double* acc, Fn fn) -> decltype(fn()) {
  Clock::time_point start = Clock::now();
  auto out = fn();
  *acc += SecondsSince(start);
  return out;
}

template <typename T>
T Must(Result<T> r, const char* what, std::vector<std::string>* failures) {
  if (!r.ok()) {
    failures->push_back(std::string("replay ") + what + ": " +
                        r.status().ToString());
    return T();
  }
  return std::move(r).value();
}

std::unique_ptr<FrontEnd> BuildFrontEnd(const Database& db1,
                                        const Database& db2,
                                        const RequestSpec& spec,
                                        size_t threads, LayerTotals* t,
                                        std::vector<std::string>* failures) {
  auto fe = std::make_unique<FrontEnd>();
  const AttributeMatch& attr = spec.attr_matches.front();
  bool ok = Timed(&t->relational, [&] {
    Result<SelectStmtPtr> s1 = ParseSql(spec.sql1);
    Result<SelectStmtPtr> s2 = ParseSql(spec.sql2);
    if (!s1.ok() || !s2.ok()) return false;
    return Executor(&db1).ExecuteScalar(*s1.value()).ok() &&
           Executor(&db2).ExecuteScalar(*s2.value()).ok();
  });
  if (!ok) {
    failures->push_back("replay: query execution failed for " + spec.key);
    return nullptr;
  }
  // Statements are parsed again outside the relational timer; provenance
  // takes the parsed statement.
  SelectStmtPtr s1 = Must(ParseSql(spec.sql1), "parse", failures);
  SelectStmtPtr s2 = Must(ParseSql(spec.sql2), "parse", failures);
  if (s1 == nullptr || s2 == nullptr) return nullptr;
  fe->p1 = Timed(&t->derive, [&] {
    return Must(DeriveProvenance(db1, *s1), "provenance", failures);
  });
  fe->p2 = Timed(&t->derive, [&] {
    return Must(DeriveProvenance(db2, *s2), "provenance", failures);
  });
  fe->t1 = Timed(&t->canonicalize, [&] {
    return Must(Canonicalize(fe->p1, attr.attrs1), "canonicalize", failures);
  });
  fe->t2 = Timed(&t->canonicalize, [&] {
    return Must(Canonicalize(fe->p2, attr.attrs2), "canonicalize", failures);
  });
  t->rows += static_cast<double>(fe->p1.size() + fe->p2.size());
  Timed(&t->intern, [&] {
    bool bags = NeedsKeyBags(fe->t1, fe->t2);
    fe->i1 = std::make_unique<InternedRelation>(fe->t1, &fe->dict, bags,
                                                threads);
    fe->i2 = std::make_unique<InternedRelation>(fe->t2, &fe->dict, bags,
                                                threads);
    return 0;
  });
  fe->candidates = Timed(&t->block, [&] {
    return spec.mapping_options.use_blocking
               ? GenerateCandidates(*fe->i1, *fe->i2, threads)
               : AllPairs(fe->t1.size(), fe->t2.size());
  });
  return fe;
}

/// Largest solve unit: connected components of each part's matches
/// (isolated tuples are singleton units), as Explain3DSolver splits them.
size_t LargestUnit(const std::vector<SubProblem>& parts, size_t n1,
                   const TupleMapping& mapping) {
  size_t largest = 0;
  std::unordered_map<size_t, size_t> parent;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const SubProblem& part : parts) {
    parent.clear();
    for (size_t i : part.t1_ids) parent[i] = i;
    for (size_t j : part.t2_ids) parent[n1 + j] = n1 + j;
    for (size_t m : part.match_ids) {
      size_t a = find(mapping[m].t1), b = find(n1 + mapping[m].t2);
      if (a != b) parent[a] = b;
    }
    std::unordered_map<size_t, size_t> size;
    for (auto& [node, unused] : parent) {
      (void)unused;
      largest = std::max(largest, ++size[find(node)]);
    }
  }
  return largest;
}

}  // namespace

MetricMap ReplayLayers(WorkloadRun* run, double seconds) {
  std::vector<std::string>* failures = &run->check_failures;
  LayerTotals t;
  std::unordered_map<std::string, std::unique_ptr<FrontEnd>> cache;
  uint64_t cache_version = 0;

  auto solve = [&](const RequestSpec& spec, FrontEnd* fe,
                   const TupleMapping& mapping, double* bound,
                   SolverIncumbents* collected) -> Result<Explain3DResult> {
    Explain3DInput in;
    in.t1 = &fe->t1;
    in.t2 = &fe->t2;
    in.attr = spec.attr_matches.front();
    in.mapping = mapping;
    in.incumbent_bound_out = bound;
    if (spec.config.warm_start) {
      if (fe->has_incumbents) in.warm_start = &fe->incumbents;
      in.incumbents_out = collected;
    }
    return Explain3DSolver(spec.config).Solve(in);
  };
  auto gold_for = [&](const RequestSpec& spec, const FrontEnd& fe) {
    CalibrationOracle oracle = MakeOracle(spec);
    return oracle ? oracle(fe.t1, fe.t2, fe.p1.table, fe.p2.table)
                  : spec.calibration_gold;
  };
  auto options_for = [](const RequestSpec& spec) {
    MappingGenOptions opts = spec.mapping_options;
    opts.num_threads = ResolveThreads(spec.config.num_threads);
    return opts;
  };

  if (run->replay_prewarmed) {
    // Mirror the setup: each key's front end built and solved once, so
    // the cache (and a complete incumbent record) is in place.
    LayerTotals untimed;
    for (const RequestSpec& spec : run->specs) {
      size_t threads = ResolveThreads(spec.config.num_threads);
      auto fe = BuildFrontEnd(*run->db1_versions[0], *run->db2_versions[0],
                              spec, threads, &untimed, failures);
      if (fe == nullptr) continue;
      Result<TupleMapping> mapping = GenerateInitialMapping(
          *fe->i1, *fe->i2, fe->candidates, gold_for(spec, *fe),
          options_for(spec));
      if (!mapping.ok()) continue;
      double bound = 0;
      SolverIncumbents collected;
      if (solve(spec, fe.get(), mapping.value(), &bound, &collected).ok() &&
          collected.complete) {
        fe->incumbents = std::move(collected);
        fe->has_incumbents = true;
      }
      cache[spec.key] = std::move(fe);
    }
  }

  Clock::time_point replay_start = Clock::now();
  for (const OpRecord& op : run->ops) {
    if (t.ops > 0 && SecondsSince(replay_start) >= seconds) break;
    if (!op.ok) continue;
    const RequestSpec& spec = run->specs[op.spec];
    const Database& db1 = *run->db1_versions[0];
    const Database& db2 =
        *run->db2_versions[op.data_version % run->db2_versions.size()];
    size_t threads = ResolveThreads(spec.config.num_threads);
    if (op.data_version != cache_version) {
      cache.clear();  // re-registration retired every entry
      cache_version = op.data_version;
    }

    Clock::time_point op_start = Clock::now();
    FrontEnd* fe = nullptr;
    std::unique_ptr<FrontEnd> uncached;
    auto it = run->replay_caches ? cache.find(spec.key) : cache.end();
    if (it != cache.end()) {
      fe = it->second.get();
    } else {
      uncached = BuildFrontEnd(db1, db2, spec, threads, &t, failures);
      if (uncached == nullptr) continue;
      fe = uncached.get();
      if (run->replay_caches) cache[spec.key] = std::move(uncached);
    }

    Result<TupleMapping> mapping = Timed(&t.score, [&] {
      return GenerateInitialMapping(*fe->i1, *fe->i2, fe->candidates,
                                    gold_for(spec, *fe), options_for(spec));
    });
    if (!mapping.ok()) {
      failures->push_back("replay mapping: " + mapping.status().ToString());
      continue;
    }
    double bound = std::nan("");
    SolverIncumbents collected;
    Result<Explain3DResult> solved = Timed(&t.solve, [&] {
      return solve(spec, fe, mapping.value(), &bound, &collected);
    });
    t.op_wall += SecondsSince(op_start);
    if (!solved.ok()) {
      failures->push_back("replay solve: " + solved.status().ToString());
      continue;
    }
    if (collected.complete && !fe->has_incumbents) {
      fe->incumbents = std::move(collected);
      fe->has_incumbents = true;
    }

    // Extra calls, off the blocking path.
    SmartPartitionStats pstats;
    Result<std::vector<SubProblem>> parts = Timed(&t.partition, [&] {
      return SmartPartition(fe->t1.size(), fe->t2.size(), mapping.value(),
                            spec.config, &pstats);
    });
    if (parts.ok()) {
      t.largest_unit += static_cast<double>(
          LargestUnit(parts.value(), fe->t1.size(), mapping.value()));
    }
    ProbabilityModel prob(spec.config);
    double greedy = Timed(&t.greedy, [&] {
      ExplanationSet g = GreedyBaseline(fe->t1, fe->t2, mapping.value(),
                                        spec.attr_matches.front(), prob);
      return prob.Score(fe->t1, fe->t2, mapping.value(), g);
    });

    const double objective = solved.value().explanations.log_probability;
    t.candidates += static_cast<double>(fe->candidates.size());
    t.yield += fe->candidates.empty()
                   ? 0
                   : static_cast<double>(mapping.value().size()) /
                         static_cast<double>(fe->candidates.size());
    t.bound_gap += std::isfinite(bound) ? bound - objective : 0;
    t.minus_greedy += objective - greedy;
    t.service_run += op.run_seconds;
    ++t.ops;

    // Output check: the replay reproduces the service's answer exactly.
    if (!(Digest(solved.value(), false) == op.digest)) {
      failures->push_back("replay: answer differs from the service for " +
                          spec.key.substr(0, 60));
    }
  }

  const double n = std::max<double>(1, static_cast<double>(t.ops));
  const double blocking = t.Blocking();
  auto share = [&](double v) { return blocking > 0 ? v / blocking : 0; };

  // Per-op counters read from the service's own results.
  double nodes = 0, units = 0, milp = 0, assign = 0, warm = 0, proven = 0;
  double ok_ops = 0;
  for (const OpRecord& op : run->ops) {
    if (!op.ok) continue;
    nodes += static_cast<double>(op.nodes);
    units += static_cast<double>(op.units);
    milp += static_cast<double>(op.milp_units);
    assign += static_cast<double>(op.assignment_units);
    warm += static_cast<double>(op.warm_start_hits);
    proven += op.digest.proven_optimal ? 1 : 0;
    ++ok_ops;
  }
  const double k = std::max(1.0, ok_ops);

  MetricMap m;
  m["relational.exec_s"] = {t.relational / n, "s"};
  m["provenance.derive_s"] = {t.derive / n, "s"};
  m["provenance.canonicalize_s"] = {t.canonicalize / n, "s"};
  m["provenance.rows"] = {t.rows / n, "count"};
  m["matching.intern_s"] = {t.intern / n, "s"};
  m["matching.block_s"] = {t.block / n, "s"};
  m["matching.candidates"] = {t.candidates / n, "count"};
  m["matching.score_s"] = {t.score / n, "s"};
  m["matching.match_yield"] = {t.yield / n, "ratio"};
  m["core.partition_s"] = {t.partition / n, "s"};
  m["core.solve_s"] = {t.solve / n, "s"};
  m["core.nodes"] = {nodes / k, "count"};
  m["core.units"] = {units / k, "count"};
  m["core.largest_unit_tuples"] = {t.largest_unit / n, "count"};
  m["core.milp_units"] = {milp / k, "count"};
  m["core.assignment_units"] = {assign / k, "count"};
  m["core.warm_start_hits"] = {warm / k, "count"};
  m["core.bound_gap"] = {t.bound_gap / n, "log-prob"};
  m["core.proven_optimal_share"] = {proven / k, "ratio"};
  m["baselines.greedy_s"] = {t.greedy / n, "s"};
  m["baselines.objective_minus_greedy"] = {t.minus_greedy / n, "log-prob"};
  m["share.stage1"] = {share(blocking - t.solve), "ratio"};
  m["share.relational"] = {share(t.relational), "ratio"};
  m["share.provenance"] = {share(t.derive + t.canonicalize), "ratio"};
  m["share.matching"] = {share(t.intern + t.block + t.score), "ratio"};
  m["share.core"] = {share(t.solve), "ratio"};
  m["trace.replayed_ops"] = {static_cast<double>(t.ops), "count"};
  m["trace.unattributed_s"] = {(t.service_run - blocking) / n, "s"};
  m["trace.overhead_share"] = {
      t.service_run > 0 ? (t.op_wall - t.service_run) / t.service_run : 0,
      "ratio"};
  return m;
}

}  // namespace perfbench
