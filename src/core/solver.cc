#include "core/solver.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/exact_solver.h"

namespace explain3d {

namespace {

/// Splits one sub-problem into its connected components (indices stay
/// global). Matches of `sub` are grouped by the component of their T1
/// endpoint.
std::vector<SubProblem> SplitIntoComponents(const SubProblem& sub,
                                            const TupleMapping& mapping,
                                            size_t n1, size_t n2) {
  // Union-find over the tuples present in the sub-problem.
  std::vector<size_t> parent(n1 + n2);
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t mid : sub.match_ids) {
    const TupleMatch& m = mapping[mid];
    size_t ra = find(m.t1), rb = find(n1 + m.t2);
    if (ra != rb) parent[ra] = rb;
  }
  std::unordered_map<size_t, size_t> root_to_comp;
  std::vector<SubProblem> out;
  auto comp_of = [&](size_t node) {
    size_t root = find(node);
    auto it = root_to_comp.find(root);
    if (it != root_to_comp.end()) return it->second;
    root_to_comp.emplace(root, out.size());
    out.emplace_back();
    return out.size() - 1;
  };
  for (size_t g : sub.t1_ids) out[comp_of(g)].t1_ids.push_back(g);
  for (size_t g : sub.t2_ids) out[comp_of(n1 + g)].t2_ids.push_back(g);
  for (size_t mid : sub.match_ids) {
    out[comp_of(mapping[mid].t1)].match_ids.push_back(mid);
  }
  return out;
}

/// What one independent unit solve produces; merged in unit order so the
/// combined result does not depend on scheduling.
struct UnitOutcome {
  Status status = Status::OK();
  ExplanationSet explanations;
  size_t total_nodes = 0;
  size_t exact_solved = 0;
  bool all_optimal = true;
  /// Admissible upper bound on this unit's optimal objective. Equal to
  /// the objective when the unit solved to optimality; an optimistic
  /// bound when a solver was interrupted mid-search; NaN when the unit
  /// never ran (entry cancel / skip) — the collection pass fills those
  /// with the search-free root bound.
  double bound = std::numeric_limits<double>::quiet_NaN();
  /// The unit's achieved objective (const edge terms included) — only
  /// meaningful when status is OK. Recorded into the warm-start
  /// incumbents together with the fingerprint.
  double objective = 0;
  uint64_t fingerprint = 0;  ///< UnitFingerprint of the solved unit
  bool warm_hit = false;     ///< seeded from a fingerprint-matched incumbent
};

/// Feeds a double's bit pattern into the CounterHash chain — exact-match
/// semantics, so any drift in an impact or probability (even below every
/// comparison tolerance) invalidates the fingerprint.
uint64_t HashDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return CounterHash(h, bits);
}

/// Fingerprint of everything that determines one unit's optimum: the
/// probability-model constants, aggregate functions, degree caps, the
/// unit's tuple ids and impacts, and its matches (endpoints +
/// probability bits). A warm-start incumbent is seeded only on an exact
/// fingerprint match — the guard that makes stale records harmless.
uint64_t UnitFingerprint(const SubProblem& unit, const CanonicalRelation& t1,
                         const CanonicalRelation& t2,
                         const TupleMapping& mapping,
                         const ProbabilityModel& prob, DegreeCaps caps) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  h = HashDouble(h, prob.a);
  h = HashDouble(h, prob.b);
  h = HashDouble(h, prob.c);
  h = CounterHash(h, static_cast<uint64_t>(t1.agg));
  h = CounterHash(h, static_cast<uint64_t>(t2.agg));
  h = CounterHash(h, (caps.side1 ? 1u : 0u) | (caps.side2 ? 2u : 0u));
  for (size_t g : unit.t1_ids) {
    h = CounterHash(h, g);
    h = HashDouble(h, t1.tuples[g].impact);
  }
  for (size_t g : unit.t2_ids) {
    h = CounterHash(h, g);
    h = HashDouble(h, t2.tuples[g].impact);
  }
  for (size_t mid : unit.match_ids) {
    const TupleMatch& m = mapping[mid];
    h = CounterHash(h, mid);
    h = CounterHash(h, m.t1);
    h = CounterHash(h, m.t2);
    h = HashDouble(h, m.p);
  }
  return h;
}

void AppendExplanations(ExplanationSet* into, const ExplanationSet& from) {
  into->delta.insert(into->delta.end(), from.delta.begin(), from.delta.end());
  into->value_changes.insert(into->value_changes.end(),
                             from.value_changes.begin(),
                             from.value_changes.end());
  into->evidence.insert(into->evidence.end(), from.evidence.begin(),
                        from.evidence.end());
}

/// Solves one unit (a connected component or an undecomposed part) with
/// the exact engines of core/exact_solver.h. Thread-safe: only reads the
/// shared inputs and writes its own outcome. `cancel` is polled on entry
/// (the between-sub-problems cancellation point, which also carries the
/// solve.unit fault probe) and handed to the engine for node-granularity
/// polling. `warm` (nullable) is the unit's warm-start record; it is
/// consulted only when its fingerprint matches.
UnitOutcome SolveUnit(const SubProblem& unit, const CanonicalRelation& t1,
                      const CanonicalRelation& t2,
                      const Explain3DInput& input, DegreeCaps caps,
                      const ProbabilityModel& prob,
                      const Explain3DConfig& config,
                      const CancelToken* cancel, const UnitIncumbent* warm) {
  UnitOutcome out;
  out.status = CheckCancel(cancel);
  if (out.status.ok()) out.status = FAULT_POINT("solve.unit");
  if (!out.status.ok()) return out;
  out.fingerprint = UnitFingerprint(unit, t1, t2, input.mapping, prob, caps);
  if (unit.match_ids.empty()) {
    // No candidate matches: every tuple is a provenance explanation.
    for (size_t g : unit.t1_ids) {
      out.explanations.delta.push_back({Side::kLeft, g});
    }
    for (size_t g : unit.t2_ids) {
      out.explanations.delta.push_back({Side::kRight, g});
    }
    // The all-delta solution IS this unit's optimum: its bound.
    out.bound = prob.a *
                static_cast<double>(unit.t1_ids.size() + unit.t2_ids.size());
    out.objective = out.bound;
    return out;
  }

  // Assemble the unit's prune-only floor: the warm-start incumbent (only
  // on an exact fingerprint match) and/or the greedy selection's score
  // restricted to this unit. Both sit provably below the optimum after
  // the kWarmStartMargin haircut, so they cut search without ever
  // changing the accepted solution.
  double floor_obj = std::numeric_limits<double>::quiet_NaN();
  if (warm != nullptr && warm->fingerprint == out.fingerprint) {
    out.warm_hit = true;
    floor_obj = warm->objective;
  }
  if (input.greedy_selection != nullptr) {
    Result<double> g =
        ScoreUnitSelection(t1, t2, input.mapping, input.attr, prob, unit,
                           *input.greedy_selection);
    if (g.ok() && (!std::isfinite(floor_obj) || g.value() > floor_obj)) {
      floor_obj = g.value();
    }
  }

  // An interrupted exact solve writes its root bound straight into
  // out.bound (and leaves it NaN on a non-cancellation failure). The
  // floor rides along as the solver's warm objective (it applies the
  // margin and its own cold-rerun defense internally).
  Result<ExactSolveResult> exact =
      SolveComponentExact(t1, t2, input.mapping, input.attr, prob, unit,
                          config.exact_max_nodes, cancel, &out.bound,
                          floor_obj);
  if (!exact.ok()) {
    out.status = exact.status();
    return out;
  }
  out.total_nodes = exact.value().nodes;
  out.all_optimal = exact.value().proven_optimal;
  out.bound = exact.value().bound;
  out.objective = exact.value().objective;
  AppendExplanations(&out.explanations, exact.value().explanations);
  out.exact_solved = 1;
  return out;
}

}  // namespace

Result<Explain3DResult> Explain3DSolver::Solve(
    const Explain3DInput& input) const {
  if (input.t1 == nullptr || input.t2 == nullptr) {
    return Status::InvalidArgument("canonical relations must be provided");
  }
  const CanonicalRelation& t1 = *input.t1;
  const CanonicalRelation& t2 = *input.t2;
  for (const TupleMatch& m : input.mapping) {
    if (m.t1 >= t1.size() || m.t2 >= t2.size()) {
      return Status::InvalidArgument("mapping references missing tuples");
    }
    if (!(m.p > 0.0 && m.p < 1.0)) {
      return Status::InvalidArgument(
          "match probabilities must lie strictly inside (0, 1); clamp "
          "with PruneAndClamp first");
    }
  }

  const DegreeCaps caps = EffectiveDegreeCaps(t1, t2, input.attr);
  if (!caps.side1 && !caps.side2) {
    return Status::InvalidArgument(
        "many-to-many attribute matches admit no valid mapping");
  }

  Explain3DResult result;

  // Section 4: bounded-size sub-problems.
  E3D_ASSIGN_OR_RETURN(
      std::vector<SubProblem> parts,
      SmartPartition(t1.size(), t2.size(), input.mapping, config_,
                     &result.stats.partition));

  Timer solve_timer;

  // Flatten partitions into the independent units stage 2 actually solves
  // (per-part connected components when decomposition is on).
  std::vector<SubProblem> units;
  for (SubProblem& part : parts) {
    if (part.num_tuples() == 0) continue;
    if (config_.decompose_components) {
      std::vector<SubProblem> split =
          SplitIntoComponents(part, input.mapping, t1.size(), t2.size());
      for (SubProblem& unit : split) units.push_back(std::move(unit));
    } else {
      units.push_back(std::move(part));
    }
  }
  result.stats.num_subproblems = units.size();

  // Cancellation scope of this solve: the caller's token, optionally
  // tightened by the config's stage-2 wall-clock budget. Routing the
  // budget through a deadline token (instead of the old per-component
  // time_limit_seconds cutoff) means a blown budget FAILS the call with
  // kDeadlineExceeded — it can never switch a component to a different
  // solver mid-run, so surviving results stay bit-identical under any
  // slowdown (TSan, load, cold caches).
  const CancelToken* cancel = input.cancel;
  std::optional<CancelToken> budget_token;
  if (config_.milp_time_limit_seconds > 0) {
    budget_token.emplace(config_.milp_time_limit_seconds, input.cancel);
    cancel = &*budget_token;
  }

  // Solve every unit independently — concurrently when configured — into
  // an outcome slot per unit, then merge in unit order. The merged result
  // is bit-identical for any thread count.
  size_t threads = ResolveThreads(config_.num_threads);
  // The warm-start record is consulted only when it covers exactly this
  // unit decomposition; per-unit fingerprints then guard every seed.
  const SolverIncumbents* warm = input.warm_start;
  if (warm != nullptr &&
      (!warm->complete || warm->units.size() != units.size())) {
    warm = nullptr;
  }
  std::vector<UnitOutcome> outcomes(units.size());
  std::atomic<bool> failed{false};
  ParallelFor(threads, units.size(), [&](size_t i) {
    // Once any unit fails the whole Solve returns its error, so skip the
    // remaining units instead of burning minutes on a doomed call (the
    // serial loop bailed out on the first error too). SolveUnit's entry
    // poll is the per-sub-problem cancellation point.
    if (failed.load(std::memory_order_relaxed)) return;
    outcomes[i] =
        SolveUnit(units[i], t1, t2, input, caps, prob_, config_, cancel,
                  warm != nullptr ? &warm->units[i] : nullptr);
    if (!outcomes[i].status.ok()) {
      failed.store(true, std::memory_order_relaxed);
    }
  });

  if (input.incumbent_bound_out != nullptr) {
    // Units partition the tuples and matches, so the per-unit objectives
    // (and hence their admissible bounds) sum to a bound on the full
    // log-probability score. Units that never ran — entry cancel, or
    // skipped after another unit failed — get the search-free root bound;
    // if even that fails the total stays NaN.
    double total = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      double b = outcomes[i].bound;
      if (!std::isfinite(b)) {
        Result<double> root = ComponentOptimisticBound(
            t1, t2, input.mapping, input.attr, prob_, units[i]);
        if (!root.ok()) {
          total = std::numeric_limits<double>::quiet_NaN();
          break;
        }
        b = root.value();
      }
      total += b;
    }
    *input.incumbent_bound_out = total;
  }

  for (const UnitOutcome& out : outcomes) {
    if (!out.status.ok()) return out.status;
    AppendExplanations(&result.explanations, out.explanations);
    result.stats.total_nodes += out.total_nodes;
    result.stats.exact_solved += out.exact_solved;
    result.stats.all_optimal &= out.all_optimal;
    result.stats.warm_start_hits += out.warm_hit ? 1 : 0;
  }
  result.stats.solve_seconds = solve_timer.Seconds();

  result.explanations.Normalize();
  result.explanations.log_probability =
      prob_.Score(t1, t2, input.mapping, result.explanations);

  if (input.incumbents_out != nullptr) {
    // Record what this solve proved, in unit order. Only a fully-optimal
    // run is marked complete (storable): a truncated unit's incumbent is
    // feasible but unproven, and seeding from it could legitimize a
    // different truncation point on the next run.
    SolverIncumbents rec;
    rec.units.reserve(outcomes.size());
    for (const UnitOutcome& out : outcomes) {
      rec.units.push_back({out.fingerprint, out.objective});
    }
    rec.objective = result.explanations.log_probability;
    rec.complete = result.stats.all_optimal;
    *input.incumbents_out = std::move(rec);
  }
  return result;
}

}  // namespace explain3d
