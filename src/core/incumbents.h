// Warm-start incumbent records — the cacheable by-product of a stage-2
// solve (ROADMAP item 2).
//
// A completed, fully-optimal solve records one UnitIncumbent per solve
// unit: the unit's optimal objective plus a fingerprint of everything
// that determined it (tuples, matches, probabilities, probability-model
// constants, degree caps). A later solve over the same cache key seeds
// each unit's branch & bound with the recorded objective minus
// kWarmStartMargin as a PRUNE-ONLY floor — subtrees that provably cannot
// contain the optimum are cut from node one, while the strict acceptance
// tests are untouched, so the warm solve finds the exact same tie-broken
// solution as a cold one. A fingerprint mismatch (mapping drift, config
// drift, stale entry) simply skips the seeding: stale incumbents are
// harmless by construction, never consulted as bounds.

#ifndef EXPLAIN3D_CORE_INCUMBENTS_H_
#define EXPLAIN3D_CORE_INCUMBENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace explain3d {

/// Margin subtracted from a recorded (or greedy) objective before it is
/// used as a pruning floor. Strictly wider than every comparison
/// tolerance in the solvers (1e-12 leaf acceptance, 1e-9 MILP gap) and
/// far below any real objective difference (log-probability deltas), so
/// the floor sits provably BELOW the optimum: it can prune only subtrees
/// that cannot contain an optimal solution, never the optimum's own
/// path — the keystone of the warm ≡ cold bit-identity contract.
constexpr double kWarmStartMargin = 1e-7;

/// One solve unit's recorded optimum.
struct UnitIncumbent {
  /// Chained CounterHash over the unit's tuples, matches, probabilities,
  /// probability-model constants, aggregate functions, and degree caps
  /// (see UnitFingerprint in core/solver.cc). Seeding requires an exact
  /// match.
  uint64_t fingerprint = 0;
  /// The unit's proven-optimal objective (includes the unit's constant
  /// edge terms — the same scale as ExactSolveResult::objective).
  double objective = 0;
};

/// All recorded optima of one solve, in unit order, plus the total.
struct SolverIncumbents {
  /// Total objective (explanations.log_probability) of the recording run.
  double objective = 0;
  /// True when every unit solved to proven optimality and the record is
  /// safe to store/seed from. Partial or degraded runs never record.
  bool complete = false;
  std::vector<UnitIncumbent> units;
};

/// Shared-ownership handle used by the MatchingContext incumbent store.
using IncumbentsPtr = std::shared_ptr<const SolverIncumbents>;

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_INCUMBENTS_H_
