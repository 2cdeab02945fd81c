// The probabilistic scoring model of Section 3.1 (Equations 1–6).
//
// With priors α (tuple covered by both datasets) and β (tuple impact
// correct), the per-tuple probabilities of Eq. (3) are
//
//   Pr(t | t∉Δ, t∉δ) = αβ          (kept, unchanged)
//   Pr(t | t∉Δ, t∈δ) = α(1−β)      (kept, impact fixed)
//   Pr(t | t∈Δ, t∉δ) = 1−α          (removed)
//   Pr(t | t∈Δ, t∈δ) = 0            (removed tuples have no value fix)
//
// and the per-match probabilities of Eq. (5) are p when m ∈ M*, 1−p
// otherwise. The log-space objective of Eq. (6) is the sum of all tuple
// and match log-probabilities.
//
// Note (paper typo, see docs/ARCHITECTURE.md, "Substitutions"): the
// paper's Eq. (8) swaps the constants b and c relative to its prose; here
// y=1 (unchanged) pays log α + log β.

#ifndef EXPLAIN3D_CORE_PROBABILITY_MODEL_H_
#define EXPLAIN3D_CORE_PROBABILITY_MODEL_H_

#include "common/status.h"
#include "core/config.h"
#include "core/explanation.h"
#include "matching/attribute_match.h"
#include "matching/tuple_mapping.h"
#include "provenance/canonical.h"

namespace explain3d {

/// Log-space constants of the objective.
struct ProbabilityModel {
  double a;  ///< log(1−α): tuple removed
  double b;  ///< log α + log(1−β): tuple kept, impact changed
  double c;  ///< log α + log β: tuple kept, impact unchanged

  ProbabilityModel(double alpha, double beta);
  explicit ProbabilityModel(const Explain3DConfig& config)
      : ProbabilityModel(config.alpha, config.beta) {}

  /// Eq. (6): log Pr(E | T1, T2, M) of a full explanation set. Evidence
  /// entries must reference matches present in `mapping`; matches of
  /// `mapping` absent from the evidence contribute log(1−p).
  double Score(const CanonicalRelation& t1, const CanonicalRelation& t2,
               const TupleMapping& mapping, const ExplanationSet& e) const;
};

/// Which sides of a valid mapping have degree ≤ 1: the attribute match's
/// cardinality plus the strict one-to-one requirement of AVG/MAX/MIN
/// queries (Definition 3.1). Neither capped means a many-to-many match,
/// which admits no valid mapping.
struct DegreeCaps {
  bool side1 = true;
  bool side2 = true;
};
DegreeCaps EffectiveDegreeCaps(const CanonicalRelation& t1,
                               const CanonicalRelation& t2,
                               const AttributeMatch& attr);

/// Checks the completeness properties of Definition 3.4 for an
/// explanation set: valid mapping cardinality (Def. 3.2), kept-tuple
/// coverage, and per-component impact equality (Def. 3.3) over the
/// refined relations T* = δ(T \ Δ). Returns OK when complete.
Status CheckCompleteness(const CanonicalRelation& t1,
                         const CanonicalRelation& t2,
                         const AttributeMatch& attr,
                         const ExplanationSet& e);

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_PROBABILITY_MODEL_H_
