// Accuracy metrics of Section 5.1.4: precision, recall, and F-measure for
// explanations and for evidence mappings.
//
// A predicted provenance-based explanation is correct when the gold
// standard removes the same canonical tuple. A predicted value-based
// explanation is correct when the gold standard fixes the same tuple *or
// a gold-matched partner of it* — within a matched pair the data cannot
// reveal which side holds the wrong value, so both attributions describe
// the same underlying error (docs/ARCHITECTURE.md, "Substitutions").

#ifndef EXPLAIN3D_EVAL_METRICS_H_
#define EXPLAIN3D_EVAL_METRICS_H_

#include <string>

#include "eval/gold.h"

namespace explain3d {

/// Precision / recall / F-measure triple with the raw counts.
struct Prf {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  size_t predicted = 0;
  size_t gold = 0;
  size_t correct = 0;

  std::string ToString() const;
};

/// Combines counts into the harmonic-mean triple.
Prf MakePrf(size_t correct, size_t predicted, size_t gold);

/// Explanation accuracy over Δ ∪ δ.
Prf ExplanationAccuracy(const ExplanationSet& predicted,
                        const GoldStandard& gold);

/// Evidence accuracy over the refined tuple matches.
Prf EvidenceAccuracy(const TupleMapping& predicted_evidence,
                     const GoldStandard& gold);

/// Both, bundled for the report tables.
struct AccuracyReport {
  Prf explanation;
  Prf evidence;
};

AccuracyReport Evaluate(const ExplanationSet& predicted,
                        const GoldStandard& gold);

}  // namespace explain3d

#endif  // EXPLAIN3D_EVAL_METRICS_H_
