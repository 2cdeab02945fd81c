#include "core/probability_model.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace explain3d {

ProbabilityModel::ProbabilityModel(double alpha, double beta) {
  E3D_CHECK(alpha > 0.5 && alpha <= 1.0) << "alpha must be in (0.5, 1]";
  E3D_CHECK(beta > 0.5 && beta <= 1.0) << "beta must be in (0.5, 1]";
  // Clamp away from 1 so log(1-α), log(1-β) stay finite.
  double am = std::min(alpha, 1.0 - 1e-9);
  double bm = std::min(beta, 1.0 - 1e-9);
  a = std::log(1.0 - am);
  b = std::log(am) + std::log(1.0 - bm);
  c = std::log(am) + std::log(bm);
}

double ProbabilityModel::Score(const CanonicalRelation& t1,
                               const CanonicalRelation& t2,
                               const TupleMapping& mapping,
                               const ExplanationSet& e) const {
  std::vector<char> removed1(t1.size(), 0), removed2(t2.size(), 0);
  std::vector<char> changed1(t1.size(), 0), changed2(t2.size(), 0);
  for (const ProvExplanation& pe : e.delta) {
    (pe.side == Side::kLeft ? removed1 : removed2)[pe.tuple] = 1;
  }
  for (const ValueExplanation& ve : e.value_changes) {
    (ve.side == Side::kLeft ? changed1 : changed2)[ve.tuple] = 1;
  }

  double score = 0;
  for (size_t i = 0; i < t1.size(); ++i) {
    if (removed1[i] && changed1[i]) return -std::numeric_limits<double>::infinity();  // Pr = 0
    score += removed1[i] ? a : (changed1[i] ? b : c);
  }
  for (size_t j = 0; j < t2.size(); ++j) {
    if (removed2[j] && changed2[j]) {
      return -std::numeric_limits<double>::infinity();
    }
    score += removed2[j] ? a : (changed2[j] ? b : c);
  }

  std::set<std::pair<size_t, size_t>> in_evidence;
  for (const TupleMatch& m : e.evidence) {
    in_evidence.emplace(m.t1, m.t2);
  }
  for (const TupleMatch& m : mapping) {
    bool selected = in_evidence.count({m.t1, m.t2}) > 0;
    score += selected ? std::log(m.p) : std::log(1.0 - m.p);
  }
  return score;
}

DegreeCaps EffectiveDegreeCaps(const CanonicalRelation& t1,
                               const CanonicalRelation& t2,
                               const AttributeMatch& attr) {
  auto strict = [](AggFunc f) {
    return f == AggFunc::kAvg || f == AggFunc::kMax || f == AggFunc::kMin;
  };
  const bool strict11 = strict(t1.agg) || strict(t2.agg);
  return {attr.Side1DegreeCapped() || strict11,
          attr.Side2DegreeCapped() || strict11};
}

Status CheckCompleteness(const CanonicalRelation& t1,
                         const CanonicalRelation& t2,
                         const AttributeMatch& attr,
                         const ExplanationSet& e) {
  std::vector<char> removed1(t1.size(), 0), removed2(t2.size(), 0);
  for (const ProvExplanation& pe : e.delta) {
    size_t n = pe.side == Side::kLeft ? t1.size() : t2.size();
    if (pe.tuple >= n) {
      return Status::InvalidArgument("Δ references a tuple out of range");
    }
    (pe.side == Side::kLeft ? removed1 : removed2)[pe.tuple] = 1;
  }

  // Refined impacts (δ applied to T \ Δ).
  std::vector<double> impact1(t1.size()), impact2(t2.size());
  for (size_t i = 0; i < t1.size(); ++i) impact1[i] = t1.tuples[i].impact;
  for (size_t j = 0; j < t2.size(); ++j) impact2[j] = t2.tuples[j].impact;
  for (const ValueExplanation& ve : e.value_changes) {
    auto& removed = ve.side == Side::kLeft ? removed1 : removed2;
    auto& impact = ve.side == Side::kLeft ? impact1 : impact2;
    if (ve.tuple >= impact.size()) {
      return Status::InvalidArgument("δ references a tuple out of range");
    }
    if (removed[ve.tuple]) {
      return Status::InvalidArgument(
          "tuple appears in both Δ and δ (Pr(E) = 0, Eq. 3)");
    }
    impact[ve.tuple] = ve.new_impact;
  }

  // Evidence must avoid removed tuples and respect the cardinality of the
  // attribute match (Definition 3.2).
  std::vector<size_t> degree1(t1.size(), 0), degree2(t2.size(), 0);
  for (const TupleMatch& m : e.evidence) {
    if (m.t1 >= t1.size() || m.t2 >= t2.size()) {
      return Status::InvalidArgument("evidence references missing tuples");
    }
    if (removed1[m.t1] || removed2[m.t2]) {
      return Status::InvalidArgument(
          "evidence maps a tuple that Δ removes");
    }
    ++degree1[m.t1];
    ++degree2[m.t2];
  }
  const DegreeCaps caps = EffectiveDegreeCaps(t1, t2, attr);
  const bool cap1 = caps.side1, cap2 = caps.side2;
  if (!cap1 && !cap2) {
    return Status::InvalidArgument(
        "attribute match implies a many-to-many mapping, which valid "
        "mappings forbid");
  }
  for (size_t i = 0; i < t1.size(); ++i) {
    if (cap1 && degree1[i] > 1) {
      return Status::InvalidArgument(StrFormat(
          "valid-mapping violation: T1 tuple %zu has degree %zu", i,
          degree1[i]));
    }
    if (!removed1[i] && degree1[i] == 0) {
      return Status::InvalidArgument(StrFormat(
          "kept T1 tuple %zu is unmatched (forms a one-sided component "
          "with unequal impact)", i));
    }
  }
  for (size_t j = 0; j < t2.size(); ++j) {
    if (cap2 && degree2[j] > 1) {
      return Status::InvalidArgument(StrFormat(
          "valid-mapping violation: T2 tuple %zu has degree %zu", j,
          degree2[j]));
    }
    if (!removed2[j] && degree2[j] == 0) {
      return Status::InvalidArgument(
          StrFormat("kept T2 tuple %zu is unmatched", j));
    }
  }

  // Impact equality per connected component (Definition 3.3). Union-find
  // over the evidence edges.
  size_t n = t1.size() + t2.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const TupleMatch& m : e.evidence) {
    size_t ra = find(m.t1);
    size_t rb = find(t1.size() + m.t2);
    if (ra != rb) parent[ra] = rb;
  }
  std::map<size_t, double> balance;  // component root -> I(T1') - I(T2')
  for (size_t i = 0; i < t1.size(); ++i) {
    if (!removed1[i]) balance[find(i)] += impact1[i];
  }
  for (size_t j = 0; j < t2.size(); ++j) {
    if (!removed2[j]) balance[find(t1.size() + j)] -= impact2[j];
  }
  for (const auto& [root, diff] : balance) {
    (void)root;
    if (ImpactsDiffer(diff, 0.0)) {
      return Status::InvalidArgument(StrFormat(
          "impact-equality violation: component imbalance %g", diff));
    }
  }
  return Status::OK();
}

}  // namespace explain3d
