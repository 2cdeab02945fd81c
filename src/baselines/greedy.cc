#include "baselines/greedy.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace explain3d {

ExplanationSet GreedyBaseline(const CanonicalRelation& t1,
                              const CanonicalRelation& t2,
                              const TupleMapping& mapping,
                              const AttributeMatch& attr,
                              const ProbabilityModel& prob) {
  const DegreeCaps caps = EffectiveDegreeCaps(t1, t2, attr);
  const bool cap1 = caps.side1, cap2 = caps.side2;

  // Visit matches by decreasing probability.
  std::vector<size_t> order(mapping.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return mapping[a].p > mapping[b].p;
  });

  // Incremental state: per-tuple degree; per side-2 tuple the assigned
  // side-1 impact sum (used for the group value term). With cap1 (the
  // usual case) groups key on side-2 tuples; with only cap2 they key on
  // side-1 tuples symmetrically.
  bool groups_on_side2 = cap1 || !cap2;
  std::vector<size_t> deg1(t1.size(), 0), deg2(t2.size(), 0);
  std::vector<double> group_sum(groups_on_side2 ? t2.size() : t1.size(),
                                0.0);

  auto group_term = [&](size_t head, size_t count, double sum) {
    if (count == 0) return prob.a;
    double head_impact = groups_on_side2 ? t2.tuples[head].impact
                                         : t1.tuples[head].impact;
    return ImpactsDiffer(sum, head_impact) ? prob.b : prob.c;
  };

  TupleMapping evidence;
  for (size_t k : order) {
    const TupleMatch& m = mapping[k];
    if (cap1 && deg1[m.t1] >= 1) continue;  // valid-mapping restriction
    if (cap2 && deg2[m.t2] >= 1) continue;
    size_t head = groups_on_side2 ? m.t2 : m.t1;
    size_t member = groups_on_side2 ? m.t1 : m.t2;
    double member_impact = groups_on_side2 ? t1.tuples[member].impact
                                           : t2.tuples[member].impact;
    size_t head_deg = groups_on_side2 ? deg2[m.t2] : deg1[m.t1];
    size_t member_deg = groups_on_side2 ? deg1[m.t1] : deg2[m.t2];

    // Objective delta of adding this match.
    double p = std::clamp(m.p, 1e-9, 1.0 - 1e-9);
    double delta = std::log(p) - std::log(1.0 - p);
    if (member_deg == 0) delta += prob.c - prob.a;  // member now kept
    double before = group_term(head, head_deg, group_sum[head]);
    double after =
        group_term(head, head_deg + 1, group_sum[head] + member_impact);
    delta += after - before;

    if (delta <= 0) continue;
    evidence.push_back(m);
    ++deg1[m.t1];
    ++deg2[m.t2];
    group_sum[head] += member_impact;
  }

  SortMapping(&evidence);
  return DeriveExplanationsFromEvidence(t1, t2, evidence);
}

}  // namespace explain3d
