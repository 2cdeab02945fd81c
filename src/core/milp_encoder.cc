#include "core/milp_encoder.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"

namespace explain3d {

MilpEncoder::MilpEncoder(const CanonicalRelation& t1,
                         const CanonicalRelation& t2,
                         const TupleMapping& mapping,
                         const AttributeMatch& attr,
                         const ProbabilityModel& prob)
    : t1_(t1), t2_(t2), mapping_(mapping), prob_(prob) {
  const DegreeCaps caps = EffectiveDegreeCaps(t1, t2, attr);
  cap1_ = caps.side1;
  cap2_ = caps.side2;
  integral_ = t1.integral_impacts && t2.integral_impacts;
  E3D_CHECK(cap1_ || cap2_)
      << "many-to-many attribute matches admit no valid mapping";
}

EncodedMilp MilpEncoder::Encode(const SubProblem& sub) const {
  EncodedMilp enc;
  milp::Model& m = enc.model;
  const double a = prob_.a, b = prob_.b, c = prob_.c;

  // Big-U: any refined impact in a complete solution is bounded by the
  // larger side total plus the tuple count (each I* >= 1).
  double sum1 = 0, sum2 = 0;
  double min_impact = 1.0;
  double max_impact = 1.0;
  for (size_t g : sub.t1_ids) {
    sum1 += t1_.tuples[g].impact;
    min_impact = std::min(min_impact, t1_.tuples[g].impact);
    max_impact = std::max(max_impact, t1_.tuples[g].impact);
  }
  for (size_t g : sub.t2_ids) {
    sum2 += t2_.tuples[g].impact;
    min_impact = std::min(min_impact, t2_.tuples[g].impact);
    max_impact = std::max(max_impact, t2_.tuples[g].impact);
  }
  // Monetary-scale impacts (IMDb gross, ~1e8) would put big-U constants
  // ~1e9 next to unit objective coefficients and wreck the simplex
  // conditioning. Impacts only ever compare against each other, so the
  // component is solved in units of max_impact and decoded back.
  double imp_scale = max_impact > 1e4 ? max_impact : 1.0;
  enc.impact_scale = imp_scale;
  sum1 /= imp_scale;
  sum2 /= imp_scale;
  min_impact /= imp_scale;
  double big_u = std::max(sum1, sum2) +
                 static_cast<double>(sub.num_tuples()) + 1.0;
  // Refined impacts stay positive (a zero impact would be a disguised
  // removal) unless the data itself carries zero/negative impacts.
  double imp_lower = std::min(imp_scale == 1.0 ? 1.0 : 1e-7, min_impact);
  // Integrality only matters for unscaled (count-like) impacts.
  bool integral = integral_ && imp_scale == 1.0 && big_u <= 1e6;

  auto add_tuple_vars = [&](Side side, size_t local, size_t global) {
    const CanonicalRelation& rel = side == Side::kLeft ? t1_ : t2_;
    const char* tag = side == Side::kLeft ? "l" : "r";
    double impact = rel.tuples[global].impact / imp_scale;
    milp::VarId x =
        m.AddBinary(StrFormat("x_%s%zu", tag, local), a - b);
    milp::VarId y =
        m.AddBinary(StrFormat("y_%s%zu", tag, local), c - b);
    m.AddObjectiveConstant(b);
    milp::VarId imp =
        integral
            ? m.AddInteger(StrFormat("I_%s%zu", tag, local), imp_lower,
                           big_u)
            : m.AddContinuous(StrFormat("I_%s%zu", tag, local),
                              std::min(imp_lower, 1e-9), big_u);
    // y + x <= 1.
    m.AddConstraint(milp::LinExpr().Add(x, 1).Add(y, 1), milp::Relation::kLe,
                    1.0);
    // I* - I <= U(1-y)  and  I - I* <= U(1-y).
    m.AddConstraint(milp::LinExpr().Add(imp, 1).Add(y, big_u),
                    milp::Relation::kLe, impact + big_u);
    m.AddConstraint(milp::LinExpr().Add(imp, -1).Add(y, big_u),
                    milp::Relation::kLe, big_u - impact);
    if (side == Side::kLeft) {
      enc.x1.push_back(x);
      enc.y1.push_back(y);
      enc.imp1.push_back(imp);
    } else {
      enc.x2.push_back(x);
      enc.y2.push_back(y);
      enc.imp2.push_back(imp);
    }
  };

  // Local index translation.
  std::unordered_map<size_t, size_t> local1, local2;
  for (size_t k = 0; k < sub.t1_ids.size(); ++k) {
    local1.emplace(sub.t1_ids[k], k);
    add_tuple_vars(Side::kLeft, k, sub.t1_ids[k]);
  }
  for (size_t k = 0; k < sub.t2_ids.size(); ++k) {
    local2.emplace(sub.t2_ids[k], k);
    add_tuple_vars(Side::kRight, k, sub.t2_ids[k]);
  }

  // Match variables and degree bookkeeping.
  std::vector<milp::LinExpr> degree1(sub.t1_ids.size());
  std::vector<milp::LinExpr> degree2(sub.t2_ids.size());
  // For the one-side impact equality: per side-2 local tuple, Σ Iz.
  std::vector<milp::LinExpr> inflow2(sub.t2_ids.size());
  std::vector<milp::LinExpr> inflow1(sub.t1_ids.size());

  bool pairwise_equality = cap1_ && cap2_;

  for (size_t k = 0; k < sub.match_ids.size(); ++k) {
    const TupleMatch& match = mapping_[sub.match_ids[k]];
    auto it1 = local1.find(match.t1);
    auto it2 = local2.find(match.t2);
    E3D_CHECK(it1 != local1.end() && it2 != local2.end())
        << "sub-problem match references a tuple outside the sub-problem";
    size_t i = it1->second, j = it2->second;
    double p = match.p;
    double gain = std::log(p) - std::log(1.0 - p);
    milp::VarId z = m.AddBinary(StrFormat("z_%zu", k), gain);
    m.AddObjectiveConstant(std::log(1.0 - p));
    enc.z.push_back(z);
    // z <= 1 - x on both endpoints.
    m.AddConstraint(milp::LinExpr().Add(z, 1).Add(enc.x1[i], 1),
                    milp::Relation::kLe, 1.0);
    m.AddConstraint(milp::LinExpr().Add(z, 1).Add(enc.x2[j], 1),
                    milp::Relation::kLe, 1.0);
    degree1[i].Add(z, 1);
    degree2[j].Add(z, 1);

    if (pairwise_equality) {
      // |I*_i - I*_j| <= U (1 - z).
      m.AddConstraint(milp::LinExpr()
                          .Add(enc.imp1[i], 1)
                          .Add(enc.imp2[j], -1)
                          .Add(z, big_u),
                      milp::Relation::kLe, big_u);
      m.AddConstraint(milp::LinExpr()
                          .Add(enc.imp2[j], 1)
                          .Add(enc.imp1[i], -1)
                          .Add(z, big_u),
                      milp::Relation::kLe, big_u);
    } else if (cap1_) {
      // Side 1 assigns into side-2 groups: Iz = z * I*_i (Eq. 11).
      milp::VarId iz =
          m.AddContinuous(StrFormat("Iz_%zu", k), 0.0, big_u);
      m.AddConstraint(milp::LinExpr().Add(iz, 1).Add(z, -big_u),
                      milp::Relation::kLe, 0.0);
      m.AddConstraint(milp::LinExpr().Add(iz, 1).Add(enc.imp1[i], -1),
                      milp::Relation::kLe, 0.0);
      m.AddConstraint(
          milp::LinExpr().Add(iz, 1).Add(enc.imp1[i], -1).Add(z, -big_u),
          milp::Relation::kGe, -big_u);
      inflow2[j].Add(iz, 1);
    } else {
      // Mirror case: side 2 assigns into side-1 groups.
      milp::VarId iz =
          m.AddContinuous(StrFormat("Iz_%zu", k), 0.0, big_u);
      m.AddConstraint(milp::LinExpr().Add(iz, 1).Add(z, -big_u),
                      milp::Relation::kLe, 0.0);
      m.AddConstraint(milp::LinExpr().Add(iz, 1).Add(enc.imp2[j], -1),
                      milp::Relation::kLe, 0.0);
      m.AddConstraint(
          milp::LinExpr().Add(iz, 1).Add(enc.imp2[j], -1).Add(z, -big_u),
          milp::Relation::kGe, -big_u);
      inflow1[i].Add(iz, 1);
    }
  }

  // Degree/coverage constraints (Eq. 10 plus completeness coverage).
  for (size_t i = 0; i < sub.t1_ids.size(); ++i) {
    milp::LinExpr e = degree1[i];
    e.Add(enc.x1[i], 1);
    m.AddConstraint(e, cap1_ ? milp::Relation::kEq : milp::Relation::kGe,
                    1.0);
  }
  for (size_t j = 0; j < sub.t2_ids.size(); ++j) {
    milp::LinExpr e = degree2[j];
    e.Add(enc.x2[j], 1);
    m.AddConstraint(e, cap2_ ? milp::Relation::kEq : milp::Relation::kGe,
                    1.0);
  }

  // Group impact equality for the one-side (Eq. 12, relaxed on removal).
  if (!pairwise_equality) {
    if (cap1_) {
      for (size_t j = 0; j < sub.t2_ids.size(); ++j) {
        milp::LinExpr e = inflow2[j];
        e.Add(enc.imp2[j], -1);
        milp::LinExpr e_hi = e, e_lo = e;
        e_hi.Add(enc.x2[j], -big_u);
        m.AddConstraint(e_hi, milp::Relation::kLe, 0.0);
        e_lo.Add(enc.x2[j], big_u);
        m.AddConstraint(e_lo, milp::Relation::kGe, 0.0);
      }
    } else {
      for (size_t i = 0; i < sub.t1_ids.size(); ++i) {
        milp::LinExpr e = inflow1[i];
        e.Add(enc.imp1[i], -1);
        milp::LinExpr e_hi = e, e_lo = e;
        e_hi.Add(enc.x1[i], -big_u);
        m.AddConstraint(e_hi, milp::Relation::kLe, 0.0);
        e_lo.Add(enc.x1[i], big_u);
        m.AddConstraint(e_lo, milp::Relation::kGe, 0.0);
      }
    }
  }

  return enc;
}

ExplanationSet MilpEncoder::Decode(const SubProblem& sub,
                                   const EncodedMilp& enc,
                                   const std::vector<double>& values) const {
  ExplanationSet out;
  auto decode_side = [&](Side side, const std::vector<size_t>& ids,
                         const std::vector<milp::VarId>& x,
                         const std::vector<milp::VarId>& imp) {
    const CanonicalRelation& rel = side == Side::kLeft ? t1_ : t2_;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (values[x[k]] > 0.5) {
        out.delta.push_back({side, ids[k]});
        continue;
      }
      double old_impact = rel.tuples[ids[k]].impact;
      double new_impact = values[imp[k]] * enc.impact_scale;
      if (integral_ && enc.impact_scale == 1.0) {
        new_impact = std::round(new_impact);
      }
      // LP round-off scales with the normalization unit.
      if (ImpactsDiffer(new_impact, old_impact) &&
          std::abs(new_impact - old_impact) > 1e-5 * enc.impact_scale) {
        out.value_changes.push_back({side, ids[k], old_impact, new_impact});
      }
    }
  };
  decode_side(Side::kLeft, sub.t1_ids, enc.x1, enc.imp1);
  decode_side(Side::kRight, sub.t2_ids, enc.x2, enc.imp2);
  for (size_t k = 0; k < sub.match_ids.size(); ++k) {
    if (values[enc.z[k]] > 0.5) {
      out.evidence.push_back(mapping_[sub.match_ids[k]]);
    }
  }
  out.Normalize();
  return out;
}

size_t EstimateMilpConstraints(const SubProblem& sub, bool side1_capped,
                               bool side2_capped) {
  size_t per_tuple = 4;  // y+x<=1, two |I*-I| rows, degree/coverage row
  size_t per_match = side1_capped && side2_capped ? 4 : 5;
  size_t group_rows =
      side1_capped && side2_capped
          ? 0
          : 2 * (side1_capped ? sub.t2_ids.size() : sub.t1_ids.size());
  return per_tuple * sub.num_tuples() + per_match * sub.match_ids.size() +
         group_rows;
}

}  // namespace explain3d
