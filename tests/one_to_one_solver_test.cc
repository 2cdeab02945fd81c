// Oracle tests of the one-to-one (both sides degree-capped) exact engine:
// the max-weight matching that SolveComponentExact uses for ≡ attribute
// matches and strict AVG/MAX/MIN aggregates.
//
// On random units of at most 8 tuples per side the engine must
//   * reach the brute-force optimum (an enumeration of every feasible
//     selection, plus the MILP brute force on the smallest units);
//   * return the explanation set and objective of the assignment branch &
//     bound bit for bit wherever that search proves optimality — the
//     engine extracts the optimum the DFS accepts first;
//   * always prove optimality, also where the branch & bound's node cap
//     truncates it.
//
// Instances are tie-heavy on purpose: impacts and probabilities come from
// tiny discrete sets (some units use one impact and one probability
// throughout), and parallel matches link the same pair twice.
//
// Replayable: EXPLAIN3D_SOLVER_SEED_BASE and EXPLAIN3D_SOLVER_SEEDS select
// the sweep; a failure prints its seed via SCOPED_TRACE.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/exact_solver.h"
#include "core/milp_encoder.h"
#include "core/solver.h"
#include "milp/brute_force.h"

namespace explain3d {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  long v = std::atol(s);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

size_t SeedBase() { return EnvSize("EXPLAIN3D_SOLVER_SEED_BASE", 1); }
size_t SeedCount() { return EnvSize("EXPLAIN3D_SOLVER_SEEDS", 60); }

CanonicalRelation MakeRelation(const std::vector<double>& impacts,
                               AggFunc agg, const char* prefix) {
  CanonicalRelation rel;
  rel.key_attrs = {"k"};
  rel.agg = agg;
  for (size_t i = 0; i < impacts.size(); ++i) {
    CanonicalTuple t;
    t.key = {Value(prefix + std::to_string(i))};
    t.impact = impacts[i];
    t.prov_rows = {i};
    rel.tuples.push_back(std::move(t));
  }
  return rel;
}

struct Unit {
  CanonicalRelation t1, t2;
  AttributeMatch attr;
  TupleMapping mapping;
  SubProblem whole;
};

SubProblem WholeProblem(size_t n1, size_t n2, size_t matches) {
  SubProblem whole;
  for (size_t i = 0; i < n1; ++i) whole.t1_ids.push_back(i);
  for (size_t j = 0; j < n2; ++j) whole.t2_ids.push_back(j);
  for (size_t k = 0; k < matches; ++k) whole.match_ids.push_back(k);
  return whole;
}

/// A random unit whose both sides are capped: ≡ with SUM/COUNT, or a
/// strict AVG/MAX/MIN aggregate under a one-sided (⊑ / ⊒) match. At most
/// `max_side` tuples per side and `edge_cap` matches; every third unit
/// uses one impact and one probability throughout (all ties), and some
/// pairs get a second, parallel match.
Unit MakeUnit(uint64_t seed, size_t max_side, size_t edge_cap) {
  Rng rng(seed);
  Unit u;
  size_t n1 = 1 + rng.Index(max_side);
  size_t n2 = 1 + rng.Index(max_side);
  bool all_ties = seed % 3 == 0;
  static const double kProbs[] = {0.3, 0.5, 0.7, 0.85};
  auto impact = [&] {
    return all_ties ? 1.0 : static_cast<double>(1 + rng.Index(2));
  };
  auto prob = [&] { return all_ties ? 0.5 : kProbs[rng.Index(4)]; };
  std::vector<double> i1, i2;
  for (size_t i = 0; i < n1; ++i) i1.push_back(impact());
  for (size_t j = 0; j < n2; ++j) i2.push_back(impact());

  AggFunc agg = AggFunc::kSum;
  SemanticRelation rel = SemanticRelation::kEquivalent;
  switch (rng.Index(4)) {
    case 1: agg = AggFunc::kAvg; break;
    case 2: agg = AggFunc::kMax; break;
    case 3: agg = AggFunc::kMin; break;
    default: break;
  }
  if (agg != AggFunc::kSum) {
    rel = rng.Bernoulli(0.5) ? SemanticRelation::kLessGeneral
                             : SemanticRelation::kMoreGeneral;
  }
  u.t1 = MakeRelation(i1, agg, "L");
  u.t2 = MakeRelation(i2, agg, "R");
  u.attr = AttributeMatch::Single("k", "k", rel);
  double density = 0.25 + 0.5 * rng.UniformDouble();
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) {
      if (u.mapping.size() >= edge_cap || !rng.Bernoulli(density)) continue;
      u.mapping.emplace_back(i, j, prob());
      if (u.mapping.size() < edge_cap && rng.Bernoulli(0.15)) {
        u.mapping.emplace_back(i, j, prob());  // parallel match
      }
    }
  }
  u.whole = WholeProblem(n1, n2, u.mapping.size());
  return u;
}

/// The same unit with the sides exchanged (t1 ↔ t2, ⊑ ↔ ⊒).
Unit Mirror(const Unit& u) {
  Unit m;
  m.t1 = u.t2;
  m.t2 = u.t1;
  SemanticRelation rel = u.attr.relation;
  if (rel == SemanticRelation::kLessGeneral) {
    rel = SemanticRelation::kMoreGeneral;
  } else if (rel == SemanticRelation::kMoreGeneral) {
    rel = SemanticRelation::kLessGeneral;
  }
  m.attr = AttributeMatch::Single("k", "k", rel);
  for (const TupleMatch& t : u.mapping) m.mapping.emplace_back(t.t2, t.t1, t.p);
  m.whole = WholeProblem(m.t1.size(), m.t2.size(), m.mapping.size());
  return m;
}

/// Brute force: every selection of matches that is a matching (one match
/// per tuple on each side), scored by ScoreUnitSelection; the maximum.
double EnumerationOracle(const Unit& u, const ProbabilityModel& prob) {
  std::vector<bool> used1(u.t1.size()), used2(u.t2.size());
  std::vector<size_t> sel;
  double best = -std::numeric_limits<double>::infinity();
  auto rec = [&](auto&& self, size_t m) -> void {
    if (m == u.mapping.size()) {
      Result<double> s = ScoreUnitSelection(u.t1, u.t2, u.mapping, u.attr,
                                            prob, u.whole, sel);
      EXPECT_TRUE(s.ok()) << s.status().ToString();
      if (s.ok() && s.value() > best) best = s.value();
      return;
    }
    self(self, m + 1);
    const TupleMatch& t = u.mapping[m];
    if (used1[t.t1] || used2[t.t2]) return;
    used1[t.t1] = used2[t.t2] = true;
    sel.push_back(m);
    self(self, m + 1);
    sel.pop_back();
    used1[t.t1] = used2[t.t2] = false;
  };
  rec(rec, 0);
  return best;
}

/// Bitwise equality of two explanation sets.
void ExpectBitIdentical(const ExplanationSet& a, const ExplanationSet& b) {
  ASSERT_EQ(a.delta.size(), b.delta.size());
  for (size_t i = 0; i < a.delta.size(); ++i) {
    EXPECT_EQ(a.delta[i].side, b.delta[i].side) << "delta " << i;
    EXPECT_EQ(a.delta[i].tuple, b.delta[i].tuple) << "delta " << i;
  }
  ASSERT_EQ(a.value_changes.size(), b.value_changes.size());
  for (size_t i = 0; i < a.value_changes.size(); ++i) {
    EXPECT_EQ(a.value_changes[i].side, b.value_changes[i].side) << i;
    EXPECT_EQ(a.value_changes[i].tuple, b.value_changes[i].tuple) << i;
    EXPECT_EQ(a.value_changes[i].new_impact, b.value_changes[i].new_impact)
        << i;
  }
  ASSERT_EQ(a.evidence.size(), b.evidence.size());
  for (size_t i = 0; i < a.evidence.size(); ++i) {
    EXPECT_EQ(a.evidence[i].t1, b.evidence[i].t1) << "evidence " << i;
    EXPECT_EQ(a.evidence[i].t2, b.evidence[i].t2) << "evidence " << i;
    EXPECT_EQ(a.evidence[i].p, b.evidence[i].p) << "evidence " << i;
  }
}

/// Solves `u` with both engines and checks the contract; returns the
/// matching engine's objective.
double CheckUnit(const Unit& u, const ProbabilityModel& prob,
                 size_t* bnb_proven) {
  Result<ExactSolveResult> fast = SolveComponentExact(
      u.t1, u.t2, u.mapping, u.attr, prob, u.whole);
  EXPECT_TRUE(fast.ok()) << fast.status().ToString();
  if (!fast.ok()) return 0;
  const ExactSolveResult& r = fast.value();
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.bound, r.objective);
  EXPECT_NEAR(r.objective, EnumerationOracle(u, prob), 1e-9);

  // The reported objective is the score of the returned selection.
  std::vector<size_t> sel;
  for (const TupleMatch& ev : r.explanations.evidence) {
    for (size_t m = 0; m < u.mapping.size(); ++m) {
      if (u.mapping[m] == ev) {
        sel.push_back(m);
        break;
      }
    }
  }
  EXPECT_EQ(sel.size(), r.explanations.evidence.size());
  std::sort(sel.begin(), sel.end());
  Result<double> scored = ScoreUnitSelection(u.t1, u.t2, u.mapping, u.attr,
                                             prob, u.whole, sel);
  EXPECT_TRUE(scored.ok());
  if (scored.ok()) {
    EXPECT_NEAR(scored.value(), r.objective, 1e-9);
  }

  Result<ExactSolveResult> bnb = SolveComponentBranchAndBound(
      u.t1, u.t2, u.mapping, u.attr, prob, u.whole);
  EXPECT_TRUE(bnb.ok());
  if (bnb.ok() && bnb.value().proven_optimal) {
    ++*bnb_proven;
    EXPECT_EQ(r.objective, bnb.value().objective);  // same bits
    ExpectBitIdentical(r.explanations, bnb.value().explanations);
  }
  return r.objective;
}

TEST(OneToOneSolverTest, MatchesBruteForceAndBranchAndBoundBitForBit) {
  ProbabilityModel prob((Explain3DConfig()));
  size_t proven = 0, units = 0;
  for (size_t seed = SeedBase(); seed < SeedBase() + SeedCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Unit u = MakeUnit(seed, /*max_side=*/8, /*edge_cap=*/20);
    double forward = CheckUnit(u, prob, &proven);
    double mirrored = CheckUnit(Mirror(u), prob, &proven);
    // Exchanging the sides cannot change the optimum's value.
    EXPECT_NEAR(forward, mirrored, 1e-9);
    units += 2;
    if (::testing::Test::HasFatalFailure()) break;
  }
  // Units this small are well inside the branch & bound's default cap.
  EXPECT_EQ(proven, units);
}

TEST(OneToOneSolverTest, MatchesTheMilpBruteForceOnTinyUnits) {
  ProbabilityModel prob((Explain3DConfig()));
  size_t oracle_runs = 0;
  for (size_t seed = SeedBase(); seed < SeedBase() + SeedCount(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Unit u = MakeUnit(seed, /*max_side=*/2, /*edge_cap=*/4);
    MilpEncoder encoder(u.t1, u.t2, u.mapping, u.attr, prob);
    Result<milp::Solution> oracle =
        milp::BruteForceSolve(encoder.Encode(u.whole).model);
    if (!oracle.ok() &&
        oracle.status().code() == StatusCode::kResourceExhausted) {
      continue;  // integer domain too large to enumerate for this seed
    }
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_EQ(oracle.value().status, milp::SolveStatus::kOptimal);
    ++oracle_runs;
    Result<ExactSolveResult> r = SolveComponentExact(
        u.t1, u.t2, u.mapping, u.attr, prob, u.whole);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NEAR(r.value().objective, oracle.value().objective, 1e-6);
  }
  EXPECT_GE(oracle_runs, SeedCount() / 2);
}

// On a unit too large for the branch & bound's node cap, the matching
// engine still proves its answer optimal, at least as good as the
// truncated search's incumbent and within its root bound.
TEST(OneToOneSolverTest, ProvesOptimalWhereTheSearchIsNodeCapped) {
  ProbabilityModel prob((Explain3DConfig()));
  Rng rng(99);
  Unit u;
  std::vector<double> i1, i2;
  for (size_t i = 0; i < 60; ++i) i1.push_back(1.0 + rng.Index(3));
  for (size_t j = 0; j < 60; ++j) i2.push_back(1.0 + rng.Index(3));
  u.t1 = MakeRelation(i1, AggFunc::kSum, "L");
  u.t2 = MakeRelation(i2, AggFunc::kSum, "R");
  u.attr = AttributeMatch::Single("k", "k", SemanticRelation::kEquivalent);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t j = 0; j < 60; ++j) {
      if (rng.Bernoulli(0.08)) {
        u.mapping.emplace_back(i, j, rng.UniformDouble(0.05, 0.95));
      }
    }
  }
  u.whole = WholeProblem(60, 60, u.mapping.size());

  Result<ExactSolveResult> capped = SolveComponentBranchAndBound(
      u.t1, u.t2, u.mapping, u.attr, prob, u.whole, /*max_nodes=*/2000);
  ASSERT_TRUE(capped.ok());
  ASSERT_FALSE(capped.value().proven_optimal);

  Result<ExactSolveResult> r = SolveComponentExact(
      u.t1, u.t2, u.mapping, u.attr, prob, u.whole, /*max_nodes=*/2000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().proven_optimal);
  EXPECT_GE(r.value().objective, capped.value().objective);
  EXPECT_LE(r.value().objective, capped.value().bound);
  // The node cap does not apply to the matching engine.
  Result<ExactSolveResult> uncapped = SolveComponentExact(
      u.t1, u.t2, u.mapping, u.attr, prob, u.whole);
  ASSERT_TRUE(uncapped.ok());
  EXPECT_EQ(uncapped.value().objective, r.value().objective);
}

TEST(OneToOneSolverTest, PreFiredCancelReturnsTheTokenStatusAndRootBound) {
  ProbabilityModel prob((Explain3DConfig()));
  Unit u = MakeUnit(5, /*max_side=*/8, /*edge_cap=*/20);
  CancelToken token;
  token.Cancel();
  double bound = std::numeric_limits<double>::quiet_NaN();
  Result<ExactSolveResult> r =
      SolveComponentExact(u.t1, u.t2, u.mapping, u.attr, prob, u.whole,
                          /*max_nodes=*/4000000, &token, &bound);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  Result<double> root = ComponentOptimisticBound(u.t1, u.t2, u.mapping,
                                                 u.attr, prob, u.whole);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(bound, root.value());
}

// Through the full solver: a one-to-one problem is proven optimal and
// scores exactly the engine's objective.
TEST(OneToOneSolverTest, SolverReportsOneToOneUnitsProvenOptimal) {
  Unit u = MakeUnit(11, /*max_side=*/8, /*edge_cap=*/20);
  Explain3DConfig config;
  config.exact_max_nodes = 1;
  Explain3DInput input{&u.t1, &u.t2, u.attr, u.mapping};
  Result<Explain3DResult> r = Explain3DSolver(config).Solve(input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().stats.all_optimal);
  EXPECT_EQ(r.value().stats.milp_solved, 0u);
  ProbabilityModel prob(config);
  EXPECT_NEAR(r.value().explanations.log_probability,
              EnumerationOracle(u, prob), 1e-9);
}

}  // namespace
}  // namespace explain3d
