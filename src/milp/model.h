// Mixed-integer linear program model (the input language of the solver).
//
// A model holds variables (bounded, optionally integer), linear
// constraints, and a linear objective. The LinExpr helper lets encoders
// write `expr += 3.0 * x` style code without manual index bookkeeping.
//
// This module replaces the role IBM CPLEX plays in the paper (see
// docs/ARCHITECTURE.md, "Substitutions").

#ifndef EXPLAIN3D_MILP_MODEL_H_
#define EXPLAIN3D_MILP_MODEL_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace explain3d {
namespace milp {

/// Variable handle (index into the model's variable array).
using VarId = size_t;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Constraint relation.
enum class Relation { kLe, kGe, kEq };

/// A variable: bounds, integrality, objective coefficient.
struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  bool is_integer = false;
  double objective = 0.0;
};

/// Sparse linear expression: Σ coeff_i · var_i + constant.
class LinExpr {
 public:
  LinExpr() = default;
  explicit LinExpr(double constant) : constant_(constant) {}

  LinExpr& Add(VarId var, double coeff) {
    if (coeff != 0.0) terms_[var] += coeff;
    return *this;
  }
  LinExpr& AddConstant(double c) {
    constant_ += c;
    return *this;
  }
  LinExpr& AddExpr(const LinExpr& other, double scale = 1.0) {
    for (const auto& [v, c] : other.terms_) Add(v, scale * c);
    constant_ += scale * other.constant_;
    return *this;
  }

  const std::map<VarId, double>& terms() const { return terms_; }
  double constant() const { return constant_; }

  /// Evaluates at an assignment (indexable by VarId).
  double Evaluate(const std::vector<double>& x) const;

 private:
  std::map<VarId, double> terms_;
  double constant_ = 0.0;
};

/// One constraint: expr relation rhs (the expression's constant is folded
/// into the rhs on addition).
struct Constraint {
  std::string name;
  std::vector<std::pair<VarId, double>> terms;  // sorted by VarId
  Relation relation = Relation::kLe;
  double rhs = 0.0;
};

/// The model. Objective sense is always MAXIMIZE (EXP-3D maximizes a
/// log-probability); minimizers can negate coefficients.
class Model {
 public:
  /// Adds a continuous variable; returns its handle.
  VarId AddContinuous(const std::string& name, double lower, double upper,
                      double objective = 0.0);
  /// Adds an integer variable.
  VarId AddInteger(const std::string& name, double lower, double upper,
                   double objective = 0.0);
  /// Adds a binary (0/1 integer) variable.
  VarId AddBinary(const std::string& name, double objective = 0.0);

  /// Adds constraint `expr relation rhs`.
  void AddConstraint(const LinExpr& expr, Relation relation, double rhs,
                     const std::string& name = "");

  /// Adds to a variable's objective coefficient.
  void AddObjective(VarId var, double coeff) {
    variables_[var].objective += coeff;
  }
  /// Adds a constant to the objective (carried through to reported values).
  void AddObjectiveConstant(double c) { objective_constant_ += c; }

  size_t num_variables() const { return variables_.size(); }
  size_t num_constraints() const { return constraints_.size(); }
  size_t num_integer_variables() const;

  const Variable& variable(VarId v) const { return variables_[v]; }
  Variable& mutable_variable(VarId v) { return variables_[v]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const Constraint& constraint(size_t i) const { return constraints_[i]; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  double objective_constant() const { return objective_constant_; }

  /// Objective value of an assignment (includes the constant).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Checks an assignment against every constraint, bound, and
  /// integrality requirement within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// LP-format-like text dump for debugging.
  std::string ToString() const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  double objective_constant_ = 0.0;
};

/// Outcome of a solve.
enum class SolveStatus {
  kOptimal,        ///< proven optimal (within tolerances)
  kFeasible,       ///< feasible incumbent, limit hit before proof
  kInfeasible,     ///< no feasible solution exists
  kUnbounded,      ///< objective unbounded above
  kLimit,          ///< limit hit with no incumbent
  /// The MilpOptions::cancel token fired mid-search. The solution state
  /// is abandoned, not degraded: callers must propagate the token's
  /// status instead of consuming any incumbent (which would depend on
  /// wall-clock timing and break determinism).
  kInterrupted,
};

const char* SolveStatusName(SolveStatus s);

/// Solution: status, assignment, objective.
struct Solution {
  SolveStatus status = SolveStatus::kLimit;
  std::vector<double> values;  ///< indexed by VarId; empty if none found
  double objective = -kInfinity;

  bool has_solution() const {
    return status == SolveStatus::kOptimal ||
           status == SolveStatus::kFeasible;
  }
};

}  // namespace milp
}  // namespace explain3d

#endif  // EXPLAIN3D_MILP_MODEL_H_
