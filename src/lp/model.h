// Linear-program model builder.
//
// Variables are continuous and non-negative by default with optional finite
// lower/upper bounds; constraints are sparse rows with <=, >= or = sense.
// The model is solver-agnostic: lp::Simplex consumes it directly and
// milp::BranchAndBound layers integrality on top.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace bagsched::lp {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { LessEqual, GreaterEqual, Equal };
enum class Objective { Minimize, Maximize };

struct Variable {
  double objective = 0.0;
  double lower = 0.0;
  double upper = kInfinity;
  std::string name;
};

struct Constraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coeff)
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  /// Adds a variable; returns its index.
  int add_variable(double objective_coeff, double lower = 0.0,
                   double upper = kInfinity, std::string name = {});

  /// Adds a constraint; returns its index. Zero/duplicate coefficients are
  /// merged; terms referencing unknown variables throw.
  int add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                     double rhs);

  /// Adds a variable (bounds [0, inf)) together with its coefficients in
  /// existing rows (row index, coeff); returns its index. Column generation
  /// appends priced columns this way, and lp::IncrementalSimplex picks them
  /// up on its next resolve. Zero coefficients are dropped; duplicate or
  /// unknown rows throw.
  int add_column(double objective_coeff,
                 const std::vector<std::pair<int, double>>& row_terms);

  void set_objective(Objective objective) { objective_ = objective; }
  Objective objective() const { return objective_; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }

  const Variable& variable(int index) const {
    return variables_[static_cast<std::size_t>(index)];
  }
  Variable& mutable_variable(int index) {
    return variables_[static_cast<std::size_t>(index)];
  }
  const Constraint& constraint(int index) const {
    return constraints_[static_cast<std::size_t>(index)];
  }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Max violation of any constraint or bound at x (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  Objective objective_ = Objective::Minimize;
};

}  // namespace bagsched::lp
