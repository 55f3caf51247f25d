#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace bagsched::lp {

int Model::add_variable(double objective_coeff, double lower, double upper,
                        std::string name) {
  if (lower < 0.0) {
    throw std::invalid_argument("Model: variable lower bounds must be >= 0");
  }
  if (upper < lower) {
    throw std::invalid_argument("Model: upper < lower bound");
  }
  variables_.push_back(Variable{objective_coeff, lower, upper,
                                std::move(name)});
  return num_variables() - 1;
}

int Model::add_constraint(std::vector<std::pair<int, double>> terms,
                          Sense sense, double rhs) {
  std::map<int, double> merged;
  for (const auto& [var, coeff] : terms) {
    if (var < 0 || var >= num_variables()) {
      throw std::invalid_argument("Model: constraint references unknown var");
    }
    merged[var] += coeff;
  }
  Constraint constraint;
  constraint.sense = sense;
  constraint.rhs = rhs;
  for (const auto& [var, coeff] : merged) {
    if (coeff != 0.0) constraint.terms.emplace_back(var, coeff);
  }
  constraints_.push_back(std::move(constraint));
  return num_constraints() - 1;
}

int Model::add_column(double objective_coeff,
                      const std::vector<std::pair<int, double>>& row_terms) {
  std::vector<bool> seen(constraints_.size(), false);
  for (const auto& [row, coeff] : row_terms) {
    if (row < 0 || row >= num_constraints() ||
        seen[static_cast<std::size_t>(row)]) {
      throw std::invalid_argument("Model: column has unknown/duplicate row");
    }
    seen[static_cast<std::size_t>(row)] = true;
  }
  const int var = add_variable(objective_coeff);
  for (const auto& [row, coeff] : row_terms) {
    if (coeff != 0.0) {
      constraints_[static_cast<std::size_t>(row)].terms.emplace_back(var,
                                                                     coeff);
    }
  }
  return var;
}

double Model::objective_value(const std::vector<double>& x) const {
  double value = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    value += variables_[static_cast<std::size_t>(v)].objective *
             x[static_cast<std::size_t>(v)];
  }
  return value;
}

double Model::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    const Variable& var = variables_[static_cast<std::size_t>(v)];
    const double value = x[static_cast<std::size_t>(v)];
    worst = std::max(worst, var.lower - value);
    if (std::isfinite(var.upper)) worst = std::max(worst, value - var.upper);
  }
  for (const Constraint& constraint : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : constraint.terms) {
      lhs += coeff * x[static_cast<std::size_t>(var)];
    }
    switch (constraint.sense) {
      case Sense::LessEqual:
        worst = std::max(worst, lhs - constraint.rhs);
        break;
      case Sense::GreaterEqual:
        worst = std::max(worst, constraint.rhs - lhs);
        break;
      case Sense::Equal:
        worst = std::max(worst, std::abs(lhs - constraint.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace bagsched::lp
