// Tests for the dense two-phase simplex: optimality on known LPs,
// infeasibility/unboundedness detection, bounds, duals, and a randomized
// cross-check against feasibility of the returned point.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using lp::Model;
using lp::Objective;
using lp::Sense;
using lp::SolveStatus;

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> opt 36 at (2, 6).
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(3.0);
  const int y = model.add_variable(5.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  model.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  model.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 36.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(SimplexTest, SimpleMinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2  -> opt 20 at (10, 0)? No:
  // cost(2,8) = 4+24=28, cost(10,0)=20 -> optimum (10,0), value 20.
  Model model;
  const int x = model.add_variable(2.0);
  const int y = model.add_variable(3.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 10.0);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 20.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 4, x <= 1  -> x=0, y=2, obj 2.
  Model model;
  const int x = model.add_variable(1.0, 0.0, 1.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::Equal, 4.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-7);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model model;
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  EXPECT_EQ(lp::solve(model).status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, -1.0}}, Sense::LessEqual, 0.0);  // -x <= 0
  EXPECT_EQ(lp::solve(model).status, SolveStatus::Unbounded);
}

TEST(SimplexTest, RespectsVariableBounds) {
  // max x + y with 1 <= x <= 3, y <= 2.
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0, 1.0, 3.0);
  const int y = model.add_variable(1.0, 0.0, 2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(SimplexTest, LowerBoundShiftWorks) {
  // min x s.t. x >= 5 via bound -> x = 5.
  Model model;
  const int x = model.add_variable(1.0, 5.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 5.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x - y <= -2  (i.e. y >= x + 2), min y -> x=0, y=2.
  Model model;
  const int x = model.add_variable(0.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::LessEqual, -2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-7);
}

TEST(SimplexTest, DualsSatisfyStrongDuality) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6.
  Model model;
  const int x = model.add_variable(2.0);
  const int y = model.add_variable(3.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 4.0);
  model.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::GreaterEqual, 6.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  ASSERT_EQ(result.duals.size(), 2u);
  // Strong duality: b^T y == optimal objective.
  const double dual_objective =
      4.0 * result.duals[0] + 6.0 * result.duals[1];
  EXPECT_NEAR(dual_objective, result.objective, 1e-6);
  // Dual feasibility for a min problem with >= rows: duals >= 0 and
  // A^T y <= c.
  EXPECT_GE(result.duals[0], -1e-9);
  EXPECT_GE(result.duals[1], -1e-9);
  EXPECT_LE(result.duals[0] + result.duals[1], 2.0 + 1e-7);
  EXPECT_LE(result.duals[0] + 3.0 * result.duals[1], 3.0 + 1e-7);
}

TEST(SimplexTest, DualSignForLessEqualRows) {
  // max x s.t. x <= 7: dual of the row (in the minimized problem) is -1.
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 7.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 7.0, 1e-7);
  EXPECT_NEAR(result.duals[0], -1.0, 1e-7);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Klee-Minty-flavoured degenerate LP; Bland fallback must terminate it.
  Model model;
  model.set_objective(Objective::Maximize);
  std::vector<int> vars;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.add_variable(std::pow(2.0, n - 1 - i)));
  }
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < i; ++j) {
      terms.emplace_back(vars[static_cast<std::size_t>(j)],
                         std::pow(2.0, i - j + 1));
    }
    terms.emplace_back(vars[static_cast<std::size_t>(i)], 1.0);
    model.add_constraint(std::move(terms), Sense::LessEqual,
                         std::pow(5.0, i + 1));
  }
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, std::pow(5.0, n), 1e-4);
}

TEST(ModelTest, AddColumnWritesIntoExistingRows) {
  Model model;
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  model.add_constraint({{x, 2.0}}, Sense::GreaterEqual, 1.0);
  const int y = model.add_column(3.0, {{1, 5.0}, {0, 0.0}});
  EXPECT_EQ(y, 1);
  EXPECT_EQ(model.variable(y).objective, 3.0);
  EXPECT_EQ(model.constraint(0).terms.size(), 1u);  // zero dropped
  ASSERT_EQ(model.constraint(1).terms.size(), 2u);
  EXPECT_EQ(model.constraint(1).terms.back(), std::make_pair(y, 5.0));
  EXPECT_THROW(model.add_column(1.0, {{2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(model.add_column(1.0, {{0, 1.0}, {0, 1.0}}),
               std::invalid_argument);
  EXPECT_EQ(model.num_variables(), 2);  // rejected columns add nothing
}

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, ReturnedPointIsFeasibleAndNoWorseThanSamples) {
  // Property: on random feasible-by-construction LPs, the simplex returns a
  // feasible point whose objective beats any random feasible sample.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  Model model;
  const int n = 5;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.add_variable(rng.uniform_real(-3.0, 3.0)));
  }
  // Rows a.x <= b with a >= 0 and b > 0: x = 0 is always feasible.
  for (int r = 0; r < 6; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i) {
      terms.emplace_back(vars[static_cast<std::size_t>(i)],
                         rng.uniform_real(0.0, 2.0));
    }
    model.add_constraint(std::move(terms), Sense::LessEqual,
                         rng.uniform_real(1.0, 5.0));
  }
  // Box to keep it bounded.
  for (int i = 0; i < n; ++i) {
    model.mutable_variable(vars[static_cast<std::size_t>(i)]).upper = 10.0;
  }
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_LE(model.max_violation(result.x), 1e-6);
  // Random feasible samples cannot beat the optimum (minimization).
  for (int s = 0; s < 50; ++s) {
    std::vector<double> sample(static_cast<std::size_t>(n));
    for (auto& value : sample) value = rng.uniform_real(0.0, 1.0);
    if (model.max_violation(sample) <= 0.0) {
      EXPECT_GE(model.objective_value(sample), result.objective - 1e-6);
    }
  }
}

TEST_P(RandomLpTest, AppendedColumnsMatchColdSolve) {
  // Column generation on the persistent tableau: start from two of the
  // columns, append the rest one per resolve, then tighten a bound. Every
  // resolve must match a cold solve of the grown model, and its duals must
  // price every column out (no negative reduced cost), which is the
  // stopping rule column generation relies on. Odd rows are written as
  // -a.x >= -b, the same half-space with a negative RHS, so the row flips
  // fixed at the first solve are exercised too.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 5;
  const int rows = 6;
  std::vector<double> cost(n);
  for (double& c : cost) c = rng.uniform_real(-3.0, 3.0);
  std::vector<std::vector<double>> a(rows, std::vector<double>(n));
  std::vector<double> rhs(rows);
  for (int r = 0; r < rows; ++r) {
    const double sign = r % 2 == 0 ? 1.0 : -1.0;
    for (double& coeff : a[static_cast<std::size_t>(r)]) {
      coeff = sign * rng.uniform_real(0.0, 2.0);
    }
    rhs[static_cast<std::size_t>(r)] = sign * rng.uniform_real(1.0, 5.0);
  }
  const auto column = [&](int j) {
    std::vector<std::pair<int, double>> terms;
    for (int r = 0; r < rows; ++r) {
      terms.emplace_back(r, a[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(j)]);
    }
    return terms;
  };
  const int initial = 2;
  Model model;
  for (int j = 0; j < initial; ++j) {
    model.add_variable(cost[static_cast<std::size_t>(j)]);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < initial; ++j) {
      terms.emplace_back(j, a[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(j)]);
    }
    model.add_constraint(std::move(terms),
                         r % 2 == 0 ? Sense::LessEqual : Sense::GreaterEqual,
                         rhs[static_cast<std::size_t>(r)]);
  }

  lp::IncrementalSimplex incremental(model);
  lp::LpResult warm;
  const auto check = [&](const std::string& step) {
    warm = incremental.resolve(model);
    const auto cold = lp::solve(model);
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << step;
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << step;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-7) << step;
    EXPECT_LE(model.max_violation(warm.x), 1e-6) << step;
  };
  ASSERT_NO_FATAL_FAILURE(check("initial"));
  for (int j = initial; j < n; ++j) {
    ASSERT_EQ(model.add_column(cost[static_cast<std::size_t>(j)], column(j)),
              j);
    const std::string step = "after appending column " + std::to_string(j);
    ASSERT_NO_FATAL_FAILURE(check(step));
    for (int k = 0; k <= j; ++k) {
      double reduced = cost[static_cast<std::size_t>(k)];
      for (int r = 0; r < rows; ++r) {
        reduced -= warm.duals[static_cast<std::size_t>(r)] *
                   a[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)];
      }
      EXPECT_GE(reduced, -1e-7) << step << ", column " << k;
    }
  }

  // Appends and bound changes compose: cap the largest value at half of
  // itself (a dual repair), or, at x = 0, raise a lower bound instead.
  int largest = 0;
  for (int j = 1; j < n; ++j) {
    if (warm.x[static_cast<std::size_t>(j)] >
        warm.x[static_cast<std::size_t>(largest)]) {
      largest = j;
    }
  }
  const double value = warm.x[static_cast<std::size_t>(largest)];
  if (value > 1e-9) {
    model.mutable_variable(largest).upper = value / 2.0;
  } else {
    model.mutable_variable(largest).lower = 0.25;
  }
  ASSERT_NO_FATAL_FAILURE(check("after tightening a bound"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 13));

/// Knapsack-relaxation model used by the warm-start tests: maximize value
/// within one capacity row, binaries relaxed to [0, 1].
Model knapsack_model() {
  Model model;
  model.set_objective(Objective::Maximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) {
    row.emplace_back(model.add_variable(values[i], 0.0, 1.0), weights[i]);
  }
  model.add_constraint(std::move(row), Sense::LessEqual, 14.0);
  return model;
}

TEST(WarmStartTest, MatchesColdSolveAfterBoundTightening) {
  Model model = knapsack_model();
  const auto root = lp::solve(model);
  ASSERT_EQ(root.status, SolveStatus::Optimal);
  EXPECT_NEAR(root.objective, 22.0, 1e-9);

  // Branch-like tightenings; warm and cold must agree on every one.
  const std::vector<std::pair<int, std::pair<double, double>>> branches = {
      {1, {0.0, 0.0}},  // fix x1 = 0
      {1, {1.0, 1.0}},  // fix x1 = 1
      {2, {0.0, 0.0}},  // fix x2 = 0
      {0, {1.0, 1.0}},  // fix x0 = 1
  };
  for (const auto& [var, bounds] : branches) {
    Model child = knapsack_model();
    child.mutable_variable(var).lower = bounds.first;
    child.mutable_variable(var).upper = bounds.second;
    const auto cold = lp::solve(child);
    const auto warm = lp::solve(child, {}, &root.basis);
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "var " << var;
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "var " << var;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << "var " << var;
    EXPECT_LE(child.max_violation(warm.x), 1e-6);
  }
}

TEST(WarmStartTest, StaleBasisFallsBackToColdStart) {
  Model model = knapsack_model();
  lp::Basis garbage;
  garbage.columns = {2};  // wrong arity for the standardized rows is fine,
                          // but make it right-sized and still nonsense:
  garbage.columns.assign(1, 99);
  garbage.at_upper.assign(64, 0);
  const auto result = lp::solve(model, {}, &garbage);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 22.0, 1e-9);
}

TEST(IncrementalSimplexTest, MatchesColdAcrossBoundChanges) {
  Model model = knapsack_model();
  lp::IncrementalSimplex incremental(model);
  const auto root = incremental.resolve(model);
  ASSERT_EQ(root.status, SolveStatus::Optimal);
  EXPECT_NEAR(root.objective, 22.0, 1e-9);

  // A branch-and-bound-like walk: tighten, resolve, undo, repeat. Every
  // resolve must match a from-scratch solve of the same bounds.
  util::Xoshiro256 rng(17);
  for (int step = 0; step < 40; ++step) {
    const int var = static_cast<int>(rng.uniform_int(0, 3));
    const double fixed = rng.uniform_int(0, 1) == 0 ? 0.0 : 1.0;
    const double old_lower = model.variable(var).lower;
    const double old_upper = model.variable(var).upper;
    model.mutable_variable(var).lower = fixed;
    model.mutable_variable(var).upper = fixed;
    const auto warm = incremental.resolve(model);
    const auto cold = lp::solve(model);
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    if (cold.status == SolveStatus::Optimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << "step " << step;
      EXPECT_LE(model.max_violation(warm.x), 1e-6) << "step " << step;
    }
    model.mutable_variable(var).lower = old_lower;
    model.mutable_variable(var).upper = old_upper;
  }
  // State survives the walk: the root bounds re-solve to the root optimum.
  const auto again = incremental.resolve(model);
  ASSERT_EQ(again.status, SolveStatus::Optimal);
  EXPECT_NEAR(again.objective, 22.0, 1e-9);
}

TEST(IncrementalSimplexTest, RecoversAfterInfeasibleNode) {
  // x + y = 1; fixing both to 1 is infeasible, and the solver must keep
  // working for the next (feasible) node afterwards.
  Model model;
  const int x = model.add_variable(1.0, 0.0, 1.0);
  const int y = model.add_variable(2.0, 0.0, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
  lp::IncrementalSimplex incremental(model);
  ASSERT_EQ(incremental.resolve(model).status, SolveStatus::Optimal);

  model.mutable_variable(x).lower = 1.0;
  model.mutable_variable(y).lower = 1.0;
  EXPECT_EQ(incremental.resolve(model).status, SolveStatus::Infeasible);

  model.mutable_variable(y).lower = 0.0;
  model.mutable_variable(y).upper = 0.0;
  const auto result = incremental.resolve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 1.0, 1e-9);  // x = 1, y = 0
}

}  // namespace
}  // namespace bagsched
