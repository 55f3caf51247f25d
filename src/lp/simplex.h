// Dense two-phase primal simplex.
//
// This is the exact-LP substrate standing in for the theoretical
// Lenstra/Kannan oracle of the paper (see DESIGN.md §3). Scope decisions:
//  * dense tableau — our MILP relaxations are small (hundreds of rows and
//    columns), where a dense tableau beats a sparse revised implementation
//    in both simplicity and constant factors;
//  * Dantzig pricing with an automatic switch to Bland's rule after a burn-in
//    proportional to the problem size, guaranteeing termination;
//  * variable lower bounds handled by shifting; upper bounds by the
//    bounded-variable simplex (nonbasic columns rest at either bound and
//    bound hits become O(rows) flips), so the branch-and-bound's box
//    tightenings never change the tableau shape — the property the warm
//    starts and the persistent IncrementalSimplex build on;
//  * dual-simplex repair pivots for warm starts: a previously optimal
//    basis stays dual feasible under pure bound/RHS changes;
//  * column appends for column generation: a new column enters nonbasic
//    at its lower bound, so a previously optimal basis stays primal
//    feasible and primal iterations finish the re-solve.
#pragma once

#include <memory>
#include <vector>

#include "lp/model.h"

namespace bagsched::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// A simplex basis snapshot: which tableau column is basic in each
/// standardized row, plus the at-upper flag of every nonbasic column
/// (variable upper bounds are handled by the bounded-variable simplex, not
/// by explicit rows). Opaque to callers except as a warm-start hint for a
/// re-solve of the same model with tightened variable bounds: the column
/// layout depends only on the constraint senses, which bound tightening
/// never changes.
struct Basis {
  std::vector<int> columns;             ///< one per standardized row
  std::vector<unsigned char> at_upper;  ///< one per tableau column
};

struct LpResult {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< values for all model variables
  /// Dual value per model constraint (sign convention: Lagrangian
  /// y with  reduced_cost(col) = c_col - y . a_col  for a minimization
  /// problem). Only filled on Optimal. For Maximize models the duals refer
  /// to the internally minimized (-objective) problem.
  std::vector<double> duals;
  /// Optimal basis, filled on Optimal by lp::solve (see Basis).
  /// IncrementalSimplex::resolve leaves it empty — its warm state lives in
  /// the persistent tableau, and snapshotting per node would dominate the
  /// branch-and-bound loop it serves.
  Basis basis;
  long long iterations = 0;
};

struct SimplexOptions {
  long long max_iterations = 200000;
  double tolerance = 1e-8;
};

/// Solves the model; result.x has one entry per model variable.
/// `warm_basis` (optional) is a basis returned by a previous solve of a
/// structurally identical model (same constraints, bounds possibly
/// tightened). The basis stays dual feasible under such bound changes, so
/// the re-solve runs dual-simplex repair pivots instead of simplex
/// phase 1; a stale basis silently cold-starts.
LpResult solve(const Model& model, const SimplexOptions& options = {},
               const Basis* warm_basis = nullptr);

/// Persistent simplex: one tableau kept across many re-solves of one
/// growing model. It serves both branch-and-bound and column generation,
/// through two kinds of re-solve:
///
///  * Bound changes. They change only the standardized right-hand side,
///    never the matrix, so resolve() recomputes the basic solution through
///    the implicit inverse basis (O(rows^2)) and repairs primal feasibility
///    with a handful of dual-simplex pivots from the still dual-feasible
///    basis.
///  * Appended columns (Model::add_column). resolve() builds each new
///    tableau column as B^-1 a from the artificial block, with the row
///    flips fixed at the first solve applied, reprices every column and
///    runs primal iterations from the still primal-feasible basis.
///
/// Neither needs a model copy, re-standardization or phase 1. Rows may not
/// be added (that, or a state neither re-solve can continue from, costs
/// one cold solve).
class IncrementalSimplex {
 public:
  explicit IncrementalSimplex(const Model& model,
                              const SimplexOptions& options = {});
  ~IncrementalSimplex();
  IncrementalSimplex(IncrementalSimplex&&) noexcept;
  IncrementalSimplex& operator=(IncrementalSimplex&&) noexcept;

  /// Re-solves against `model`: the construction model, possibly with
  /// tightened variable bounds and with variables appended through
  /// Model::add_column. The first call performs the one full cold solve.
  LpResult resolve(const Model& model);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

const char* to_string(SolveStatus status);

}  // namespace bagsched::lp
