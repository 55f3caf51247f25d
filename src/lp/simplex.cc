#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

namespace bagsched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One row of the standardized problem: a * x {<=,>=,=} rhs, variables
/// shifted to x' in [0, upper - lower]. Standardization never changes the
/// sense: a negative RHS is handled by negating the row numerically
/// (`flipped`), so the tableau column layout depends only on the senses
/// and is invariant under variable-bound changes — the property the warm
/// starts and the persistent IncrementalSimplex rely on. Upper bounds are
/// NOT rows: the bounded-variable simplex keeps nonbasic columns at either
/// bound.
struct StdRow {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
  bool flipped = false;  ///< standardization multiplied the row by -1
};

/// Dense bounded-variable tableau simplex working on the standardized rows.
///
/// Column layout: [structural | slack/surplus (one per non-Equal row) |
/// artificial (one per row)], then RHS; the layout is a function of the
/// senses only. The RHS column always holds the CURRENT basic values x_B
/// (which account for nonbasic-at-upper columns), so pivots update it
/// explicitly rather than by blind row elimination. Every artificial
/// column is +e_r and doubles as column r of the implicit inverse basis.
class Tableau {
 public:
  Tableau(const std::vector<StdRow>& rows, int num_structural,
          const SimplexOptions& options)
      : num_rows_(static_cast<int>(rows.size())),
        num_structural_(num_structural),
        options_(options) {
    int extra = 0;
    for (const StdRow& row : rows) {
      if (row.sense != Sense::Equal) ++extra;
    }
    first_artificial_ = num_structural_ + extra;
    num_cols_ = first_artificial_ + num_rows_;

    matrix_.assign(static_cast<std::size_t>(num_rows_) *
                       (static_cast<std::size_t>(num_cols_) + 1),
                   0.0);
    basis_.assign(static_cast<std::size_t>(num_rows_), -1);
    upper_.assign(static_cast<std::size_t>(num_cols_), kInf);
    at_upper_.assign(static_cast<std::size_t>(num_cols_), 0);
    in_basis_.assign(static_cast<std::size_t>(num_cols_), 0);

    int next_extra = num_structural_;
    dual_column_.assign(static_cast<std::size_t>(num_rows_), -1);
    dual_sign_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    for (int r = 0; r < num_rows_; ++r) {
      const StdRow& row = rows[static_cast<std::size_t>(r)];
      for (const auto& [var, coeff] : row.terms) at(r, var) = coeff;
      rhs(r) = row.rhs;
      const double f = row.flipped ? -1.0 : 1.0;
      const int artificial = first_artificial_ + r;
      at(r, artificial) = 1.0;  // +e_r regardless of flip state
      if (row.sense == Sense::Equal) {
        basis_[static_cast<std::size_t>(r)] = artificial;
        // y_r = -f * reduced(artificial): artificial is +e_r of the
        // (possibly negated) row, cost 0 in phase 2.
        dual_column_[static_cast<std::size_t>(r)] = artificial;
        dual_sign_[static_cast<std::size_t>(r)] = -f;
      } else {
        // Slack (+1 for <=) or surplus (-1 for >=), negated with the row.
        const double base = row.sense == Sense::LessEqual ? 1.0 : -1.0;
        const double coeff = f * base;
        at(r, next_extra) = coeff;
        basis_[static_cast<std::size_t>(r)] =
            coeff > 0.0 ? next_extra : artificial;
        // Dual of the ORIGINAL row from the slack/surplus reduced cost;
        // the f factors from the column sign and the row negation cancel
        // into a sense-only sign.
        dual_column_[static_cast<std::size_t>(r)] = next_extra;
        dual_sign_[static_cast<std::size_t>(r)] =
            row.sense == Sense::LessEqual ? -1.0 : 1.0;
        ++next_extra;
      }
      in_basis_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])] = 1;
    }
  }

  /// Installs the structural upper bounds (in shifted space, i.e.
  /// upper - lower per variable; kInf for unbounded). Must be called
  /// before solving and again whenever the model's bounds change.
  void set_structural_uppers(const std::vector<double>& uppers) {
    for (int c = 0; c < num_structural_; ++c) {
      upper_[static_cast<std::size_t>(c)] =
          uppers[static_cast<std::size_t>(c)];
    }
  }

  /// Dual value of standardized row r (valid after an optimal phase 2).
  double dual_of_row(int r) const {
    const int col = dual_column_[static_cast<std::size_t>(r)];
    if (col < 0) return 0.0;
    return dual_sign_[static_cast<std::size_t>(r)] *
           reduced_[static_cast<std::size_t>(col)];
  }

  /// Runs phase 1 (feasibility); assumes the fresh-construction state
  /// (everything nonbasic at lower, RHS >= 0).
  SolveStatus phase1(long long& iterations) {
    // Cost: minimize sum of artificial variables.
    cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = first_artificial_; c < num_cols_; ++c) {
      cost_[static_cast<std::size_t>(c)] = 1.0;
    }
    build_reduced_costs();
    const SolveStatus status = iterate(iterations);
    if (status != SolveStatus::Optimal) return status;
    if (objective_value() > 1e-6) return SolveStatus::Infeasible;
    pivot_out_artificials();
    return SolveStatus::Optimal;
  }

  /// Runs phase 2 with the given structural costs (minimization).
  SolveStatus phase2(const std::vector<double>& structural_cost,
                     long long& iterations) {
    load_phase2_costs(structural_cost);
    return iterate(iterations);
  }

  /// Re-establishes a previously optimal basis (columns + at-upper set),
  /// skipping phase 1. Returns false — leaving the tableau unusable — when
  /// the snapshot is structurally invalid or singular. The resulting basic
  /// solution may be primal INfeasible (the usual state after a
  /// branch-and-bound bound tightening); reoptimize() repairs that.
  bool warm_start(const Basis& warm) {
    if (static_cast<int>(warm.columns.size()) != num_rows_) return false;
    if (static_cast<int>(warm.at_upper.size()) != num_cols_) return false;
    for (const int col : warm.columns) {
      if (col < 0 || col >= first_artificial_) return false;
    }
    for (int c = 0; c < num_cols_; ++c) {
      at_upper_[static_cast<std::size_t>(c)] = warm.at_upper[
          static_cast<std::size_t>(c)];
      if (at_upper_[static_cast<std::size_t>(c)] &&
          !std::isfinite(upper_[static_cast<std::size_t>(c)])) {
        return false;
      }
    }
    // Fold the nonbasic-at-upper contributions into the RHS while the
    // matrix still IS the original A (identity basis).
    for (int c = 0; c < num_structural_; ++c) {
      if (!at_upper_[static_cast<std::size_t>(c)]) continue;
      const double u = upper_[static_cast<std::size_t>(c)];
      for (int r = 0; r < num_rows_; ++r) {
        const double a = at(r, c);
        if (a != 0.0) rhs(r) -= a * u;
      }
    }
    // Rows whose current (identity) basis column already belongs to the
    // warm basis keep it without elimination: their column is e_r and
    // stays e_r as long as the row itself is never a pivot row. Only the
    // remaining rows need pivots.
    std::vector<bool> used(warm.columns.size(), false);
    std::vector<int> unmatched_rows;
    for (int r = 0; r < num_rows_; ++r) {
      const int current = basis_[static_cast<std::size_t>(r)];
      bool matched = false;
      for (std::size_t i = 0; i < warm.columns.size(); ++i) {
        if (!used[i] && warm.columns[i] == current) {
          used[i] = true;
          matched = true;
          break;
        }
      }
      if (!matched) unmatched_rows.push_back(r);
    }
    std::vector<int> remaining;
    for (std::size_t i = 0; i < warm.columns.size(); ++i) {
      if (!used[i]) remaining.push_back(warm.columns[i]);
    }
    // Partial pivoting: each unmatched row takes the remaining warm column
    // with the largest pivot element (the row/column assignment is free).
    // These pivots transform the RHS by plain elimination, which is exact
    // here: re-basing changes the representation, not the point.
    for (const int r : unmatched_rows) {
      int pick = -1;
      double best = loose_tolerance();
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const double value = std::abs(at(r, remaining[i]));
        if (value > best) {
          best = value;
          pick = static_cast<int>(i);
        }
      }
      if (pick < 0) return false;  // singular under this row order
      pivot(r, remaining[static_cast<std::size_t>(pick)], true);
      remaining.erase(remaining.begin() + pick);
    }
    in_basis_.assign(static_cast<std::size_t>(num_cols_), 0);
    for (int r = 0; r < num_rows_; ++r) {
      at_upper_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])] = 0;
      in_basis_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])] = 1;
    }
    phase1_done_ = true;
    return true;
  }

  /// Re-optimizes from a warm basis: when the basis is still dual feasible
  /// (always true after pure RHS/bound changes against a previously
  /// optimal basis), dual-simplex pivots restore primal feasibility, then
  /// primal iterations finish up — usually in zero additional pivots.
  /// Returns nullopt when the basis is neither dual nor primal feasible,
  /// in which case the caller must cold-start from a fresh tableau.
  std::optional<SolveStatus> reoptimize(
      const std::vector<double>& structural_cost, long long& iterations) {
    load_phase2_costs(structural_cost);
    if (dual_feasible()) return repair_and_iterate(iterations);
    // Dual infeasible (stale costs): still usable when primal feasible.
    const double tol = options_.tolerance;
    for (int r = 0; r < num_rows_; ++r) {
      const double value = rhs_const(r);
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (value < -tol || value > u + tol) return std::nullopt;
    }
    return iterate(iterations);
  }

  /// True when every allowed column's reduced cost respects its bound
  /// state (>= 0 at lower, <= 0 at upper, tolerantly).
  bool dual_feasible() const {
    const double tol = loose_tolerance();
    for (int c = 0; c < num_cols_; ++c) {
      if (!column_allowed(c)) continue;
      const double r = reduced_[static_cast<std::size_t>(c)];
      if (at_upper_[static_cast<std::size_t>(c)] ? r > tol : r < -tol) {
        return false;
      }
    }
    return true;
  }

  /// Dual-simplex repair of primal feasibility from a dual-feasible basis,
  /// followed by primal iterations to optimality.
  SolveStatus repair_and_iterate(long long& iterations) {
    const double tol = options_.tolerance;
    for (;;) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::IterationLimit;
      }
      // Leaving row: the basic value violating its box the most.
      int row = -1;
      bool above = false;
      double worst = tol;
      for (int r = 0; r < num_rows_; ++r) {
        const double value = rhs_const(r);
        if (-value > worst) {
          worst = -value;
          row = r;
          above = false;
        }
        const double u = upper_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(r)])];
        if (std::isfinite(u) && value - u > worst) {
          worst = value - u;
          row = r;
          above = true;
        }
      }
      if (row < 0) break;  // primal feasible
      // Entering column: dual ratio test over sign-valid columns. For a
      // below-lower violation the leaving value must rise, for an
      // above-upper one it must drop; at-upper columns move downwards.
      int col = -1;
      double best_ratio = kInf;
      for (int c = 0; c < num_cols_; ++c) {
        if (!column_allowed(c) || in_basis_[static_cast<std::size_t>(c)]) {
          continue;
        }
        const double a = at_const(row, c);
        const bool up = at_upper_[static_cast<std::size_t>(c)] != 0;
        bool valid;
        if (!above) {
          valid = up ? a > tol : a < -tol;
        } else {
          valid = up ? a < -tol : a > tol;
        }
        if (!valid) continue;
        const double r = reduced_[static_cast<std::size_t>(c)];
        const double ratio = (up ? -r : r) / std::abs(a);
        // Harris-style tie-break: among (near-)tied ratios — ubiquitous on
        // these degenerate assignment LPs — take the largest pivot
        // element, which both stabilizes the basis and stalls less.
        if (ratio < best_ratio - tol ||
            (ratio < best_ratio + tol && col >= 0 &&
             std::abs(a) > std::abs(at_const(row, col)))) {
          best_ratio = ratio;
          col = c;
        }
      }
      if (col < 0) return SolveStatus::Infeasible;  // dual ray
      // Drive the leaving variable exactly onto its violated bound.
      const int leaving = basis_[static_cast<std::size_t>(row)];
      const double target =
          above ? upper_[static_cast<std::size_t>(leaving)] : 0.0;
      bounded_pivot(row, col, (rhs_const(row) - target) / at_const(row, col));
      at_upper_[static_cast<std::size_t>(leaving)] = above ? 1 : 0;
      ++iterations;
    }
    return iterate(iterations);
  }

  /// Recomputes the basic solution for new standardized RHS + bounds
  /// through the implicit inverse basis: effective_rhs = std_rhs minus the
  /// at-upper structural columns (given by `structural_cols`, the original
  /// sparse matrix columns), then x_B = B^-1 * effective_rhs where column
  /// r of B^-1 is the artificial column of row r.
  void update_rhs(
      const std::vector<double>& std_rhs,
      const std::vector<std::vector<std::pair<int, double>>>&
          structural_cols) {
    scratch_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    effective_.assign(std_rhs.begin(), std_rhs.end());
    for (int c = 0; c < num_structural_; ++c) {
      if (!at_upper_[static_cast<std::size_t>(c)]) continue;
      const double u = upper_[static_cast<std::size_t>(c)];
      for (const auto& [r, a] : structural_cols[static_cast<std::size_t>(c)]) {
        effective_[static_cast<std::size_t>(r)] -= a * u;
      }
    }
    for (int k = 0; k < num_rows_; ++k) {
      const double value = effective_[static_cast<std::size_t>(k)];
      if (value == 0.0) continue;
      const int col = first_artificial_ + k;
      for (int r = 0; r < num_rows_; ++r) {
        scratch_[static_cast<std::size_t>(r)] += value * at_const(r, col);
      }
    }
    for (int r = 0; r < num_rows_; ++r) {
      rhs(r) = scratch_[static_cast<std::size_t>(r)];
    }
  }

  /// Appends structural columns (standardized sparse (row, coeff) lists,
  /// row flips applied) to a solved tableau. Each new column enters
  /// nonbasic at its lower bound as B^-1 a, read off the artificial block
  /// (column r of B^-1 is the artificial column of row r), so the current
  /// basic solution is unchanged and stays primal feasible. The new
  /// columns sit between the old structurals and the slack block; every
  /// index into the slack/artificial block shifts accordingly. Reduced
  /// costs are stale afterwards: reoptimize() rebuilds them.
  void append_structural(
      const std::vector<std::vector<std::pair<int, double>>>& columns) {
    const auto added = static_cast<int>(columns.size());
    const auto old_stride = static_cast<std::size_t>(num_cols_) + 1;
    const auto new_stride = old_stride + columns.size();
    const auto split = static_cast<std::size_t>(num_structural_);
    std::vector<double> grown(static_cast<std::size_t>(num_rows_) *
                              new_stride);
    for (int r = 0; r < num_rows_; ++r) {
      const double* src = &matrix_[static_cast<std::size_t>(r) * old_stride];
      double* dst = &grown[static_cast<std::size_t>(r) * new_stride];
      std::copy(src, src + split, dst);
      std::copy(src + split, src + old_stride, dst + split + columns.size());
      for (std::size_t k = 0; k < columns.size(); ++k) {
        double value = 0.0;
        for (const auto& [row, a] : columns[k]) {
          value += a * src[first_artificial_ + row];
        }
        dst[split + k] = value;
      }
    }
    matrix_.swap(grown);
    for (int& col : basis_) {
      if (col >= num_structural_) col += added;
    }
    for (int& col : dual_column_) {
      if (col >= num_structural_) col += added;
    }
    const auto widen = [&](auto& per_column, auto value) {
      per_column.insert(per_column.begin() + num_structural_, columns.size(),
                        value);
    };
    widen(upper_, kInf);
    widen(at_upper_, static_cast<unsigned char>(0));
    widen(in_basis_, static_cast<unsigned char>(0));
    widen(cost_, 0.0);
    widen(reduced_, 0.0);
    num_structural_ += added;
    first_artificial_ += added;
    num_cols_ += added;
  }

  /// True when phase 1 left an artificial basic (a redundant row). An
  /// appended column may make that row non-redundant, which the artificial
  /// block cannot represent; callers cold-start instead.
  bool artificial_basic() const {
    for (const int col : basis_) {
      if (col >= first_artificial_) return true;
    }
    return false;
  }

  /// Writes all structural values at once (x must have num_structural
  /// entries): nonbasic columns contribute their bound, basic rows their
  /// current value.
  void structural_values(std::vector<double>& x) const {
    for (int c = 0; c < num_structural_; ++c) {
      x[static_cast<std::size_t>(c)] =
          at_upper_[static_cast<std::size_t>(c)]
              ? upper_[static_cast<std::size_t>(c)]
              : 0.0;
    }
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < num_structural_) {
        x[static_cast<std::size_t>(b)] = rhs_const(r);
      }
    }
  }

  double objective_value() const {
    double value = 0.0;
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      value += cost_[static_cast<std::size_t>(b)] * rhs_const(r);
    }
    for (int c = 0; c < num_cols_; ++c) {
      if (at_upper_[static_cast<std::size_t>(c)]) {
        value += cost_[static_cast<std::size_t>(c)] *
                 upper_[static_cast<std::size_t>(c)];
      }
    }
    return value;
  }

  Basis snapshot() const {
    Basis basis;
    basis.columns = basis_;
    basis.at_upper = at_upper_;
    return basis;
  }

 private:
  double& at(int r, int c) {
    return matrix_[static_cast<std::size_t>(r) *
                       (static_cast<std::size_t>(num_cols_) + 1) +
                   static_cast<std::size_t>(c)];
  }
  double at_const(int r, int c) const {
    return matrix_[static_cast<std::size_t>(r) *
                       (static_cast<std::size_t>(num_cols_) + 1) +
                   static_cast<std::size_t>(c)];
  }
  double& rhs(int r) { return at(r, num_cols_); }
  double rhs_const(int r) const { return at_const(r, num_cols_); }

  void load_phase2_costs(const std::vector<double>& structural_cost) {
    cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = 0; c < num_structural_; ++c) {
      cost_[static_cast<std::size_t>(c)] =
          structural_cost[static_cast<std::size_t>(c)];
    }
    build_reduced_costs();
  }

  void build_reduced_costs() {
    reduced_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = 0; c < num_cols_; ++c) {
      double value = cost_[static_cast<std::size_t>(c)];
      for (int r = 0; r < num_rows_; ++r) {
        const int b = basis_[static_cast<std::size_t>(r)];
        value -= cost_[static_cast<std::size_t>(b)] * at_const(r, c);
      }
      reduced_[static_cast<std::size_t>(c)] = value;
    }
  }

  bool column_allowed(int c) const {
    // Artificials may never re-enter the basis once phase 1 is done.
    return !(phase1_done_ && c >= first_artificial_);
  }

  /// Slightly looser threshold than the pivot tolerance, absorbing the
  /// round-off that accumulates across warm restarts. Scales with the
  /// configured tolerance so looser SimplexOptions stay self-consistent.
  double loose_tolerance() const { return 10.0 * options_.tolerance; }

  /// Eliminates column `col` into +e_row (matrix + reduced costs). The RHS
  /// column is transformed only when `with_rhs` (warm-start re-basing);
  /// the solving loops update it explicitly through bounded_pivot.
  void pivot(int row, int col, bool with_rhs) {
    const double pivot_value = at(row, col);
    const int limit = with_rhs ? num_cols_ + 1 : num_cols_;
    // The elimination only ever reads the pivot row's nonzeros; indexing
    // them once cuts the O(rows * cols) update to its support.
    pivot_cols_.clear();
    for (int c = 0; c < limit; ++c) {
      double& value = at(row, c);
      if (value == 0.0) continue;
      value /= pivot_value;
      pivot_cols_.push_back(c);
    }
    const double* prow =
        &matrix_[static_cast<std::size_t>(row) *
                 (static_cast<std::size_t>(num_cols_) + 1)];
    for (int r = 0; r < num_rows_; ++r) {
      if (r == row) continue;
      const double factor = at(r, col);
      if (factor == 0.0) continue;
      double* target = &matrix_[static_cast<std::size_t>(r) *
                                (static_cast<std::size_t>(num_cols_) + 1)];
      for (const int c : pivot_cols_) {
        target[c] -= factor * prow[c];
      }
      target[col] = 0.0;  // exact by construction; keep it sparse
    }
    // During warm-start re-basing the reduced costs are not built yet.
    if (!reduced_.empty()) {
      const double reduced_factor = reduced_[static_cast<std::size_t>(col)];
      if (reduced_factor != 0.0) {
        for (const int c : pivot_cols_) {
          if (c < num_cols_) {
            reduced_[static_cast<std::size_t>(c)] -=
                reduced_factor * prow[c];
          }
        }
        reduced_[static_cast<std::size_t>(col)] = 0.0;
      }
    }
    in_basis_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(row)])] = 0;
    in_basis_[static_cast<std::size_t>(col)] = 1;
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// Makes `col` basic in `row` with the entering variable moving by
  /// delta_j from its current bound, updating the basic values explicitly
  /// (the RHS column holds x_B, not B^-1 b, once at-upper columns exist).
  void bounded_pivot(int row, int col, double delta_j) {
    const double entering_old =
        at_upper_[static_cast<std::size_t>(col)]
            ? upper_[static_cast<std::size_t>(col)]
            : 0.0;
    for (int r = 0; r < num_rows_; ++r) {
      const double a = at_const(r, col);
      if (a != 0.0) rhs(r) -= delta_j * a;
    }
    rhs(row) = entering_old + delta_j;
    at_upper_[static_cast<std::size_t>(col)] = 0;
    pivot(row, col, false);
  }

  SolveStatus iterate(long long& iterations) {
    // Switch to Bland's rule after a burn-in to break potential cycles.
    const long long bland_after = 64LL * (num_rows_ + num_cols_) + 1024;
    const double tol = options_.tolerance;
    long long local = 0;
    for (;;) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::IterationLimit;
      }
      const bool bland = local > bland_after;
      // Entering column: most negative reduced cost at lower bound, most
      // positive at upper bound (Dantzig), or first eligible (Bland).
      int entering = -1;
      int dir = 0;
      double best_score = -tol;
      for (int c = 0; c < num_cols_; ++c) {
        if (!column_allowed(c) || in_basis_[static_cast<std::size_t>(c)]) {
          continue;
        }
        const bool up = at_upper_[static_cast<std::size_t>(c)] != 0;
        const double r = reduced_[static_cast<std::size_t>(c)];
        const double score = up ? -r : r;
        if (score < best_score) {
          best_score = score;
          entering = c;
          dir = up ? -1 : 1;
          if (bland) break;
        }
      }
      if (entering < 0) return SolveStatus::Optimal;

      // Bounded ratio test: the entering variable moves by t in direction
      // dir; basic values move by -dir * t * a. Blockers are basics
      // hitting either end of their box, or the entering variable
      // reaching its own opposite bound (a pivot-free flip).
      double t_limit = upper_[static_cast<std::size_t>(entering)];
      int block_row = -1;
      bool block_above = false;
      for (int r = 0; r < num_rows_; ++r) {
        const double a = at_const(r, entering);
        const double delta = -dir * a;  // d x_B[r] / dt
        if (delta < -tol) {
          const double limit = rhs_const(r) / -delta;
          if (limit < t_limit - tol ||
              (limit < t_limit + tol && block_row >= 0 &&
               basis_[static_cast<std::size_t>(r)] <
                   basis_[static_cast<std::size_t>(block_row)])) {
            t_limit = limit;
            block_row = r;
            block_above = false;
          }
        } else if (delta > tol) {
          const double u = upper_[static_cast<std::size_t>(
              basis_[static_cast<std::size_t>(r)])];
          if (!std::isfinite(u)) continue;
          const double limit = (u - rhs_const(r)) / delta;
          if (limit < t_limit - tol ||
              (limit < t_limit + tol && block_row >= 0 &&
               basis_[static_cast<std::size_t>(r)] <
                   basis_[static_cast<std::size_t>(block_row)])) {
            t_limit = limit;
            block_row = r;
            block_above = true;
          }
        }
      }
      if (block_row < 0) {
        if (!std::isfinite(t_limit)) return SolveStatus::Unbounded;
        // Bound flip: the entering variable crosses to its other bound
        // without any basis change — O(rows) instead of a pivot.
        const double delta_j = dir * t_limit;
        for (int r = 0; r < num_rows_; ++r) {
          const double a = at_const(r, entering);
          if (a != 0.0) rhs(r) -= delta_j * a;
        }
        at_upper_[static_cast<std::size_t>(entering)] ^= 1;
      } else {
        const int leaving = basis_[static_cast<std::size_t>(block_row)];
        bounded_pivot(block_row, entering,
                      dir * std::max(t_limit, 0.0));
        at_upper_[static_cast<std::size_t>(leaving)] = block_above ? 1 : 0;
      }
      ++iterations;
      ++local;
    }
  }

  /// After phase 1, tries to drive basic artificials (at value ~0) out of
  /// the basis; rows where that is impossible are redundant and harmless.
  void pivot_out_artificials() {
    const double tol = options_.tolerance;
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < first_artificial_) continue;
      for (int c = 0; c < first_artificial_; ++c) {
        if (std::abs(at_const(r, c)) > tol) {
          // Drive the artificial exactly to zero; the entering variable
          // absorbs the (tiny) residual.
          const int leaving = b;
          bounded_pivot(r, c, rhs_const(r) / at_const(r, c));
          at_upper_[static_cast<std::size_t>(leaving)] = 0;
          break;
        }
      }
    }
    phase1_done_ = true;
  }

  int num_rows_;
  int num_structural_;
  int num_cols_ = 0;
  int first_artificial_ = 0;
  bool phase1_done_ = false;
  SimplexOptions options_;
  std::vector<double> matrix_;   ///< num_rows x (num_cols + 1), row-major
  std::vector<double> reduced_;  ///< reduced costs per column
  std::vector<double> cost_;
  std::vector<int> basis_;
  std::vector<double> upper_;          ///< box size per column (shifted)
  std::vector<unsigned char> at_upper_;  ///< nonbasic-at-upper flags
  std::vector<unsigned char> in_basis_;  ///< membership flag per column
  std::vector<int> dual_column_;   ///< per row: column whose rc encodes y_r
  std::vector<double> dual_sign_;  ///< per row: sign applied to that rc
  std::vector<double> scratch_;    ///< update_rhs workspace
  std::vector<double> effective_;  ///< update_rhs workspace
  std::vector<int> pivot_cols_;    ///< pivot-row support workspace
};

/// Standardized rows for the model: lower bounds shifted out, negative RHS
/// handled by numeric negation (sense preserved). Upper bounds do not
/// produce rows — the bounded-variable simplex handles them.
std::vector<StdRow> standardize(const Model& model) {
  std::vector<StdRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()));
  for (const Constraint& constraint : model.constraints()) {
    StdRow row;
    row.sense = constraint.sense;
    double rhs = constraint.rhs;
    for (const auto& [var, coeff] : constraint.terms) {
      rhs -= coeff * model.variable(var).lower;
      row.terms.emplace_back(var, coeff);
    }
    if (rhs < 0.0) {
      rhs = -rhs;
      for (auto& [var, coeff] : row.terms) coeff = -coeff;
      row.flipped = true;
    }
    row.rhs = rhs;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Shifted upper bounds (upper - lower) per variable.
std::vector<double> shifted_uppers(const Model& model) {
  std::vector<double> uppers(
      static_cast<std::size_t>(model.num_variables()), kInf);
  for (int v = 0; v < model.num_variables(); ++v) {
    const Variable& var = model.variable(v);
    if (std::isfinite(var.upper)) {
      uppers[static_cast<std::size_t>(v)] = var.upper - var.lower;
    }
  }
  return uppers;
}

/// True when some variable's bounds cross (empty box -> infeasible).
bool bounds_crossed(const Model& model, double tol) {
  for (int v = 0; v < model.num_variables(); ++v) {
    const Variable& var = model.variable(v);
    if (var.lower > var.upper + tol) return true;
  }
  return false;
}

/// Shared result assembly for lp::solve and IncrementalSimplex::resolve:
/// structural values shifted back by the lower bounds, objective, duals
/// and (optionally — the incremental path keeps its warm state in the
/// tableau instead) the basis snapshot.
void fill_result(const Tableau& tableau, const Model& model,
                 SolveStatus status, bool with_basis, LpResult& result) {
  result.status = status;
  if (status != SolveStatus::Optimal) return;
  tableau.structural_values(result.x);
  for (int v = 0; v < model.num_variables(); ++v) {
    result.x[static_cast<std::size_t>(v)] += model.variable(v).lower;
  }
  result.objective = model.objective_value(result.x);
  result.duals.resize(static_cast<std::size_t>(model.num_constraints()));
  for (int r = 0; r < model.num_constraints(); ++r) {
    result.duals[static_cast<std::size_t>(r)] = tableau.dual_of_row(r);
  }
  if (with_basis) result.basis = tableau.snapshot();
}

}  // namespace

LpResult solve(const Model& model, const SimplexOptions& options,
               const Basis* warm_basis) {
  const int n = model.num_variables();

  LpResult result;
  result.x.assign(static_cast<std::size_t>(n), 0.0);
  if (bounds_crossed(model, options.tolerance)) {
    result.status = SolveStatus::Infeasible;
    return result;
  }

  const std::vector<StdRow> rows = standardize(model);
  const std::vector<double> uppers = shifted_uppers(model);

  const bool maximize = model.objective() == Objective::Maximize;
  std::vector<double> cost(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    const double c = model.variable(v).objective;
    cost[static_cast<std::size_t>(v)] = maximize ? -c : c;
  }

  if (warm_basis != nullptr) {
    Tableau tableau(rows, n, options);
    tableau.set_structural_uppers(uppers);
    if (tableau.warm_start(*warm_basis)) {
      // Dual-simplex repair + primal finish replaces phase 1 entirely;
      // its outcomes (including Infeasible and Unbounded) are genuine.
      if (const auto status = tableau.reoptimize(cost, result.iterations)) {
        fill_result(tableau, model, *status, /*with_basis=*/true, result);
        return result;
      }
    }
    // Stale or singular basis: fall through to a fresh cold start.
  }

  Tableau tableau(rows, n, options);
  tableau.set_structural_uppers(uppers);
  SolveStatus status = tableau.phase1(result.iterations);
  if (status != SolveStatus::Optimal) {
    result.status = status;
    return result;
  }
  fill_result(tableau, model, tableau.phase2(cost, result.iterations),
              /*with_basis=*/true, result);
  return result;
}

struct IncrementalSimplex::Impl {
  SimplexOptions options;
  int n = 0;
  std::vector<StdRow> rows;        ///< standardized at setup; flips fixed
  std::vector<double> flip_base;   ///< per row: flip_sign * original rhs
  /// Original standardized matrix, column-wise per structural variable:
  /// (row, coefficient) — needed to fold at-upper columns into the RHS.
  std::vector<std::vector<std::pair<int, double>>> structural_cols;
  std::vector<double> cost;        ///< minimization-oriented costs
  std::unique_ptr<Tableau> tableau;
  std::vector<double> std_rhs;     ///< workspace
  std::vector<double> uppers;      ///< workspace (shifted uppers)
  bool ready = false;  ///< tableau carries a reusable (dual-feasible) basis

  /// (Re-)standardizes against the model's current bounds. Fixes the flip
  /// pattern — and with it the matrix — until the next rebuild.
  void setup(const Model& model) {
    n = model.num_variables();
    rows = standardize(model);
    flip_base.assign(rows.size(), 0.0);
    structural_cols.assign(static_cast<std::size_t>(n), {});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double f = rows[r].flipped ? -1.0 : 1.0;
      flip_base[r] =
          f * model.constraint(static_cast<int>(r)).rhs;
      for (const auto& [var, coeff] : rows[r].terms) {
        structural_cols[static_cast<std::size_t>(var)].emplace_back(
            static_cast<int>(r), coeff);
      }
    }
    cost.clear();
    push_costs(model, 0);
    tableau = std::make_unique<Tableau>(rows, n, options);
  }

  /// Appends the minimization-oriented cost of every variable from `from`.
  void push_costs(const Model& model, int from) {
    const bool maximize = model.objective() == Objective::Maximize;
    for (int v = from; v < model.num_variables(); ++v) {
      const double c = model.variable(v).objective;
      cost.push_back(maximize ? -c : c);
    }
  }

  /// Standardized RHS under the model's current bounds, using the flip
  /// pattern fixed at setup (entries may be negative; dual simplex copes).
  void compute_rhs(const Model& model) {
    std_rhs.assign(rows.size(), 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double rhs = flip_base[r];
      for (const auto& [var, coeff] : rows[r].terms) {
        rhs -= coeff * model.variable(var).lower;
      }
      std_rhs[r] = rhs;
    }
  }

  LpResult extract(const Model& model, SolveStatus status,
                   long long iterations) const {
    LpResult result;
    result.iterations = iterations;
    result.x.assign(static_cast<std::size_t>(n), 0.0);
    // No basis snapshot: the warm state lives in the persistent tableau,
    // and copying it per node would dominate the hot branch-and-bound
    // loop this class exists for.
    fill_result(*tableau, model, status, /*with_basis=*/false, result);
    return result;
  }

  /// Adopts the variables appended to `model` since the last resolve:
  /// extends the standardized rows, column lists and costs with the setup
  /// flips, then appends the tableau columns. Returns false when the
  /// tableau cannot take them (see Tableau::artificial_basic).
  bool append_columns(const Model& model) {
    if (tableau->artificial_basic()) return false;
    const int grown = model.num_variables();
    std::vector<std::vector<std::pair<int, double>>> columns(
        static_cast<std::size_t>(grown - n));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double f = rows[r].flipped ? -1.0 : 1.0;
      for (const auto& [var, coeff] :
           model.constraint(static_cast<int>(r)).terms) {
        if (var < n) continue;
        columns[static_cast<std::size_t>(var - n)].emplace_back(
            static_cast<int>(r), f * coeff);
        rows[r].terms.emplace_back(var, f * coeff);
      }
    }
    push_costs(model, n);
    structural_cols.insert(structural_cols.end(), columns.begin(),
                           columns.end());
    tableau->append_structural(columns);
    n = grown;
    return true;
  }

  LpResult resolve(const Model& model) {
    long long iterations = 0;
    if (bounds_crossed(model, options.tolerance)) {
      LpResult result;
      result.status = SolveStatus::Infeasible;
      result.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
      return result;
    }
    const bool appended = ready && model.num_variables() > n;
    if (model.num_constraints() != static_cast<int>(rows.size()) ||
        model.num_variables() < n || (appended && !append_columns(model))) {
      ready = false;
    }
    if (!ready) {
      // Cold start: standardize fresh (RHS >= 0 under the current bounds
      // by construction), full phase 1 + phase 2.
      setup(model);
      tableau->set_structural_uppers(shifted_uppers(model));
      SolveStatus status = tableau->phase1(iterations);
      if (status == SolveStatus::Optimal) {
        status = tableau->phase2(cost, iterations);
        // Phase-2 costs are loaded into the reduced costs, so the basis
        // is reusable; a phase-1 failure leaves phase-1 costs behind and
        // forces a rebuild on the next resolve.
        ready = true;
      }
      return extract(model, status, iterations);
    }
    uppers = shifted_uppers(model);
    tableau->set_structural_uppers(uppers);
    compute_rhs(model);
    tableau->update_rhs(std_rhs, structural_cols);
    // Bound changes alone keep the basis dual feasible: dual-simplex repair.
    // Appended columns keep it primal feasible instead: reoptimize()
    // reprices every column and finishes with primal iterations (or repairs
    // when nothing new prices out).
    std::optional<SolveStatus> status;
    if (appended) {
      status = tableau->reoptimize(cost, iterations);
    } else if (tableau->dual_feasible()) {
      status = tableau->repair_and_iterate(iterations);
    }
    if (!status) {
      // Neither kind of warm state survived (an abandoned primal iteration
      // on the LP iteration limit, or appends together with bound changes
      // that broke both feasibilities): rebuild once from scratch.
      ready = false;
      return resolve(model);
    }
    return extract(model, *status, iterations);
  }
};

IncrementalSimplex::IncrementalSimplex(const Model& model,
                                       const SimplexOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->n = model.num_variables();  // the full setup runs on first resolve
}

IncrementalSimplex::~IncrementalSimplex() = default;
IncrementalSimplex::IncrementalSimplex(IncrementalSimplex&&) noexcept =
    default;
IncrementalSimplex& IncrementalSimplex::operator=(
    IncrementalSimplex&&) noexcept = default;

LpResult IncrementalSimplex::resolve(const Model& model) {
  return impl_->resolve(model);
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace bagsched::lp
