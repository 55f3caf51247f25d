#include "milp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace bagsched::milp {

namespace {

struct Node {
  // Variable-bound overrides relative to the root model.
  std::vector<std::pair<int, double>> lower_overrides;
  std::vector<std::pair<int, double>> upper_overrides;
  double bound = -std::numeric_limits<double>::infinity();
  // Optimal basis of the parent LP, shared by both children: it stays dual
  // feasible under the bound tightening, so the child LP runs dual-simplex
  // repair pivots instead of simplex phase 1. Only used on the fallback
  // path — with the persistent IncrementalSimplex the warm state lives in
  // the tableau itself.
  std::shared_ptr<const lp::Basis> warm_basis;

  // Best-bound search: smaller LP bound first (minimization).
  bool operator<(const Node& other) const { return bound > other.bound; }
};

/// Applies the node's bound overrides to the shared model, recording undo
/// entries; returns false when the overrides cross (empty branch).
class BoundDelta {
 public:
  BoundDelta(lp::Model& model, const Node& node, double tol)
      : model_(model) {
    undo_.reserve(node.lower_overrides.size() +
                  node.upper_overrides.size());
    for (const auto& [var, lb] : node.lower_overrides) {
      lp::Variable& v = model_.mutable_variable(var);
      undo_.emplace_back(var, v.lower, v.upper);
      v.lower = std::max(v.lower, lb);
      if (v.lower > v.upper + tol) crossed_ = true;
    }
    for (const auto& [var, ub] : node.upper_overrides) {
      lp::Variable& v = model_.mutable_variable(var);
      undo_.emplace_back(var, v.lower, v.upper);
      v.upper = std::min(v.upper, ub);
      if (v.lower > v.upper + tol) crossed_ = true;
    }
  }

  ~BoundDelta() {
    // Reverse order restores variables touched more than once.
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      lp::Variable& v = model_.mutable_variable(std::get<0>(*it));
      v.lower = std::get<1>(*it);
      v.upper = std::get<2>(*it);
    }
  }

  BoundDelta(const BoundDelta&) = delete;
  BoundDelta& operator=(const BoundDelta&) = delete;

  bool crossed() const { return crossed_; }

 private:
  lp::Model& model_;
  std::vector<std::tuple<int, double, double>> undo_;
  bool crossed_ = false;
};

/// Most-fractional branching variable; -1 when integral.
int pick_branch_variable(const std::vector<double>& x,
                         const std::vector<int>& integer_variables,
                         double tol) {
  int best = -1;
  double best_score = tol;
  for (int var : integer_variables) {
    const double value = x[static_cast<std::size_t>(var)];
    const double frac = value - std::floor(value);
    const double score = std::min(frac, 1.0 - frac);
    if (score > best_score) {
      best_score = score;
      best = var;
    }
  }
  return best;
}

}  // namespace

MilpResult solve(const lp::Model& root_model,
                 const std::vector<int>& integer_variables,
                 const MilpOptions& options) {
  util::Stopwatch timer;
  MilpResult result;

  const bool maximize = root_model.objective() == lp::Objective::Maximize;
  // Internally minimize: flip the sense and objective once at the root
  // instead of copying + flipping at every node; `sign` maps objective
  // values back to the model's orientation.
  const double sign = maximize ? -1.0 : 1.0;
  lp::Model work = root_model;  // the only model copy of the whole search
  if (maximize) {
    work.set_objective(lp::Objective::Minimize);
    for (int v = 0; v < work.num_variables(); ++v) {
      work.mutable_variable(v).objective = -work.variable(v).objective;
    }
  }

  // One persistent tableau for the whole search when every branched
  // variable has a finite upper bound; otherwise each node re-solves with
  // the parent basis as a warm start. IncrementalSimplex itself accepts
  // infinite upper bounds (bounds never add standardized rows), so this
  // fork is historical: the models with an unbounded integer variable
  // (e.g. the pattern master) have simply not been moved to the
  // persistent tableau yet.
  bool incremental_ok = true;
  for (const int var : integer_variables) {
    if (!std::isfinite(work.variable(var).upper)) {
      incremental_ok = false;
      break;
    }
  }
  std::optional<lp::IncrementalSimplex> incremental;
  if (incremental_ok) incremental.emplace(work, options.lp_options);

  double incumbent_value = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent;

  std::priority_queue<Node> open;
  open.push(Node{});
  // Plunging: after branching, dive straight into one child instead of
  // returning to the best-bound queue. Consecutive LPs then differ by a
  // single bound, which keeps the dual-simplex warm-start repair to a few
  // pivots; the other child goes to the queue as usual.
  std::optional<Node> dive;

  // Tightest bound among nodes dropped on an LP iteration limit: they are
  // no longer searched, so the proven bound may not rise above them.
  double dropped_bound = std::numeric_limits<double>::infinity();
  bool truncated = false;

  while (dive.has_value() || !open.empty()) {
    const bool stopped = util::stop_requested(options.cancel);
    if (stopped || result.nodes_explored >= options.max_nodes ||
        timer.seconds() > options.time_limit_seconds) {
      truncated = true;
      result.cancelled = stopped;
      break;
    }
    Node node;
    if (dive.has_value()) {
      node = std::move(*dive);
      dive.reset();
    } else {
      node = open.top();
      open.pop();
    }
    ++result.nodes_explored;

    // Bound-based pruning against the incumbent.
    if (node.bound >= incumbent_value - options.relative_gap *
                                            std::abs(incumbent_value) &&
        !incumbent.empty() && result.nodes_explored > 1) {
      continue;
    }

    // Apply this node's bound overrides in place; the delta undoes itself
    // when the iteration ends (zero model copies per node).
    BoundDelta delta(work, node, options.integrality_tolerance);
    if (delta.crossed()) continue;  // crossed bounds: empty branch

    lp::LpResult lp_result =
        incremental
            ? incremental->resolve(work)
            : lp::solve(work, options.lp_options,
                        node.warm_basis ? node.warm_basis.get() : nullptr);
    result.lp_iterations += lp_result.iterations;
    if (lp_result.status == lp::SolveStatus::Infeasible) continue;
    if (lp_result.status == lp::SolveStatus::Unbounded) {
      // Integral restriction of an unbounded relaxation: report and stop.
      result.status = MilpStatus::LimitReached;
      result.best_bound = sign * -std::numeric_limits<double>::infinity();
      return result;
    }
    if (lp_result.status == lp::SolveStatus::IterationLimit) {
      truncated = true;  // dropped a node we could not bound
      dropped_bound = std::min(dropped_bound, node.bound);
      continue;
    }

    // The work model is already minimization-oriented.
    const double node_bound = lp_result.objective;
    if (!incumbent.empty() &&
        node_bound >= incumbent_value -
                          options.relative_gap * std::abs(incumbent_value)) {
      continue;  // cannot improve
    }

    const int branch_var = pick_branch_variable(
        lp_result.x, integer_variables, options.integrality_tolerance);
    if (branch_var < 0) {
      // Integral solution.
      if (node_bound < incumbent_value) {
        incumbent_value = node_bound;
        incumbent = lp_result.x;
        // Snap integer variables onto exact integers.
        for (int var : integer_variables) {
          incumbent[static_cast<std::size_t>(var)] =
              std::round(incumbent[static_cast<std::size_t>(var)]);
        }
        if (options.on_incumbent) {
          options.on_incumbent(sign * incumbent_value);
        }
      }
      continue;
    }

    const double value = lp_result.x[static_cast<std::size_t>(branch_var)];
    // With the persistent tableau the warm basis lives in the tableau
    // itself; per-node bases are only kept on the fallback path.
    std::shared_ptr<const lp::Basis> warm;
    if (!incremental) {
      warm = std::make_shared<const lp::Basis>(std::move(lp_result.basis));
    }
    Node down = node;
    down.bound = node_bound;
    down.warm_basis = warm;
    down.upper_overrides.emplace_back(branch_var, std::floor(value));
    Node up = std::move(node);
    up.bound = node_bound;
    up.warm_basis = std::move(warm);
    up.lower_overrides.emplace_back(branch_var, std::ceil(value));
    // Dive into the child the fractional value leans towards; the sibling
    // joins the best-bound queue.
    if (value - std::floor(value) <= 0.5) {
      dive = std::move(down);
      open.push(std::move(up));
    } else {
      dive = std::move(up);
      open.push(std::move(down));
    }
  }

  // Proven lower bound (minimization orientation) over everything still
  // unexplored: the open set (its top has the smallest bound) and any
  // nodes dropped on LP iteration limits.
  double unexplored_bound = std::numeric_limits<double>::infinity();
  if (!open.empty()) unexplored_bound = open.top().bound;
  if (dive.has_value()) {
    unexplored_bound = std::min(unexplored_bound, dive->bound);
  }
  unexplored_bound = std::min(unexplored_bound, dropped_bound);

  if (incumbent.empty()) {
    // Exhausting the tree without truncation proves infeasibility. On a
    // truncated exit the tightest unexplored bound is still a valid bound
    // on any integral solution, so callers see a correct gap.
    result.status =
        truncated ? MilpStatus::LimitReached : MilpStatus::Infeasible;
    if (truncated) result.best_bound = sign * unexplored_bound;
    return result;
  }

  result.x = std::move(incumbent);
  result.objective = sign * incumbent_value;
  result.best_bound =
      sign * std::min(incumbent_value, unexplored_bound);
  const bool exhausted =
      open.empty() && !dive.has_value() &&
      dropped_bound == std::numeric_limits<double>::infinity();
  result.status = exhausted ? MilpStatus::Optimal : MilpStatus::Feasible;
  // Tight gap also counts as proven optimal.
  if (result.status == MilpStatus::Feasible) {
    const double gap =
        std::abs(incumbent_value - unexplored_bound) /
        std::max(1.0, std::abs(incumbent_value));
    if (gap <= options.relative_gap) result.status = MilpStatus::Optimal;
  }
  return result;
}

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::Optimal: return "optimal";
    case MilpStatus::Feasible: return "feasible";
    case MilpStatus::Infeasible: return "infeasible";
    case MilpStatus::LimitReached: return "limit-reached";
  }
  return "?";
}

}  // namespace bagsched::milp
