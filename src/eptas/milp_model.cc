#include "eptas/milp_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "lp/simplex.h"
#include "milp/branch_and_bound.h"
#include "sched/greedy_bags.h"
#include "util/logging.h"

namespace bagsched::eptas {

using model::BagId;
using model::JobId;

namespace {

constexpr double kPenaltyCost = 1e4;

/// Everything needed to instantiate the master LP for a pattern pool.
struct MasterShape {
  int num_machines = 0;
  double free_area_rhs = 0.0;  ///< m*T' - small/medium area (row R4 rhs)
  /// Small-job count per priority-bag index (row R5 rhs = m - count).
  std::vector<int> priority_small_count;
};

MasterShape compute_shape(const PatternSpace& space,
                          const Transformed& transformed,
                          const Classification& cls) {
  MasterShape shape;
  const model::Instance& inst = transformed.instance;
  shape.num_machines = inst.num_machines();

  double needed_area = 0.0;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    if (transformed.class_of(j) == JobClass::Small) {
      needed_area += inst.job(j).size;
    }
  }
  for (JobId j : transformed.removed_medium) {
    needed_area += cls.size_of(j);
  }
  shape.free_area_rhs =
      shape.num_machines * cls.target_height - needed_area;

  shape.priority_small_count.assign(
      static_cast<std::size_t>(space.num_priority()), 0);
  for (int i = 0; i < space.num_priority(); ++i) {
    const BagId bag = space.priority_bags[static_cast<std::size_t>(i)].bag;
    for (JobId j : inst.bag(bag)) {
      if (transformed.class_of(j) == JobClass::Small) {
        ++shape.priority_small_count[static_cast<std::size_t>(i)];
      }
    }
  }
  return shape;
}

/// The master LP/MILP of one probe. Built once: the rows and their penalty
/// variables first, then one column per pattern through
/// lp::Model::add_column, so pattern p is variable first_pattern_var + p
/// and priced patterns append to the same model.
struct BuiltMaster {
  lp::Model model;
  int first_pattern_var = 0;
  std::vector<int> penalty_vars;
  // Row ids for dual extraction and column terms.
  int row_machine = 0;
  std::vector<std::vector<int>> rows_priority;  ///< per (pbag, size)
  std::vector<int> rows_x;
  int row_area = 0;
  std::vector<int> rows_small;  ///< -1 when the bag has no small jobs

  /// Appends the pattern's column as the next variable.
  void add_pattern(const PatternSpace& space, const Pattern& pattern) {
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(row_machine, 1.0);  // R1
    for (int i = 0; i < space.num_priority(); ++i) {
      const int choice = pattern.pchoice[static_cast<std::size_t>(i)];
      if (choice < 0) continue;
      terms.emplace_back(rows_priority[static_cast<std::size_t>(i)]
                                      [static_cast<std::size_t>(choice)],
                         1.0);  // R2
    }
    for (int s = 0; s < space.num_x_sizes(); ++s) {
      const int count = pattern.xcount[static_cast<std::size_t>(s)];
      if (count > 0) {
        terms.emplace_back(rows_x[static_cast<std::size_t>(s)], count);  // R3
      }
    }
    terms.emplace_back(row_area, pattern.height);  // R4 (zero is dropped)
    for (int i = 0; i < space.num_priority(); ++i) {
      const int row = rows_small[static_cast<std::size_t>(i)];
      if (row >= 0 && pattern.contains_priority(i)) {
        terms.emplace_back(row, 1.0);  // R5
      }
    }
    model.add_column(pattern_cost(pattern), terms);
  }
};

BuiltMaster build_master(const PatternSpace& space, const MasterShape& shape,
                         const std::vector<Pattern>& pool) {
  BuiltMaster built;
  lp::Model& model = built.model;
  model.set_objective(lp::Objective::Minimize);

  // R1: sum x_p <= m.
  built.row_machine =
      model.add_constraint({}, lp::Sense::LessEqual, shape.num_machines);

  // R2: priority coverage (with penalty).
  built.rows_priority.resize(
      static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    const auto& pbag = space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      const int penalty = model.add_variable(kPenaltyCost);
      built.penalty_vars.push_back(penalty);
      built.rows_priority[static_cast<std::size_t>(i)].push_back(
          model.add_constraint({{penalty, 1.0}}, lp::Sense::GreaterEqual,
                               pbag.counts[s]));
    }
  }

  // R3: x-size coverage (with penalty).
  for (int s = 0; s < space.num_x_sizes(); ++s) {
    const int penalty = model.add_variable(kPenaltyCost);
    built.penalty_vars.push_back(penalty);
    built.rows_x.push_back(model.add_constraint(
        {{penalty, 1.0}}, lp::Sense::GreaterEqual,
        space.x_avail[static_cast<std::size_t>(s)]));
  }

  // R4: aggregate free-area.
  built.row_area = model.add_constraint({}, lp::Sense::LessEqual,
                                        shape.free_area_rhs);

  // R5: per priority bag with small jobs.
  built.rows_small.assign(static_cast<std::size_t>(space.num_priority()),
                          -1);
  for (int i = 0; i < space.num_priority(); ++i) {
    const int small_count =
        shape.priority_small_count[static_cast<std::size_t>(i)];
    if (small_count == 0) continue;
    built.rows_small[static_cast<std::size_t>(i)] = model.add_constraint(
        {}, lp::Sense::LessEqual, shape.num_machines - small_count);
  }

  built.first_pattern_var = model.num_variables();
  for (const Pattern& pattern : pool) built.add_pattern(space, pattern);
  return built;
}

PricingDuals extract_duals(const PatternSpace& space,
                           const BuiltMaster& built,
                           const lp::LpResult& lp_result) {
  PricingDuals duals;
  auto dual_of = [&](int row) {
    return row >= 0 ? lp_result.duals[static_cast<std::size_t>(row)] : 0.0;
  };
  duals.machine = dual_of(built.row_machine);
  duals.priority.resize(static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    for (int row : built.rows_priority[static_cast<std::size_t>(i)]) {
      duals.priority[static_cast<std::size_t>(i)].push_back(dual_of(row));
    }
  }
  for (int row : built.rows_x) duals.x_size.push_back(dual_of(row));
  duals.area = dual_of(built.row_area);
  duals.small_block.resize(static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    duals.small_block[static_cast<std::size_t>(i)] =
        dual_of(built.rows_small[static_cast<std::size_t>(i)]);
  }
  return duals;
}

/// Seed columns: the empty pattern, one singleton per entry, and the ml
/// content of every machine of a greedy schedule of I' (when within T').
std::vector<Pattern> seed_pool(const PatternSpace& space,
                               const Transformed& transformed) {
  std::vector<Pattern> pool;
  std::set<std::vector<int>> seen;
  auto push = [&](const Pattern& pattern) {
    if (seen.insert(pattern.signature()).second) pool.push_back(pattern);
  };

  push(empty_pattern(space));
  for (int i = 0; i < space.num_priority(); ++i) {
    const auto& pbag = space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      if (pbag.sizes[s] > space.max_height + 1e-12) continue;
      Pattern pattern = empty_pattern(space);
      pattern.pchoice[static_cast<std::size_t>(i)] = static_cast<int>(s);
      pattern.height = pbag.sizes[s];
      push(pattern);
    }
  }
  for (int s = 0; s < space.num_x_sizes(); ++s) {
    const double size = space.x_sizes[static_cast<std::size_t>(s)];
    const int max_count = std::min(
        space.x_avail[static_cast<std::size_t>(s)],
        static_cast<int>(std::floor(space.max_height / size + 1e-12)));
    for (int c = 1; c <= max_count; ++c) {
      Pattern pattern = empty_pattern(space);
      pattern.xcount[static_cast<std::size_t>(s)] = c;
      pattern.height = size * c;
      push(pattern);
    }
  }
  // Greedy schedule of I' as a warm start.
  if (transformed.instance.is_feasible()) {
    const model::Schedule greedy =
        sched::greedy_bags(transformed.instance);
    for (const auto& machine_jobs : greedy.machine_jobs()) {
      const auto pattern =
          pattern_from_machine(space, transformed, machine_jobs);
      if (pattern) push(*pattern);
    }
  }
  return pool;
}

}  // namespace

std::optional<MasterSolution> solve_master(
    const PatternSpace& space, const Transformed& transformed,
    const Classification& cls, const EptasConfig& config,
    const std::vector<std::vector<model::JobId>>* warm_machines) {
  const MasterShape shape = compute_shape(space, transformed, cls);
  if (shape.free_area_rhs < -1e-9) return std::nullopt;  // area alone fails
  for (int i = 0; i < space.num_priority(); ++i) {
    if (shape.priority_small_count[static_cast<std::size_t>(i)] >
        shape.num_machines) {
      return std::nullopt;
    }
  }

  MasterStats stats;
  std::vector<Pattern> pool = seed_pool(space, transformed);
  std::set<std::vector<int>> signatures;
  for (const Pattern& pattern : pool) signatures.insert(pattern.signature());

  // --- Cross-guess warm start: previous probe's machines as columns. -------
  std::set<std::size_t> warm_indices;
  if (warm_machines != nullptr) {
    for (const auto& machine_jobs : *warm_machines) {
      if (static_cast<int>(pool.size()) >= config.max_milp_patterns) break;
      const auto pattern =
          pattern_from_machine(space, transformed, machine_jobs);
      if (!pattern) continue;
      if (!signatures.insert(pattern->signature()).second) continue;
      warm_indices.insert(pool.size());
      pool.push_back(*pattern);
    }
    stats.warm_columns = static_cast<int>(warm_indices.size());
  }

  // --- Column generation at the root ---------------------------------------
  // One model and one simplex tableau for the whole probe: each priced
  // pattern is appended as a column and the next LP continues from the
  // previous optimal basis, which the new column leaves primal feasible.
  BuiltMaster built = build_master(space, shape, pool);
  lp::IncrementalSimplex master_lp(built.model);
  const int max_rounds = 80;
  for (int round = 0; round < max_rounds; ++round) {
    if (util::stop_requested(config.milp.cancel)) break;
    if (static_cast<int>(pool.size()) >= config.max_milp_patterns) break;
    const lp::LpResult lp_result = master_lp.resolve(built.model);
    stats.lp_iterations += lp_result.iterations;
    if (lp_result.status != lp::SolveStatus::Optimal) break;
    ++stats.pricing_rounds;

    const PricingDuals duals = extract_duals(space, built, lp_result);
    bool capped = false;
    const auto column = price_pattern(space, duals, {}, &capped);
    if (capped) ++stats.pricing_capped;
    if (!column) break;  // LP optimal over all patterns
    if (!signatures.insert(column->signature()).second) break;  // repeat
    pool.push_back(*column);
    built.add_pattern(space, *column);
  }
  stats.columns = static_cast<int>(pool.size());

  // --- Integral solve over the generated pool ------------------------------
  std::vector<int> integer_vars;
  integer_vars.reserve(pool.size());
  for (std::size_t p = 0; p < pool.size(); ++p) {
    integer_vars.push_back(built.first_pattern_var + static_cast<int>(p));
  }
  const milp::MilpResult milp_result =
      milp::solve(built.model, integer_vars, config.milp);
  stats.milp_nodes = milp_result.nodes_explored;
  if (milp_result.status != milp::MilpStatus::Optimal &&
      milp_result.status != milp::MilpStatus::Feasible) {
    return std::nullopt;
  }
  // Any active penalty means some coverage row could not be met.
  for (int penalty : built.penalty_vars) {
    if (milp_result.x[static_cast<std::size_t>(penalty)] > 1e-6) {
      return std::nullopt;
    }
  }

  MasterSolution solution;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    const int count = static_cast<int>(std::llround(
        milp_result.x[static_cast<std::size_t>(integer_vars[p])]));
    if (count > 0) {
      solution.patterns.push_back(pool[p]);
      solution.multiplicity.push_back(count);
      if (warm_indices.count(p) > 0) ++stats.warm_columns_used;
    }
  }
  solution.stats = stats;
  return solution;
}

}  // namespace bagsched::eptas
