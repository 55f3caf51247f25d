// The paper's MILP, literally (section 3): full enumeration of the
// Definition-3 patterns and the exact constraint system (1)-(9) with
// per-pattern small-job variables y^{B_l^s}_p.
//
// This is intractable beyond small instances — exactly as the paper's
// constants predict — but it serves three purposes:
//  * fidelity: the published program, runnable and testable;
//  * cross-check: on instances where both run, the enumerated MILP and the
//    column-generated master (milp_model.h) must agree on feasibility;
//  * measurement: bench_paper's E10 quantifies the blow-up the practical
//    profile avoids.
//
// Enable it end-to-end with EptasConfig::use_enumerated_milp.
#pragma once

#include <optional>
#include <vector>

#include "eptas/classify.h"
#include "eptas/config.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"

namespace bagsched::eptas {

/// Depth-first enumeration of every valid pattern (Definition 3): at most
/// one entry per priority bag, arbitrary B_x multiplicities, height <= T'.
/// Returns nullopt when more than max_patterns exist (the theory-sized
/// blow-up; callers fall back to column generation).
std::optional<std::vector<Pattern>> enumerate_all_patterns(
    const PatternSpace& space, int max_patterns);

struct EnumeratedStats {
  int patterns = 0;
  int y_variables = 0;
  int constraints = 0;
  long long milp_nodes = 0;
};

/// Builds and solves the literal MILP (1)-(9) over all patterns.
/// Constraint mapping:
///  (1) sum x_p <= m
///  (2) coverage of every medium/large size-restricted bag (priority and
///      B_x pools)
///  (3) coverage of every small size-restricted bag by y variables
///  (4) per pattern: small area on top <= x_p * (T' - height(p))
///  (5) per (pattern, bag): count of small jobs <= x_p, zero when the
///      pattern holds an ml job of the bag
///  (6) x_p integral
///  (7)-(9) y continuous (the paper makes a vanishing subset integral —
///      sizes above eps^{2k+11}; below any practical resolution, see
///      DESIGN.md §3 — pass integral_y to force them all integral).
/// Returns the chosen patterns, or nullopt when infeasible / over budget.
std::optional<MasterSolution> solve_enumerated_master(
    const PatternSpace& space, const Transformed& transformed,
    const Classification& cls, const EptasConfig& config,
    bool integral_y = false, EnumeratedStats* stats = nullptr);

}  // namespace bagsched::eptas
