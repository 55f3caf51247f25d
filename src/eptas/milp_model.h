// The pattern MILP (paper section 3) in aggregated, column-generated form.
//
// Row layout (the paper's constraint numbers in parentheses):
//   R1  sum_p x_p <= m                                  (1)
//   R2  per priority (bag, ml size): coverage >= count  (2), priority part
//   R3  per large x size: coverage >= count             (2), B_x part
//   R4  sum_p height(p) * x_p <= m*T' - small_and_medium_area
//       — the aggregate of (3)+(4): free area across all machines must hold
//       every small job (and the removed mediums re-inserted by Lemma 3)
//   R5  per priority bag l with small jobs:
//       sum_{p : l in p} x_p <= m - #small(l)
//       — the aggregate of (5): enough machines without ml jobs of B_l must
//       remain for B_l's small jobs.
//
// The paper's per-pattern fractional y variables are replaced by these two
// aggregate families; the small-job scheduling stage (small_jobs.h) then
// recovers an explicit distribution with group-bag-LPT, exactly as the
// paper's Lemmas 8-10 do on top of the y values. See DESIGN.md §3.
//
// Coverage rows carry high-cost penalty variables so the master LP is always
// feasible; a guess T is declared infeasible when the integral optimum still
// uses penalties.
#pragma once

#include <optional>
#include <vector>

#include "eptas/classify.h"
#include "eptas/config.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"

namespace bagsched::eptas {

struct MasterStats {
  int columns = 0;
  int pricing_rounds = 0;
  /// Pricing rounds whose search stopped at PricingOptions::max_nodes.
  int pricing_capped = 0;
  long long lp_iterations = 0;
  long long milp_nodes = 0;
  /// Warm-start columns accepted into the pool (cross-guess reuse).
  int warm_columns = 0;
  /// Warm-start columns the integral optimum uses with positive
  /// multiplicity — each stands in for at least one pricing round.
  int warm_columns_used = 0;
};

struct MasterSolution {
  /// Chosen patterns with positive multiplicity; sum of multiplicities <= m.
  std::vector<Pattern> patterns;
  std::vector<int> multiplicity;
  MasterStats stats;
};

/// Runs column generation + branch-and-bound. Returns nullopt when the
/// guessed makespan T (implicit in space.max_height) admits no solution.
///
/// `warm_machines`, when given, lists the medium/large content of each
/// machine of a previously certified probe as I'-job-id lists; every list
/// that still parses as a valid pattern of `space` (height <= T', one entry
/// per priority bag) is added to the seed pool before column generation.
/// Seeding is best-effort and deterministic — unparsable machines are
/// skipped — and the accepted/used counts land in MasterStats.
std::optional<MasterSolution> solve_master(
    const PatternSpace& space, const Transformed& transformed,
    const Classification& cls, const EptasConfig& config,
    const std::vector<std::vector<model::JobId>>* warm_machines = nullptr);

}  // namespace bagsched::eptas
