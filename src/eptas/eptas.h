// Public entry point of the EPTAS for machine scheduling with
// bag-constraints (Grage, Jansen, Klein — SPAA 2019).
//
// eptas_schedule() runs the full pipeline of the paper:
//   binary search over the makespan guess T (dual approximation), and per
//   guess: scale to OPT=1, round sizes onto the (1+eps)-grid, pick k
//   (Lemma 1), classify bags (Def. 2), transform the instance (§2.2),
//   solve the pattern MILP (§3, via column generation + branch-and-bound),
//   place medium/large jobs with swap repair (Lemma 7), schedule small jobs
//   with group-bag-LPT (§4, Lemmas 8-10), repair residual conflicts
//   (Lemma 11), re-insert the removed mediums through the Lemma 3 flow, and
//   lift the solution back to the original instance (Lemma 4).
//
// The returned schedule is always feasible. When every guess fails (possible
// under the Practical constant caps, see DESIGN.md §3) the result falls back
// to the best constructive heuristic and says so in the stats.
#pragma once

#include <optional>

#include "eptas/config.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace bagsched::eptas {

struct EptasStats {
  int guesses_tried = 0;       ///< makespan guesses probed
  double final_guess = 0.0;    ///< smallest successful guess T
  double lower_bound = 0.0;    ///< combined lower bound on OPT
  double greedy_upper = 0.0;   ///< greedy/local-search upper bound
  /// Some guess produced a full pipeline schedule (even if the heuristic
  /// happened to beat it and was returned instead).
  bool pipeline_succeeded = false;
  /// Makespan of the pipeline's own schedule (0 when no guess succeeded).
  double pipeline_makespan = 0.0;
  /// The returned schedule is the heuristic, either because every guess
  /// failed or because the heuristic was strictly better.
  bool used_fallback = false;

  // Accumulated over the successful guess:
  int columns = 0;
  int pricing_rounds = 0;
  /// Pricing rounds cut at PricingOptions::max_nodes: their column is the
  /// best one found so far, and a capped round that finds none ends column
  /// generation without proving the master LP optimal.
  int pricing_capped = 0;
  long long lp_iterations = 0;
  long long milp_nodes = 0;
  int swaps = 0;           ///< Lemma 7 swap repairs
  int origin_repairs = 0;  ///< Lemma 11 chain walks
  int lift_swaps = 0;      ///< Lemma 4 filler swaps
  int rescues = 0;         ///< structure-breaking placements (measured)

  // Speculative search / cross-guess reuse. The deterministic counters
  // (memo hits, warm columns, rounds saved) aggregate over the probes the
  // binary-search replay consumed, so they are identical at every thread
  // count; probes_launched/cancelled describe the actual execution
  // (speculation included) and legitimately vary with thread count.
  /// Configured worker budget (num_threads resolved against the
  /// hardware); the search may use fewer when the guess window is small.
  int threads_used = 1;
  int probes_launched = 0;     ///< pipeline probes started (incl. specul.)
  int probes_cancelled = 0;    ///< in-flight probes made moot and stopped
  int probes_memo_hits = 0;    ///< probes served from the grid-signature memo
  int columns_warm_started = 0;///< anchor columns accepted into master pools
  /// Warm-started columns the final master actually used (each one stands
  /// in for at least one pricing round the probe did not have to run).
  int pricing_rounds_saved = 0;
};

struct EptasResult {
  model::Schedule schedule;
  double makespan = 0.0;
  EptasStats stats;
};

/// Schedules the instance with approximation target (1 + O(eps)).
/// Requires a feasible instance (every bag at most m jobs); throws
/// std::invalid_argument otherwise.
EptasResult eptas_schedule(const model::Instance& instance, double eps,
                           const EptasConfig& config = {});

/// One dual-approximation probe: attempts to build a schedule of makespan
/// close to the guess T. Exposed for tests and component benchmarks.
std::optional<model::Schedule> try_makespan_guess(
    const model::Instance& instance, double eps, double guess,
    const EptasConfig& config, EptasStats* stats = nullptr);

}  // namespace bagsched::eptas
