// Exact branch-and-bound over job -> machine assignments.
//
// Provides the ground-truth OPT against which approximation ratios are
// measured (DESIGN.md experiment E1/E9), and the optimal re-placement used
// by the online session's region stage. One depth-first search serves every
// caller: jobs are branched in LPT order onto machines, pruned by bag
// occupancy, the area lower bound, the incumbent makespan and an
// equal-load/equal-bag-mask dominance rule, and the search stops early once
// the incumbent meets the combined lower bound. With all machines empty,
// identical fresh machines are interchangeable, so at most one is tried.
//
// Threads: num_threads <= 1 runs the DFS from the root on the calling
// thread. A larger count first expands the top of the tree, level by level
// and with the same DFS, into stealable subtree frames, then has a
// util::ThreadPool drain them. Workers share the incumbent makespan through
// an atomic, so each prunes against the global best. On a completed search
// makespan and proven_optimal are identical for every thread count (the
// optimum is unique and completion is completion); node counts and which
// optimal schedule wins a tie may vary with scheduling.
//
// Partial assignment: given a complete starting schedule and the jobs that
// may move, only those jobs are branched on. Every other job stays where the
// start puts it, and the start is the initial incumbent, so the result is
// never worse than it. Machines that carry fixed load are not
// interchangeable, so the fresh-machine rule is off in this mode.
#pragma once

#include <functional>
#include <vector>

#include "model/instance.h"
#include "model/schedule.h"
#include "util/cancellation.h"

namespace bagsched::sched {

struct ExactOptions {
  long long max_nodes = 50'000'000;
  double time_limit_seconds = 30.0;
  /// Search threads; values <= 1 run the sequential DFS on the caller.
  int num_threads = 1;
  /// Cooperative cancellation, polled alongside the time-limit check.
  const util::CancellationToken* cancel = nullptr;
  /// Invoked with the incumbent makespan: once for the initial incumbent
  /// and again every time the search improves on it. Runs inside the search
  /// loop (under a lock when multi-threaded) — keep it cheap.
  std::function<void(double makespan)> on_incumbent;
};

/// A starting point for a re-solve: `start` is a complete, bag-feasible
/// schedule of the instance, and only `free_jobs` may change machine.
struct PartialAssignment {
  model::Schedule start;
  std::vector<model::JobId> free_jobs;
};

struct ExactResult {
  model::Schedule schedule;
  double makespan = 0.0;
  bool proven_optimal = false;
  long long nodes = 0;
  bool cancelled = false;  ///< search stopped by the cancellation token
};

/// Solves to optimality when the budget allows; otherwise returns the best
/// schedule found with proven_optimal == false. With `partial`, optimality
/// is over the placements of its free jobs; a start that is not a valid
/// schedule of the instance, or a free job out of range, throws.
ExactResult solve_exact(const model::Instance& instance,
                        const ExactOptions& options = {},
                        const PartialAssignment* partial = nullptr);

}  // namespace bagsched::sched
