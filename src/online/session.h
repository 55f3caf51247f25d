// Online scheduling sessions: incremental repair of a committed schedule
// under instance deltas (DESIGN.md §7).
//
// A ScheduleSession holds the last committed (instance, schedule) pair and
// answers each model::Delta with a repaired schedule plus its migration
// cost — how many surviving jobs changed machine, a result axis a fresh
// solve cannot even define. Repair is cheap and sticky by construction:
//
//   1. memo     — the post-delta instance's canonical fingerprint (exact,
//                 then eps-rounded; PR 4 machinery) is looked up in a small
//                 per-session memo of previously committed schedules, so
//                 delta-equivalent instances (churn that undoes itself,
//                 jittered twins) are recognized without solving at all;
//   2. repair   — surviving jobs inherit their machines through the delta's
//                 renumbering, displaced/new jobs are greedy-placed (always
//                 feasible: bag size <= m), and a bounded local search
//                 polishes the result from that warm start;
//   3. region   — when the delta touched only a few jobs and repair missed
//                 the regret bound, just those jobs are re-placed optimally
//                 against the fixed remainder (sched::solve_exact with a
//                 partial assignment);
//   4. fresh    — when the repaired makespan still exceeds
//                 (1 + regret_bound) * lower_bound, fall back to a full
//                 portfolio solve (the same one a cold request would get).
//
// The regret bound is checked against the combined lower bound, so an
// accepted repair is within (1 + regret_bound) of ANY solver's output on
// the new instance, fresh solves included.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "api/portfolio.h"
#include "api/solver.h"
#include "cache/canonicalize.h"
#include "model/delta.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace bagsched::online {

struct SessionOptions {
  /// Options for every solve the session issues (fresh portfolio solves,
  /// repair local search budget via max_moves, eps for the rounded memo).
  api::SolveOptions solve;
  /// Solver selection for fresh solves; empty = the default portfolio.
  std::vector<std::string> solvers;
  /// Repair acceptance: a repaired schedule is committed iff its makespan
  /// is <= (1 + regret_bound) * combined_lower_bound(new instance).
  double regret_bound = 0.15;
  /// Accepted-move budget for the repair local search (kept well below
  /// solve.max_moves — repair must be cheap or it defeats its purpose).
  long long repair_moves = 20'000;
  /// Region re-solve triggers only when at most this many jobs were
  /// directly affected by the delta (arrivals, resizes, displaced jobs).
  int region_max_jobs = 8;
  /// Node budget for the region re-solve (sched::solve_exact).
  long long region_max_nodes = 200'000;
  /// Committed schedules remembered per session (exact + rounded keys).
  std::size_t memo_capacity = 32;
};

/// Which pipeline stage produced a committed result.
enum class RepairPath { Noop, Memo, Repair, Region, Fresh };

const char* to_string(RepairPath path);

struct SessionStats {
  std::uint64_t deltas = 0;
  std::uint64_t noops = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t repairs = 0;          ///< accepted at stage 2
  std::uint64_t region_resolves = 0;  ///< accepted at stage 3
  std::uint64_t fresh_solves = 0;     ///< fell through to stage 4
  std::uint64_t rejected = 0;         ///< infeasible deltas (not committed)
  std::uint64_t total_moved_jobs = 0;
};

/// Migration cost of `next` (a schedule of the post-delta instance) versus
/// `prev` (the pre-delta schedule), counted through the delta's machine
/// renumbering: a surviving job is moved iff its new machine differs from
/// the renamed old one, or its old machine failed. Pure renumbering is not
/// migration. Arrivals are never "moved".
int migration_cost(const model::Schedule& prev, const model::Schedule& next,
                   const model::DeltaMap& map);

class ScheduleSession {
 public:
  /// Opens a session on `initial` with a fresh portfolio solve; the solve's
  /// result (available via last_result()) is the first committed schedule.
  /// Throws std::invalid_argument when the initial instance is infeasible.
  explicit ScheduleSession(model::Instance initial,
                           SessionOptions options = {});

  /// Opens a session adopting an existing schedule (e.g. the service already
  /// solved this instance). The schedule must be complete and bag-feasible.
  ScheduleSession(model::Instance initial, model::Schedule committed,
                  SessionOptions options = {});

  /// Applies the delta, repairs, commits, and returns the result with
  /// moved_jobs / migration_ratio filled and telemetry under "online.*"
  /// keys (path, affected jobs, repair acceptance). A malformed delta
  /// throws (std::invalid_argument, session state unchanged); a delta that
  /// makes the instance bag-infeasible returns SolveStatus::Infeasible and
  /// leaves the previous commit in place.
  api::SolveResult apply(const model::Delta& delta);

  const model::Instance& instance() const { return instance_; }
  const model::Schedule& schedule() const { return schedule_; }
  const api::SolveResult& last_result() const { return last_result_; }
  double makespan() const { return makespan_; }
  double lower_bound() const { return lower_bound_; }
  /// Commit counter: 0 after construction, +1 per committed delta.
  std::uint64_t revision() const { return revision_; }
  /// Crash-recovery only: both constructors reset the counter to 0, so a
  /// session re-adopted from the journal restores its journaled revision
  /// here to keep client-side expect_revision dedupe meaningful.
  void restore_revision(std::uint64_t revision) { revision_ = revision; }
  const SessionStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  struct MemoEntry {
    cache::Fingerprint fingerprint;
    bool rounded = false;
    /// Canonical-order schedule; a hit materializes it into the hitting
    /// instance's job order with cache::from_canonical — pure index remap.
    model::Schedule canonical_schedule;
  };

  void commit(model::Instance instance, model::Schedule schedule,
              api::SolveResult result);
  void memoize(const model::Instance& instance,
               const model::Schedule& schedule);
  const MemoEntry* memo_find(const cache::Fingerprint& fingerprint,
                             bool rounded) const;

  api::SolveResult fresh_solve(const model::Instance& instance) const;

  SessionOptions options_;
  model::Instance instance_;
  model::Schedule schedule_;
  api::SolveResult last_result_;
  double makespan_ = 0.0;
  double lower_bound_ = 0.0;
  std::uint64_t revision_ = 0;
  SessionStats stats_;
  std::deque<MemoEntry> memo_;  ///< front = most recent commit
};

}  // namespace bagsched::online
