// Online repair benchmark: replay seeded churn traces (gen::churn_trace)
// through online::ScheduleSession and compare against re-solving every
// post-delta instance from scratch with the same solver portfolio.
//
// Reported per trace:
//   * re-solves/sec sustained by the repair pipeline,
//   * repair-vs-fresh speedup (fresh median / repair median),
//   * mean migration ratio (moved jobs / survivors, per delta),
//   * the repair-path mix (noop/memo/repair/region/fresh).
//
// Contract checks: every committed schedule must sit within the session's
// regret bound ((1 + regret_bound) * combined lower bound) — enforced at
// any rep count, it is a correctness property — and, when the medians are
// trustworthy (reps >= 2, i.e. the perf-gate run, not the reps=1 CI
// smoke), the mean repair-vs-fresh speedup must be >= 5x and the mean
// migration ratio <= 0.25: the acceptance bars for the online axis.
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "api/portfolio.h"
#include "gen/churn.h"
#include "harness.h"
#include "model/delta.h"
#include "model/lower_bounds.h"
#include "online/session.h"

namespace {

namespace bench = bagsched::bench;
namespace gen = bagsched::gen;
namespace model = bagsched::model;
namespace online = bagsched::online;

namespace api = bagsched::api;

constexpr double kMinSpeedup = 5.0;
constexpr double kMaxMigrationRatio = 0.25;

struct Spec {
  const char* label;
  gen::ChurnParams churn;
};

online::SessionOptions session_options() {
  online::SessionOptions options;
  // The scale-friendly half of the portfolio: the fresh baseline should be
  // what a latency-conscious cold request would actually run, not the
  // full EPTAS pipeline (which would flatter the speedup for free).
  options.solvers = {"local-search", "bag-lpt", "greedy-bags"};
  options.solve.seed = 13;
  return options;
}

struct ReplayOutcome {
  double delta_seconds = 0.0;     ///< time spent inside apply(), summed
  double migration_ratio_sum = 0.0;
  int regret_violations = 0;
  int failed_steps = 0;
  online::SessionStats stats;
};

ReplayOutcome replay(const gen::ChurnTrace& trace,
                     const online::SessionOptions& options,
                     const model::Schedule& initial_schedule) {
  ReplayOutcome outcome;
  online::ScheduleSession session(trace.initial, initial_schedule, options);
  const double cap = 1.0 + options.regret_bound;
  for (const model::Delta& delta : trace.deltas) {
    const auto start = std::chrono::steady_clock::now();
    const api::SolveResult result = session.apply(delta);
    outcome.delta_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!result.ok()) {
      ++outcome.failed_steps;
      continue;
    }
    outcome.migration_ratio_sum += result.migration_ratio;
    if (result.makespan > cap * result.lower_bound * (1.0 + 1e-9)) {
      ++outcome.regret_violations;
    }
  }
  outcome.stats = session.stats();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("delta", argc, argv);
  const int reps = harness.reps(3);

  std::vector<Spec> specs(3);
  specs[0].label = "churn-160x12";
  specs[0].churn.num_jobs = 160;
  specs[0].churn.num_machines = 12;
  specs[0].churn.num_bags = 32;
  specs[0].churn.steps = 30;
  specs[0].churn.seed = 7;
  specs[1].label = "churn-200x16";
  specs[1].churn.steps = 30;
  specs[1].churn.seed = 11;
  specs[2].label = "churn-320x24";
  specs[2].churn.num_jobs = 320;
  specs[2].churn.num_machines = 24;
  specs[2].churn.num_bags = 64;
  specs[2].churn.steps = 30;
  specs[2].churn.seed = 3;

  const online::SessionOptions options = session_options();
  const api::Portfolio portfolio(options.solvers);

  bool contract_ok = true;
  double speedup_sum = 0.0;
  double migration_sum = 0.0;

  for (const Spec& spec : specs) {
    const gen::ChurnTrace trace = gen::churn_trace(spec.churn);
    const std::string label = spec.label;

    // Pre-solve the initial instance once; both sides replay from the
    // same committed schedule, so the timed regions are deltas only.
    const api::SolveResult initial =
        portfolio.solve(trace.initial, options.solve).best;
    if (!initial.ok()) {
      std::cerr << "FATAL: initial solve infeasible on " << label << "\n";
      return 1;
    }

    // Untimed replay to materialize every post-delta instance for the
    // fresh baseline.
    std::vector<model::Instance> snapshots;
    snapshots.reserve(trace.deltas.size());
    {
      model::Instance current = trace.initial;
      for (const model::Delta& delta : trace.deltas) {
        current = model::apply_delta(current, delta);
        snapshots.push_back(current);
      }
    }

    ReplayOutcome outcome;
    auto& repair_case = harness.run_case(label + "/repair", reps, [&] {
      outcome = replay(trace, options, initial.schedule);
    });
    const int steps = static_cast<int>(trace.deltas.size());
    const double resolves_per_sec =
        outcome.delta_seconds > 0.0 ? steps / outcome.delta_seconds : 0.0;
    const double mean_migration =
        steps > 0 ? outcome.migration_ratio_sum / steps : 0.0;
    repair_case.metrics.set("steps", static_cast<long long>(steps));
    repair_case.metrics.set("resolves_per_sec", resolves_per_sec);
    repair_case.metrics.set("mean_migration_ratio", mean_migration);
    repair_case.metrics.set(
        "noops", static_cast<long long>(outcome.stats.noops));
    repair_case.metrics.set(
        "memo_hits", static_cast<long long>(outcome.stats.memo_hits));
    repair_case.metrics.set(
        "repairs", static_cast<long long>(outcome.stats.repairs));
    repair_case.metrics.set(
        "region_resolves",
        static_cast<long long>(outcome.stats.region_resolves));
    repair_case.metrics.set(
        "fresh_solves",
        static_cast<long long>(outcome.stats.fresh_solves));
    repair_case.metrics.set(
        "moved_jobs_total",
        static_cast<long long>(outcome.stats.total_moved_jobs));
    const double repair_median = repair_case.median_seconds;

    if (outcome.failed_steps > 0) {
      std::cerr << "CONTRACT: " << outcome.failed_steps << " step(s) of "
                << label << " returned no usable schedule (churn traces "
                << "are feasible by construction)\n";
      contract_ok = false;
    }
    if (outcome.regret_violations > 0) {
      std::cerr << "CONTRACT: " << outcome.regret_violations
                << " committed schedule(s) of " << label
                << " exceed (1 + " << options.regret_bound
                << ") * lower bound\n";
      contract_ok = false;
    }

    auto& fresh_case = harness.run_case(label + "/fresh", reps, [&] {
      for (const model::Instance& snapshot : snapshots) {
        const api::SolveResult fresh =
            portfolio.solve(snapshot, options.solve).best;
        if (!fresh.ok()) {
          std::cerr << "FATAL: fresh solve infeasible on " << label << "\n";
          std::exit(1);
        }
      }
    });
    const double speedup = repair_median > 0.0
                               ? fresh_case.median_seconds / repair_median
                               : 0.0;
    fresh_case.metrics.set("steps", static_cast<long long>(steps));
    fresh_case.metrics.set("repair_speedup", speedup);

    speedup_sum += speedup;
    migration_sum += mean_migration;
  }

  const double mean_speedup =
      speedup_sum / static_cast<double>(specs.size());
  const double mean_migration =
      migration_sum / static_cast<double>(specs.size());
  std::cout << "\n=== online delta repair ===\n"
            << "  mean repair-vs-fresh speedup: " << mean_speedup
            << "x (target >= " << kMinSpeedup << "x)\n"
            << "  mean migration ratio: " << mean_migration
            << " (target <= " << kMaxMigrationRatio << ")\n";
  auto& summary = harness.run_case("summary/online", 1, [] {});
  summary.metrics.set("mean_repair_speedup", mean_speedup);
  summary.metrics.set("mean_migration_ratio", mean_migration);

  // Medians from a reps=1 smoke are noise; only the perf-gate run (which
  // uses reps >= 2) enforces the speed bar. The migration bar is
  // deterministic (same traces, same seeds) and holds at any rep count.
  bool perf_ok = true;
  if (reps >= 2 && mean_speedup < kMinSpeedup) {
    std::cerr << "PERF REGRESSION: mean repair-vs-fresh speedup "
              << mean_speedup << "x is below the " << kMinSpeedup
              << "x target\n";
    perf_ok = false;
  }
  if (mean_migration > kMaxMigrationRatio) {
    std::cerr << "MIGRATION REGRESSION: mean migration ratio "
              << mean_migration << " exceeds the " << kMaxMigrationRatio
              << " cap\n";
    perf_ok = false;
  }

  const bool wrote = harness.finish(std::cout);
  return wrote && contract_ok && perf_ok ? 0 : 1;
}
