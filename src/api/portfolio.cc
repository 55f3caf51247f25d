#include "api/portfolio.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "api/registry.h"
#include "api/service.h"
#include "util/stopwatch.h"

namespace bagsched::api {

namespace {

/// A finished result that certifies (near-)optimality: further search
/// cannot beat it meaningfully, so the stragglers get cancelled.
bool is_certificate(const Solver& solver, const SolveResult& result) {
  if (!result.ok() || !result.schedule_feasible) return false;
  if (result.proven_optimal) return true;
  return solver.info().guarantee == Guarantee::Eptas &&
         stat_bool(result.stats, "pipeline_succeeded") &&
         !stat_bool(result.stats, "used_fallback");
}

/// Result rank for the best-fold: completed feasible schedules beat
/// cancelled-but-feasible incumbents (the documented Cancelled contract),
/// which beat everything unusable.
int quality(const SolveResult& result) {
  if (!result.schedule_feasible) return 0;
  if (result.ok()) return 2;
  return result.status == SolveStatus::Cancelled ? 1 : 0;
}

/// Lexicographic: quality first, then makespan, then proof.
bool better(const SolveResult& a, const SolveResult& b) {
  if (quality(a) != quality(b)) return quality(a) > quality(b);
  if (quality(a) == 0) return false;
  if (a.makespan != b.makespan) return a.makespan < b.makespan;
  return a.proven_optimal && !b.proven_optimal;
}

}  // namespace

Portfolio::Portfolio()
    : Portfolio({"eptas", "local-search", "multifit", "bag-lpt",
                 "greedy-bags"}) {}

Portfolio::Portfolio(std::vector<std::string> solvers,
                     PortfolioOptions portfolio_options)
    : solvers_(std::move(solvers)),
      portfolio_options_(portfolio_options) {
  // Fail fast on unknown names (resolve throws with the known-name list).
  for (const auto& name : solvers_) {
    SolverRegistry::global().resolve(name);
  }
}

// Thin client of the SchedulingService: one member = one single-solver
// request, all sharing the instance and a chained cancellation token. The
// queueing, fan-out and cancellation wiring live in the service — the
// portfolio only adds its certificate policy (via each member's Finished
// progress event) and the best-result fold.
//
// The service here is per-call (as the legacy per-call ThreadPool was),
// not routed through an ambient one: members must never queue behind the
// very request that is waiting on them, which is exactly what a shared
// queue with a concurrency cap would do (max_concurrent=1 would deadlock).
// Callers who want one long-lived pool submit to a SchedulingService
// directly and keep portfolios as multi-solver requests.
PortfolioResult Portfolio::solve(const model::Instance& instance,
                                 const SolveOptions& options) const {
  util::Stopwatch timer;
  PortfolioResult portfolio_result;
  portfolio_result.runs.resize(solvers_.size());
  if (solvers_.empty()) {
    portfolio_result.best.error = "empty portfolio";
    return portfolio_result;
  }

  // Shared token chained onto the caller's: certificate cancellation and
  // external cancellation both reach every member through one pointer.
  util::CancellationToken shared_cancel(options.cancel);

  const std::size_t threads = std::min<std::size_t>(
      solvers_.size(),
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  SchedulingService service(
      {.num_threads = threads, .max_concurrent = threads});

  // Non-owning alias: the instance outlives every handle below because
  // solve() waits for all of them before returning.
  const std::shared_ptr<const model::Instance> shared_instance(
      std::shared_ptr<const void>(), &instance);

  std::vector<SolveRequest> requests;
  requests.reserve(solvers_.size());
  for (const auto& name : solvers_) {
    SolveRequest request = make_request(shared_instance, options, {name});
    request.options.cancel = &shared_cancel;
    if (portfolio_options_.cancel_on_certificate) {
      request.on_progress = [&shared_cancel](const ProgressEvent& event) {
        if (event.kind != ProgressKind::Finished) return;
        const Solver* solver =
            SolverRegistry::global().find(event.solver);
        if (solver != nullptr && is_certificate(*solver, *event.result)) {
          shared_cancel.request_stop();
        }
      };
    }
    requests.push_back(std::move(request));
  }

  std::vector<SolveHandle> handles =
      service.submit_batch(std::move(requests));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    portfolio_result.runs[i] = handles[i].wait();
  }

  for (const auto& run : portfolio_result.runs) {
    if (run.cancelled) ++portfolio_result.cancelled_count;
    if (better(run, portfolio_result.best)) portfolio_result.best = run;
  }
  if (quality(portfolio_result.best) == 0 &&
      !portfolio_result.runs.empty()) {
    // No usable schedule: surface a run that explains why — the first
    // structured error if any (all members share the same instance, so all
    // infeasibility diagnostics agree), otherwise any run, so an
    // all-cancelled portfolio reports Cancelled rather than a
    // default-constructed Infeasible with no message.
    const SolveResult* fallback = &portfolio_result.runs.front();
    for (const auto& run : portfolio_result.runs) {
      if (!run.error.empty()) {
        fallback = &run;
        break;
      }
    }
    portfolio_result.best = *fallback;
  }
  portfolio_result.wall_seconds = timer.seconds();
  return portfolio_result;
}

}  // namespace bagsched::api
