// Parallel solver portfolio: fan several registered solvers out over a
// thread pool, return the best feasible schedule, and cancel stragglers as
// soon as one solver delivers an optimality certificate.
//
//   api::Portfolio portfolio({"eptas", "local-search", "multifit"});
//   const auto run = portfolio.solve(instance, {.eps = 0.25});
//   run.best.makespan;              // minimum over the feasible results
//   run.runs[0].stats;              // per-solver telemetry, one per name
//
// Certificates that trigger cancellation of the remaining solvers:
//   * a solver proves optimality (exact / MILP, or makespan == lower bound);
//   * the EPTAS pipeline certifies, so the result is within (1+O(eps))*OPT
//     (a fallback result carries no (1+eps) guarantee and does not count).
// The members run on one worker thread each, capped by the hardware.
// Cancellation is cooperative: the losers observe the shared token inside
// their hot loops and return their best incumbent so far.
#pragma once

#include <string>
#include <vector>

#include "api/solver.h"
#include "model/instance.h"

namespace bagsched::api {

struct PortfolioOptions {
  /// Cancel the remaining solvers once a certificate is in hand.
  bool cancel_on_certificate = true;
};

struct PortfolioResult {
  /// The minimum-makespan feasible result; status Infeasible when no
  /// portfolio member produced a feasible schedule.
  SolveResult best;
  /// One result per requested solver, in request order.
  std::vector<SolveResult> runs;
  double wall_seconds = 0.0;
  int cancelled_count = 0;  ///< solvers that observed the cancellation

  bool ok() const { return best.ok(); }
};

class Portfolio {
 public:
  /// Default portfolio: eptas + local-search + multifit + bag-lpt +
  /// greedy-bags (every scale-friendly bag-respecting solver).
  Portfolio();
  /// Portfolio over the given registry names; throws like
  /// SolverRegistry::resolve on unknown names.
  explicit Portfolio(std::vector<std::string> solvers,
                     PortfolioOptions portfolio_options = {});

  const std::vector<std::string>& solvers() const { return solvers_; }

  /// Runs every member on the instance with the shared options (the
  /// caller's options.cancel token is honoured on top of the internal
  /// certificate cancellation).
  PortfolioResult solve(const model::Instance& instance,
                        const SolveOptions& options = {}) const;

 private:
  std::vector<std::string> solvers_;
  PortfolioOptions portfolio_options_;
};

}  // namespace bagsched::api
