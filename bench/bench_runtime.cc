// E2 (Theorem 1, running time): the EPTAS must scale polynomially in n at
// fixed eps (the f(1/eps) * poly(n) form). The n-sweep benchmarks the
// poly(n) part; the eps-sweep exposes the f(1/eps) blow-up. Driven through
// the unified bagsched::api layer; the EPTAS internals are read back from
// the result telemetry. Rows are timed through the regression harness and
// land in BENCH_runtime.json (--bench-json / --bench-reps, see harness.h).
#include <iostream>
#include <string>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;

const api::Solver& eptas() {
  return api::SolverRegistry::global().resolve("eptas");
}

void print_scaling_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bagsched::util::Table table({"sweep", "n", "m", "eps", "seconds", "guesses",
                               "columns", "pricing_rounds", "lp_iterations"});
  // The column-generation work counters next to the timing: rounds and
  // simplex iterations of the final probe's pattern master.
  const char* const counters[] = {"guesses", "columns", "pricing_rounds",
                                  "lp_iterations"};
  const auto record = [&](bagsched::bench::CaseResult& entry,
                          const api::SolveResult& result,
                          const std::string& sweep, int n, int m,
                          double eps) {
    entry.metrics.set("n", static_cast<long long>(n));
    entry.metrics.set("m", static_cast<long long>(m));
    entry.metrics.set("eps", eps);
    table.row().add(sweep).add(n).add(m).add(eps, 3).add(
        entry.median_seconds, 4);
    for (const char* counter : counters) {
      entry.metrics.set(counter, api::stat_int(result.stats, counter));
      table.add(api::stat_int(result.stats, counter));
    }
  };
  // n-sweep at fixed eps = 1/2.
  for (const int scale : {1, 2, 4, 8}) {
    const int m = 4 * scale;
    const auto planted =
        bagsched::gen::planted({.num_machines = m,
                                .num_bags = 3 * m,
                                .min_jobs_per_machine = 3,
                                .max_jobs_per_machine = 6,
                                .target = 1.0,
                                .seed = 7});
    api::SolveResult result;
    auto& entry = harness.run_case(
        "n-sweep/m" + std::to_string(m), reps,
        [&] { result = eptas().solve(planted.instance, {.eps = 0.5}); });
    record(entry, result, "n", planted.instance.num_jobs(), m, 0.5);
  }
  // eps-sweep at fixed shape.
  for (const double eps : {0.8, 0.6, 0.5, 0.4, 1.0 / 3.0}) {
    const auto planted =
        bagsched::gen::planted({.num_machines = 8,
                                .num_bags = 24,
                                .min_jobs_per_machine = 3,
                                .max_jobs_per_machine = 6,
                                .target = 1.0,
                                .seed = 7});
    api::SolveResult result;
    auto& entry = harness.run_case(
        "eps-sweep/" + std::to_string(eps).substr(0, 5), reps,
        [&] { result = eptas().solve(planted.instance, {.eps = eps}); });
    record(entry, result, "eps", planted.instance.num_jobs(), 8, eps);
  }
  std::cout << "\n=== E2 / Theorem 1: runtime scaling ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: near-linear growth in n at fixed eps; "
               "steeper growth as eps shrinks\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("runtime", argc, argv);
  print_scaling_table(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
