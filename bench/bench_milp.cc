// E8 (Lemma 6): cost of the MILP stage. The paper bounds the solve time by
// a function of the number of integral variables; in the column-generated
// implementation that maps to columns (patterns) and branch-and-bound
// nodes. The table reports both across instance shapes, with the master
// solve time.
//
// The harness section measures whole-problem assignment-MILP node
// throughput (nodes/second through the zero-copy B&B with warm-started
// LPs) and writes BENCH_milp.json for regression tracking
// (--bench-json / --bench-reps, see harness.h).
#include <iostream>
#include <string>

#include "api/api.h"
#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "harness.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace {

namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
using bagsched::model::Instance;

void print_master_table() {
  bagsched::util::Table table({"m", "n", "prio_cap", "prio_bags",
                               "x_sizes", "columns", "pricing_rounds",
                               "milp_nodes", "seconds"});
  for (const int m : {6, 12}) {
    for (const int prio_cap : {1, 2, 4, 8}) {
      // Planted at a tight guess (1.05 * OPT): plenty of medium/large
      // jobs, so the pattern machinery is genuinely exercised.
      const auto planted =
          gen::planted({.num_machines = m,
                        .num_bags = 3 * m,
                        .min_jobs_per_machine = 3,
                        .max_jobs_per_machine = 6,
                        .target = 1.0,
                        .seed = 5});
      const double guess = 1.05;
      std::vector<double> sizes;
      std::vector<bagsched::model::BagId> bags;
      for (const auto& job : planted.instance.jobs()) {
        sizes.push_back(job.size / guess);
        bags.push_back(job.bag);
      }
      const Instance scaled = Instance::from_vectors(
          sizes, bags, planted.instance.num_machines());
      eptas::EptasConfig config;
      config.max_priority_per_size = prio_cap;
      config.max_priority_total = 2 * prio_cap;
      const auto cls = eptas::classify(scaled, 0.5, config);
      if (!cls) continue;
      const auto transformed = eptas::transform(scaled, *cls);
      const auto space = eptas::build_pattern_space(transformed, *cls);
      bagsched::util::Stopwatch timer;
      const auto master =
          eptas::solve_master(space, transformed, *cls, config);
      const double seconds = timer.seconds();
      if (!master) continue;
      table.row()
          .add(m)
          .add(planted.instance.num_jobs())
          .add(prio_cap)
          .add(space.num_priority())
          .add(space.num_x_sizes())
          .add(master->stats.columns)
          .add(master->stats.pricing_rounds)
          .add(master->stats.milp_nodes)
          .add(seconds, 4);
    }
  }
  std::cout << "\n=== E8 / Lemma 6: pattern MILP cost ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: columns and time grow with the priority "
               "cap (the practical analogue of z integral variables)\n\n";
}

/// Assignment-MILP node throughput on the standard instance set, via the
/// registered "milp" solver (which builds the x_ji model).
void run_harness_cases(bagsched::bench::Harness& harness) {
  namespace api = bagsched::api;
  const api::Solver& milp_solver =
      api::SolverRegistry::global().resolve("milp");
  struct Spec {
    const char* family;
    int jobs;
    int machines;
    std::uint64_t seed;
  };
  const Spec specs[] = {
      {"twopoint", 12, 3, 1},
      {"twopoint", 14, 4, 2},
      {"twopoint", 16, 4, 3},
      {"uniform", 12, 4, 1},
  };
  const int reps = harness.reps(3);
  for (const Spec& spec : specs) {
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    const std::string label = std::string(spec.family) + "-" +
                              std::to_string(spec.jobs) + "x" +
                              std::to_string(spec.machines) + "-s" +
                              std::to_string(spec.seed);
    api::SolveResult result;
    auto& entry = harness.run_case(label, reps, [&] {
      api::SolveOptions options;
      options.time_limit_seconds = 120.0;
      result = milp_solver.solve(instance, options);
    });
    const long long nodes = api::stat_int(result.stats, "nodes");
    entry.metrics.set("nodes", nodes);
    entry.metrics.set("lp_iterations",
                      api::stat_int(result.stats, "lp_iterations"));
    entry.metrics.set("makespan", result.makespan);
    entry.metrics.set("proven_optimal", result.proven_optimal);
    entry.metrics.set("nodes_per_second",
                      entry.median_seconds > 0.0
                          ? static_cast<double>(nodes) /
                                entry.median_seconds
                          : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("milp", argc, argv);
  print_master_table();
  run_harness_cases(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
