// Algorithm comparison across workload families.
//
//   $ ./algorithm_comparison [n] [m] [seeds]
//
// Runs every bag-respecting solver in the registry over every generator
// family and prints one ratio table — experiment E9, the baseline
// comparison, at parameters users can choose.
#include <cstdlib>
#include <iostream>

#include "api/api.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace bagsched;

  const int n = argc > 1 ? std::atoi(argv[1]) : 36;
  const int m = argc > 2 ? std::atoi(argv[2]) : 6;
  const int seeds = argc > 3 ? std::atoi(argv[3]) : 3;

  std::cout << "comparing schedulers: n=" << n << " m=" << m
            << " seeds=" << seeds << " eps=0.5\n\n";

  // Every bag-respecting solver; "exact" only when small enough to finish.
  std::vector<std::string> solvers;
  for (const auto* solver : api::SolverRegistry::global().all()) {
    const auto& info = solver->info();
    if (!info.respects_bags) continue;
    if (info.name == "exact" && n > 20) continue;
    if (info.name == "milp" && n * m > 150) continue;
    solvers.push_back(info.name);
  }

  std::vector<std::string> header{"family"};
  header.insert(header.end(), solvers.begin(), solvers.end());
  util::Table table(header);

  for (const auto& family : api::instance_families()) {
    table.row().add(family);
    std::vector<double> ratio(solvers.size(), 0.0);
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
         ++seed) {
      api::SolveOptions options;
      options.seed = seed;
      // Demo-table budget: the MILP would otherwise spend its full default
      // 30 s per cell proving the last percent of the gap.
      options.time_limit_seconds = 5.0;
      const model::Instance instance =
          api::make_instance(family, n, m, options);
      const double lower = model::combined_lower_bound(instance);
      for (std::size_t s = 0; s < solvers.size(); ++s) {
        const auto result = api::solve(solvers[s], instance, options);
        ratio[s] += result.makespan / lower;
      }
    }
    for (const double sum : ratio) table.add(sum / seeds, 4);
  }
  table.write_aligned(std::cout);
  std::cout << "\nall values are makespan / combined-lower-bound, averaged "
               "over seeds.\nexact runs only when n <= 20, milp when "
               "n*m <= 150.\n";
  return 0;
}
