// Tests for the exact branch-and-bound (the ground-truth oracle): optima on
// known instances, the single-threaded search tree pinned by node counts,
// budgets and cancellation, the partial-assignment mode against brute force,
// and the `exact` registration. The threaded search (num_threads > 1) is
// covered by test_exact_parallel.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "api/api.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "sched/exact.h"
#include "sched/local_search.h"
#include "util/cancellation.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using model::Instance;

sched::ExactOptions with_threads(int threads) {
  sched::ExactOptions options;
  options.num_threads = threads;
  return options;
}

TEST(ExactTest, TrivialSingleMachine) {
  const Instance instance = Instance::without_bags({1, 2, 3}, 1);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(ExactTest, PerfectSplit) {
  // {4,3,2,1} on 2 machines: OPT = 5 ({4,1} | {3,2}).
  const Instance instance = Instance::without_bags({4, 3, 2, 1}, 2);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(ExactTest, BagConstraintRaisesOptimum) {
  // Two jobs {3, 3} in one bag on 2 machines must split: OPT = 3.
  // Without the bag they could... also split. Make it interesting: jobs
  // {3,3} same bag + {2,2} same bag: pairs must split -> OPT = 5.
  const Instance instance =
      Instance::from_vectors({3, 3, 2, 2}, {0, 0, 1, 1}, 2);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

TEST(ExactTest, MatchesPlantedOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::PlantedParams params;
    params.num_machines = 4;
    params.min_jobs_per_machine = 2;
    params.max_jobs_per_machine = 4;
    params.num_bags = 8;
    params.seed = seed;
    const auto planted = gen::planted(params);
    const auto result = sched::solve_exact(planted.instance);
    ASSERT_TRUE(result.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(result.makespan, planted.opt, 1e-9) << "seed " << seed;
    EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
  }
}

TEST(ExactTest, NeverBelowLowerBoundNeverAboveLocalSearch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = gen::by_name("twopoint", 14, 3, seed);
    const auto result = sched::solve_exact(instance);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
    EXPECT_GE(result.makespan,
              model::combined_lower_bound(instance) - 1e-9);
    const double heuristic =
        sched::local_search(instance).makespan(instance);
    EXPECT_LE(result.makespan, heuristic + 1e-9);
  }
}

TEST(ExactTest, Figure1Optimum) {
  const auto planted = gen::figure1({.num_machines = 4, .scale = 1.0,
                                     .seed = 1});
  const auto result = sched::solve_exact(planted.instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

TEST(ExactTest, SingleThreadTreeIsPinned) {
  // Node counts of the single-threaded search on fixed instances. Any
  // change to the branching order or a pruning rule moves them, so a
  // refactor of the search must reproduce them exactly.
  struct Case {
    const char* family;
    int jobs;
    int machines;
    std::uint64_t seed;
    long long nodes;
  };
  for (const Case& c : {Case{"twopoint", 18, 4, 1, 47986},
                        Case{"twopoint", 20, 4, 2, 22840},
                        Case{"uniform", 18, 5, 1, 35328}}) {
    const Instance instance =
        gen::by_name(c.family, c.jobs, c.machines, c.seed);
    for (const int threads : {0, 1}) {  // <= 1 is the sequential DFS
      const auto result = sched::solve_exact(instance, with_threads(threads));
      ASSERT_TRUE(result.proven_optimal) << c.family << " s" << c.seed;
      EXPECT_EQ(result.nodes, c.nodes) << c.family << " s" << c.seed;
    }
  }
}

TEST(ExactTest, BudgetExhaustionStillFeasible) {
  const Instance instance = gen::by_name("uniform", 40, 6, 3);
  sched::ExactOptions options;
  options.max_nodes = 5000;  // far too little to prove optimality
  const auto result = sched::solve_exact(instance, options);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_FALSE(result.cancelled);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  EXPECT_GT(result.makespan, 0.0);
}

TEST(ExactTest, CleanCancellationMidSearch) {
  // Big enough that the search is still running when the token fires.
  const Instance instance = gen::by_name("uniform", 42, 6, 7);
  util::CancellationToken token;
  sched::ExactOptions options;
  options.time_limit_seconds = 30.0;
  options.cancel = &token;
  std::thread firer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_stop();
  });
  const auto result = sched::solve_exact(instance, options);
  firer.join();
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(result.cancelled);
  // The best incumbent found before the stop is still returned.
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

// --- Partial assignment ------------------------------------------------------

/// A random instance with a bag-feasible starting schedule: `fixed` jobs
/// spread over `machines`, then `free_count` more jobs, all with integer
/// sizes (so every makespan is exact) and bags drawn per machine so that no
/// machine repeats a bag. The free jobs are the last `free_count` ids.
struct PartialCase {
  Instance instance;
  sched::PartialAssignment partial;
};

PartialCase random_partial_case(std::uint64_t seed, int machines, int fixed,
                                int free_count) {
  util::Xoshiro256 rng(seed);
  const int bags = machines + 2;
  std::vector<double> sizes;
  std::vector<model::BagId> bag_of;
  std::vector<model::MachineId> machine_of;
  std::vector<std::vector<char>> used(
      static_cast<std::size_t>(machines),
      std::vector<char>(static_cast<std::size_t>(bags), 0));
  for (int j = 0; j < fixed + free_count; ++j) {
    // A machine with a bag to spare (bags > jobs per machine is not
    // guaranteed, so retry on a full machine).
    model::MachineId machine = 0;
    model::BagId bag = 0;
    do {
      machine = static_cast<model::MachineId>(rng.index(
          static_cast<std::size_t>(machines)));
      bag = static_cast<model::BagId>(rng.index(
          static_cast<std::size_t>(bags)));
    } while (used[static_cast<std::size_t>(machine)]
                 [static_cast<std::size_t>(bag)]);
    used[static_cast<std::size_t>(machine)][static_cast<std::size_t>(bag)] =
        1;
    sizes.push_back(static_cast<double>(rng.uniform_int(1, 20)));
    bag_of.push_back(bag);
    machine_of.push_back(machine);
  }
  PartialCase result{Instance::from_vectors(sizes, bag_of, machines), {}};
  result.partial.start =
      model::Schedule(result.instance.num_jobs(), machines);
  for (model::JobId j = 0; j < result.instance.num_jobs(); ++j) {
    result.partial.start.assign(j, machine_of[static_cast<std::size_t>(j)]);
  }
  for (int j = fixed; j < fixed + free_count; ++j) {
    result.partial.free_jobs.push_back(j);
  }
  return result;
}

/// Best makespan over every bag-feasible placement of the free jobs, the
/// other jobs held where the start puts them.
double brute_force_partial(const PartialCase& c) {
  const Instance& instance = c.instance;
  const std::vector<model::JobId>& free_jobs = c.partial.free_jobs;
  const int m = instance.num_machines();
  model::Schedule schedule = c.partial.start;
  double best = -1.0;
  std::vector<int> digits(free_jobs.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < free_jobs.size(); ++i) {
      schedule.assign(free_jobs[i], digits[i]);
    }
    if (model::validate(instance, schedule).ok()) {
      const double makespan = schedule.makespan(instance);
      if (best < 0.0 || makespan < best) best = makespan;
    }
    std::size_t i = 0;
    while (i < digits.size() && ++digits[i] == m) digits[i++] = 0;
    if (i == digits.size()) break;
  }
  return best;
}

TEST(ExactPartialTest, MatchesBruteForce) {
  int improved = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int machines = 3 + static_cast<int>(seed % 2);
    const int free_count = 3 + static_cast<int>(seed % 4);
    const PartialCase c = random_partial_case(seed, machines,
                                              2 * machines, free_count);
    const double optimum = brute_force_partial(c);
    const double start = c.partial.start.makespan(c.instance);
    for (const int threads : {1, 3}) {
      const auto result =
          sched::solve_exact(c.instance, with_threads(threads), &c.partial);
      ASSERT_TRUE(result.proven_optimal) << "seed " << seed;
      EXPECT_EQ(result.makespan, optimum)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(result.schedule.makespan(c.instance), result.makespan);
      EXPECT_LE(result.makespan, start);
      EXPECT_TRUE(model::validate(c.instance, result.schedule).ok());
      // Only the free jobs may move.
      for (model::JobId j = 0; j < c.instance.num_jobs(); ++j) {
        if (std::find(c.partial.free_jobs.begin(), c.partial.free_jobs.end(),
                      j) == c.partial.free_jobs.end()) {
          EXPECT_EQ(result.schedule.machine_of(j),
                    c.partial.start.machine_of(j))
              << "seed " << seed << " job " << j;
        }
      }
    }
    if (optimum < start) ++improved;
  }
  // The cases must exercise the search, not only confirm the start.
  EXPECT_GT(improved, 10);
}

TEST(ExactPartialTest, FreshMachineRuleIsOffWithFixedLoad) {
  // Machine 0 carries fixed load 10; the free job starts next to it
  // (makespan 11). Empty machines are not interchangeable with machine 0,
  // so the search must still try machine 1 and reach makespan 10.
  const Instance instance = Instance::without_bags({10, 1}, 2);
  sched::PartialAssignment partial{model::Schedule(2, 2), {1}};
  partial.start.assign(0, 0);
  partial.start.assign(1, 0);
  const auto result = sched::solve_exact(instance, {}, &partial);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, 10.0);
  EXPECT_EQ(result.schedule.machine_of(0), 0);
  EXPECT_EQ(result.schedule.machine_of(1), 1);
}

TEST(ExactPartialTest, RejectsAnInvalidStart) {
  const Instance instance = Instance::from_vectors({1, 1}, {0, 0}, 2);
  sched::PartialAssignment partial{model::Schedule(2, 2), {1}};
  partial.start.assign(0, 0);
  partial.start.assign(1, 0);  // bag conflict
  EXPECT_ANY_THROW(sched::solve_exact(instance, {}, &partial));
}

TEST(ExactTest, RegisteredInApi) {
  const auto& registry = api::SolverRegistry::global();
  ASSERT_TRUE(registry.contains("exact"));
  EXPECT_TRUE(registry.info("exact").exact);
  EXPECT_TRUE(registry.info("exact").respects_bags);

  // `exact` pins one thread whatever num_threads says: the same tree as a
  // direct single-threaded call.
  const Instance instance = gen::by_name("twopoint", 14, 3, 2);
  api::SolveOptions options;
  options.num_threads = 2;
  const auto result = registry.resolve("exact").solve(instance, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.proven_optimal);
  const auto direct = sched::solve_exact(instance);
  EXPECT_EQ(result.makespan, direct.makespan);
  EXPECT_EQ(api::stat_int(result.stats, "threads"), 1);
  EXPECT_EQ(api::stat_int(result.stats, "nodes"), direct.nodes);
}

}  // namespace
}  // namespace bagsched
