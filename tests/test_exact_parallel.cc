// Tests for the threaded branch-and-bound (sched::solve_exact with
// ExactOptions::num_threads > 1, the `exact-parallel` solver):
// equivalence with the single-threaded search at every thread count,
// determinism across thread counts, budgets, cancellation mid-search and
// the api registration.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "api/api.h"
#include "gen/generators.h"
#include "sched/exact.h"
#include "util/cancellation.h"

namespace bagsched {
namespace {

using model::Instance;

const std::vector<int> kThreadCounts = {2, 4, 8};

sched::ExactOptions with_threads(int threads) {
  sched::ExactOptions options;
  options.num_threads = threads;
  return options;
}

TEST(ExactParallelTest, MatchesSequentialOnRandomInstances) {
  for (const char* family : {"twopoint", "uniform", "smallbags"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Instance instance = gen::by_name(family, 16, 4, seed);
      const auto single = sched::solve_exact(instance);
      ASSERT_TRUE(single.proven_optimal) << family << " seed " << seed;
      for (const int threads : kThreadCounts) {
        const auto result =
            sched::solve_exact(instance, with_threads(threads));
        EXPECT_TRUE(result.proven_optimal)
            << family << " seed " << seed << " threads " << threads;
        EXPECT_DOUBLE_EQ(result.makespan, single.makespan)
            << family << " seed " << seed << " threads " << threads;
        EXPECT_TRUE(model::validate(instance, result.schedule).ok());
        // The threaded search explores the same tree modulo incumbent-
        // arrival races and frontier expansion (zero extra when the
        // initial incumbent already met the lower bound).
        EXPECT_GE(result.nodes, 0);
        EXPECT_LT(result.nodes, 4 * single.nodes + 100000)
            << family << " seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(ExactParallelTest, MatchesPlantedOptimum) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::PlantedParams params;
    params.num_machines = 4;
    params.min_jobs_per_machine = 2;
    params.max_jobs_per_machine = 4;
    params.num_bags = 8;
    params.seed = seed;
    const auto planted = gen::planted(params);
    for (const int threads : kThreadCounts) {
      const auto result =
          sched::solve_exact(planted.instance, with_threads(threads));
      ASSERT_TRUE(result.proven_optimal)
          << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(result.makespan, planted.opt, 1e-9)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
    }
  }
}

TEST(ExactParallelTest, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: on a completed search, makespan and
  // proven_optimal are identical regardless of thread count.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance instance = gen::by_name("twopoint", 18, 4, seed);
    const auto reference = sched::solve_exact(instance);
    ASSERT_TRUE(reference.proven_optimal);
    for (const int threads : kThreadCounts) {
      const auto result = sched::solve_exact(instance, with_threads(threads));
      ASSERT_TRUE(result.proven_optimal);
      EXPECT_EQ(result.makespan, reference.makespan)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ExactParallelTest, BudgetExhaustionStillFeasible) {
  const Instance instance = gen::by_name("uniform", 40, 6, 3);
  for (const int threads : kThreadCounts) {
    sched::ExactOptions options = with_threads(threads);
    options.max_nodes = 5000;  // far too little to prove optimality
    const auto result = sched::solve_exact(instance, options);
    EXPECT_FALSE(result.proven_optimal) << "threads " << threads;
    EXPECT_FALSE(result.cancelled) << "threads " << threads;
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
    EXPECT_GT(result.makespan, 0.0);
  }
}

TEST(ExactParallelTest, CleanCancellationMidSearch) {
  // Big enough that the search is still running when the token fires.
  const Instance instance = gen::by_name("uniform", 42, 6, 7);
  for (const int threads : kThreadCounts) {
    util::CancellationToken token;
    sched::ExactOptions options = with_threads(threads);
    options.time_limit_seconds = 30.0;
    options.cancel = &token;
    std::thread firer([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      token.request_stop();
    });
    const auto result = sched::solve_exact(instance, options);
    firer.join();
    EXPECT_FALSE(result.proven_optimal) << "threads " << threads;
    EXPECT_TRUE(result.cancelled) << "threads " << threads;
    // The best incumbent found before the stop is still returned.
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  }
}

TEST(ExactParallelTest, RegisteredInApi) {
  const auto& registry = api::SolverRegistry::global();
  ASSERT_TRUE(registry.contains("exact-parallel"));
  EXPECT_TRUE(registry.info("exact-parallel").exact);
  EXPECT_TRUE(registry.info("exact-parallel").respects_bags);

  const Instance instance = gen::by_name("twopoint", 14, 3, 2);
  api::SolveOptions options;
  options.num_threads = 2;
  const auto result =
      registry.resolve("exact-parallel").solve(instance, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(api::stat_int(result.stats, "threads"), 2);
  EXPECT_GT(api::stat_int(result.stats, "nodes"), 0);

  const auto reference = registry.resolve("exact").solve(instance, options);
  EXPECT_NEAR(result.makespan, reference.makespan, 1e-12);
}

}  // namespace
}  // namespace bagsched
