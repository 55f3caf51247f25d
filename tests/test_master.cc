// Tests for the column-generated master MILP (paper §3 constraints in
// aggregated form).
#include <gtest/gtest.h>

#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using eptas::MasterSolution;
using model::Instance;

struct Prepared {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  eptas::PatternSpace space;
};

std::optional<Prepared> prepare(const Instance& instance, double eps,
                                double guess) {
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const auto& job : instance.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  Instance scaled =
      Instance::from_vectors(sizes, bags, instance.num_machines());
  const auto cls = eptas::classify(scaled, eps, EptasConfig{});
  if (!cls) return std::nullopt;
  auto transformed = eptas::transform(scaled, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  return Prepared{std::move(scaled), *cls, std::move(transformed),
                  std::move(space)};
}

void check_master_invariants(const Prepared& prep,
                             const MasterSolution& master) {
  const int m = prep.transformed.instance.num_machines();
  // R1: total multiplicity <= m.
  int total = 0;
  for (int count : master.multiplicity) total += count;
  EXPECT_LE(total, m);

  // R2/R3 coverage: slots >= jobs for every size-restricted class.
  for (int i = 0; i < prep.space.num_priority(); ++i) {
    const auto& pbag = prep.space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      int slots = 0;
      for (std::size_t p = 0; p < master.patterns.size(); ++p) {
        if (master.patterns[p].pchoice[static_cast<std::size_t>(i)] ==
            static_cast<int>(s)) {
          slots += master.multiplicity[p];
        }
      }
      EXPECT_GE(slots, pbag.counts[s])
          << "priority bag " << i << " size " << s;
    }
  }
  for (int s = 0; s < prep.space.num_x_sizes(); ++s) {
    int slots = 0;
    for (std::size_t p = 0; p < master.patterns.size(); ++p) {
      slots += master.multiplicity[p] *
               master.patterns[p].xcount[static_cast<std::size_t>(s)];
    }
    EXPECT_GE(slots, prep.space.x_avail[static_cast<std::size_t>(s)]);
  }

  // Heights within T'.
  for (const auto& pattern : master.patterns) {
    EXPECT_LE(pattern.height, prep.cls.target_height + 1e-9);
  }
}

TEST(MasterTest, SolvesPlantedAtOpt) {
  const auto planted = gen::planted({.num_machines = 6,
                                     .num_bags = 14,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 5,
                                     .target = 1.0,
                                     .seed = 1});
  const auto prep = prepare(planted.instance, 0.5, planted.opt);
  ASSERT_TRUE(prep.has_value());
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
  check_master_invariants(*prep, *master);
  EXPECT_GT(master->stats.columns, 0);
}

TEST(MasterTest, SolvesAcrossFamiliesAtGreedyBound) {
  for (const auto& family : {"twopoint", "replica", "figure1"}) {
    const Instance instance = gen::by_name(family, 30, 6, 5);
    // A generous guess (greedy-level) should be solvable.
    const double guess = 1.6 * model::combined_lower_bound(instance);
    const auto prep = prepare(instance, 0.5, guess);
    if (!prep) continue;  // classification may reject the guess; fine
    const auto master = eptas::solve_master(prep->space, prep->transformed,
                                            prep->cls, EptasConfig{});
    if (master) check_master_invariants(*prep, *master);
  }
}

TEST(MasterTest, InfeasibleWhenAreaExceeds) {
  // Guess far below OPT usually dies in classify; craft a case where
  // classification passes but the area row fails: many small jobs.
  std::vector<double> sizes(60, 0.2);
  std::vector<model::BagId> bags;
  for (int i = 0; i < 60; ++i) bags.push_back(i % 20);
  const Instance instance = Instance::from_vectors(sizes, bags, 4);
  // Area = 12, m = 4 -> OPT >= 3. Guess 2.9: scaled area slightly above m.
  const auto prep = prepare(instance, 0.5, 2.0);
  if (!prep) GTEST_SKIP();  // classify already rejected: equally fine
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  EXPECT_FALSE(master.has_value());
}

TEST(MasterTest, Figure1MasterSpreadsLargeJobs) {
  // At guess = OPT the master must not stack two 2/3-jobs on one machine
  // (that pattern's height 4/3 exceeds nothing, but coverage of the tight
  // bag forces spreading via the area row... verify structurally: every
  // pattern holds at most one x slot of the large size).
  const auto planted = gen::figure1({.num_machines = 6, .scale = 1.0,
                                     .seed = 3});
  const auto prep = prepare(planted.instance, 0.4, 1.02 * planted.opt);
  ASSERT_TRUE(prep.has_value());
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
  check_master_invariants(*prep, *master);
  // T' at eps=0.4 is 1.96: two 2/3-jobs (1.33) would fit the height, but
  // the free-area row (small jobs need m * 1/3) forbids it:
  // sum h_p x_p <= m*T' - area(smalls).
  double worst_height = 0.0;
  for (const auto& pattern : master->patterns) {
    worst_height = std::max(worst_height, pattern.height);
  }
  EXPECT_LE(worst_height, 1.4);  // one large job (rounded) per machine
}

TEST(MasterTest, EmptyMlInstanceTriviallySolvable) {
  // Only small jobs: the master has no coverage rows; empty pattern wins.
  std::vector<double> sizes(20, 0.01);
  std::vector<model::BagId> bags;
  for (int i = 0; i < 20; ++i) bags.push_back(i % 10);
  const Instance instance = Instance::from_vectors(sizes, bags, 4);
  const auto prep = prepare(instance, 0.5, 1.0);
  ASSERT_TRUE(prep.has_value());
  EXPECT_EQ(prep->space.num_priority(), 0);
  EXPECT_EQ(prep->space.num_x_sizes(), 0);
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
}

TEST(MasterTest, DeterministicAcrossCalls) {
  // Same input, same probe outcome: the persistent master LP carries no
  // state from one solve_master call to the next.
  const Instance instance = gen::by_name("uniform", 60, 12, 1);
  const auto prep =
      prepare(instance, 0.4, 1.2 * model::combined_lower_bound(instance));
  ASSERT_TRUE(prep.has_value());
  const auto first = eptas::solve_master(prep->space, prep->transformed,
                                         prep->cls, EptasConfig{});
  const auto second = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(first->patterns.size(), second->patterns.size());
  for (std::size_t p = 0; p < first->patterns.size(); ++p) {
    EXPECT_EQ(first->patterns[p].signature(), second->patterns[p].signature());
  }
  EXPECT_EQ(first->multiplicity, second->multiplicity);
  const eptas::MasterStats& a = first->stats;
  const eptas::MasterStats& b = second->stats;
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.pricing_rounds, b.pricing_rounds);
  EXPECT_EQ(a.pricing_capped, b.pricing_capped);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.milp_nodes, b.milp_nodes);
  EXPECT_EQ(a.warm_columns, b.warm_columns);
  EXPECT_EQ(a.warm_columns_used, b.warm_columns_used);
}

TEST(MasterTest, PersistentLpCutsSimplexWork) {
  // Column generation appends each priced pattern to one simplex tableau
  // instead of cold-solving a rebuilt master every round. Simplex
  // iterations are work, not time, so this pin holds on any machine. The
  // limits are a quarter of what the rebuild-per-round master spent on the
  // same probes (eps 0.4, guess = factor * combined lower bound):
  //   uniform  60x12 seed 1 at 1.2: 15704 iterations over 80 rounds
  //   mixed   200x16 seed 3 at 1.1:  8153 iterations over 77 rounds
  //   planted 200x16 seed 1 at 1.2:  6852 iterations over 69 rounds
  // The bag-heavy masters are degenerate set covers on which the warm path
  // still spends many degenerate pivots (6559 and 7301 iterations at the
  // time of writing), so they get a looser limit of 1/2.5 of the rebuild:
  //   bagheavy 200x16 seed 1 at 1.1: 26402 iterations
  //   bagheavy 200x16 seed 2 at 1.1: 20653 iterations
  struct Case {
    const char* family;
    int jobs;
    int machines;
    std::uint64_t seed;
    double factor;
    long long rebuild_iterations;
    double min_reduction;
  };
  for (const Case& c : {Case{"uniform", 60, 12, 1, 1.2, 15704, 4.0},
                        Case{"mixed", 200, 16, 3, 1.1, 8153, 4.0},
                        Case{"planted", 200, 16, 1, 1.2, 6852, 4.0},
                        Case{"bagheavy", 200, 16, 1, 1.1, 26402, 2.5},
                        Case{"bagheavy", 200, 16, 2, 1.1, 20653, 2.5}}) {
    const Instance instance =
        gen::by_name(c.family, c.jobs, c.machines, c.seed);
    const auto prep = prepare(
        instance, 0.4, c.factor * model::combined_lower_bound(instance));
    ASSERT_TRUE(prep.has_value()) << c.family;
    const auto master = eptas::solve_master(prep->space, prep->transformed,
                                            prep->cls, EptasConfig{});
    ASSERT_TRUE(master.has_value()) << c.family;  // the guess certifies
    check_master_invariants(*prep, *master);
    EXPECT_GT(master->stats.pricing_rounds, 1) << c.family;
    EXPECT_LE(c.min_reduction * master->stats.lp_iterations,
              c.rebuild_iterations)
        << c.family << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace bagsched
