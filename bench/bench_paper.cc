// Paper-claim experiments: each case reproduces one claim of the source
// paper on seeded instances, prints its table and checks the stated bound.
// The binary exits 1, naming the experiment and the row, when a bound
// fails, so running it is a check and not just a printout.
//
//   E1  Theorem 1        EPTAS vs planted OPT: pipe_max <= 1+2eps,
//                        pipe_fail = 0
//   E3  Figure 1         the stacking trap: stack/OPT = 5/3,
//                        eptas/OPT <= 1+2eps
//   E4  Lemma 2          transformation loss: area_ratio <= 1+eps
//   E5  Lemma 3          medium insertion: added height <= 2eps per machine
//   E6  Lemmas 7 and 11  conflict repair: rescues = 0, makespan/LB <= 1+2eps
//   E7  Lemma 8          bag-LPT spread and height bounds: viol = 0
//   E10 Section 3        the literal enumerated MILP and the column-generated
//                        master agree on feasibility
//
// E2 (running time) and E8 (Lemma 6, MILP cost) are timed by bench_runtime
// and bench_milp. Every case runs once unless --bench-reps says otherwise;
// --bench-json writes BENCH_paper.json with the checked maxima as metrics
// (see harness.h).
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "eptas/classify.h"
#include "eptas/enumerate.h"
#include "eptas/milp_model.h"
#include "eptas/placement.h"
#include "eptas/small_jobs.h"
#include "eptas/transform.h"
#include "harness.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace {

namespace api = bagsched::api;
namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
namespace util = bagsched::util;
using bagsched::model::Instance;

constexpr double kSlack = 1e-9;

/// One run of an experiment: its table, the checked maxima and the rows
/// that broke a bound.
struct Outcome {
  explicit Outcome(std::vector<std::string> header)
      : table(std::move(header)) {}

  void require(bool ok, const std::string& row, const std::string& claim) {
    if (!ok) failures.push_back(row + ": " + claim);
  }

  util::Table table;
  util::Json metrics = util::Json::object();
  std::vector<std::string> failures;
};

struct Experiment {
  const char* label;     ///< harness case label; prefixes failure lines
  const char* title;     ///< table heading
  const char* expected;  ///< printed under the table
  Outcome (*run)();
};

std::string fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

/// The instance with every size divided by `guess`: the EPTAS's scaled
/// view at makespan guess T, where T becomes 1.
Instance scaled_to_guess(const Instance& instance, double guess) {
  std::vector<double> sizes;
  std::vector<bagsched::model::BagId> bags;
  for (const auto& job : instance.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  return Instance::from_vectors(sizes, bags, instance.num_machines());
}

// --- E1 / Theorem 1 ---------------------------------------------------------

Outcome ratio() {
  Outcome out({"eps", "m", "jobs~", "seeds", "mean_ratio", "max_ratio",
               "pipe_max", "bound(1+2eps)", "pipe_fail"});
  const api::Solver& solver = api::SolverRegistry::global().resolve("eptas");
  double all_max_ratio = 0.0;
  double all_pipe_max = 0.0;
  int all_pipe_fail = 0;
  for (const double eps : {0.75, 0.5, 1.0 / 3.0, 0.25}) {
    api::SolveOptions options;
    options.eps = eps;
    for (const int m : {4, 8, 16}) {
      double sum_ratio = 0.0;
      double max_ratio = 0.0;
      double pipe_max = 0.0;  // ratio of the pipeline's own schedule
      int pipe_fail = 0;
      int jobs = 0;
      const int seeds = 5;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto planted = gen::planted({.num_machines = m,
                                           .num_bags = 3 * m,
                                           .min_jobs_per_machine = 2,
                                           .max_jobs_per_machine = 5,
                                           .target = 1.0,
                                           .seed = seed});
        jobs = planted.instance.num_jobs();
        const auto result = solver.solve(planted.instance, options);
        const double ratio = result.makespan / planted.opt;
        sum_ratio += ratio;
        max_ratio = std::max(max_ratio, ratio);
        if (api::stat_bool(result.stats, "pipeline_succeeded")) {
          pipe_max = std::max(
              pipe_max,
              api::stat_real(result.stats, "pipeline_makespan") /
                  planted.opt);
        } else {
          ++pipe_fail;
        }
      }
      const double bound = 1.0 + 2.0 * eps;
      out.table.row()
          .add(eps, 3)
          .add(m)
          .add(jobs)
          .add(seeds)
          .add(sum_ratio / seeds, 4)
          .add(max_ratio, 4)
          .add(pipe_max, 4)
          .add(bound, 3)
          .add(pipe_fail);
      const std::string row = "eps=" + fixed(eps, 3) + " m=" +
                              std::to_string(m);
      out.require(pipe_max <= bound + kSlack, row,
                  "pipe_max " + fixed(pipe_max, 4) + " > 1+2eps");
      out.require(pipe_fail == 0, row,
                  std::to_string(pipe_fail) + " pipeline failures");
      all_max_ratio = std::max(all_max_ratio, max_ratio);
      all_pipe_max = std::max(all_pipe_max, pipe_max);
      all_pipe_fail += pipe_fail;
    }
  }
  out.metrics.set("max_ratio", all_max_ratio);
  out.metrics.set("pipe_max", all_pipe_max);
  out.metrics.set("pipe_fail", all_pipe_fail);
  return out;
}

// --- E3 / Figure 1 ----------------------------------------------------------

Outcome figure1() {
  Outcome out({"m", "OPT", "stack_greedy", "greedy", "bag_lpt",
               "local_search", "eptas(.4)", "stack/OPT", "eptas/OPT"});
  api::SolveOptions options;
  options.eps = 0.4;
  options.stack_threshold = 0.5;
  double eptas_ratio_max = 0.0;
  double stack_error_max = 0.0;  // |stack/OPT - 5/3|
  for (const int m : {4, 8, 16, 32}) {
    const auto planted =
        gen::figure1({.num_machines = m, .scale = 1.0, .seed = 1});
    const auto& instance = planted.instance;
    const double stack =
        api::solve("greedy-stack", instance, options).makespan;
    const double greedy =
        api::solve("greedy-bags", instance, options).makespan;
    const double baglpt = api::solve("bag-lpt", instance, options).makespan;
    const double local =
        api::solve("local-search", instance, options).makespan;
    const double approx = api::solve("eptas", instance, options).makespan;
    out.table.row()
        .add(m)
        .add(planted.opt, 4)
        .add(stack, 4)
        .add(greedy, 4)
        .add(baglpt, 4)
        .add(local, 4)
        .add(approx, 4)
        .add(stack / planted.opt, 4)
        .add(approx / planted.opt, 4);
    const std::string row = "m=" + std::to_string(m);
    const double stack_error = std::abs(stack / planted.opt - 5.0 / 3.0);
    out.require(stack_error <= kSlack, row,
                "stack/OPT " + fixed(stack / planted.opt, 9) + " != 5/3");
    out.require(approx / planted.opt <= 1.0 + 2.0 * options.eps + kSlack,
                row,
                "eptas/OPT " + fixed(approx / planted.opt, 4) + " > 1+2eps");
    stack_error_max = std::max(stack_error_max, stack_error);
    eptas_ratio_max = std::max(eptas_ratio_max, approx / planted.opt);
  }
  out.metrics.set("stack_error_max", stack_error_max);
  out.metrics.set("eptas_ratio_max", eptas_ratio_max);
  return out;
}

// --- E4 / Lemma 2 -----------------------------------------------------------

Outcome transform() {
  Outcome out({"family", "eps", "n", "bags", "split_bags", "fillers",
               "mediums_out", "area_ratio", "bound(1+eps)"});
  double area_ratio_max = 0.0;
  for (const auto* family : {"mixed", "uniform", "twopoint", "smallbags"}) {
    for (const double eps : {0.5, 1.0 / 3.0}) {
      const std::string row =
          std::string("family=") + family + " eps=" + fixed(eps, 3);
      const Instance raw = gen::by_name(family, 80, 8, 3);
      const double guess = 1.2 * bagsched::model::combined_lower_bound(raw);
      const Instance scaled = scaled_to_guess(raw, guess);
      const auto cls = eptas::classify(scaled, eps, eptas::EptasConfig{});
      if (!cls) {
        out.require(false, row, "classification failed");
        continue;
      }
      const auto transformed = eptas::transform(scaled, *cls);

      const auto split_bags = std::count(transformed.is_large_part.begin(),
                                         transformed.is_large_part.end(),
                                         true);
      const auto fillers = std::count(transformed.is_filler.begin(),
                                      transformed.is_filler.end(), true);
      double original_area = 0.0;
      for (int j = 0; j < scaled.num_jobs(); ++j) {
        original_area += cls->size_of(j);
      }
      double new_area = transformed.instance.total_area();
      for (const auto medium : transformed.removed_medium) {
        new_area += cls->size_of(medium);
      }
      const double area_ratio = new_area / original_area;
      out.table.row()
          .add(family)
          .add(eps, 3)
          .add(raw.num_jobs())
          .add(raw.num_bags())
          .add(static_cast<long long>(split_bags))
          .add(static_cast<long long>(fillers))
          .add(transformed.removed_medium.size())
          .add(area_ratio, 4)
          .add(1.0 + eps, 3);
      out.require(area_ratio <= 1.0 + eps + kSlack, row,
                  "area_ratio " + fixed(area_ratio, 4) + " > 1+eps");
      area_ratio_max = std::max(area_ratio_max, area_ratio);
    }
  }
  out.metrics.set("area_ratio_max", area_ratio_max);
  return out;
}

// --- E5 / Lemma 3 -----------------------------------------------------------

/// The EPTAS stages up to, not including, medium insertion.
struct Pipeline {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  eptas::PlacementResult placement;
};

/// Runs the stages at guess guess_factor * LB; on failure `failed_stage`
/// names the stage that failed.
std::optional<Pipeline> run_pipeline(const Instance& raw, double eps,
                                     double guess_factor,
                                     std::string& failed_stage) {
  const eptas::EptasConfig config;
  Instance scaled = scaled_to_guess(
      raw, guess_factor * bagsched::model::combined_lower_bound(raw));
  const auto cls = eptas::classify(scaled, eps, config);
  if (!cls) {
    failed_stage = "classification";
    return std::nullopt;
  }
  auto transformed = eptas::transform(scaled, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  auto master = eptas::solve_master(space, transformed, *cls, config);
  if (!master) {
    failed_stage = "master";
    return std::nullopt;
  }
  auto placement = eptas::place_ml_jobs(transformed, space, *master, config);
  if (!placement) {
    failed_stage = "placement";
    return std::nullopt;
  }
  eptas::SmallJobStats stats;
  if (!eptas::schedule_small_jobs(transformed, *cls, space, *master,
                                  *placement, config, stats)) {
    failed_stage = "small jobs";
    return std::nullopt;
  }
  return Pipeline{std::move(scaled), *cls, std::move(transformed),
                  std::move(*placement)};
}

Outcome medium_flow() {
  Outcome out({"seed", "eps", "mediums", "machines", "max_added_height",
               "bound(2eps)", "violations"});
  const double eps = 0.5;
  double worst_all = 0.0;
  int violations_all = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string row = "seed=" + std::to_string(seed);
    gen::MixedParams params;
    params.num_machines = 8;
    params.num_bags = 24;
    params.large_jobs = 8;
    params.medium_jobs = 32;  // medium-heavy on purpose
    params.small_jobs = 40;
    params.seed = seed;
    const Instance raw = gen::mixed(params);
    std::string failed_stage;
    const auto pipeline = run_pipeline(raw, eps, 1.3, failed_stage);
    if (!pipeline) {
      out.require(false, row, failed_stage + " failed");
      continue;
    }
    const auto mediums = eptas::insert_medium_jobs(
        pipeline->scaled, pipeline->transformed, pipeline->placement);
    if (!mediums) {
      out.require(false, row, "medium insertion failed");
      continue;
    }
    std::vector<double> added(static_cast<std::size_t>(raw.num_machines()),
                              0.0);
    for (std::size_t i = 0; i < mediums->size(); ++i) {
      added[static_cast<std::size_t>((*mediums)[i])] +=
          pipeline->cls.size_of(pipeline->transformed.removed_medium[i]);
    }
    const double worst = *std::max_element(added.begin(), added.end());
    const auto violations =
        std::count_if(added.begin(), added.end(),
                      [&](double a) { return a > 2.0 * eps + kSlack; });
    out.table.row()
        .add(static_cast<long long>(seed))
        .add(eps, 3)
        .add(mediums->size())
        .add(raw.num_machines())
        .add(worst, 4)
        .add(2.0 * eps, 3)
        .add(static_cast<long long>(violations));
    out.require(violations == 0, row,
                "added medium height " + fixed(worst, 4) + " > 2eps");
    worst_all = std::max(worst_all, worst);
    violations_all += static_cast<int>(violations);
  }
  out.metrics.set("max_added_height", worst_all);
  out.metrics.set("violations", violations_all);
  return out;
}

// --- E6 / Lemmas 7 and 11 ---------------------------------------------------

Outcome repair() {
  Outcome out({"family", "seed", "n", "swaps", "origin_repairs",
               "lift_swaps", "rescues", "fallback", "makespan/LB"});
  long long rescues_all = 0;
  double ratio_max = 0.0;
  for (const auto* family : {"replica", "bagheavy", "figure1", "mixed"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      api::SolveOptions options;
      options.eps = 0.5;
      options.seed = seed;
      const auto instance = api::make_instance(family, 48, 8, options);
      const auto result = api::solve("eptas", instance, options);
      const long long rescues = api::stat_int(result.stats, "rescues");
      const double ratio = result.makespan / result.lower_bound;
      out.table.row()
          .add(family)
          .add(static_cast<long long>(seed))
          .add(instance.num_jobs())
          .add(api::stat_int(result.stats, "swaps"))
          .add(api::stat_int(result.stats, "origin_repairs"))
          .add(api::stat_int(result.stats, "lift_swaps"))
          .add(rescues)
          .add(api::stat_bool(result.stats, "used_fallback") ? "yes" : "no")
          .add(ratio, 4);
      const std::string row = std::string("family=") + family +
                              " seed=" + std::to_string(seed);
      out.require(rescues == 0, row, std::to_string(rescues) + " rescues");
      out.require(ratio <= 1.0 + 2.0 * options.eps + kSlack, row,
                  "makespan/LB " + fixed(ratio, 4) + " > 1+2eps");
      rescues_all += rescues;
      ratio_max = std::max(ratio_max, ratio);
    }
  }
  out.metrics.set("rescues", rescues_all);
  out.metrics.set("ratio_max", ratio_max);
  return out;
}

// --- E7 / Lemma 8 -----------------------------------------------------------

Outcome baglpt() {
  Outcome out({"m", "bags", "seed", "spread", "pmax", "makespan",
               "bound(x+pmax)", "viol"});
  int violations_all = 0;
  for (const int m : {4, 8, 16, 32}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      gen::BagHeavyParams params;
      params.num_machines = m;
      params.num_bags = m;  // m bags of m jobs: dense
      params.fill = 1.0;
      params.seed = seed;
      const auto instance = gen::bag_heavy(params);
      const auto schedule = api::solve("bag-lpt", instance).schedule;
      const auto loads = schedule.loads(instance);
      const double lo = *std::min_element(loads.begin(), loads.end());
      const double hi = *std::max_element(loads.begin(), loads.end());
      const double x = instance.total_area() / m;
      const double bound = x + instance.max_size();
      const int violations =
          (hi - lo > instance.max_size() + kSlack ? 1 : 0) +
          (hi > bound + kSlack ? 1 : 0);
      out.table.row()
          .add(m)
          .add(instance.num_bags())
          .add(static_cast<long long>(seed))
          .add(hi - lo, 4)
          .add(instance.max_size(), 4)
          .add(hi, 4)
          .add(bound, 4)
          .add(violations);
      out.require(violations == 0,
                  "m=" + std::to_string(m) + " seed=" + std::to_string(seed),
                  "spread > pmax or makespan > x+pmax");
      violations_all += violations;
    }
  }
  out.metrics.set("viol", violations_all);
  return out;
}

// --- E10 / Section 3 --------------------------------------------------------

Outcome enumerated() {
  Outcome out({"m", "n", "enum_patterns", "enum_y_vars", "enum_rows",
               "enum_s", "colgen_cols", "colgen_s", "agree"});
  int disagreements = 0;
  for (const int m : {3, 4, 5, 6}) {
    const std::string row = "m=" + std::to_string(m);
    const auto planted = gen::planted({.num_machines = m,
                                       .num_bags = 2 * m,
                                       .min_jobs_per_machine = 2,
                                       .max_jobs_per_machine = 3,
                                       .target = 1.0,
                                       .seed = 3});
    const Instance scaled = scaled_to_guess(planted.instance, 1.05);
    const eptas::EptasConfig config;
    const auto cls = eptas::classify(scaled, 0.5, config);
    if (!cls) {
      out.require(false, row, "classification failed");
      continue;
    }
    const auto transformed = eptas::transform(scaled, *cls);
    const auto space = eptas::build_pattern_space(transformed, *cls);

    eptas::EnumeratedStats stats;
    util::Stopwatch enum_timer;
    const auto literal = eptas::solve_enumerated_master(
        space, transformed, *cls, config, false, &stats);
    const double enum_seconds = enum_timer.seconds();

    util::Stopwatch colgen_timer;
    const auto colgen = eptas::solve_master(space, transformed, *cls, config);
    const double colgen_seconds = colgen_timer.seconds();

    const bool agree = literal.has_value() == colgen.has_value();
    out.table.row()
        .add(m)
        .add(planted.instance.num_jobs())
        .add(stats.patterns)
        .add(stats.y_variables)
        .add(stats.constraints)
        .add(enum_seconds, 4)
        .add(colgen ? colgen->stats.columns : 0)
        .add(colgen_seconds, 4)
        .add(agree ? "yes" : "NO");
    out.require(agree, row, "enumerated and column-generated masters "
                            "disagree on feasibility");
    if (!agree) ++disagreements;
  }
  out.metrics.set("disagreements", disagreements);
  return out;
}

const Experiment kExperiments[] = {
    {"E1/theorem1-ratio", "E1 / Theorem 1: EPTAS ratio vs planted OPT",
     "mean/max_ratio: returned schedule (pipeline or fallback, whichever is "
     "better).\npipe_max: the pipeline's own schedule — the Theorem 1 "
     "object; must stay <= bound.\nexpected shape: ratios <= bound and "
     "non-increasing in eps, pipe_fail = 0",
     ratio},
    {"E3/figure1-trap", "E3 / Figure 1: large-job placement matters",
     "expected shape: stack/OPT == 5/3 (the trap), eptas/OPT <= 1 + O(eps)",
     figure1},
    {"E4/lemma2-transform", "E4 / Lemma 2, Figure 2: transformation loss",
     "expected shape: area_ratio <= bound for every family", transform},
    {"E5/lemma3-medium", "E5 / Lemma 3: medium insertion height",
     "expected shape: max_added_height <= bound, violations = 0",
     medium_flow},
    {"E6/lemma7-11-repair", "E6 / Lemmas 7+11: conflict repair counts",
     "expected shape: repairs bounded and cheap; makespan/LB <= 1 + O(eps) "
     "even on conflict-dense families",
     repair},
    {"E7/lemma8-baglpt", "E7 / Lemma 8: bag-LPT spread and height bounds",
     "expected shape: spread <= pmax, makespan <= bound, viol = 0 "
     "everywhere",
     baglpt},
    {"E10/literal-milp", "E10: literal MILP (paper §3) vs column generation",
     "expected shape: enum_patterns/enum_y_vars explode with m while "
     "colgen_cols stays flat; agree = yes on every row",
     enumerated},
};

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("paper", argc, argv);
  const int reps = harness.reps(1);
  std::vector<std::string> failures;
  for (const Experiment& experiment : kExperiments) {
    std::optional<Outcome> outcome;
    auto& entry = harness.run_case(experiment.label, reps,
                                   [&] { outcome = experiment.run(); });
    entry.metrics = outcome->metrics;
    std::cout << "\n=== " << experiment.title << " ===\n";
    outcome->table.write_aligned(std::cout);
    std::cout << experiment.expected << "\n\n";
    for (const std::string& failure : outcome->failures) {
      failures.push_back(std::string(experiment.label) + " " + failure);
    }
  }
  const bool written = harness.finish(std::cout);
  for (const std::string& failure : failures) {
    std::cerr << "bench_paper: bound failed: " << failure << "\n";
  }
  return written && failures.empty() ? 0 : 1;
}
