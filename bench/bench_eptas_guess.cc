// Guess-search benchmark of the EPTAS: single-thread cross-guess reuse
// (warm-start anchor + grid-signature memo) versus the cold pipeline, and
// the speculative-parallel thread curve, on guess-heavy two-point cases
// (eps = 0.1 with a fine step fraction makes the dual-approximation search
// probe several adjacent guesses that round almost identically).
//
// Contract checks: the warm thread curve must return bit-identical
// makespan/final_guess at 1/2/4/8 threads, and — when the repetition count
// is high enough to trust the medians (reps >= 2, i.e. the perf-gate run,
// not the reps=1 CI smoke) — the mean single-thread reuse speedup must be
// >= 1.3x, the acceptance bar for the cross-guess reuse axis.
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "eptas/eptas.h"
#include "gen/generators.h"
#include "harness.h"
#include "model/schedule.h"

namespace {

namespace bench = bagsched::bench;
namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;

constexpr double kMinReuseSpeedup = 1.3;

struct Spec {
  const char* family;
  int jobs;
  int machines;
  std::uint64_t seed;
  double eps;
  double step_fraction;
};

std::string label_of(const Spec& spec) {
  return std::string(spec.family) + "-" + std::to_string(spec.jobs) + "x" +
         std::to_string(spec.machines) + "-s" + std::to_string(spec.seed);
}

eptas::EptasConfig config_of(const Spec& spec, bool warm, int threads) {
  eptas::EptasConfig config;
  config.warm_start = warm;
  config.num_threads = threads;
  config.guess_step_fraction = spec.step_fraction;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("eptas", argc, argv);
  const int reps = harness.reps(3);

  const std::vector<Spec> specs = {
      {"twopoint", 60, 12, 1, 0.1, 0.25},
      {"twopoint", 60, 12, 2, 0.1, 0.25},
      {"twopoint", 60, 12, 5, 0.1, 0.25},
  };
  const std::vector<int> thread_counts = {2, 4, 8};

  bool consistent = true;
  double reuse_speedup_sum = 0.0;
  std::vector<double> thread_speedup_sum(thread_counts.size(), 0.0);

  for (const Spec& spec : specs) {
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    const std::string label = label_of(spec);

    eptas::EptasResult cold;
    auto& cold_case = harness.run_case(label + "/cold", reps, [&] {
      cold = eptas::eptas_schedule(instance, spec.eps,
                                   config_of(spec, false, 1));
    });
    cold_case.metrics.set("makespan", cold.makespan);
    cold_case.metrics.set("guesses",
                          static_cast<long long>(cold.stats.guesses_tried));
    // References from run_case only live until the next run_case; keep the
    // medians needed for the speedup ratios as values.
    const double cold_median = cold_case.median_seconds;

    eptas::EptasResult warm;
    auto& warm_case = harness.run_case(label + "/warm", reps, [&] {
      warm = eptas::eptas_schedule(instance, spec.eps,
                                   config_of(spec, true, 1));
    });
    const double warm_median = warm_case.median_seconds;
    const double reuse_speedup =
        warm_median > 0.0 ? cold_median / warm_median : 0.0;
    warm_case.metrics.set("makespan", warm.makespan);
    warm_case.metrics.set("guesses",
                          static_cast<long long>(warm.stats.guesses_tried));
    warm_case.metrics.set(
        "memo_hits", static_cast<long long>(warm.stats.probes_memo_hits));
    warm_case.metrics.set(
        "warm_columns",
        static_cast<long long>(warm.stats.columns_warm_started));
    warm_case.metrics.set(
        "pricing_rounds_saved",
        static_cast<long long>(warm.stats.pricing_rounds_saved));
    warm_case.metrics.set("reuse_speedup", reuse_speedup);
    reuse_speedup_sum += reuse_speedup;

    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      const int threads = thread_counts[t];
      eptas::EptasResult par;
      auto& par_case = harness.run_case(
          label + "/t" + std::to_string(threads), reps, [&] {
            par = eptas::eptas_schedule(instance, spec.eps,
                                        config_of(spec, true, threads));
          });
      const double speedup =
          par_case.median_seconds > 0.0
              ? warm_median / par_case.median_seconds
              : 0.0;
      par_case.metrics.set("threads", static_cast<long long>(threads));
      par_case.metrics.set("makespan", par.makespan);
      par_case.metrics.set("speedup_vs_warm1", speedup);
      thread_speedup_sum[t] += speedup;
      // The determinism contract: bit-identical results at every thread
      // count. (cold-vs-warm may legitimately differ — reuse seeds the
      // master's column pool — so only the warm curve is compared.)
      if (par.makespan != warm.makespan ||
          par.stats.final_guess != warm.stats.final_guess ||
          par.schedule.assignment() != warm.schedule.assignment()) {
        std::cerr << "MISMATCH on " << label << " at " << threads
                  << " threads: warm1 " << warm.makespan << "/"
                  << warm.stats.final_guess << " vs " << par.makespan
                  << "/" << par.stats.final_guess << "\n";
        consistent = false;
      }
    }
  }

  const double mean_reuse =
      reuse_speedup_sum / static_cast<double>(specs.size());
  std::cout << "\n=== eptas guess search: cross-guess reuse ===\n"
            << "  mean single-thread speedup (warm vs cold): " << mean_reuse
            << "x (target >= " << kMinReuseSpeedup << "x)\n";
  auto& reuse_summary = harness.run_case("summary/reuse", 1, [] {});
  reuse_summary.metrics.set("mean_reuse_speedup", mean_reuse);

  std::cout << "=== eptas guess search: speculative threads ===\n";
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const double mean =
        thread_speedup_sum[t] / static_cast<double>(specs.size());
    std::cout << "  " << thread_counts[t] << " threads: mean speedup "
              << mean << "x vs warm single-thread\n";
    auto& summary = harness.run_case(
        "summary/t" + std::to_string(thread_counts[t]), 1, [] {});
    summary.metrics.set("threads",
                        static_cast<long long>(thread_counts[t]));
    summary.metrics.set("mean_speedup", mean);
  }
  std::cout << "(thread speedups depend on available cores)\n";

  // Only trust medians from a multi-rep run; the reps=1 CI smoke stays a
  // correctness/report run.
  bool reuse_ok = true;
  if (reps >= 2 && mean_reuse < kMinReuseSpeedup) {
    std::cerr << "REUSE REGRESSION: mean warm-vs-cold speedup " << mean_reuse
              << "x is below the " << kMinReuseSpeedup << "x target\n";
    reuse_ok = false;
  }

  const bool wrote = harness.finish(std::cout);
  return wrote && consistent && reuse_ok ? 0 : 1;
}
