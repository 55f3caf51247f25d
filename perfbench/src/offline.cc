// offline-solve: one caller making direct Solver::solve calls — no wire, no
// service, no cache — on two corpora:
//   * eptas at eps 0.4 with num_threads=2 over 7 gen families x
//     {60 jobs on 12 machines, 200 on 16} x instance seeds 1..4;
//   * exact over twopoint 24x4 and 26x4 instances whose optima it proves;
//     eptas is then run on the same instances and checked against the
//     proven optimum with the paper's (1+eps) guarantee.
//
// The corpus instances are the fixed generator seeds above; the run seed
// relabels the bags of every instance and shuffles the visiting order. A
// corpus drawn afresh per seed changes the pass time by more than any
// usable bound (per-instance EPTAS and B&B times span three orders of
// magnitude), which would make runs with different seeds incomparable.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "api/registry.h"
#include "eptas/eptas.h"
#include "eptas/guess_search.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "scenarios.h"
#include "sched/greedy_bags.h"
#include "sched/local_search.h"
#include "util/prng.h"

namespace perfbench {

namespace gen = bagsched::gen;
namespace eptas = bagsched::eptas;
namespace sched = bagsched::sched;

namespace {

constexpr double kEps = 0.4;
constexpr int kEptasThreads = 2;

const char* const kFamilies[] = {"uniform",   "planted", "bagheavy",
                                 "smallbags", "twopoint", "replica",
                                 "mixed"};

struct CorpusEntry {
  std::string label;
  model::Instance instance;
  double lower_bound = 0.0;
  double opt = 0.0;  ///< exact corpus: proven optimum of the latest pass
};

/// The same instance with its bag ids permuted: an identical problem (bags
/// are unordered), different input bytes.
model::Instance relabel_bags(const model::Instance& instance,
                             util::Xoshiro256& rng) {
  std::vector<model::BagId> label(static_cast<std::size_t>(instance.num_bags()));
  std::iota(label.begin(), label.end(), 0);
  for (std::size_t i = label.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(label[i - 1], label[j]);
  }
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const model::Job& job : instance.jobs()) {
    sizes.push_back(job.size);
    bags.push_back(label[static_cast<std::size_t>(job.bag)]);
  }
  return model::Instance::from_vectors(sizes, bags, instance.num_machines());
}

template <typename T>
void shuffle(std::vector<T>& items, util::Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

struct Telemetry {
  double solves = 0, guesses = 0, launched = 0, cancelled = 0, memo_hits = 0,
         pricing_rounds = 0, columns = 0, lp_iterations = 0, milp_nodes = 0,
         repairs = 0, fallbacks = 0;
  void add(const api::Telemetry& stats) {
    solves += 1;
    guesses += static_cast<double>(api::stat_int(stats, "guesses"));
    launched += static_cast<double>(api::stat_int(stats, "probes_launched"));
    cancelled += static_cast<double>(api::stat_int(stats, "probes_cancelled"));
    memo_hits += static_cast<double>(api::stat_int(stats, "probes_memo_hits"));
    pricing_rounds +=
        static_cast<double>(api::stat_int(stats, "pricing_rounds"));
    columns += static_cast<double>(api::stat_int(stats, "columns"));
    lp_iterations += static_cast<double>(api::stat_int(stats, "lp_iterations"));
    milp_nodes += static_cast<double>(api::stat_int(stats, "milp_nodes"));
    repairs += static_cast<double>(api::stat_int(stats, "swaps") +
                                   api::stat_int(stats, "origin_repairs") +
                                   api::stat_int(stats, "lift_swaps"));
    fallbacks += api::stat_bool(stats, "used_fallback") ? 1.0 : 0.0;
  }
};

}  // namespace

/// What the blocks of one pass accumulate until finish().
struct Totals {
  double eptas_seconds = 0.0, exact_seconds = 0.0, opt_ratio_max = 0.0;
  std::uint64_t eptas_solves = 0, exact_solves = 0, opt_checks = 0;
  std::uint64_t eptas_failed = 0, exact_failed = 0, opt_failed = 0;
  std::vector<double> ratios;
};

struct OfflineSolve::State {
  RunConfig config;
  Totals totals;
  std::vector<CorpusEntry> eptas_corpus;
  std::vector<CorpusEntry> exact_corpus;
  api::SolveOptions eptas_options;
  api::SolveOptions exact_options;
  const api::Solver* eptas_solver = nullptr;
  const api::Solver* exact_solver = nullptr;
  // Per-layer accumulators (traced passes only).
  Telemetry telemetry;
  double exact_nodes = 0, exact_seconds = 0, exact_solves = 0;

  /// The layer calls eptas_schedule makes, made from outside on `entry`:
  /// bounds, the guess search, and one probe at the final guess.
  void eptas_layers(const CorpusEntry& entry, const api::SolveResult& result,
                    std::uint64_t request);
};

void OfflineSolve::State::eptas_layers(const CorpusEntry& entry,
                                       const api::SolveResult& result,
                                       std::uint64_t request) {
  const model::Instance& instance = entry.instance;
  double lower = 0.0, upper = 0.0;
  {
    Span span("eptas.bounds", request, 'E');
    lower = model::combined_lower_bound(instance);
    model::Schedule fallback = sched::greedy_bags(instance);
    sched::LocalSearchOptions polish;
    polish.max_moves = 20000;
    sched::improve(instance, fallback, polish);
    upper = fallback.makespan(instance);
  }
  eptas::EptasConfig config = eptas_options.eptas;
  config.num_threads = kEptasThreads;
  config.milp.time_limit_seconds = std::min(
      config.milp.time_limit_seconds, eptas_options.time_limit_seconds);
  const double step = 1.0 + kEps * config.guess_step_fraction;
  int num_guesses = 1;
  while (lower * std::pow(step, num_guesses - 1) < upper - 1e-12) {
    ++num_guesses;
  }
  {
    Span span("eptas.search", request, 'E');
    eptas::run_guess_search(instance, kEps, lower, step, num_guesses, config);
  }
  const double final_guess = api::stat_real(result.stats, "final_guess");
  if (final_guess > 0.0) {
    Span span("eptas.probe", request, 'E');
    eptas::try_makespan_guess(instance, kEps, final_guess, config);
  }
}

OfflineSolve::OfflineSolve(const RunConfig& config)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = config;
  util::Xoshiro256 rng(derive_seed(config.seed, 3));
  for (const char* family : kFamilies) {
    for (const auto& [n, m] : {std::pair{60, 12}, std::pair{200, 16}}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CorpusEntry entry;
        entry.label = std::string(family) + "/" + std::to_string(n) + "x" +
                      std::to_string(m) + "/s" + std::to_string(seed);
        entry.instance = relabel_bags(gen::by_name(family, n, m, seed), rng);
        entry.lower_bound = model::combined_lower_bound(entry.instance);
        s.eptas_corpus.push_back(std::move(entry));
      }
    }
  }
  // Twopoint instances the exact B&B proves within its default budget
  // (seed 1 of 24x4 is a one-node instance, seed 1 of 26x4 exceeds it).
  for (const int n : {24, 26}) {
    for (std::uint64_t seed = 2; seed <= 6; ++seed) {
      CorpusEntry entry;
      entry.label = "twopoint/" + std::to_string(n) + "x4/s" +
                    std::to_string(seed);
      entry.instance = relabel_bags(gen::by_name("twopoint", n, 4, seed), rng);
      entry.lower_bound = model::combined_lower_bound(entry.instance);
      s.exact_corpus.push_back(std::move(entry));
    }
  }
  shuffle(s.eptas_corpus, rng);
  shuffle(s.exact_corpus, rng);
  s.eptas_options.eps = kEps;
  s.eptas_options.num_threads = kEptasThreads;
  s.eptas_solver = &api::SolverRegistry::global().resolve("eptas");
  s.exact_solver = &api::SolverRegistry::global().resolve("exact");
}

OfflineSolve::~OfflineSolve() = default;

void OfflineSolve::block(int part, int parts, Report& report,
                         bool layer_calls) {
  State& s = *state_;
  Totals& t = s.totals;
  const auto slice = [part, parts](std::size_t size) {
    return std::pair{size * static_cast<std::size_t>(part) /
                         static_cast<std::size_t>(parts),
                     size * static_cast<std::size_t>(part + 1) /
                         static_cast<std::size_t>(parts)};
  };
  const auto [exact_begin, exact_end] = slice(s.exact_corpus.size());
  const auto [eptas_begin, eptas_end] = slice(s.eptas_corpus.size());

  // 1. exact: proves the optima the (1+eps) check below needs.
  for (std::size_t i = exact_begin; i < exact_end; ++i) {
    CorpusEntry& entry = s.exact_corpus[i];
    const std::int64_t t0 = now_ns();
    api::SolveResult result;
    {
      Span span("sched.exact", i, 'X');
      result = s.exact_solver->solve(entry.instance, s.exact_options);
    }
    const double dt = seconds_between(t0, now_ns());
    t.exact_seconds += dt;
    ++t.exact_solves;
    entry.opt = 0.0;
    const std::string problem = check_schedule(entry.instance, result);
    if (!problem.empty() ||
        result.makespan < entry.lower_bound * (1.0 - 1e-9)) {
      report.violation("exact " + entry.label + ": " +
                       (problem.empty() ? "makespan below lower bound"
                                        : problem));
      ++t.exact_failed;
      continue;
    }
    if (!result.proven_optimal) {
      ++t.exact_failed;  // out of budget: a failure, not a wrong answer
      continue;
    }
    entry.opt = result.makespan;
    if (layer_calls) {
      s.exact_nodes += static_cast<double>(api::stat_int(result.stats, "nodes"));
      s.exact_seconds += dt;
      s.exact_solves += 1;
    }
  }
  // 2. eptas over the main corpus.
  for (std::size_t i = eptas_begin; i < eptas_end; ++i) {
    const CorpusEntry& entry = s.eptas_corpus[i];
    const std::int64_t t0 = now_ns();
    api::SolveResult result;
    {
      Span span("eptas.solve", i, 'E');
      result = s.eptas_solver->solve(entry.instance, s.eptas_options);
    }
    t.eptas_seconds += seconds_between(t0, now_ns());
    ++t.eptas_solves;
    const std::string problem = check_schedule(entry.instance, result);
    if (!problem.empty() ||
        result.makespan < entry.lower_bound * (1.0 - 1e-9)) {
      report.violation("eptas " + entry.label + ": " +
                       (problem.empty() ? "makespan below lower bound"
                                        : problem));
      ++t.eptas_failed;
      continue;
    }
    t.ratios.push_back(result.makespan / entry.lower_bound);
    if (layer_calls) {
      s.telemetry.add(result.stats);
      s.eptas_layers(entry, result, i);
    }
  }
  // 3. eptas against the proven optima: the paper's (1+eps) guarantee.
  for (std::size_t i = exact_begin; i < exact_end; ++i) {
    const CorpusEntry& entry = s.exact_corpus[i];
    if (entry.opt <= 0.0) continue;
    ++t.opt_checks;
    const api::SolveResult result =
        s.eptas_solver->solve(entry.instance, s.eptas_options);
    const std::string problem = check_schedule(entry.instance, result);
    const double ratio = result.makespan / entry.opt;
    if (!problem.empty() || ratio > 1.0 + kEps + 1e-9 || ratio < 1.0 - 1e-9) {
      report.violation("eptas vs OPT " + entry.label + ": " +
                       (problem.empty() ? "ratio " + std::to_string(ratio)
                                        : problem));
      ++t.opt_failed;
      continue;
    }
    t.opt_ratio_max = std::max(t.opt_ratio_max, ratio);
  }
}

Metrics OfflineSolve::finish(Report& report, const std::string& label) {
  const Totals t = std::move(state_->totals);
  state_->totals = Totals{};
  report.phase(label + "offline.eptas", t.eptas_solves,
               t.eptas_solves - t.eptas_failed, t.eptas_failed);
  report.phase(label + "offline.exact", t.exact_solves,
               t.exact_solves - t.exact_failed, t.exact_failed);
  report.phase(label + "offline.eptas_vs_opt", t.opt_checks,
               t.opt_checks - t.opt_failed, t.opt_failed);
  util::Json samples = util::Json::object();
  samples.set("eptas_solves", static_cast<long long>(t.eptas_solves));
  samples.set("exact_solves", static_cast<long long>(t.exact_solves));
  samples.set("opt_checks", static_cast<long long>(t.opt_checks));
  report.info.set(label + "offline.samples", samples);

  Metrics metrics;
  metrics.push_back(
      {"eptas_per_s",
       {static_cast<double>(t.eptas_solves) / t.eptas_seconds, "1/s"}});
  metrics.push_back({"eptas_ratio_mean", {mean(t.ratios), "ratio"}});
  metrics.push_back({"eptas_opt_ratio_max", {t.opt_ratio_max, "ratio"}});
  metrics.push_back(
      {"exact_per_s",
       {static_cast<double>(t.exact_solves) / t.exact_seconds, "1/s"}});
  return metrics;
}

void OfflineSolve::layers(Report& report) {
  const State& s = *state_;
  const Tracer& tracer = Tracer::get();
  const Telemetry& t = s.telemetry;
  const double solves = std::max(1.0, t.solves);
  report.set("eptas.bounds_us", median(tracer.durations_us("eptas.bounds")),
             "us");
  report.set("eptas.search_ms",
             median(tracer.durations_us("eptas.search")) * 1e-3, "ms");
  report.set("eptas.probe_ms",
             median(tracer.durations_us("eptas.probe")) * 1e-3, "ms");
  report.set("eptas.guesses", t.guesses / solves, "count");
  report.set("eptas.probes_launched", t.launched / solves, "count");
  report.set("eptas.probe_waste_ratio",
             t.launched > 0 ? t.cancelled / t.launched : 0.0, "ratio");
  report.set("eptas.memo_hit_ratio",
             t.guesses > 0 ? t.memo_hits / t.guesses : 0.0, "ratio");
  report.set("eptas.pricing_rounds", t.pricing_rounds / solves, "count");
  report.set("eptas.columns", t.columns / solves, "count");
  report.set("lp.iterations", t.lp_iterations / solves, "count");
  report.set("milp.nodes", t.milp_nodes / solves, "count");
  report.set("eptas.repairs", t.repairs / solves, "count");
  report.set("eptas.fallbacks", t.fallbacks / solves, "ratio");
  report.set("sched.exact_nodes", s.exact_nodes / std::max(1.0, s.exact_solves),
             "count");
  report.set("sched.exact_nodes_per_s",
             s.exact_seconds > 0 ? s.exact_nodes / s.exact_seconds : 0.0, "1/s");
}

}  // namespace perfbench
