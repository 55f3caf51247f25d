#include "eptas/guess_search.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "eptas/classify.h"
#include "eptas/enumerate.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/placement.h"
#include "eptas/small_jobs.h"
#include "eptas/transform.h"
#include "util/cancellation.h"
#include "util/grid.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace bagsched::eptas {

using model::Instance;
using model::JobId;
using model::Schedule;

namespace {

/// Warm-start payload of a certified probe: the medium/large content of
/// every machine as *original* job ids (pattern-relevant jobs only, i.e.
/// the I' ml jobs — priority mediums/larges and large-part larges).
struct ProbePayload {
  std::vector<std::vector<JobId>> machines;
};

/// Outcome of one dual-approximation probe. With cross-guess reuse on,
/// outcomes are pure functions of the grid signature (plus the fixed
/// anchor seeds), which is what makes both the memo and the speculative
/// consumption order-independent.
struct ProbeOutcome {
  bool success = false;
  /// The probe's token fired and the pipeline may have been truncated; the
  /// outcome is not reproducible and must never enter the memo. (A probe
  /// that *succeeded* despite a late-firing token passed the full
  /// validation gate and is kept as a regular success.)
  bool cancelled = false;
  Schedule schedule;  ///< valid iff success
  EptasStats stats;   ///< per-guess pipeline stats
  int warm_columns = 0;
  int warm_columns_used = 0;
  std::shared_ptr<const ProbePayload> payload;  ///< set iff success
  /// Grid signature of the probe's guess. The controller counts a consumed
  /// probe as a memo hit when an earlier *consumed* probe had the same
  /// signature — that matches the sequential run exactly, whereas the
  /// run-time memo state depends on speculation timing.
  std::vector<int> signature;
};

/// Reusable per-probe scratch buffers (hoisted out of the per-guess loop).
struct Workspace {
  std::vector<int> signature;     ///< grid index per job
  std::vector<double> rounded;    ///< grid value per job
};

struct PipelineResult {
  std::optional<Schedule> schedule;
  std::shared_ptr<const ProbePayload> payload;
  int warm_columns = 0;
  int warm_columns_used = 0;
};

/// The per-guess pipeline of try_makespan_guess, operating directly on the
/// original instance plus the guess's rounded sizes (the scaled instance is
/// never materialized: scaling only ever fed the rounding, and the bag
/// structure and machine count are scale-invariant).
PipelineResult run_pipeline(const Instance& instance, double eps,
                            const std::vector<double>& rounded,
                            const EptasConfig& config,
                            const ProbePayload* warm, EptasStats* stats) {
  PipelineResult result;

  const auto cls = classify(instance, eps, config, &rounded);
  if (!cls) return result;

  const Transformed transformed = transform(instance, *cls);
  const PatternSpace space = build_pattern_space(transformed, *cls);

  // Map the anchor's original job ids onto this guess's I' jobs. Removed
  // mediums have no I' twin and drop out; solve_master's pattern parser
  // re-validates everything else against this guess's pattern space.
  std::vector<std::vector<JobId>> warm_prime;
  if (warm != nullptr) {
    std::vector<JobId> prime_of(
        static_cast<std::size_t>(instance.num_jobs()), model::kUnassigned);
    for (JobId j = 0; j < transformed.instance.num_jobs(); ++j) {
      const JobId orig = transformed.orig_job[static_cast<std::size_t>(j)];
      if (orig != model::kUnassigned) {
        prime_of[static_cast<std::size_t>(orig)] = j;
      }
    }
    warm_prime.reserve(warm->machines.size());
    for (const auto& machine : warm->machines) {
      std::vector<JobId> mapped;
      mapped.reserve(machine.size());
      for (const JobId orig : machine) {
        const JobId prime = prime_of[static_cast<std::size_t>(orig)];
        if (prime != model::kUnassigned) mapped.push_back(prime);
      }
      if (!mapped.empty()) warm_prime.push_back(std::move(mapped));
    }
  }

  std::optional<MasterSolution> master;
  if (config.use_enumerated_milp) {
    // The paper's literal MILP; on enumeration blow-up fall back to the
    // column-generated master (same program, restricted columns).
    if (enumerate_all_patterns(space, config.max_patterns)) {
      master = solve_enumerated_master(space, transformed, *cls, config);
      if (!master) return result;  // proven infeasible at this guess
    }
  }
  if (!master) {
    master = solve_master(space, transformed, *cls, config,
                          warm_prime.empty() ? nullptr : &warm_prime);
  }
  if (!master) return result;
  result.warm_columns = master->stats.warm_columns;
  result.warm_columns_used = master->stats.warm_columns_used;

  auto placement = place_ml_jobs(transformed, space, *master, config);
  if (!placement) return result;

  SmallJobStats small_stats;
  if (!schedule_small_jobs(transformed, *cls, space, *master, *placement,
                           config, small_stats)) {
    return result;
  }

  const auto medium_machine =
      insert_medium_jobs(instance, transformed, *placement, config.cancel);
  if (!medium_machine) return result;

  Schedule lifted = lift_solution(instance, transformed, *placement,
                                  *medium_machine, config, small_stats,
                                  &*cls);

  // Final gate: the lifted schedule must be a complete, bag-feasible
  // schedule of the *original* instance (assignments transfer verbatim
  // because the scaling was uniform).
  const auto validation = model::validate(instance, lifted);
  if (!validation.ok()) {
    BAGSCHED_LOG(Debug) << "guess rejected: " << validation.message;
    return result;
  }

  // Warm-start payload: ml content per machine, as original job ids (small
  // jobs and fillers are not pattern content; later stages never move ml
  // jobs, so the placement schedule still holds the pattern assignment).
  auto payload = std::make_shared<ProbePayload>();
  payload->machines.assign(
      static_cast<std::size_t>(instance.num_machines()), {});
  for (JobId j = 0; j < transformed.instance.num_jobs(); ++j) {
    if (transformed.class_of(j) == JobClass::Small) continue;
    const JobId orig = transformed.orig_job[static_cast<std::size_t>(j)];
    if (orig == model::kUnassigned) continue;
    const model::MachineId machine = placement->schedule.machine_of(j);
    if (machine == model::kUnassigned) continue;
    payload->machines[static_cast<std::size_t>(machine)].push_back(orig);
  }

  if (stats != nullptr) {
    stats->columns = master->stats.columns;
    stats->pricing_rounds = master->stats.pricing_rounds;
    stats->pricing_capped = master->stats.pricing_capped;
    stats->lp_iterations = master->stats.lp_iterations;
    stats->milp_nodes = master->stats.milp_nodes;
    stats->swaps = placement->swaps;
    stats->origin_repairs = small_stats.origin_repairs;
    stats->lift_swaps = small_stats.lift_swaps;
    stats->rescues = placement->rescues + small_stats.rescues;
  }
  result.schedule = std::move(lifted);
  result.payload = std::move(payload);
  return result;
}

/// Shared state of one search run: the inputs, the grid-signature memo and
/// the workspace freelist.
class SearchContext {
 public:
  SearchContext(const Instance& instance, double eps, double lower,
                double step, const EptasConfig& config)
      : instance_(instance), config_(config), grid_(eps), eps_(eps),
        lower_(lower), step_(step) {}

  double guess_at(int index) const {
    return lower_ * std::pow(step_, index);
  }

  void set_anchor(std::shared_ptr<const ProbePayload> payload) {
    anchor_ = std::move(payload);
  }

  /// Runs (or memo-serves) the probe at `index`. `token` is the probe's
  /// cancellation token (already chained to the caller's token). Outcomes
  /// are shared — memo hits are a pointer copy, not a schedule copy.
  std::shared_ptr<const ProbeOutcome> run_probe(
      int index, const util::CancellationToken* token) {
    if (util::stop_requested(token)) {
      auto out = std::make_shared<ProbeOutcome>();
      out->cancelled = true;
      return out;
    }
    const double guess = guess_at(index);
    std::unique_ptr<Workspace> ws = acquire_workspace();

    // Grid signature: the rounded scaled size of job j is
    // (1+eps)^signature[j]; every downstream stage sees only these values.
    const int n = instance_.num_jobs();
    ws->signature.resize(static_cast<std::size_t>(n));
    ws->rounded.resize(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      const int idx = grid_.index_above(instance_.job(j).size / guess);
      ws->signature[static_cast<std::size_t>(j)] = idx;
      ws->rounded[static_cast<std::size_t>(j)] = grid_.value(idx);
    }

    if (config_.warm_start) {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      const auto it = memo_.find(ws->signature);
      if (it != memo_.end()) {
        auto hit = it->second;
        release_workspace(std::move(ws));
        return hit;
      }
    }

    EptasConfig probe_config = config_;
    probe_config.cancel = token;
    // The probe token must reach the master's column generation and MILP —
    // the dominant pipeline cost — or a moot speculative probe would hold
    // its worker until the master finishes. It already chains the caller's
    // token, so only a *distinct* explicit milp token is preserved.
    if (probe_config.milp.cancel == nullptr ||
        probe_config.milp.cancel == config_.cancel) {
      probe_config.milp.cancel = token;
    }
    probe_config.on_probe = nullptr;

    auto out = std::make_shared<ProbeOutcome>();
    PipelineResult pipeline =
        run_pipeline(instance_, eps_, ws->rounded, probe_config,
                     anchor_.get(), &out->stats);
    out->success = pipeline.schedule.has_value();
    out->warm_columns = pipeline.warm_columns;
    out->warm_columns_used = pipeline.warm_columns_used;
    if (out->success) {
      out->schedule = std::move(*pipeline.schedule);
      out->payload = std::move(pipeline.payload);
    }
    const bool token_fired = util::stop_requested(token);
    // A failure with a fired token may be a truncated pipeline rather than
    // a proven reject; it must not be trusted.
    out->cancelled = !out->success && token_fired;

    out->signature = ws->signature;
    // Never memoize any outcome produced under a fired token — even a
    // "successful" one: a stage may have been truncated (e.g. an early
    // MILP incumbent) into a valid-but-different schedule, and a
    // timing-dependent entry would break the bit-identical contract.
    if (config_.warm_start && !token_fired) {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      memo_.emplace(ws->signature, out);
    }
    release_workspace(std::move(ws));
    return out;
  }

 private:
  std::unique_ptr<Workspace> acquire_workspace() {
    std::lock_guard<std::mutex> lock(ws_mutex_);
    if (!workspaces_.empty()) {
      auto ws = std::move(workspaces_.back());
      workspaces_.pop_back();
      return ws;
    }
    return std::make_unique<Workspace>();
  }

  void release_workspace(std::unique_ptr<Workspace> ws) {
    std::lock_guard<std::mutex> lock(ws_mutex_);
    workspaces_.push_back(std::move(ws));
  }

  const Instance& instance_;
  const EptasConfig& config_;
  const util::EpsGrid grid_;
  const double eps_;
  const double lower_;
  const double step_;

  /// Fixed warm-start seeds; written once by the controller before any
  /// concurrent probe launches.
  std::shared_ptr<const ProbePayload> anchor_;

  std::mutex memo_mutex_;
  std::map<std::vector<int>, std::shared_ptr<const ProbeOutcome>> memo_;

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> workspaces_;
};

/// The guess indices a binary search over [lo, hi) may visit next, given
/// that `mid` is in flight: breadth-first over the windows both possible
/// outcomes of every pending probe leave behind.
std::vector<int> speculative_indices(int lo, int hi, int mid, int limit) {
  std::vector<int> out;
  std::deque<std::pair<int, int>> windows;
  windows.emplace_back(lo, mid);        // `mid` succeeds
  windows.emplace_back(mid + 1, hi);    // `mid` fails
  while (!windows.empty() && static_cast<int>(out.size()) < limit) {
    const auto [l, h] = windows.front();
    windows.pop_front();
    if (l >= h) continue;
    const int m = l + (h - l) / 2;
    out.push_back(m);
    windows.emplace_back(l, m);
    windows.emplace_back(m + 1, h);
  }
  return out;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

GuessSearchResult run_guess_search(const Instance& instance, double eps,
                                   double lower, double step,
                                   int num_guesses,
                                   const EptasConfig& config) {
  GuessSearchResult result;
  const int threads = resolve_threads(config.num_threads);
  result.threads_used = threads;

  SearchContext ctx(instance, eps, lower, step, config);

  // Consumes one probe outcome in the deterministic replay order. A probe
  // counts as a memo hit when an earlier consumed probe shared its grid
  // signature — identical to what the sequential run's memo serves, and
  // independent of speculation timing.
  std::set<std::vector<int>> consumed_signatures;
  auto consume = [&](int index, const ProbeOutcome& out, bool is_anchor) {
    ++result.guesses_tried;
    const bool memo_hit =
        config.warm_start &&
        !consumed_signatures.insert(out.signature).second;
    if (memo_hit) ++result.memo_hits;
    result.columns_warm_started += out.warm_columns;
    result.pricing_rounds_saved += out.warm_columns_used;
    if (config.on_probe) {
      GuessProbeEvent event;
      event.index = index;
      event.guess = ctx.guess_at(index);
      event.success = out.success;
      event.memo_hit = memo_hit;
      event.anchor = is_anchor;
      event.warm_columns = out.warm_columns;
      event.pricing_rounds = out.stats.pricing_rounds;
      config.on_probe(event);
    }
  };

  auto adopt = [&](int index, const ProbeOutcome& out) {
    result.best = out.schedule;  // outcomes are shared (memo): copy
    result.best_index = index;
    result.best_stats = out.stats;
  };

  int lo = 0;
  int hi = num_guesses;  // == num_guesses means "no guess succeeded"

  // --- Warm-start anchor: probe the top guess first. -----------------------
  // The top guess is the most likely to certify; its patterns seed every
  // other probe's column pool, and under the same monotonicity assumption
  // the binary search already makes, its success bounds the search window.
  // It runs to completion before any other probe launches, so the seeds
  // are fixed for the whole (possibly concurrent) search.
  if (config.warm_start && num_guesses > 1) {
    const int anchor_index = num_guesses - 1;
    util::CancellationToken anchor_token(config.cancel);
    ++result.probes_launched;
    const auto out = ctx.run_probe(anchor_index, &anchor_token);
    if (out->cancelled) {
      result.cancelled = true;
      return result;
    }
    consume(anchor_index, *out, /*is_anchor=*/true);
    if (out->success) {
      ctx.set_anchor(out->payload);
      hi = anchor_index;
      adopt(anchor_index, *out);
    }
    // An anchor failure is no evidence about lower guesses (practical-cap
    // failures are not monotone downward); the window stays [0, G).
  }

  // More workers than remaining guesses is pure oversubscription; this
  // also keeps the common tight-window searches (1-2 guesses) on the
  // pool-free sequential path.
  const int effective_threads = std::min(threads, std::max(1, hi - lo));

  if (effective_threads <= 1) {
    // --- Sequential replay (the reference semantics). ----------------------
    while (lo < hi) {
      if (util::stop_requested(config.cancel)) {
        result.cancelled = true;
        break;
      }
      const int mid = lo + (hi - lo) / 2;
      util::CancellationToken token(config.cancel);
      ++result.probes_launched;
      const auto out = ctx.run_probe(mid, &token);
      if (out->cancelled) {
        result.cancelled = true;
        break;
      }
      consume(mid, *out, /*is_anchor=*/false);
      if (out->success) {
        adopt(mid, *out);
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return result;
  }

  // --- Speculative parallel replay. ----------------------------------------
  // Probes run on the pool; the controller consumes them in the exact
  // sequential order, so identical outcomes imply identical results.
  struct Inflight {
    std::future<std::shared_ptr<const ProbeOutcome>> future;
    std::unique_ptr<util::CancellationToken> token;
    bool cancelled = false;
  };
  util::ThreadPool pool(static_cast<std::size_t>(effective_threads));
  std::map<int, Inflight> inflight;
  std::map<int, std::shared_ptr<const ProbeOutcome>> done;

  auto ensure_launched = [&](int index) {
    if (done.count(index) > 0 || inflight.count(index) > 0) return;
    Inflight entry;
    entry.token = std::make_unique<util::CancellationToken>(config.cancel);
    const util::CancellationToken* token = entry.token.get();
    entry.future = pool.submit(
        [&ctx, index, token] { return ctx.run_probe(index, token); });
    inflight.emplace(index, std::move(entry));
    ++result.probes_launched;
  };

  // Every in-flight probe must finish before the context and the tokens
  // (captured by reference) go away — also on the exception path, where a
  // throwing probe would otherwise unwind past still-running workers.
  auto drain = [&inflight]() noexcept {
    for (auto& [idx, entry] : inflight) {
      entry.token->request_stop();
      entry.future.wait();
    }
  };

  try {
    while (lo < hi) {
      if (util::stop_requested(config.cancel)) {
        result.cancelled = true;
        break;
      }
      const int mid = lo + (hi - lo) / 2;
      if (done.count(mid) == 0) {
        ensure_launched(mid);
        // Fill the remaining workers with the indices the search may need
        // next, whichever way the pending probes resolve.
        for (const int idx :
             speculative_indices(lo, hi, mid, 2 * effective_threads)) {
          ensure_launched(idx);
        }
        auto node = inflight.extract(mid);
        auto out = node.mapped().future.get();
        if (out->cancelled) {
          result.cancelled = true;
          break;
        }
        done.emplace(mid, std::move(out));
      }
      const ProbeOutcome& out = *done.at(mid);
      consume(mid, out, /*is_anchor=*/false);
      if (out.success) {
        adopt(mid, out);
        hi = mid;
      } else {
        lo = mid + 1;
      }
      // Probes outside the remaining window can no longer be consumed:
      // stop them so their workers free up for useful speculation.
      for (auto& [idx, entry] : inflight) {
        if (!entry.cancelled && (idx < lo || idx >= hi)) {
          entry.token->request_stop();
          entry.cancelled = true;
          ++result.probes_cancelled;
        }
      }
    }
  } catch (...) {
    drain();
    throw;
  }
  drain();
  return result;
}

std::optional<Schedule> try_makespan_guess(const Instance& instance,
                                           double eps, double guess,
                                           const EptasConfig& config,
                                           EptasStats* stats) {
  const util::EpsGrid grid(eps);
  std::vector<double> rounded;
  rounded.reserve(static_cast<std::size_t>(instance.num_jobs()));
  for (const auto& job : instance.jobs()) {
    rounded.push_back(grid.round_up(job.size / guess));
  }
  PipelineResult pipeline =
      run_pipeline(instance, eps, rounded, config, nullptr, stats);
  return std::move(pipeline.schedule);
}

}  // namespace bagsched::eptas
