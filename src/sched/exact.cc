#include "sched/exact.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "model/lower_bounds.h"
#include "sched/local_search.h"
#include "util/bitset64.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bagsched::sched {

using model::BagId;
using model::Instance;
using model::JobId;
using model::MachineId;
using model::Schedule;

namespace {

/// Nodes between time-limit / cancellation polls, as an AND-mask over the
/// node counter (a power of two minus one, so the per-node cost is one AND).
/// Multi-threaded, it is also each worker's flush interval for the shared
/// node counter.
constexpr long long kPollMask = 8192 - 1;
/// Frontier expansion stops once at least num_threads * kFramesPerThread
/// stealable frames exist (more frames = finer-grained stealing).
constexpr std::size_t kFramesPerThread = 32;
constexpr double kTol = 1e-12;

/// A subtree root: the search state after assigning order[0, depth).
struct Frame {
  std::vector<double> loads;
  util::BitMatrix64 occupancy;
  /// Machine per job: fixed jobs and the assigned prefix are current, the
  /// free jobs past `depth` are stale.
  std::vector<MachineId> assignment;
  std::size_t depth = 0;
  int used_machines = 0;
  double current_max = 0.0;
};

/// One search thread's DFS path. Its loads, occupancy and assignment are
/// updated in place; depth, used machines and current max travel as DFS
/// arguments instead.
struct Cursor {
  Frame path;
  /// Single-threaded: every node visited. Multi-threaded: the nodes not yet
  /// flushed into the shared counter.
  long long nodes = 0;
  /// Frontier expansion: nodes at this depth are emitted into `frontier`
  /// instead of being searched.
  std::size_t cutoff = std::numeric_limits<std::size_t>::max();
  std::vector<Frame>* frontier = nullptr;
};

class Search {
 public:
  Search(const Instance& instance, const ExactOptions& options,
         const PartialAssignment* partial)
      : instance_(instance), options_(options) {
    const int m = instance.num_machines();
    const auto n = static_cast<std::size_t>(instance.num_jobs());
    std::vector<char> is_free(n, partial == nullptr ? 1 : 0);
    if (partial != nullptr) {
      model::require_valid(instance, partial->start, "solve_exact start");
      for (const JobId job : partial->free_jobs) {
        if (job < 0 || job >= instance.num_jobs()) {
          throw std::invalid_argument("solve_exact: free job out of range");
        }
        is_free[static_cast<std::size_t>(job)] = 1;
      }
    }

    root_.loads.assign(static_cast<std::size_t>(m), 0.0);
    root_.occupancy = util::BitMatrix64(m, std::max(instance.num_bags(), 1));
    root_.assignment.assign(n, model::kUnassigned);
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      if (is_free[static_cast<std::size_t>(j)]) {
        order_.push_back(j);
        continue;
      }
      const MachineId machine = partial->start.machine_of(j);
      root_.loads[static_cast<std::size_t>(machine)] += instance.job(j).size;
      root_.occupancy.set(machine, instance.job(j).bag);
      root_.assignment[static_cast<std::size_t>(j)] = machine;
    }
    // Machines with fixed load are not interchangeable: starting with every
    // machine "used" turns the fresh-machine rule off.
    root_.used_machines = partial == nullptr ? 0 : m;
    root_.current_max =
        *std::max_element(root_.loads.begin(), root_.loads.end());

    // LPT order maximizes pruning power near the root.
    std::sort(order_.begin(), order_.end(), [&](JobId a, JobId b) {
      if (instance.job(a).size != instance.job(b).size) {
        return instance.job(a).size > instance.job(b).size;
      }
      return a < b;
    });
    // The loads always sum to the fixed area plus the assigned prefix, so
    // the area lower bound (fixed + assigned + remaining) / m is the same
    // constant at every node.
    double total_area = 0.0;
    for (const double load : root_.loads) total_area += load;
    for (const JobId j : order_) total_area += instance.job(j).size;
    area_bound_ = total_area / m;

    if (partial != nullptr) {
      best_schedule_ = partial->start;
    } else {
      // Local search: always feasible, usually near-optimal.
      LocalSearchOptions start_options;
      start_options.max_moves = 20000;
      best_schedule_ = local_search(instance, start_options);
    }
  }

  ExactResult run() {
    best_ = best_schedule_.makespan(instance_);
    shared_best_.store(best_, std::memory_order_relaxed);
    lower_bound_ = model::combined_lower_bound(instance_);
    if (options_.on_incumbent) options_.on_incumbent(best_);

    long long nodes = 0;
    if (options_.num_threads <= 1) {
      Cursor cursor{root_};
      dfs<false>(cursor, root_.depth, root_.used_machines,
                 root_.current_max);
      nodes = cursor.nodes;
    } else {
      nodes = run_parallel(options_.num_threads);
    }

    ExactResult result;
    result.schedule = best_schedule_;
    result.makespan = best_;
    result.nodes = nodes;
    result.proven_optimal = !aborted_;
    result.cancelled = cancelled_;
    return result;
  }

 private:
  /// The incumbent makespan the search prunes against.
  template <bool kShared>
  double bound() const {
    return kShared ? shared_best_.load(std::memory_order_relaxed) : best_;
  }

  template <bool kShared>
  bool stopped() const {
    return kShared ? shared_aborted_.load(std::memory_order_relaxed)
                   : aborted_;
  }

  /// The one branch-and-bound DFS. kShared selects how the incumbent, the
  /// stop flag and the node budget are read: plain members on one thread,
  /// atomics shared by the workers otherwise.
  template <bool kShared>
  void dfs(Cursor& c, std::size_t depth, int used_machines,
           double current_max) {
    if (stopped<kShared>()) return;
    ++c.nodes;
    if constexpr (!kShared) {
      if (c.nodes > options_.max_nodes) {
        stop(false);
        return;
      }
    }
    if ((c.nodes & kPollMask) == 0) {
      long long total = c.nodes;
      if constexpr (kShared) {
        total = shared_nodes_.fetch_add(c.nodes, std::memory_order_relaxed) +
                c.nodes;
        c.nodes = 0;
      }
      if (poll_stop(total)) return;
    }
    if (depth == order_.size()) {
      offer<kShared>(c.path.assignment, current_max);
      return;
    }
    if (std::max(current_max, area_bound_) >= bound<kShared>() - kTol) {
      return;
    }
    if (bound<kShared>() <= lower_bound_ + kTol) {
      return;  // incumbent already optimal
    }
    if constexpr (kShared) {
      if (depth == c.cutoff) {
        Frame& frame = c.frontier->emplace_back(c.path);
        frame.depth = depth;
        frame.used_machines = used_machines;
        frame.current_max = current_max;
        return;
      }
    }

    std::vector<double>& loads = c.path.loads;
    util::BitMatrix64& occupancy = c.path.occupancy;
    const JobId job = order_[depth];
    const BagId bag = instance_.job(job).bag;
    const double size = instance_.job(job).size;

    // Symmetry breaking: identical empty machines are interchangeable, so
    // try at most one fresh machine.
    const int machine_limit =
        std::min(instance_.num_machines(), used_machines + 1);
    for (int machine = 0; machine < machine_limit; ++machine) {
      if (occupancy.test(machine, bag)) continue;
      const double load = loads[static_cast<std::size_t>(machine)];
      if (load + size >= bound<kShared>() - kTol) continue;
      // Dominance: a machine with the same load and the same bag mask as a
      // lower-indexed one reaches a machine-permutation of an already
      // explored state.
      bool dominated = false;
      for (int prev = 0; prev < machine; ++prev) {
        if (loads[static_cast<std::size_t>(prev)] == load &&
            occupancy.rows_equal(prev, machine)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      loads[static_cast<std::size_t>(machine)] = load + size;
      occupancy.set(machine, bag);
      c.path.assignment[static_cast<std::size_t>(job)] = machine;
      dfs<kShared>(c, depth + 1, std::max(used_machines, machine + 1),
                   std::max(current_max, load + size));
      c.path.assignment[static_cast<std::size_t>(job)] = model::kUnassigned;
      occupancy.reset(machine, bag);
      loads[static_cast<std::size_t>(machine)] = load;
      if (stopped<kShared>()) return;
    }
  }

  /// The periodic poll: true (and the search stopped) once the node budget,
  /// the time limit or the cancellation token says so.
  bool poll_stop(long long total_nodes) {
    // Injected stall at the poll cadence: models a solver that slows to a
    // crawl, so budget/watchdog escalation is exercised without a hang. It
    // sits before the token check, so a stop requested mid-stall is not
    // noticed for up to a full period — exactly the unresponsiveness the
    // stuck-solver watchdog exists for.
    if (BAGSCHED_FAULT("solver.stall.exact")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (total_nodes > options_.max_nodes ||
        timer_.seconds() > options_.time_limit_seconds) {
      stop(false);
      return true;
    }
    if (util::stop_requested(options_.cancel)) {
      stop(true);
      return true;
    }
    return false;
  }

  void stop(bool cancelled) {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    cancelled_ = cancelled_ || cancelled;
    shared_aborted_.store(true, std::memory_order_relaxed);
  }

  /// A complete assignment reached a leaf. Multi-threaded, the makespan is
  /// first published into the shared bound by CAS, so every worker prunes
  /// against it at once; the schedule is recorded under the mutex, which
  /// keeps on_incumbent emissions monotone.
  template <bool kShared>
  void offer(const std::vector<MachineId>& assignment, double makespan) {
    if constexpr (kShared) {
      double current = shared_best_.load(std::memory_order_relaxed);
      do {
        if (makespan >= current - kTol) return;
      } while (!shared_best_.compare_exchange_weak(
          current, makespan, std::memory_order_relaxed));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (makespan >= best_ - kTol) return;
    best_ = makespan;
    for (JobId j = 0; j < instance_.num_jobs(); ++j) {
      best_schedule_.assign(j, assignment[static_cast<std::size_t>(j)]);
    }
    if (options_.on_incumbent) options_.on_incumbent(best_);
  }

  /// Restarts `c` at `frame` and searches its subtree.
  void descend(Cursor& c, const Frame& frame) {
    c.path = frame;
    dfs<true>(c, frame.depth, frame.used_machines, frame.current_max);
  }

  /// Expands the top of the tree with the DFS itself, one complete level at
  /// a time, until there are enough frames to steal (leaves met on the way
  /// are offered as incumbents); then a pool of `threads` workers drains
  /// the frames. Returns the nodes visited.
  long long run_parallel(int threads) {
    const std::size_t target =
        static_cast<std::size_t>(threads) * kFramesPerThread;
    std::vector<Frame> frames{root_};
    Cursor expander;
    while (!frames.empty() && frames.size() < target &&
           !stopped<true>()) {
      std::vector<Frame> next;
      expander.frontier = &next;
      for (const Frame& frame : frames) {
        expander.cutoff = frame.depth + 1;
        descend(expander, frame);
      }
      frames = std::move(next);
    }
    shared_nodes_.fetch_add(expander.nodes, std::memory_order_relaxed);

    if (!frames.empty() && !stopped<true>()) {
      std::atomic<std::size_t> next_frame{0};
      util::ThreadPool pool(static_cast<std::size_t>(threads));
      std::vector<std::future<void>> done;
      for (int t = 0; t < threads; ++t) {
        done.push_back(pool.submit([this, &frames, &next_frame] {
          Cursor cursor;
          while (!stopped<true>()) {
            const std::size_t index =
                next_frame.fetch_add(1, std::memory_order_relaxed);
            if (index >= frames.size()) break;
            descend(cursor, frames[index]);
          }
          shared_nodes_.fetch_add(cursor.nodes, std::memory_order_relaxed);
        }));
      }
      for (auto& future : done) future.get();
    }
    return shared_nodes_.load(std::memory_order_relaxed);
  }

  const Instance& instance_;
  const ExactOptions& options_;
  util::Stopwatch timer_;
  std::vector<JobId> order_;  ///< the free jobs, LPT order
  Frame root_;
  double area_bound_ = 0.0;
  double lower_bound_ = 0.0;

  /// Incumbent, stop flags: read directly by the single-threaded DFS;
  /// multi-threaded they are written under mutex_ and the workers read the
  /// shared_* atomics instead.
  std::mutex mutex_;
  Schedule best_schedule_;
  double best_ = 0.0;
  bool aborted_ = false;
  bool cancelled_ = false;
  std::atomic<double> shared_best_{0.0};
  std::atomic<bool> shared_aborted_{false};
  std::atomic<long long> shared_nodes_{0};
};

}  // namespace

ExactResult solve_exact(const Instance& instance, const ExactOptions& options,
                        const PartialAssignment* partial) {
  Search search(instance, options, partial);
  return search.run();
}

}  // namespace bagsched::sched
