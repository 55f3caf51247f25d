// Shared plumbing of the perfbench binary: clocks, the span recorder used
// by traced runs, percentile helpers, the run report, and the output checks
// every scenario applies to what the library hands back.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/solver.h"
#include "model/instance.h"
#include "model/schedule.h"
#include "util/json.h"

namespace perfbench {

namespace api = bagsched::api;
namespace model = bagsched::model;
namespace util = bagsched::util;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Deterministic per-purpose seed: the run seed mixed with a stream tag, so
/// every scenario draws from its own reproducible sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// --- Span recorder ----------------------------------------------------------
//
// A span is one call the benchmark makes into a layer's public function:
// name, start, end, parent span and request id. Spans are appended to a
// per-thread buffer (no lock on the hot path) and only when tracing is
// switched on; they stay in memory until write() dumps them at the end.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  char kind = '-';  ///< request class tag ('g' greedy, 'b' bag-lpt, ...)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Records a finished span measured elsewhere (e.g. from progress-event
  /// stamps). No-op while tracing is off.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request = 0, char kind = '-');
  void append(const SpanRecord& span);

  /// Durations (microseconds) of every span called `name`, optionally only
  /// those tagged `kind`. Call once recording threads have joined.
  std::vector<double> durations_us(const std::string& name,
                                   char kind = 0) const;
  std::size_t size() const;
  /// Writes all spans as CSV (id,parent,request,kind,name,start_ns,end_ns).
  void write(const std::string& path) const;

 private:
  std::vector<SpanRecord>& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// RAII span: opens on construction, closes on destruction (or end()).
/// Nested spans on one thread record the enclosing span as their parent.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0, char kind = '-');
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void end();

 private:
  bool active_ = false;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
};

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 on an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// --- Run report -------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), in insertion order of first set.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Seed, per-phase request counts, percentile sample sizes, overheads.
  util::Json info = util::Json::object();
  std::vector<std::string> violations;
  std::mutex mutex;  ///< guards correct/violations (scenario threads)

  void set(const std::string& name, double value, const std::string& unit);
  /// A correctness violation marks the run incorrect (the caller also
  /// counts the operation as failed in its phase). Only the first few
  /// messages are kept.
  void violation(const std::string& message);
  /// Per-phase operation accounting, folded into attempted/failed.
  void phase(const std::string& name, std::uint64_t sent,
             std::uint64_t succeeded, std::uint64_t failed);
};

// --- Output checks ----------------------------------------------------------

/// The checks every returned schedule must pass: a usable status, a
/// schedule that passes model::validate for `instance`, and a reported
/// makespan equal to the one recomputed from the schedule. Returns an empty
/// string when all hold, else what failed.
std::string check_schedule(const model::Instance& instance,
                           const api::SolveResult& result);

/// Breaks a schedule the way a corrupted result would look (one job left
/// unassigned). Used by the self-check's fault injection.
void corrupt(model::Schedule& schedule);

}  // namespace perfbench
