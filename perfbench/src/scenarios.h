// The three scenarios every perfbench run executes. Each one sets up its
// inputs from the run seed in its constructor (timed as part of setup_s),
// measures its end-to-end metrics in measure(), and — in a traced run —
// calls each layer's public function from outside in layers().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

/// Fault injected on purpose by the self-check, to prove the checks fire.
enum class Inject { None, CorruptSchedule, BadDigest };

struct RunConfig {
  std::uint64_t seed = 1;
  Inject inject = Inject::None;
  /// Scratch directory inside the checkout (journals, spans, reports).
  std::string out_dir;
};

/// End-to-end metrics of one measure() call: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

class WireSolve {
 public:
  explicit WireSolve(const RunConfig& config);
  ~WireSolve();
  /// One block: sequential round trips (one request in flight per
  /// connection), the open-loop rate phase, then the closed-loop saturation
  /// phase. finish() turns the blocks so far into metrics (medians over
  /// blocks) and starts over.
  void block(double round_trip_seconds, double rate_seconds,
             double saturation_seconds, Report& report);
  Metrics finish(Report& report, const std::string& label);
  void layers(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

class OfflineSolve {
 public:
  explicit OfflineSolve(const RunConfig& config);
  ~OfflineSolve();
  /// One block: part `part` of `parts` of the exact corpus, then of the
  /// eptas corpus, then the (1+eps) check on that part of the exact corpus.
  /// With layer_calls, also calls the EPTAS layers on each instance.
  void block(int part, int parts, Report& report, bool layer_calls);
  Metrics finish(Report& report, const std::string& label);
  void layers(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

class SessionChurn {
 public:
  explicit SessionChurn(const RunConfig& config);
  ~SessionChurn();
  /// One block: whole rounds (sessions replay their traces, crash copy,
  /// recovery, resume) until `seconds` have elapsed (at least one).
  void block(double seconds, Report& report);
  Metrics finish(Report& report, const std::string& label);
  void layers(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
