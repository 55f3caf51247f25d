// Regression-tracked benchmark harness shared by the bench/ binaries.
//
// Times each case over a configurable number of repetitions, reports the
// median (plus min/max) and writes a machine-readable JSON file so CI and
// future PRs have a performance trajectory to diff against:
//
//   bagsched::bench::Harness harness("exact", argc, argv);
//   auto& c = harness.run_case("twopoint-26x4/seq", harness.reps(5),
//                              [&] { run_the_thing(); });
//   c.metrics.set("nodes", nodes);
//   return harness.finish(std::cout) ? 0 : 1;
//
// Command-line flags (any other argument is an error, exit 2, so a typo
// such as --bench-rep=1 cannot run silently at the default repetitions):
//   --bench-json[=path]   write BENCH_<name>.json (or the given path)
//   --bench-reps=N        override every case's repetition count (CI smoke
//                         runs use N=1)
//
// finish() re-parses the emitted file through util::Json, so a bench that
// writes malformed JSON exits non-zero and CI catches perf-tooling rot.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.h"

namespace bagsched::bench {

struct CaseResult {
  std::string label;
  int reps = 0;
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  util::Json metrics = util::Json::object();  ///< free-form per-case data
};

class Harness {
 public:
  /// Parses the --bench-* flags; exits 2 on any other argument.
  Harness(std::string name, int argc, char** argv);

  const std::string& name() const { return name_; }
  bool json_requested() const { return json_requested_; }
  const std::string& json_path() const { return json_path_; }

  /// The repetition count to use: `default_reps` unless --bench-reps.
  int reps(int default_reps) const;

  /// Times fn() `reps` times (>= 1) and records the case; the returned
  /// reference is valid until the next run_case and accepts metrics.
  CaseResult& run_case(const std::string& label, int reps,
                       const std::function<void()>& fn);

  util::Json to_json() const;
  void print_summary(std::ostream& out) const;

  /// Prints the summary and, when requested, writes the JSON file and
  /// validates it by re-parsing. False = write/parse failure (exit code).
  bool finish(std::ostream& out);

 private:
  std::string name_;
  bool json_requested_ = false;
  std::string json_path_;
  int reps_override_ = 0;
  std::vector<CaseResult> cases_;
};

}  // namespace bagsched::bench
