// perfbench — the repository benchmark binary.
//
//   perfbench --workload <wire-solve|session-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--inject <corrupt-schedule|bad-digest>]
//
// Every run executes all three scenarios in one process (wire-solve,
// offline-solve, session-churn), interleaved in three blocks, and reports
// every end-to-end metric. The workload names the latency scenario that
// gets the long measurement window of --seconds; the other one runs its
// fixed short window, and offline-solve makes one whole corpus pass. The
// last stdout line is the result object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics. --trace 1 runs every scenario
// twice at its short window — untraced, then with spans recorded around
// every layer call the benchmark makes — reports the per-layer metrics,
// writes the spans, and records the tracing overhead (traced minus
// untraced end-to-end numbers) in the report. Exit status 1 when any
// output check failed, 2 on a usage or set-up error.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scenarios.h"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 3;
constexpr int kBlocks = 3;
// Short windows of the scenarios a workload does not focus on.
constexpr double kShortWireRoundTripSeconds = 1.5;
constexpr double kShortWireRateSeconds = 3.0;
constexpr double kShortWireSaturationSeconds = 1.5;
constexpr double kShortSessionSeconds = 4.0;

/// Keeps every CPU out of its idle state while a latency scenario or the
/// set-up runs: one SCHED_IDLE spinner per hardware thread. On a virtual machine an idle
/// CPU is halted, and waking it again costs milliseconds whenever the host
/// is busy, which swamped every latency figure with host noise. SCHED_IDLE
/// threads only run when nothing else is runnable, so real work preempts
/// them at once. A spinner that cannot drop to SCHED_IDLE exits instead.
class KeepAwake {
 public:
  KeepAwake() {
    const unsigned count = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true);
    for (auto& thread : threads_) thread.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
  Inject inject = Inject::None;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <wire-solve|session-churn> "
               "--seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--inject corrupt-schedule|bad-digest]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--inject") {
        if (value == "corrupt-schedule") {
          args.inject = Inject::CorruptSchedule;
        } else if (value == "bad-digest") {
          args.inject = Inject::BadDigest;
        } else {
          usage("unknown --inject " + value);
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "wire-solve" && args.workload != "session-churn") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

struct Scenarios {
  std::unique_ptr<WireSolve> wire;
  std::unique_ptr<OfflineSolve> offline;
  std::unique_ptr<SessionChurn> session;
};

/// One pass over all three scenarios; returns their end-to-end metrics.
/// The pass is cut into kBlocks rounds that interleave the scenarios in
/// time, and each scenario reports medians over its blocks (offline-solve:
/// one corpus pass, a third per block), so a slow phase of a shared host
/// lands in one block of each scenario instead of the whole of one.
Metrics measure_all(Scenarios& scenarios, const Args& args, bool focus_windows,
                    Report& report, const std::string& label) {
  const bool wire_focus = focus_windows && args.workload == "wire-solve";
  const bool session_focus = focus_windows && args.workload == "session-churn";
  const double wire_round_trip =
      (wire_focus ? 0.3 * args.seconds : kShortWireRoundTripSeconds) / kBlocks;
  const double wire_rate =
      (wire_focus ? 0.4 * args.seconds : kShortWireRateSeconds) / kBlocks;
  const double wire_saturation =
      (wire_focus ? 0.3 * args.seconds : kShortWireSaturationSeconds) /
      kBlocks;
  const double session_seconds =
      (session_focus ? args.seconds : kShortSessionSeconds) / kBlocks;
  const bool layer_calls = Tracer::get().enabled();
  for (int block = 0; block < kBlocks; ++block) {
    {
      const KeepAwake keep_awake;
      scenarios.wire->block(wire_round_trip, wire_rate, wire_saturation,
                            report);
    }
    // Compute-bound: no spinners competing for the cores' shared resources.
    scenarios.offline->block(block, kBlocks, report, layer_calls);
    {
      const KeepAwake keep_awake;
      scenarios.session->block(session_seconds, report);
    }
  }
  Metrics all;
  for (const Metrics& metrics : {scenarios.wire->finish(report, label),
                                 scenarios.offline->finish(report, label),
                                 scenarios.session->finish(report, label)}) {
    all.insert(all.end(), metrics.begin(), metrics.end());
  }
  return all;
}

util::Json result_line(const Report& report, const Metrics& metrics) {
  util::Json out = util::Json::object();
  out.set("correct", report.correct);
  out.set("attempted", static_cast<long long>(report.attempted));
  out.set("failed", static_cast<long long>(report.failed));
  util::Json values = util::Json::object();
  for (const auto& [name, entry] : metrics) {
    util::Json metric = util::Json::object();
    metric.set("value", entry.first);
    metric.set("unit", entry.second);
    values.set(name, metric);
  }
  out.set("metrics", values);
  return out;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.out_dir);
  RunConfig config;
  config.seed = args.seed;
  config.inject = args.inject;
  config.out_dir = args.out_dir;

  Report report;
  report.info.set("workload", args.workload);
  report.info.set("seed", static_cast<long long>(args.seed));
  report.info.set("seconds", args.seconds);
  report.info.set("trace", args.trace);

  // Set-up, several times: setup_s is the median.
  Scenarios scenarios;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    scenarios = Scenarios{};
    const KeepAwake keep_awake;
    const std::int64_t t0 = now_ns();
    scenarios.wire = std::make_unique<WireSolve>(config);
    scenarios.offline = std::make_unique<OfflineSolve>(config);
    scenarios.session = std::make_unique<SessionChurn>(config);
    setup_seconds.push_back(seconds_between(t0, now_ns()));
  }
  util::Json setups = util::Json::array();
  for (const double value : setup_seconds) setups.push_back(value);
  report.info.set("setup_s_samples", setups);

  // load.* metrics are reported but carry no bound: they go to the
  // per-layer set (from this untraced pass) and to the report.
  Metrics e2e, load;
  e2e.push_back({"setup_s", {median(setup_seconds), "s"}});
  const Metrics untraced =
      measure_all(scenarios, args, /*focus_windows=*/!args.trace, report, "");
  for (const auto& metric : untraced) {
    (metric.first.rfind("load.", 0) == 0 ? load : e2e).push_back(metric);
  }
  for (const auto& [name, entry] : load) {
    report.set(name, entry.first, entry.second);
  }
  report.info.set("load", result_line(report, load)["metrics"]);

  if (args.trace) {
    Tracer::get().set_enabled(true);
    const Metrics traced = measure_all(scenarios, args, false, report, "traced.");
    scenarios.wire->layers(report);
    scenarios.offline->layers(report);
    scenarios.session->layers(report);
    Tracer::get().set_enabled(false);
    util::Json overhead = util::Json::object();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      util::Json entry = util::Json::object();
      const double before = untraced[i].second.first;
      const double after = traced[i].second.first;
      entry.set("untraced", before);
      entry.set("traced", after);
      entry.set("overhead", after - before);
      entry.set("unit", traced[i].second.second);
      overhead.set(traced[i].first, entry);
    }
    report.info.set("tracing_overhead", overhead);
    const std::string spans = args.out_dir + "/spans-" + args.workload +
                              "-seed" + std::to_string(args.seed) + ".csv";
    Tracer::get().write(spans);
    report.info.set("spans_file", spans);
    report.info.set("spans", static_cast<long long>(Tracer::get().size()));
  }

  const double ok_frac =
      report.attempted > 0
          ? static_cast<double>(report.attempted - report.failed) /
                static_cast<double>(report.attempted)
          : 0.0;
  e2e.push_back({"ok_frac", {ok_frac, "ratio"}});
  if (!report.violations.empty()) {
    util::Json violations = util::Json::array();
    for (const std::string& message : report.violations) {
      violations.push_back(message);
    }
    report.info.set("violations", violations);
  }
  util::Json e2e_json = result_line(report, e2e)["metrics"];
  report.info.set("end_to_end", e2e_json);

  const std::string report_path =
      args.out_dir + "/report-" + args.workload + "-seed" +
      std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
      ".json";
  std::ofstream(report_path) << report.info.dump(2) << "\n";
  for (const std::string& message : report.violations) {
    std::cerr << "perfbench: CHECK FAILED: " << message << "\n";
  }

  util::Json summary = util::Json::object();
  summary.set("report", report.info);
  std::cout << summary.dump() << "\n";
  if (args.trace) {
    std::cout << result_line(report, report.metrics).dump() << std::endl;
  } else {
    std::cout << result_line(report, e2e).dump() << std::endl;
  }
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: error: " << error.what() << "\n";
    return 2;
  }
}
