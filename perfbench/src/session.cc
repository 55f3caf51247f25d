// session-churn: 2 wire sessions on 2 connections, one delta in flight
// each, replaying long gen::churn_trace traces (200x16, default churn
// rates) against a server journaling with fsync=interval into a fresh
// directory. After the delta phase the journal file is copied as it stands
// with every session still open — exactly what a SIGKILL at that instant
// leaves on disk — and the server is stopped. The copy is then reopened,
// replayed and restored into a new server, each session is resumed over
// the wire, and its digest compared with the last one acknowledged.
//
// One round = that whole cycle on the same two traces; a run repeats
// rounds, so every round replays and recovers the same record count.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/serialize.h"
#include "api/service.h"
#include "gen/churn.h"
#include "model/delta.h"
#include "model/lower_bounds.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "online/session.h"
#include "persist/journal.h"
#include "scenarios.h"
#include "util/prng.h"

namespace perfbench {

namespace gen = bagsched::gen;
namespace net = bagsched::net;
namespace online = bagsched::online;
namespace persist = bagsched::persist;
namespace fs = std::filesystem;

namespace {

constexpr int kSessions = 2;
constexpr int kTraceSteps = 1500;
/// Fixed generator seeds of the two churn traces. A churn trace is a
/// random walk (machine count, job count, size drift), so traces drawn
/// afresh per run seed differ by 2x in cost per delta and 5x in migration;
/// the run seed relabels their bags instead (see relabel_bags).
constexpr std::uint64_t kTraceSeeds[kSessions] = {7919, 15838};
constexpr double kRegretBound = 0.15;
constexpr double kReadTimeoutSeconds = 30.0;
constexpr double kLingerSeconds = 600.0;
constexpr double kBucketNs = 250e6;

struct Trace {
  gen::ChurnTrace churn;
  /// states[k] = the instance after deltas[0..k-1]; lower_bounds alike.
  std::vector<std::shared_ptr<const model::Instance>> states;
  std::vector<double> lower_bounds;
};

api::SolveOptions session_solve_options() {
  api::SolveOptions options;
  options.seed = 13;
  return options;
}

const std::vector<std::string>& session_solvers() {
  // The scale-friendly half of the portfolio, as the online benches use.
  static const std::vector<std::string> solvers = {"local-search", "bag-lpt",
                                                   "greedy-bags"};
  return solvers;
}

std::string delta_frame(std::uint64_t session, const model::Delta& delta,
                        const std::string& id) {
  util::Json frame = util::Json::object();
  frame.set("type", "delta");
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(net::kProtoVersion));
  frame.set("session", session);
  frame.set("delta", api::to_json(delta));
  frame.set("schedule", true);
  return frame.dump();
}

std::string make_temp_dir(const std::string& base) {
  fs::create_directories(base);
  std::string pattern = base + "/round-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + base);
  }
  return pattern;
}

/// The trace with the bags of its initial instance relabeled: bags are
/// never renumbered by a delta and new ones are opened at the next free
/// id, so permuting the initial ids (and the arrivals that join them) and
/// leaving later ids alone yields an identical problem in different bytes.
gen::ChurnTrace relabel_bags(gen::ChurnTrace trace, util::Xoshiro256& rng) {
  const model::Instance& initial = trace.initial;
  std::vector<model::BagId> label(static_cast<std::size_t>(initial.num_bags()));
  std::iota(label.begin(), label.end(), 0);
  for (std::size_t i = label.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(label[i - 1], label[j]);
  }
  const auto map = [&label](model::BagId bag) {
    return static_cast<std::size_t>(bag) < label.size()
               ? label[static_cast<std::size_t>(bag)]
               : bag;
  };
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const model::Job& job : initial.jobs()) {
    sizes.push_back(job.size);
    bags.push_back(map(job.bag));
  }
  trace.initial =
      model::Instance::from_vectors(sizes, bags, initial.num_machines());
  for (model::Delta& delta : trace.deltas) {
    for (model::JobArrival& arrival : delta.arrivals) {
      arrival.bag = map(arrival.bag);
    }
  }
  return trace;
}

struct SessionOutcome {
  std::uint64_t session = 0;
  std::uint64_t epoch = 0;
  std::uint64_t revision = 0;
  std::string digest;  ///< of the last acknowledged commit
  std::vector<double> latency_us;
  double migration_sum = 0.0;
  std::uint64_t commits = 0;
  std::int64_t loop_start = 0, loop_end = 0;  ///< the delta loop only
  std::vector<std::int64_t> commit_times;     ///< ack time of each commit
  std::uint64_t sent = 0, succeeded = 0, failed = 0;
};

net::ServerConfig server_config(persist::SessionJournal* journal,
                                bool recovering) {
  net::ServerConfig config;
  config.port = 0;
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  config.service.journal = journal;
  config.session_linger_seconds = kLingerSeconds;
  config.drain_grace_seconds = 1.0;
  config.start_recovering = recovering;
  return config;
}

persist::JournalConfig journal_config(const std::string& dir) {
  persist::JournalConfig config;
  config.dir = dir;
  config.fsync = persist::FsyncPolicy::Interval;
  // Every record stays in the log, so each round replays the same count.
  config.snapshot_every = 0;
  return config;
}

}  // namespace

/// What the blocks of one pass accumulate until finish().
struct Rounds {
  std::vector<double> block_p50, block_commit_rate, round_p99,
      recovery_seconds, replay_rates;
  double migration_sum = 0.0;
  std::uint64_t commits = 0, sent = 0, succeeded = 0, failed = 0,
                recoveries = 0, recovery_failed = 0, fsyncs = 0,
                latency_samples = 0, buckets = 0;
  int rounds = 0;
};

struct SessionChurn::State {
  RunConfig config;
  Rounds rounds;
  std::vector<Trace> traces;

  SessionOutcome replay(int index, std::uint16_t port, Report& report);
};

SessionOutcome SessionChurn::State::replay(int index, std::uint16_t port,
                                           Report& report) {
  const Trace& trace = traces[static_cast<std::size_t>(index)];
  SessionOutcome out;
  net::Client client = net::Client::connect("127.0.0.1", port, 5.0);
  const net::Client::Session opened = client.open_session(
      api::make_request(trace.churn.initial, session_solve_options(),
                        session_solvers()),
      "open", kRegretBound, /*want_schedule=*/true, kReadTimeoutSeconds);
  ++out.sent;
  const std::string initial_problem = check_schedule(*trace.states[0], opened.initial);
  if (!initial_problem.empty()) {
    report.violation("session open: " + initial_problem);
    ++out.failed;
    return out;
  }
  ++out.succeeded;
  out.session = opened.id;
  out.epoch = opened.epoch;
  out.digest = persist::schedule_digest(opened.initial.schedule);
  out.latency_us.reserve(trace.churn.deltas.size());

  out.commit_times.reserve(trace.churn.deltas.size());
  out.loop_start = now_ns();
  for (std::size_t k = 0; k < trace.churn.deltas.size(); ++k) {
    const model::Delta& delta = trace.churn.deltas[k];
    const std::string id = std::to_string(k);
    ++out.sent;
    const std::int64_t t0 = now_ns();
    std::optional<api::SolveResult> result;
    {
      Span round_trip("session.delta", k, 'D');
      std::string text;
      {
        Span span("net.delta_encode", k, 'D');
        text = delta_frame(out.session, delta, id);
      }
      client.send_line(text);
      for (;;) {
        auto frame = client.read_frame(kReadTimeoutSeconds);
        if (!frame.has_value()) throw net::ConnectionError("server closed");
        if (frame->string_or("id", "") != id) continue;
        const std::string type = frame->string_or("type", "");
        if (type == "error") break;
        if (type != "event" || frame->string_or("event", "") != "finished") {
          continue;
        }
        Span span("net.result_decode", k, 'D');
        result = api::solve_result_from_json(frame->at("result"));
        break;
      }
    }
    const std::int64_t t1 = now_ns();
    if (!result.has_value()) {
      ++out.failed;
      continue;
    }
    const model::Instance& expected = *trace.states[k + 1];
    std::string problem = check_schedule(expected, *result);
    const double cap =
        (1.0 + kRegretBound) * trace.lower_bounds[k + 1] * (1.0 + 1e-9);
    if (problem.empty() && result->makespan > cap) {
      problem = "makespan " + std::to_string(result->makespan) +
                " exceeds (1+regret) * lower bound " + std::to_string(cap);
    }
    if (!problem.empty()) {
      report.violation("session delta " + id + ": " + problem);
      ++out.failed;
      continue;
    }
    ++out.succeeded;
    out.latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (!model::is_noop(delta)) {
      ++out.revision;
      ++out.commits;
      out.commit_times.push_back(t1);
      out.migration_sum += result->migration_ratio;
    }
    out.digest = persist::schedule_digest(result->schedule);
  }
  out.loop_end = now_ns();
  return out;
}

SessionChurn::SessionChurn(const RunConfig& config)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = config;
  util::Xoshiro256 rng(derive_seed(config.seed, 10));
  for (int i = 0; i < kSessions; ++i) {
    gen::ChurnParams params;
    params.steps = kTraceSteps;
    params.seed = kTraceSeeds[i];
    Trace trace;
    trace.churn = relabel_bags(gen::churn_trace(params), rng);
    auto current = std::make_shared<const model::Instance>(trace.churn.initial);
    trace.states.push_back(current);
    trace.lower_bounds.push_back(model::combined_lower_bound(*current));
    for (const model::Delta& delta : trace.churn.deltas) {
      current = std::make_shared<const model::Instance>(
          model::apply_delta(*current, delta));
      trace.states.push_back(current);
      trace.lower_bounds.push_back(model::combined_lower_bound(*current));
    }
    s.traces.push_back(std::move(trace));
  }
}

SessionChurn::~SessionChurn() = default;

void SessionChurn::block(double seconds, Report& report) {
  State& s = *state_;
  Rounds& r = s.rounds;
  const std::string tmp_base = s.config.out_dir + "/tmp";
  const std::int64_t start = now_ns();
  std::vector<double> latency_us, bucket_commit_rates;
  std::vector<double>& round_p99 = r.round_p99;
  std::vector<double>& recovery_seconds = r.recovery_seconds;
  std::vector<double>& replay_rates = r.replay_rates;
  double& migration_sum = r.migration_sum;
  std::uint64_t &commits = r.commits, &sent = r.sent, &succeeded = r.succeeded,
                &failed = r.failed, &recoveries = r.recoveries,
                &recovery_failed = r.recovery_failed, &fsyncs = r.fsyncs;
  int& rounds = r.rounds;
  do {
    ++rounds;
    const std::string live_dir = make_temp_dir(tmp_base);
    const std::string crash_dir = make_temp_dir(tmp_base);
    std::vector<SessionOutcome> outcomes(kSessions);
    {
      auto journal = std::make_unique<persist::SessionJournal>(
          journal_config(live_dir));
      journal->replay();
      auto server = std::make_unique<net::SchedServer>(
          server_config(journal.get(), /*recovering=*/false));
      server->start();
      std::vector<std::thread> threads;
      for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&, i] {
          try {
            outcomes[static_cast<std::size_t>(i)] =
                s.replay(i, server->port(), report);
          } catch (const std::exception& error) {
            std::fprintf(stderr, "session-churn: session %d: %s\n", i,
                         error.what());
            outcomes[static_cast<std::size_t>(i)].failed += 1;
          }
        });
      }
      for (auto& thread : threads) thread.join();
      fsyncs += journal->stats().fsyncs;
      // The crash image: the journal as it stands, sessions still open.
      fs::copy_file(journal->wal_path(), crash_dir + "/journal.wal");
      server->stop();
      server->wait();
    }

    // Commit rate per 250 ms bucket while both delta loops run: the median
    // bucket is the sustained rate, which a rare multi-ms stall of the
    // shared disk or host cannot halve the way it halves a run average.
    std::int64_t both_start = 0, both_end = INT64_MAX;
    for (const SessionOutcome& outcome : outcomes) {
      both_start = std::max(both_start, outcome.loop_start);
      both_end = std::min(both_end, outcome.loop_end);
    }
    if (both_end > both_start) {
      const auto buckets = static_cast<std::size_t>(
          static_cast<double>(both_end - both_start) / kBucketNs);
      std::vector<double> counts(buckets, 0.0);
      for (const SessionOutcome& outcome : outcomes) {
        for (const std::int64_t t : outcome.commit_times) {
          if (t < both_start) continue;
          const auto bucket =
              static_cast<std::size_t>(static_cast<double>(t - both_start) / kBucketNs);
          if (bucket < buckets) counts[bucket] += 1.0;
        }
      }
      for (const double count : counts) {
        bucket_commit_rates.push_back(count * 1e9 / kBucketNs);
      }
    }
    std::vector<double> round_latency;
    for (const SessionOutcome& outcome : outcomes) {
      sent += outcome.sent;
      succeeded += outcome.succeeded;
      failed += outcome.failed;
      commits += outcome.commits;
      migration_sum += outcome.migration_sum;
      round_latency.insert(round_latency.end(), outcome.latency_us.begin(),
                           outcome.latency_us.end());
    }
    round_p99.push_back(percentile(round_latency, 0.99));
    latency_us.insert(latency_us.end(), round_latency.begin(),
                      round_latency.end());

    // Recovery: open the crash image, replay, restore, ready.
    ++recoveries;
    bool recovered_ok = true;
    {
      const std::int64_t r0 = now_ns();
      auto journal = std::make_unique<persist::SessionJournal>(
          journal_config(crash_dir));
      auto server = std::make_unique<net::SchedServer>(
          server_config(journal.get(), /*recovering=*/true));
      server->start();
      persist::RecoveredState recovered;
      const std::int64_t replay0 = now_ns();
      {
        Span span("persist.replay", static_cast<std::uint64_t>(rounds), 'R');
        recovered = journal->replay();
      }
      const std::int64_t replay1 = now_ns();
      std::size_t restored = 0;
      {
        Span span("api.restore", static_cast<std::uint64_t>(rounds), 'R');
        restored = server->service().restore_sessions(recovered);
      }
      std::vector<std::uint64_t> ids;
      for (const persist::RecoveredSession& entry : recovered.sessions) {
        ids.push_back(entry.session);
      }
      server->adopt_orphans(ids);
      server->set_ready();
      recovery_seconds.push_back(seconds_between(r0, now_ns()));
      replay_rates.push_back(static_cast<double>(recovered.records_replayed) /
                             seconds_between(replay0, replay1));

      if (restored != static_cast<std::size_t>(kSessions)) {
        report.violation("recovery restored " + std::to_string(restored) +
                         " of " + std::to_string(kSessions) + " sessions");
        recovered_ok = false;
      }
      for (int i = 0; i < kSessions && recovered_ok; ++i) {
        const SessionOutcome& outcome = outcomes[static_cast<std::size_t>(i)];
        if (outcome.session == 0) {
          recovered_ok = false;
          break;
        }
        std::string expected = outcome.digest;
        if (s.config.inject == Inject::BadDigest && i == 0) {
          expected[0] = expected[0] == '0' ? '1' : '0';
        }
        try {
          net::Client client =
              net::Client::connect("127.0.0.1", server->port(), 5.0);
          const net::Client::Resumed resumed = client.resume_session(
              outcome.session, outcome.epoch, "resume", kReadTimeoutSeconds);
          if (resumed.digest != expected ||
              resumed.revision != outcome.revision) {
            report.violation(
                "recovered session " + std::to_string(outcome.session) +
                " digest " + resumed.digest + " rev " +
                std::to_string(resumed.revision) + ", last acked " + expected +
                " rev " + std::to_string(outcome.revision));
            recovered_ok = false;
          }
        } catch (const std::exception& error) {
          std::fprintf(stderr, "session-churn: resume: %s\n", error.what());
          recovered_ok = false;
        }
      }
      server->stop();
      server->wait();
    }
    if (!recovered_ok) ++recovery_failed;
    fs::remove_all(live_dir);
    fs::remove_all(crash_dir);
  } while (seconds_between(start, now_ns()) < seconds);
  r.block_p50.push_back(percentile(latency_us, 0.5));
  r.block_commit_rate.push_back(median(bucket_commit_rates));
  r.latency_samples += latency_us.size();
  r.buckets += bucket_commit_rates.size();
}

Metrics SessionChurn::finish(Report& report, const std::string& label) {
  const Rounds r = std::move(state_->rounds);
  state_->rounds = Rounds{};
  report.phase(label + "session.deltas", r.sent, r.succeeded, r.failed);
  report.phase(label + "session.recovery", r.recoveries,
               r.recoveries - r.recovery_failed, r.recovery_failed);
  util::Json samples = util::Json::object();
  samples.set("blocks", static_cast<long long>(r.block_p50.size()));
  samples.set("rounds", r.rounds);
  samples.set("delta_p50_us", static_cast<long long>(r.latency_samples));
  samples.set("commits", static_cast<long long>(r.commits));
  samples.set("load.commits_per_s_buckets", static_cast<long long>(r.buckets));
  samples.set("recovery_s_rounds",
              static_cast<long long>(r.recovery_seconds.size()));
  samples.set("load.delta_p99_us_rounds",
              static_cast<long long>(r.round_p99.size()));
  util::Json p50s = util::Json::array(), rates = util::Json::array();
  for (const double value : r.block_p50) p50s.push_back(value);
  for (const double value : r.block_commit_rate) rates.push_back(value);
  samples.set("delta_p50_us_blocks", p50s);
  samples.set("load.commits_per_s_blocks", rates);
  report.info.set(label + "session.samples", samples);

  if (Tracer::get().enabled()) {
    report.set("persist.fsyncs_per_commit",
               r.commits > 0 ? static_cast<double>(r.fsyncs) /
                                   static_cast<double>(r.commits)
                             : 0.0,
               "count");
    report.set("persist.replay_records_per_s", median(r.replay_rates), "1/s");
    report.set("api.restore_ms",
               median(Tracer::get().durations_us("api.restore")) * 1e-3, "ms");
  }

  // Latency is the median over the run's blocks, so a slow phase of the
  // host that covers one block does not move it. The commit rate is the
  // best block's, yet a slow phase of the host or the shared disk still
  // halves it for minutes: reported under load.*, not bounded.
  Metrics metrics;
  metrics.push_back({"delta_p50_us", {median(r.block_p50), "us"}});
  metrics.push_back({"load.commits_per_s",
                     {*std::max_element(r.block_commit_rate.begin(),
                                        r.block_commit_rate.end()),
                      "1/s"}});
  metrics.push_back(
      {"migration_ratio_mean",
       {r.commits > 0 ? r.migration_sum / static_cast<double>(r.commits) : 0.0,
        "ratio"}});
  metrics.push_back({"recovery_s", {median(r.recovery_seconds), "s"}});
  // Median over rounds of each round's p99; reported, not bounded.
  metrics.push_back({"load.delta_p99_us", {median(r.round_p99), "us"}});
  return metrics;
}

void SessionChurn::layers(Report& report) {
  State& s = *state_;
  const Trace& trace = s.traces[0];
  std::uint64_t ops = 0, failures = 0;

  // 1. online: ScheduleSession::apply on the same trace, in process.
  online::SessionOptions tuning;
  tuning.solve = session_solve_options();
  tuning.solvers = session_solvers();
  tuning.regret_bound = kRegretBound;
  online::ScheduleSession session(trace.churn.initial, tuning);
  const model::Schedule initial_schedule = session.schedule();
  std::vector<api::SolveResult> results;
  results.reserve(trace.churn.deltas.size());
  for (std::size_t k = 0; k < trace.churn.deltas.size(); ++k) {
    Span span("online.apply", k, 'D');
    results.push_back(session.apply(trace.churn.deltas[k]));
  }
  for (std::size_t k = 0; k < results.size(); ++k) {
    ++ops;
    if (!check_schedule(*trace.states[k + 1], results[k]).empty()) ++failures;
  }
  const online::SessionStats& stats = session.stats();
  const double deltas = std::max<double>(1.0, static_cast<double>(stats.deltas));
  report.set("online.apply_us", median(Tracer::get().durations_us("online.apply")),
             "us");
  report.set("online.repair_share", static_cast<double>(stats.repairs) / deltas,
             "ratio");
  report.set("online.region_share",
             static_cast<double>(stats.region_resolves) / deltas, "ratio");
  report.set("online.fresh_share",
             static_cast<double>(stats.fresh_solves) / deltas, "ratio");
  report.set("online.memo_hits", static_cast<double>(stats.memo_hits), "count");

  // 2. persist: SessionJournal::record_commit of those commits, scratch dir.
  {
    const std::string dir = make_temp_dir(s.config.out_dir + "/tmp");
    {
      persist::SessionJournal journal(journal_config(dir));
      journal.replay();
      journal.record_open(1, 1, trace.churn.initial, tuning, initial_schedule);
      const persist::JournalStats opened = journal.stats();
      std::uint64_t revision = 0;
      for (std::size_t k = 0; k < results.size(); ++k) {
        if (model::is_noop(trace.churn.deltas[k]) || !results[k].ok()) continue;
        Span span("persist.append", k, 'D');
        journal.record_commit(1, ++revision, trace.churn.deltas[k],
                              results[k].schedule, trace.states[k + 1].get());
      }
      const persist::JournalStats appended = journal.stats();
      report.set("persist.append_us",
                 median(Tracer::get().durations_us("persist.append")), "us");
      report.set("persist.bytes_per_commit",
                 revision > 0 ? static_cast<double>(appended.bytes_appended -
                                                    opened.bytes_appended) /
                                    static_cast<double>(revision)
                              : 0.0,
                 "bytes");
    }
    fs::remove_all(dir);
  }

  // 3. api: the service's delta path without the wire, and the server-side
  //    decode of the delta frames the wire phase sent.
  {
    api::ServiceConfig config;
    config.num_threads = 2;
    config.max_concurrent = 2;
    api::SchedulingService service(config);
    online::SessionOptions service_tuning;
    service_tuning.regret_bound = kRegretBound;
    auto opening = service.open_session(
        api::make_request(trace.churn.initial, session_solve_options(),
                          session_solvers()),
        service_tuning);
    ++ops;
    if (!opening.initial.wait().ok()) ++failures;
    for (std::size_t k = 0; k < trace.churn.deltas.size(); ++k) {
      ++ops;
      Span span("api.delta_roundtrip", k, 'D');
      api::SolveHandle handle = service.submit(
          api::make_delta_request(opening.session, trace.churn.deltas[k]));
      if (!handle.wait().ok()) ++failures;
    }
    for (std::size_t k = 0; k < trace.churn.deltas.size(); ++k) {
      const std::string text =
          delta_frame(opening.session, trace.churn.deltas[k], std::to_string(k));
      Span span("api.delta_decode", k, 'D');
      const util::Json frame = util::Json::parse(text);
      const model::Delta decoded = api::delta_from_json(frame.at("delta"));
      if (decoded.arrivals.size() != trace.churn.deltas[k].arrivals.size()) {
        ++failures;
      }
    }
  }
  report.phase("layers.session", ops, ops - failures, failures);
  const Tracer& tracer = Tracer::get();
  report.set("api.delta_roundtrip_us",
             median(tracer.durations_us("api.delta_roundtrip")), "us");
  report.set("net.delta_encode_us",
             median(tracer.durations_us("net.delta_encode")), "us");
  report.set("api.delta_decode_us",
             median(tracer.durations_us("api.delta_decode")), "us");
}

}  // namespace perfbench
