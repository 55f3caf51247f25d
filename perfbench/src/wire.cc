// wire-solve: one-shot submit frames over loopback TCP against an
// in-process net::SchedServer with 2 service workers.
//
// Request mix (every request asks for its schedule back):
//   50% greedy-bags on uniform 24x4            kind 'g'
//   25% bag-lpt on uniform 200x16              kind 'b'
//   25% job-permuted repeats of 16 eptas        kind 'e'
//       requests (cache_mode=read_write), warmed during set-up
//
// Phases: an open loop at a fixed offered rate over 2 connections (latency
// timed from each request's due time, so a late generator shows up as
// latency instead of hiding it), then a closed loop of 2 connections x 32
// in flight for the saturation throughput.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "api/registry.h"
#include "api/serialize.h"
#include "api/service.h"
#include "cache/canonicalize.h"
#include "gen/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "scenarios.h"
#include "util/prng.h"

namespace perfbench {

namespace gen = bagsched::gen;
namespace net = bagsched::net;
namespace cache = bagsched::cache;

namespace {

/// Offered load of the open-loop phase (requests/s over both connections):
/// about an eighth of the closed-loop saturation rate (7-10k/s on a shared
/// 4-core virtual machine). At a third of it, the host's slow phases push
/// whole windows into queueing and the median moves by 2x between runs.
constexpr double kOfferedRate = 1000.0;
constexpr int kConnections = 2;
constexpr int kSaturationInFlight = 32;
constexpr double kEptasEps = 0.4;
/// Latency windows: load.solve_p99_us is the median of per-window p99s.
constexpr double kWindowSeconds = 1.0;
/// Saturation buckets: load.solve_max_rps is the median bucket's rate.
constexpr double kBucketSeconds = 0.25;
constexpr double kReadTimeoutSeconds = 10.0;

struct WireRequest {
  char kind = 'g';
  api::SolveRequest request;
};

std::string submit_frame(const api::SolveRequest& request,
                         const std::string& id) {
  util::Json frame = util::Json::object();
  frame.set("type", "submit");
  frame.set("id", id);
  frame.set("request", api::to_json(request));
  frame.set("schedule", true);
  return frame.dump();
}

model::Instance permute_jobs(const model::Instance& instance,
                             util::Xoshiro256& rng) {
  std::vector<int> order(static_cast<std::size_t>(instance.num_jobs()));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const int job : order) {
    sizes.push_back(instance.job(job).size);
    bags.push_back(instance.job(job).bag);
  }
  return model::Instance::from_vectors(sizes, bags, instance.num_machines());
}

/// One request on the wire: stamps written by the sender before the frame
/// goes out (release) and read by the reader after the answer (acquire).
struct Flight {
  const WireRequest* request = nullptr;
  std::atomic<std::int64_t> due{0};
  std::atomic<std::int64_t> sent{0};
  std::int64_t done = 0;
  bool ok = false;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;   ///< done - due, successful requests
  std::vector<double> late_us;      ///< sent - due
  std::vector<int> window;          ///< latency_us[i]'s due-time window
  /// Successful completions per kBucketSeconds of the phase.
  std::vector<double> completed_per_bucket;
  std::uint64_t eptas_sent = 0;
};

}  // namespace

/// What the blocks of one pass accumulate until finish().
struct Blocks {
  std::uint64_t sent = 0, succeeded = 0, failed = 0;
  std::vector<double> round_trip_p50_us, p50_us, max_rps, window_p99;
  std::size_t round_trip_samples = 0, p50_samples = 0, buckets = 0;
  // Traced blocks only.
  std::uint64_t cache_hits = 0, eptas_sent = 0, bytes_in = 0, bytes_out = 0,
                frames_out = 0;
  std::vector<double> late_us;
};

struct WireSolve::State {
  RunConfig config;
  Blocks blocks;
  std::vector<WireRequest> greedy, baglpt, eptas_base, eptas_repeats;
  std::unique_ptr<net::SchedServer> server;
  std::vector<net::Client> clients;
  std::uint64_t phase_counter = 0;
  bool injected = false;
  std::mutex inject_mutex;

  const WireRequest& pick(util::Xoshiro256& rng) const {
    const auto roll = rng.uniform_int(0, 3);
    if (roll <= 1) {
      return greedy[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(greedy.size()) - 1))];
    }
    if (roll == 2) {
      return baglpt[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(baglpt.size()) - 1))];
    }
    return eptas_repeats[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(eptas_repeats.size()) - 1))];
  }

  void reconnect(int c) {
    clients[static_cast<std::size_t>(c)] =
        net::Client::connect("127.0.0.1", server->port(), 5.0);
  }

  /// Reads answers for `flights` until every sent request is answered.
  /// Returns false when the connection broke or timed out.
  bool read_answers(int c, std::vector<std::unique_ptr<Flight>>& flights,
                    const std::atomic<std::uint64_t>& sent,
                    const std::atomic<bool>& sender_done,
                    std::counting_semaphore<>* slots, Report& report,
                    std::uint64_t& answered, std::uint64_t& bad);

  /// in_flight == 0: open loop at kOfferedRate; otherwise a closed loop
  /// with that many requests in flight per connection.
  PhaseResult run_phase(int in_flight, double seconds, Report& report);
};

bool WireSolve::State::read_answers(
    int c, std::vector<std::unique_ptr<Flight>>& flights,
    const std::atomic<std::uint64_t>& sent,
    const std::atomic<bool>& sender_done, std::counting_semaphore<>* slots,
    Report& report, std::uint64_t& answered, std::uint64_t& bad) {
  net::Client& client = clients[static_cast<std::size_t>(c)];
  // The sender closes its phase with a ping: once the pong is in, the sent
  // count is final, so the reader never blocks on an answer nobody owes.
  bool pong = false;
  for (;;) {
    if (pong && answered >= sent.load(std::memory_order_acquire)) {
      return true;
    }
    std::optional<util::Json> frame;
    try {
      frame = client.read_frame(kReadTimeoutSeconds);
    } catch (const std::exception& error) {
      // Transport trouble is a failure, not a wrong answer: the requests
      // still unanswered are counted as failed by the caller.
      std::fprintf(stderr, "wire-solve: read failed: %s\n", error.what());
      return false;
    }
    if (!frame.has_value()) return false;
    const std::string type = frame->string_or("type", "");
    if (type == "pong") {
      pong = sender_done.load(std::memory_order_acquire);
      continue;
    }
    const bool finished =
        type == "event" && frame->string_or("event", "") == "finished";
    if (!finished && type != "error") continue;
    const std::string id = frame->string_or("id", "");
    if (id.empty() || id.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // not one of this phase's numeric ids
    }
    const std::size_t index = std::stoul(id);
    // Pairs with the sender's release store: every flight below `visible`
    // is fully written. An answer cannot precede its own send.
    const std::uint64_t visible = sent.load(std::memory_order_acquire);
    if (index >= visible || !flights[index]) continue;
    Flight& flight = *flights[index];
    const WireRequest& request = *flight.request;
    flight.done = now_ns();
    ++answered;
    if (slots != nullptr) slots->release();
    if (type == "error") {
      ++bad;
      continue;
    }
    api::SolveResult result;
    try {
      Span span("net.result_decode", index, request.kind);
      result = api::solve_result_from_json(frame->at("result"));
    } catch (const std::exception& error) {
      report.violation("wire-solve request " + id + ": undecodable result: " +
                       error.what());
      ++bad;
      continue;
    }
    if (config.inject == Inject::CorruptSchedule) {
      std::lock_guard<std::mutex> lock(inject_mutex);
      if (!injected) {
        corrupt(result.schedule);
        injected = true;
      }
    }
    std::string problem;
    {
      Span span("bench.check", index, request.kind);
      problem = check_schedule(*request.request.instance, result);
    }
    if (!problem.empty()) {
      report.violation("wire-solve " + std::string(1, request.kind) +
                       " request " + id + ": " + problem);
      ++bad;
      continue;
    }
    flight.ok = true;
  }
}

PhaseResult WireSolve::State::run_phase(int in_flight, double seconds,
                                        Report& report) {
  const std::uint64_t phase = ++phase_counter;
  const bool open_loop = in_flight == 0;
  const double per_conn_rate = kOfferedRate / kConnections;
  const std::size_t capacity =
      open_loop ? static_cast<std::size_t>(per_conn_rate * seconds) + 64
                : static_cast<std::size_t>(60000.0 * seconds) + 64;
  std::vector<std::vector<std::unique_ptr<Flight>>> flights(kConnections);
  for (auto& list : flights) list.resize(capacity);
  std::atomic<std::uint64_t> sent[kConnections];
  std::atomic<bool> sender_done[kConnections];
  std::atomic<bool> reader_gone[kConnections];
  std::uint64_t answered[kConnections] = {};
  std::uint64_t bad[kConnections] = {};
  bool healthy[kConnections] = {};
  std::vector<std::unique_ptr<std::counting_semaphore<>>> slots;
  for (int c = 0; c < kConnections; ++c) {
    sent[c].store(0);
    sender_done[c].store(false);
    reader_gone[c].store(false);
    slots.push_back(
        std::make_unique<std::counting_semaphore<>>(in_flight));
  }

  const std::int64_t start = now_ns() + 2'000'000;  // 2 ms to spin up
  const std::int64_t end =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      util::Xoshiro256 rng(derive_seed(config.seed, 1000 * phase + c));
      net::Client& client = clients[static_cast<std::size_t>(c)];
      try {
        for (std::size_t i = 0; i < capacity; ++i) {
          std::int64_t due;
          if (open_loop) {
            due = start + static_cast<std::int64_t>(
                              (static_cast<double>(i) * kConnections + c) *
                              1e9 / kOfferedRate);
            if (due >= end) break;
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
          } else {
            slots[static_cast<std::size_t>(c)]->acquire();
            due = now_ns();
            if (due >= end || reader_gone[c].load()) break;
          }
          auto flight = std::make_unique<Flight>();
          flight->request = &pick(rng);
          const std::string id = std::to_string(i);
          std::string text;
          {
            Span span("net.request_encode", i, flight->request->kind);
            text = submit_frame(flight->request->request, id);
          }
          Flight& ref = *flight;
          flights[static_cast<std::size_t>(c)][i] = std::move(flight);
          ref.sent.store(now_ns(), std::memory_order_relaxed);
          ref.due.store(due, std::memory_order_release);
          sent[c].store(i + 1, std::memory_order_release);
          Span span("net.send", i, ref.request->kind);
          client.send_line(text);
        }
        sender_done[c].store(true, std::memory_order_release);
        client.send_line("{\"type\":\"ping\"}");
      } catch (const std::exception& error) {
        std::fprintf(stderr, "wire-solve: send failed: %s\n", error.what());
        sender_done[c].store(true, std::memory_order_release);
      }
    });
    threads.emplace_back([&, c] {
      healthy[c] = read_answers(c, flights[static_cast<std::size_t>(c)],
                                sent[c], sender_done[c],
                                open_loop ? nullptr : slots[c].get(), report,
                                answered[c], bad[c]);
      if (!healthy[c]) {
        // Unblock a closed-loop sender waiting for slots that will never
        // be released by this reader again.
        reader_gone[c].store(true);
        slots[static_cast<std::size_t>(c)]->release(kSaturationInFlight + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  PhaseResult out;
  const auto whole_buckets = static_cast<std::size_t>(seconds / kBucketSeconds);
  out.completed_per_bucket.assign(std::max<std::size_t>(1, whole_buckets), 0.0);
  for (int c = 0; c < kConnections; ++c) {
    const std::uint64_t count = sent[c].load();
    out.sent += count;
    out.failed += bad[c] + (count - std::min(count, answered[c]));
    for (std::uint64_t i = 0; i < count; ++i) {
      const Flight* flight = flights[static_cast<std::size_t>(c)][i].get();
      if (flight == nullptr) continue;
      if (flight->request->kind == 'e') ++out.eptas_sent;
      const std::int64_t due = flight->due.load();
      out.late_us.push_back(
          static_cast<double>(flight->sent.load() - due) * 1e-3);
      if (!flight->ok) continue;
      ++out.succeeded;
      out.latency_us.push_back(static_cast<double>(flight->done - due) *
                               1e-3);
      out.window.push_back(static_cast<int>(
          static_cast<double>(due - start) * 1e-9 / kWindowSeconds));
      const auto bucket = static_cast<std::size_t>(
          static_cast<double>(flight->done - start) * 1e-9 / kBucketSeconds);
      if (bucket < out.completed_per_bucket.size()) {
        out.completed_per_bucket[bucket] += 1.0;
      }
    }
    if (!healthy[c]) reconnect(c);
  }
  return out;
}

WireSolve::WireSolve(const RunConfig& config)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = config;
  util::Xoshiro256 rng(derive_seed(config.seed, 1));
  const auto next_seed = [&rng] { return rng() % 1'000'000 + 1; };
  for (int i = 0; i < 64; ++i) {
    api::SolveOptions options;
    s.greedy.push_back(
        {'g', api::make_request(gen::by_name("uniform", 24, 4, next_seed()),
                                options, {"greedy-bags"})});
  }
  for (int i = 0; i < 16; ++i) {
    api::SolveOptions options;
    s.baglpt.push_back(
        {'b', api::make_request(gen::by_name("uniform", 200, 16, next_seed()),
                                options, {"bag-lpt"})});
  }
  api::SolveOptions eptas_options;
  eptas_options.eps = kEptasEps;
  eptas_options.num_threads = 1;
  eptas_options.cache_mode = api::CacheMode::ReadWrite;
  for (int i = 0; i < 16; ++i) {
    const model::Instance base = gen::by_name("uniform", 30, 6, next_seed());
    s.eptas_base.push_back(
        {'e', api::make_request(base, eptas_options, {"eptas"})});
    for (int k = 0; k < 8; ++k) {
      s.eptas_repeats.push_back({'e', api::make_request(permute_jobs(base, rng),
                                                        eptas_options,
                                                        {"eptas"})});
    }
  }

  net::ServerConfig server_config;
  server_config.port = 0;
  server_config.service.num_threads = 2;
  server_config.service.max_concurrent = 2;
  server_config.drain_grace_seconds = 1.0;
  s.server = std::make_unique<net::SchedServer>(server_config);
  s.server->start();
  for (int c = 0; c < kConnections; ++c) {
    s.clients.push_back(net::Client::connect("127.0.0.1", s.server->port(), 5.0));
  }

  // Warm the solve cache: every eptas base request solved once, so the
  // measured repeats are job-permuted cache hits.
  net::Client& client = s.clients[0];
  for (std::size_t i = 0; i < s.eptas_base.size(); ++i) {
    client.send_line(submit_frame(s.eptas_base[i].request,
                                  "warm" + std::to_string(i)));
  }
  std::size_t finished = 0;
  while (finished < s.eptas_base.size()) {
    auto frame = client.read_frame(60.0);
    if (!frame.has_value()) throw std::runtime_error("warm-up: server closed");
    const std::string type = frame->string_or("type", "");
    if (type == "error") {
      throw std::runtime_error("warm-up: " + frame->string_or("message", ""));
    }
    if (type != "event" || frame->string_or("event", "") != "finished") {
      continue;
    }
    const std::size_t index = std::stoul(frame->string_or("id", "").substr(4));
    const api::SolveResult result =
        api::solve_result_from_json(frame->at("result"));
    const std::string problem =
        check_schedule(*s.eptas_base.at(index).request.instance, result);
    if (!problem.empty()) throw std::runtime_error("warm-up: " + problem);
    ++finished;
  }
}

WireSolve::~WireSolve() {
  if (state_ && state_->server) {
    state_->clients.clear();
    state_->server->stop();
    state_->server->wait();
  }
}

void WireSolve::block(double round_trip_seconds, double rate_seconds,
                      double saturation_seconds, Report& report) {
  State& s = *state_;
  Blocks& b = s.blocks;
  const api::ServiceStats before = s.server->service().stats();
  const net::ServerCounters counters_before = s.server->counters();

  const PhaseResult round_trip = s.run_phase(1, round_trip_seconds, report);
  const PhaseResult rate = s.run_phase(0, rate_seconds, report);
  const PhaseResult saturation =
      s.run_phase(kSaturationInFlight, saturation_seconds, report);
  for (const PhaseResult* phase : {&round_trip, &rate, &saturation}) {
    b.sent += phase->sent;
    b.succeeded += phase->succeeded;
    b.failed += phase->failed;
  }

  b.round_trip_p50_us.push_back(percentile(round_trip.latency_us, 0.5));
  b.round_trip_samples += round_trip.latency_us.size();
  b.p50_us.push_back(percentile(rate.latency_us, 0.5));
  b.p50_samples += rate.latency_us.size();
  b.max_rps.push_back(median(saturation.completed_per_bucket) /
                      kBucketSeconds);
  b.buckets += saturation.completed_per_bucket.size();
  // Per-window p99 over 1 s due-time windows (a ragged tail under 100
  // samples is dropped).
  std::vector<std::vector<double>> per_window;
  for (std::size_t i = 0; i < rate.latency_us.size(); ++i) {
    const auto window = static_cast<std::size_t>(rate.window[i]);
    if (window >= per_window.size()) per_window.resize(window + 1);
    per_window[window].push_back(rate.latency_us[i]);
  }
  for (const auto& sample : per_window) {
    if (sample.size() >= 100) b.window_p99.push_back(percentile(sample, 0.99));
  }

  if (Tracer::get().enabled()) {
    const api::ServiceStats after = s.server->service().stats();
    const net::ServerCounters counters_after = s.server->counters();
    b.cache_hits += after.cache_hits - before.cache_hits;
    for (const PhaseResult* phase : {&round_trip, &rate, &saturation}) {
      b.eptas_sent += phase->eptas_sent;
    }
    b.bytes_in += counters_after.bytes_in - counters_before.bytes_in;
    b.bytes_out += counters_after.bytes_out - counters_before.bytes_out;
    b.frames_out += counters_after.frames_out - counters_before.frames_out;
    b.late_us.insert(b.late_us.end(), rate.late_us.begin(), rate.late_us.end());
  }
}

Metrics WireSolve::finish(Report& report, const std::string& label) {
  Blocks b = std::move(state_->blocks);
  state_->blocks = Blocks{};
  report.phase(label + "wire", b.sent, b.succeeded, b.failed);

  // Medians over the run's blocks, so a slow phase of the host that covers
  // one block does not move them; the saturation rate is the best block's,
  // since slow phases only ever lower it. The load.* figures queue behind
  // every host stall and move 2-8x between slow and quiet phases of a
  // shared host: reported, not bounded (see perfbench/README.md).
  Metrics metrics;
  metrics.push_back({"solve_rtt_p50_us", {median(b.round_trip_p50_us), "us"}});
  metrics.push_back({"load.solve_p50_us", {median(b.p50_us), "us"}});
  metrics.push_back({"load.solve_p99_us", {median(b.window_p99), "us"}});
  metrics.push_back(
      {"load.solve_max_rps",
       {*std::max_element(b.max_rps.begin(), b.max_rps.end()), "1/s"}});

  util::Json samples = util::Json::object();
  samples.set("blocks", static_cast<long long>(b.p50_us.size()));
  samples.set("solve_rtt_p50_us", static_cast<long long>(b.round_trip_samples));
  samples.set("load.solve_p50_us", static_cast<long long>(b.p50_samples));
  samples.set("load.solve_p99_us_windows",
              static_cast<long long>(b.window_p99.size()));
  samples.set("load.solve_max_rps_buckets", static_cast<long long>(b.buckets));
  util::Json rtts = util::Json::array(), p50s = util::Json::array(),
             rates = util::Json::array();
  for (const double value : b.round_trip_p50_us) rtts.push_back(value);
  for (const double value : b.p50_us) p50s.push_back(value);
  for (const double value : b.max_rps) rates.push_back(value);
  samples.set("solve_rtt_p50_us_blocks", rtts);
  samples.set("load.solve_p50_us_blocks", p50s);
  samples.set("load.solve_max_rps_blocks", rates);
  report.info.set(label + "wire.samples", samples);

  if (Tracer::get().enabled()) {
    const double requests = static_cast<double>(std::max<std::uint64_t>(1, b.sent));
    report.set("cache.hit_ratio",
               b.eptas_sent > 0 ? static_cast<double>(b.cache_hits) /
                                      static_cast<double>(b.eptas_sent)
                                : 0.0,
               "ratio");
    report.set("net.bytes_in_per_req", static_cast<double>(b.bytes_in) / requests,
               "bytes");
    report.set("net.bytes_out_per_req",
               static_cast<double>(b.bytes_out) / requests, "bytes");
    report.set("net.frames_out_per_req",
               static_cast<double>(b.frames_out) / requests, "count");
    report.set("load.late_p99_us", percentile(b.late_us, 0.99), "us");
  }
  return metrics;
}

void WireSolve::layers(Report& report) {
  State& s = *state_;
  api::SchedulingService& service = s.server->service();
  const api::Solver& greedy =
      api::SolverRegistry::global().resolve("greedy-bags");
  util::Xoshiro256 rng(derive_seed(s.config.seed, 2));

  // 1. Sequential single round trips of the smallest request, over the
  //    wire and straight into the service, for the computed transport time.
  constexpr int kRoundTrips = 400;
  net::Client& client = s.clients[0];
  std::uint64_t failures = 0;
  for (int i = 0; i < kRoundTrips; ++i) {
    const WireRequest& request =
        s.greedy[static_cast<std::size_t>(i) % s.greedy.size()];
    const std::string id = "rt" + std::to_string(i);
    {
      Span span("net.roundtrip", static_cast<std::uint64_t>(i), 'g');
      std::string text;
      {
        Span encode("net.request_encode", static_cast<std::uint64_t>(i), 'g');
        text = submit_frame(request.request, id);
      }
      client.send_line(text);
      for (;;) {
        auto frame = client.read_frame(kReadTimeoutSeconds);
        if (!frame.has_value()) throw std::runtime_error("round trip: EOF");
        if (frame->string_or("id", "") != id) continue;
        if (frame->string_or("type", "") == "error") {
          ++failures;
          break;
        }
        if (frame->string_or("event", "") != "finished") continue;
        Span decode("net.result_decode", static_cast<std::uint64_t>(i), 'g');
        const api::SolveResult result =
            api::solve_result_from_json(frame->at("result"));
        if (!check_schedule(*request.request.instance, result).empty()) {
          ++failures;
        }
        break;
      }
    }
    Span span("api.service_roundtrip", static_cast<std::uint64_t>(i), 'g');
    api::SolveHandle handle = service.submit(request.request);
    if (!handle.wait().ok()) ++failures;
  }
  report.phase("layers.wire.roundtrip", 2 * kRoundTrips,
               2 * kRoundTrips - failures, failures);

  // 2. The same request mix submitted straight into the server's service
  //    at the wire phase's offered rate; Queued/Started/Finished stamps
  //    split each request into queue wait and execution.
  constexpr int kServiceRequests = 3000;
  struct Stamps {
    std::atomic<std::int64_t> queued{0}, started{0}, finished{0};
  };
  std::vector<Stamps> stamps(kServiceRequests);
  std::vector<const WireRequest*> picked;
  std::vector<api::SolveHandle> handles;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kServiceRequests; ++i) {
    const WireRequest& request = s.pick(rng);
    picked.push_back(&request);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
        start + static_cast<std::int64_t>(i * 1e9 / kOfferedRate))));
    api::SolveRequest copy = request.request;
    Stamps* slot = &stamps[static_cast<std::size_t>(i)];
    copy.on_progress = [slot](const api::ProgressEvent& event) {
      const std::int64_t t = now_ns();
      if (event.kind == api::ProgressKind::Queued) slot->queued.store(t);
      if (event.kind == api::ProgressKind::Started) slot->started.store(t);
      if (event.kind == api::ProgressKind::Finished) slot->finished.store(t);
    };
    handles.push_back(service.submit(std::move(copy)));
  }
  failures = 0;
  for (int i = 0; i < kServiceRequests; ++i) {
    const auto index = static_cast<std::size_t>(i);
    const api::SolveResult& result = handles[index].wait();
    const WireRequest& request = *picked[index];
    if (!check_schedule(*request.request.instance, result).empty()) {
      ++failures;
      continue;
    }
    const Stamps& t = stamps[index];
    // Cache hits resolve at admission and never start on a worker.
    if (t.started.load() != 0 && t.queued.load() != 0) {
      Tracer::get().record("api.queue_wait", t.queued.load(), t.started.load(),
                           index, request.kind);
      Tracer::get().record("api.execute", t.started.load(), t.finished.load(),
                           index, request.kind);
    }

    // 3. The per-request codec and cache layers on the same request.
    const std::string text = submit_frame(request.request, std::to_string(i));
    util::Json frame;
    {
      Span span("util.json_parse", index, request.kind);
      frame = util::Json::parse(text);
    }
    {
      Span span("api.request_decode", index, request.kind);
      const api::SolveRequest decoded =
          api::solve_request_from_json(frame.at("request"));
      if (decoded.instance->num_jobs() != request.request.instance->num_jobs()) {
        ++failures;
      }
    }
    {
      api::ProgressEvent event;
      event.kind = api::ProgressKind::Finished;
      event.result = &result;
      Span span("net.result_encode", index, request.kind);
      const std::string encoded =
          net::event_frame(std::to_string(i), event, /*include_schedule=*/true);
      if (encoded.empty()) ++failures;
    }
    if (request.kind == 'e') {
      Span span("cache.canonicalize", index, request.kind);
      const cache::CanonicalForm exact =
          cache::Canonicalizer::exact(*request.request.instance);
      const cache::CanonicalForm rounded = cache::Canonicalizer::rounded(
          *request.request.instance, request.request.options.eps);
      if (exact.job_at.size() != rounded.job_at.size()) ++failures;
    }
    if (request.kind == 'g') {
      Span span("sched.greedy_solve", index, request.kind);
      const api::SolveResult direct =
          greedy.solve(*request.request.instance, request.request.options);
      if (!direct.ok()) ++failures;
    }
  }
  report.phase("layers.wire.service", kServiceRequests,
               kServiceRequests - failures, failures);

  const Tracer& tracer = Tracer::get();
  const auto med = [&tracer](const char* name, char kind = 0) {
    return median(tracer.durations_us(name, kind));
  };
  report.set("net.request_encode_us", med("net.request_encode"), "us");
  report.set("util.json_parse_us", med("util.json_parse"), "us");
  report.set("api.request_decode_us", med("api.request_decode"), "us");
  report.set("net.result_encode_us", med("net.result_encode"), "us");
  report.set("net.result_decode_us", med("net.result_decode"), "us");
  report.set("api.queue_wait_us", med("api.queue_wait"), "us");
  report.set("api.execute_us", med("api.execute"), "us");
  report.set("cache.canonicalize_us", med("cache.canonicalize"), "us");
  report.set("sched.greedy_solve_us", med("sched.greedy_solve"), "us");
  // Computed, not measured: one sequential wire round trip of a greedy
  // request minus every span measured on its path.
  const double transport =
      med("net.roundtrip", 'g') - med("net.request_encode", 'g') -
      med("util.json_parse", 'g') - med("api.request_decode", 'g') -
      med("api.service_roundtrip", 'g') - med("net.result_encode", 'g') -
      med("net.result_decode", 'g');
  report.set("net.transport_us", transport, "us");
  util::Json note = util::Json::object();
  note.set("net.transport_us",
           "computed: median sequential greedy round trip minus the medians "
           "of request encode, json parse, request decode, service round "
           "trip, result encode and result decode of greedy requests");
  report.info.set("computed_metrics", note);
}

}  // namespace perfbench
