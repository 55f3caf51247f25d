// Chaos and resilience tests: the deterministic fault-injection framework
// (triggers, seeding, reproducible fired sequences), the retrying client's
// recovery behaviour under injected transport failures, the server's
// per-request budget escalation, overload brown-out and /healthz, graceful
// drain racing injected faults, and a seeded loopback chaos run driving
// hundreds of requests with faults firing at every registered point.
//
// The chaos seed is printed on every run and read back from
// BAGSCHED_CHAOS_SEED, so a CI failure is replayed locally with
//   BAGSCHED_CHAOS_SEED=<printed seed> ./test_chaos
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/serialize.h"
#include "model/delta.h"
#include "net/client.h"
#include "net/server.h"
#include "util/fault.h"

namespace bagsched {
namespace {

using net::Client;
using net::RetryingClient;
using net::RetryPolicy;
using net::SchedServer;
using net::ServerConfig;
namespace fault = util::fault;

api::SolveRequest quick_request(std::uint64_t seed = 1,
                                const char* solver = "greedy-bags") {
  api::SolveOptions options;
  options.seed = seed;
  return api::make_request(api::make_instance("uniform", 30, 4, options),
                           options, {solver});
}

/// A request the worker cannot finish within any test budget (exact B&B on
/// 60 jobs); resolves only via cancellation or its generous time limit.
api::SolveRequest slow_request() {
  api::SolveOptions options;
  options.time_limit_seconds = 30.0;
  options.seed = 3;
  return api::make_request(api::make_instance("uniform", 60, 8, options),
                           options, {"exact"});
}

ServerConfig test_config() {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  return config;
}

/// Every test must leave injection disabled, whatever path it exits by.
struct FaultGuard {
  ~FaultGuard() { fault::disable(); }
};

/// Aborts the whole process (printing `context`) if `done` is not set
/// within `seconds` — a hung chaos run fails loudly instead of tripping
/// the ctest timeout with no diagnostics.
class HangWatchdog {
 public:
  HangWatchdog(double seconds, std::string context)
      : context_(std::move(context)),
        thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "HANG: %s\n", context_.c_str());
            std::fflush(stderr);
            std::_Exit(2);
          }
        }) {}

  ~HangWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::string context_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Raw blocking HTTP GET over an already-open socket — used to probe
/// /healthz on a connection that predates the drain (the listener is
/// closed while draining, so a fresh connect cannot reach the 503 path).
std::string raw_http_get(int fd, const std::string& target) {
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      response.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return response;
}

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- Fault framework -------------------------------------------------------

TEST(FaultFrameworkTest, DisabledByDefaultAndAfterDisable) {
  FaultGuard guard;
  fault::disable();
  EXPECT_FALSE(fault::enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(BAGSCHED_FAULT("chaos.test.disabled"));
  }
  EXPECT_EQ(fault::fires("chaos.test.disabled"), 0u);
}

TEST(FaultFrameworkTest, NthFiresExactlyOnceAndEveryFiresPeriodically) {
  FaultGuard guard;
  fault::configure("chaos.test.nth=n3");
  std::vector<int> fired;
  for (int call = 1; call <= 10; ++call) {
    if (BAGSCHED_FAULT("chaos.test.nth")) fired.push_back(call);
  }
  EXPECT_EQ(fired, std::vector<int>{3});

  fault::configure("chaos.test.nth=e4");  // same point, new trigger
  fired.clear();
  for (int call = 1; call <= 10; ++call) {
    if (BAGSCHED_FAULT("chaos.test.nth")) fired.push_back(call);
  }
  EXPECT_EQ(fired, (std::vector<int>{4, 8}));
}

TEST(FaultFrameworkTest, LastMatchingRuleWinsAndOffMasksGlobs) {
  FaultGuard guard;
  fault::configure("chaos.test.glob.*=p1.0;chaos.test.glob.masked=off");
  EXPECT_TRUE(BAGSCHED_FAULT("chaos.test.glob.hot"));
  EXPECT_FALSE(BAGSCHED_FAULT("chaos.test.glob.masked"));
}

TEST(FaultFrameworkTest, ProbabilitySequenceIsAPureFunctionOfTheSeed) {
  FaultGuard guard;
  const auto run = [](std::uint64_t seed) {
    fault::configure("chaos.test.prob=p0.2", seed);
    for (int i = 0; i < 500; ++i) {
      (void)BAGSCHED_FAULT("chaos.test.prob");
    }
    for (const auto& point : fault::snapshot()) {
      if (point.name == "chaos.test.prob") {
        EXPECT_EQ(point.calls, 500u);
        return point.fired_calls;
      }
    }
    return std::vector<std::uint64_t>{};
  };
  const auto first = run(42);
  const auto replay = run(42);
  const auto other = run(43);
  // p=0.2 over 500 calls: far from zero and far from all.
  EXPECT_GT(first.size(), 50u);
  EXPECT_LT(first.size(), 200u);
  EXPECT_EQ(first, replay);  // identical seed → identical fired sequence
  EXPECT_NE(first, other);
}

TEST(FaultFrameworkTest, MalformedSpecsThrow) {
  FaultGuard guard;
  EXPECT_THROW(fault::configure("no-equals-sign"), std::invalid_argument);
  EXPECT_THROW(fault::configure("a=p1.5"), std::invalid_argument);
  EXPECT_THROW(fault::configure("a=n0"), std::invalid_argument);
  EXPECT_THROW(fault::configure("a=zebra"), std::invalid_argument);
  EXPECT_FALSE(fault::enabled());  // a failed configure never half-enables
}

// --- Client timeouts and typed errors --------------------------------------

TEST(ChaosClientTest, ConnectRefusedThrowsConnectionError) {
  SchedServer probe(test_config());
  probe.start();
  const std::uint16_t dead_port = probe.port();
  probe.stop();
  probe.wait();
  EXPECT_THROW(Client::connect("127.0.0.1", dead_port, 1.0),
               net::ConnectionError);
}

TEST(ChaosClientTest, ReadTimeoutThrowsTimedOutDistinctly) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  // The exact B&B cannot answer within 300ms, so the bounded read expires.
  try {
    client.solve(slow_request(), "slow", false, {}, true,
                 /*read_timeout_seconds=*/0.3);
    FAIL() << "expected TimedOut";
  } catch (const net::TimedOut&) {
  } catch (const net::ConnectionError& error) {
    FAIL() << "wrong error type: " << error.what();
  }
  client.close();  // mid-frame state is unknown after a timeout
  server.stop();
  server.wait();
}

TEST(ChaosClientTest, RetryRecoversFromInjectedSendFailure) {
  FaultGuard guard;
  SchedServer server(test_config());
  server.start();
  // The first send on the connection fails; the retry layer reconnects and
  // resubmits under the same id.
  fault::configure("net.client.send=n1", 7);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.02;
  RetryingClient client("127.0.0.1", server.port(), policy);
  const api::SolveResult result = client.solve(quick_request(), "retry-1");
  EXPECT_TRUE(result.ok());
  EXPECT_GE(client.stats().attempts, 2u);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_EQ(client.stats().recovered, 1u);
  EXPECT_EQ(client.stats().resubmits, 1u);
  client.close();
  server.stop();
  server.wait();
}

TEST(ChaosClientTest, RetryGivesUpAfterMaxAttempts) {
  FaultGuard guard;
  SchedServer server(test_config());
  server.start();
  fault::configure("net.client.connect=p1.0", 7);  // every connect fails
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.002;
  policy.max_backoff_seconds = 0.01;
  RetryingClient client("127.0.0.1", server.port(), policy);
  EXPECT_THROW(client.solve(quick_request(), "doomed"),
               net::ConnectionError);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().recovered, 0u);
  EXPECT_EQ(client.stats().resubmits, 0u);  // no connect ever succeeded
  server.stop();
  server.wait();
}

TEST(ChaosClientTest, SessionSurvivesARetriedSolveOnTheSameClient) {
  FaultGuard guard;
  HangWatchdog watchdog(60.0, "session across a retried solve test");
  ServerConfig config = test_config();
  config.session_linger_seconds = 30.0;
  SchedServer server(config);
  server.start();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.02;
  RetryingClient client("127.0.0.1", server.port(), policy);
  ASSERT_TRUE(client.open_session(quick_request(), "s1").initial.ok());
  // The solve's submit fails: its retry reconnects, which orphans the
  // session on the old connection. The next delta must reclaim it there.
  fault::configure("net.client.send=n1", 7);
  EXPECT_TRUE(client.solve(quick_request(2), "solve-1").ok());
  fault::disable();
  model::Delta delta;
  delta.machines_added = 1;
  const api::SolveResult result = client.delta(delta, "d1");
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(client.stats().resumes, 1u);
  client.close_session();
  client.close();
  server.stop();
  server.wait();
}

TEST(ChaosClientTest, ProtocolErrorFramesAreAnswersNotRetried) {
  SchedServer server(test_config());
  server.start();
  RetryingClient client("127.0.0.1", server.port());
  api::SolveRequest request = quick_request();
  request.solvers = {"no-such-solver"};
  try {
    client.solve(request, "bad-solver");
    FAIL() << "expected a protocol error";
  } catch (const net::ConnectionError&) {
    FAIL() << "protocol errors must not surface as transport errors";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown_solver"),
              std::string::npos);
  }
  EXPECT_EQ(client.stats().attempts, 1u);  // no retry on a definitive answer
  client.close();
  server.stop();
  server.wait();
}

// --- Server budget, brown-out, healthz -------------------------------------

TEST(ChaosServerTest, BudgetEscalatesStuckSolverToTimeoutError) {
  FaultGuard guard;
  HangWatchdog watchdog(60.0, "budget escalation test");
  ServerConfig config = test_config();
  config.request_budget_seconds = 0.05;
  config.stuck_grace_seconds = 0.05;
  SchedServer server(config);
  server.start();
  // Every cancellation poll of the exact solver sleeps 250ms with the
  // token unchecked mid-sleep: the budget's cooperative cancel at 50ms
  // goes unnoticed long past the escalation instant at 100ms.
  fault::configure("solver.stall.exact=e1", 11);
  auto client = Client::connect("127.0.0.1", server.port());
  client.submit(slow_request(), "stuck");
  std::string terminal_code;
  for (;;) {
    auto frame = client.read_frame(/*timeout_seconds=*/30.0);
    ASSERT_TRUE(frame.has_value()) << "connection closed before a terminal";
    const std::string type = frame->string_or("type", "");
    if (type == "error") {
      terminal_code = frame->string_or("code", "");
      break;
    }
    if (type == "event" &&
        frame->string_or("event", "") == "finished") {
      FAIL() << "escalated request must terminate with the timeout error, "
                "not a finished event";
    }
  }
  EXPECT_EQ(terminal_code, "timeout");
  // No second terminal frame arrives for the id: the late (cancelled)
  // result is suppressed at the sink. A short bounded read must time out.
  EXPECT_THROW(client.read_frame(0.6), net::TimedOut);
  EXPECT_GE(server.counters().request_timeouts, 1u);
  client.close();
  server.stop();
  server.wait();
}

TEST(ChaosServerTest, IdReusedAfterEscalationGetsItsOwnResult) {
  FaultGuard guard;
  HangWatchdog watchdog(60.0, "id reuse after escalation test");
  ServerConfig config = test_config();
  config.request_budget_seconds = 0.05;
  config.stuck_grace_seconds = 0.05;
  SchedServer server(config);
  server.start();
  fault::configure("solver.stall.exact=e1", 11);
  auto client = Client::connect("127.0.0.1", server.port());
  // Reads until the terminal frame of "stuck": "finished:<solver>" or
  // "error:<code>".
  const auto terminal = [&client]() -> std::string {
    for (;;) {
      auto frame = client.read_frame(/*timeout_seconds=*/30.0);
      if (!frame.has_value()) return "closed";
      const std::string type = frame->string_or("type", "");
      if (type == "error") return "error:" + frame->string_or("code", "");
      if (type == "event" && frame->string_or("event", "") == "finished") {
        return "finished:" + frame->at("result").string_or("solver", "");
      }
    }
  };
  client.submit(slow_request(), "stuck");
  ASSERT_EQ(terminal(), "error:timeout");
  // The escalated solve is still stalled in the exact solver; the id is
  // free on the wire again, and its new request must get its own result.
  client.submit(quick_request(), "stuck");
  EXPECT_EQ(terminal(), "finished:greedy-bags");
  // The stalled solve's late result stays suppressed.
  EXPECT_THROW(client.read_frame(0.6), net::TimedOut);
  EXPECT_EQ(server.counters().request_timeouts, 1u);
  client.close();
  server.stop();
  server.wait();
}

TEST(ChaosServerTest, BrownOutDegradesUnderQueuePressure) {
  HangWatchdog watchdog(60.0, "brown-out test");
  ServerConfig config = test_config();
  config.service.max_concurrent = 1;
  config.brownout_queue_latency_seconds = 0.001;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  // Occupy the single slot, park a second request in the queue for ~100ms,
  // then release: the queued request's wait raises the EWMA over 1ms.
  client.submit(slow_request(), "blocker");
  client.submit(quick_request(2), "queued");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  client.cancel("blocker");
  int terminals = 0;
  while (terminals < 2) {
    auto frame = client.read_frame(30.0);
    ASSERT_TRUE(frame.has_value());
    const std::string type = frame->string_or("type", "");
    if (type == "error" ||
        (type == "event" && frame->string_or("event", "") == "finished")) {
      ++terminals;
    }
  }
  // The next submit lands in brown-out: answered by bag-lpt even though it
  // asked for the exact solver, and flagged degraded on the wire.
  api::SolveRequest degraded_request = quick_request(3);
  degraded_request.solvers = {"exact"};
  client.submit(degraded_request, "browned");
  for (;;) {
    auto frame = client.read_frame(30.0);
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("type", "") == "event" &&
        frame->string_or("event", "") == "finished") {
      EXPECT_TRUE(frame->bool_or("degraded", false));
      const util::Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->string_or("solver", ""), "bag-lpt");
      break;
    }
  }
  EXPECT_GE(server.counters().brownouts, 1u);
  client.close();
  server.stop();
  server.wait();
}

TEST(ChaosServerTest, HealthzReports200LiveAnd503Draining) {
  HangWatchdog watchdog(60.0, "healthz test");
  ServerConfig config = test_config();
  config.drain_grace_seconds = 0.2;
  SchedServer server(config);
  server.start();
  const auto [status, body] = net::fetch_healthz("127.0.0.1", server.port());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  EXPECT_GE(server.counters().healthz_requests, 1u);
  // The 503 path needs a connection that predates the drain — draining
  // closes the listener, which is itself the "not ready" signal for fresh
  // probes. The drain spares connections that have not sent their first
  // line precisely so a probe's in-flight GET still gets its answer.
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  server.request_drain();
  const std::string response = raw_http_get(fd, "/healthz");
  ::close(fd);
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("draining"), std::string::npos);
  server.wait();
}

// --- Drain racing injected faults ------------------------------------------

TEST(ChaosDrainTest, GracefulDrainSurvivesFaultsMidFlight) {
  FaultGuard guard;
  HangWatchdog watchdog(120.0, "drain race test");
  ServerConfig config = test_config();
  config.drain_grace_seconds = 0.5;
  SchedServer server(config);
  server.start();
  fault::configure(
      "net.server.read=p0.03;net.server.write=p0.03;"
      "net.server.read.short=p0.1;net.server.write.short=p0.1;"
      "service.execute=p0.1",
      99);
  std::atomic<int> resolved{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([t, &server, &resolved] {
      RetryPolicy policy;
      policy.max_attempts = 5;
      policy.connect_timeout_seconds = 5.0;
      policy.read_timeout_seconds = 10.0;
      policy.initial_backoff_seconds = 0.002;
      policy.max_backoff_seconds = 0.02;
      policy.seed = 0xd12a + static_cast<std::uint64_t>(t);
      RetryingClient client("127.0.0.1", server.port(), policy);
      for (int i = 0; i < 15; ++i) {
        const std::string id =
            "drain-" + std::to_string(t) + "-" + std::to_string(i);
        try {
          (void)client.solve(
              quick_request(static_cast<std::uint64_t>(t * 100 + i)), id);
          ++resolved;
        } catch (const std::exception&) {
          // Draining rejections and exhausted retries both terminate the
          // request cleanly; what matters is that nothing hangs.
        }
      }
    });
  }
  // Start the drain while the clients are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_drain();
  for (auto& thread : clients) thread.join();
  server.wait();  // must return: no hang, every request terminal
  EXPECT_GT(resolved.load(), 0);
  const auto service = server.service().stats();
  EXPECT_EQ(service.queue_depth, 0u);
  EXPECT_EQ(service.active, 0u);
  EXPECT_EQ(service.submitted, service.finished);
}

// --- The chaos run ---------------------------------------------------------

TEST(ChaosSuiteTest, SeededChaosRunRecoversAndSettles) {
  FaultGuard guard;
  HangWatchdog watchdog(240.0, "chaos run");
  std::uint64_t seed = 0xc4a05;
  if (const char* env = std::getenv("BAGSCHED_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Printed FIRST: a failure anywhere below is replayed with
  // BAGSCHED_CHAOS_SEED=<seed>.
  std::printf("chaos seed: %llu\n",
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  ServerConfig config = test_config();
  config.service.num_threads = 4;
  config.service.max_concurrent = 4;
  config.request_budget_seconds = 20.0;  // backstop, not the common path
  config.stuck_grace_seconds = 2.0;
  config.drain_grace_seconds = 2.0;
  SchedServer server(config);
  server.start();

  // p≈0.05 (and below for the fatal points) at every registered fault
  // point. The solver stalls get a sparse every-N trigger: each fire costs
  // 250ms of injected stall, so probability triggers would dominate the
  // run's wall clock without adding coverage.
  fault::configure(
      "net.client.connect=p0.05;net.client.send=p0.05;"
      "net.client.recv=p0.05;net.client.recv.short=p0.05;"
      "net.server.accept=p0.05;net.server.read=p0.02;"
      "net.server.read.short=p0.05;net.server.write=p0.02;"
      "net.server.write.short=p0.05;"
      "service.execute=p0.05;cache.insert=p0.5;"
      "solver.stall.local_search=e7;solver.stall.exact=e50",
      seed);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;  // 240 requests total
  std::atomic<int> terminal{0};   // requests that reached ANY terminal state
  std::atomic<int> answered{0};   // terminal via a SolveResult (recovered)
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &server, &terminal, &answered] {
      RetryPolicy policy;
      policy.max_attempts = 6;
      policy.connect_timeout_seconds = 10.0;
      policy.read_timeout_seconds = 30.0;
      policy.initial_backoff_seconds = 0.002;
      policy.max_backoff_seconds = 0.05;
      policy.seed = 0xfeed + static_cast<std::uint64_t>(t);
      RetryingClient client("127.0.0.1", server.port(), policy);
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "chaos-" + std::to_string(t) + "-" + std::to_string(i);
        // Mostly quick heuristic solves; every 8th runs local-search so
        // the solver stall points see traffic too.
        api::SolveRequest request =
            i % 8 == 7
                ? quick_request(static_cast<std::uint64_t>(t * 1000 + i),
                                "local-search")
                : quick_request(static_cast<std::uint64_t>(t * 1000 + i));
        // Route results through the solve cache so the cache.insert fault
        // point (simulated memory pressure) sees traffic too. The time
        // limit must sit below the server's request budget: a request
        // whose deadline clamps the solver is (correctly) considered
        // truncated and never stored.
        request.options.cache_mode = api::CacheMode::ReadWrite;
        request.options.time_limit_seconds = 10.0;
        try {
          // Any SolveResult is a terminal answer — including Error results
          // from injected service.execute faults and Cancelled ones.
          (void)client.solve(request, id, /*want_progress=*/i % 3 == 0);
          ++answered;
        } catch (const net::ConnectionError&) {
          // Retries exhausted: terminal, but not recovered.
        } catch (const net::TimedOut&) {
        } catch (const std::runtime_error&) {
          // A structured protocol error frame: terminal answer.
          ++answered;
        }
        ++terminal;
      }
    });
  }
  for (auto& thread : workers) thread.join();

  const int total = kThreads * kPerThread;
  EXPECT_EQ(terminal.load(), total);  // every request reached a terminal state
  // The retry layer must recover ≥99% of requests across the injected
  // disconnects (the acceptance bar for this suite).
  EXPECT_GE(answered.load(), (total * 99) / 100)
      << "chaos seed " << seed << ": only " << answered.load() << "/"
      << total << " requests recovered";

  // Faults really fired — at client points, server points and the service.
  EXPECT_GT(fault::fires("net.client.*"), 0u);
  EXPECT_GT(fault::fires("net.server.*"), 0u);
  EXPECT_GT(fault::fires("service.execute"), 0u);
  EXPECT_GT(fault::fires("cache.insert"), 0u);

  // Drain with faults still armed, then verify the service settled: every
  // accepted request resolved, nothing queued, nothing running.
  server.request_drain();
  server.wait();
  const auto service = server.service().stats();
  EXPECT_EQ(service.queue_depth, 0u);
  EXPECT_EQ(service.active, 0u);
  EXPECT_EQ(service.submitted, service.finished);
}

}  // namespace
}  // namespace bagsched
