// Tests for the sched_server network subsystem: NDJSON line framing under
// pathological byte streams (split / merged / oversized / CRLF), wire
// protocol round trips against a live loopback server (submit + streamed
// progress, structured errors, load shedding, cancel, multiplexing),
// concurrent multi-client admission, mid-stream disconnect cleanup,
// graceful drain, the /metrics endpoint, and a kill-and-reconnect soak.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "model/delta.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "persist/journal.h"
#include "util/json.h"

namespace bagsched {
namespace {

using net::Client;
using net::LineFramer;
using net::SchedServer;
using net::ServerConfig;
using util::Json;

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

// --- LineFramer ------------------------------------------------------------

TEST(FramingTest, SplitsMergedFramesAndReassemblesSplitOnes) {
  LineFramer framer;
  // Three frames merged into one read...
  framer.feed("{\"a\":1}\n{\"b\":2}\n{\"c\"", 20);
  EXPECT_EQ(framer.next().value(), "{\"a\":1}");
  EXPECT_EQ(framer.next().value(), "{\"b\":2}");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_EQ(framer.buffered(), 4u);
  // ...and the third split across two more reads, byte by byte.
  const std::string tail = ":3}\n";
  for (const char c : tail) framer.feed(&c, 1);
  EXPECT_EQ(framer.next().value(), "{\"c\":3}");
  EXPECT_FALSE(framer.overflowed());
}

TEST(FramingTest, ToleratesCrlfAndDeliversEmptyLines) {
  LineFramer framer;
  framer.feed("{\"a\":1}\r\n\r\n{\"b\":2}\n");
  EXPECT_EQ(framer.next().value(), "{\"a\":1}");
  EXPECT_EQ(framer.next().value(), "");  // blank keep-alive line
  EXPECT_EQ(framer.next().value(), "{\"b\":2}");
  EXPECT_FALSE(framer.next().has_value());
}

TEST(FramingTest, OversizedLineTripsStickyOverflow) {
  LineFramer framer(16);
  framer.feed("{\"ok\":1}\n");
  framer.feed(std::string(64, 'x'));
  EXPECT_EQ(framer.next().value(), "{\"ok\":1}");  // prior lines survive
  EXPECT_TRUE(framer.overflowed());
  // Sticky: further feeds are ignored, no resynchronization is attempted.
  framer.feed("\n{\"late\":2}\n");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_TRUE(framer.overflowed());
}

TEST(FramingTest, ByteAtATimeFuzzAgainstWholeFeed) {
  // The same byte stream fed in 1-byte, 3-byte and single-shot chunks must
  // produce identical line sequences.
  std::string stream;
  for (int i = 0; i < 40; ++i) {
    stream += "{\"i\":" + std::to_string(i) + "}";
    stream += (i % 3 == 0) ? "\r\n" : "\n";
  }
  const auto collect = [&stream](std::size_t chunk) {
    LineFramer framer;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      framer.feed(stream.data() + at, std::min(chunk, stream.size() - at));
    }
    std::vector<std::string> lines;
    while (auto line = framer.next()) lines.push_back(*line);
    return lines;
  };
  const auto whole = collect(stream.size());
  EXPECT_EQ(whole.size(), 40u);
  EXPECT_EQ(collect(1), whole);
  EXPECT_EQ(collect(3), whole);
}

// --- Protocol helpers ------------------------------------------------------

TEST(ProtocolTest, ClientIdCanonicalizesStringsAndIntegers) {
  EXPECT_EQ(net::client_id_text(Json("job-7")), "job-7");
  EXPECT_EQ(net::client_id_text(Json::parse("42")), "42");
  EXPECT_THROW(net::client_id_text(Json::parse("null")), std::runtime_error);
  EXPECT_THROW(net::client_id_text(Json::parse("1.5")), std::runtime_error);
  EXPECT_THROW(net::client_id_text(Json::parse("\"\"")), std::runtime_error);
}

TEST(ProtocolTest, ProgressKindNamesRoundTrip) {
  for (const auto kind :
       {api::ProgressKind::Queued, api::ProgressKind::Started,
        api::ProgressKind::Phase, api::ProgressKind::Incumbent,
        api::ProgressKind::Finished}) {
    EXPECT_EQ(net::progress_kind_from_string(
                  std::string(api::to_string(kind))),
              kind);
  }
  EXPECT_THROW(net::progress_kind_from_string("nope"), std::runtime_error);
}

// --- Live loopback server --------------------------------------------------

TEST(NetServerTest, SubmitStreamsProgressAndMatchesLocalSolve) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  std::vector<api::ProgressKind> kinds;
  const auto result = client.solve(
      quick_request(7), "req-1", /*want_progress=*/true,
      [&kinds](const api::ProgressEvent& event) {
        kinds.push_back(event.kind);
      });
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.schedule_feasible);
  // Queued and Started always stream; Finished terminates client-side.
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds.front(), api::ProgressKind::Queued);
  EXPECT_EQ(kinds[1], api::ProgressKind::Started);

  // Deterministic solver: the remote result matches an in-process solve.
  const api::SolveOptions options{.seed = 7};
  const auto local = api::solve(
      "greedy-bags", api::make_instance("uniform", 30, 4, options), options);
  EXPECT_DOUBLE_EQ(result.makespan, local.makespan);
  EXPECT_GT(result.schedule.num_jobs(), 0);

  server.stop();
  server.wait();
}

TEST(NetServerTest, ScheduleCanBeOmittedFromTheFinishedFrame) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto result = client.solve(quick_request(), "1",
                                   /*want_progress=*/false, {},
                                   /*want_schedule=*/false);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.schedule.num_jobs(), 0);
  EXPECT_GT(result.makespan, 0.0);
  server.stop();
  server.wait();
}

TEST(NetServerTest, MultiplexesRequestsOnOneConnection) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    client.submit(quick_request(static_cast<std::uint64_t>(i + 1)),
                  std::to_string(i));
  }
  int finished = 0;
  while (finished < kRequests) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "server closed early";
    if (frame->string_or("type", "") == "event" &&
        frame->string_or("event", "") == "finished") {
      ++finished;
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "feasible");
    }
  }
  server.stop();
  server.wait();
}

TEST(NetServerTest, StructuredErrorsForGarbageAndBadRequests) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  client.send_line("this is not json");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "error");
  EXPECT_EQ(frame->string_or("code", ""), "parse_error");

  client.send_line("{\"type\":\"submit\",\"id\":\"x\"}");  // no request
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "bad_request");
  EXPECT_EQ(frame->string_or("id", ""), "x");

  Json request = api::to_json(quick_request());
  request.set("solvers", Json::parse("[\"no-such-solver\"]"));
  Json bad = Json::object();
  bad.set("type", "submit");
  bad.set("id", "y");
  bad.set("request", std::move(request));
  client.send_line(bad.dump());
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "unknown_solver");
  EXPECT_EQ(frame->string_or("id", ""), "y");

  client.send_line("{\"type\":\"warble\"}");
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "bad_request");

  // The connection survived all of it: a real solve still works.
  EXPECT_TRUE(client.solve(quick_request(), "ok-1").ok());

  const auto counters = server.counters();
  EXPECT_EQ(counters.parse_errors, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, OversizedFrameGetsErrorThenClose) {
  auto config = test_config();
  config.max_frame_bytes = 1024;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line(std::string(4096, 'x'));
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("code", ""), "oversized_frame");
  // The stream cannot be resynchronized: the server closes after the error.
  EXPECT_FALSE(client.read_frame().has_value());
  EXPECT_EQ(server.counters().oversized_frames, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, DuplicateAndUnknownIdsAreStructuredErrors) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  client.submit(slow_request(), "dup");
  client.submit(quick_request(), "dup");
  bool saw_duplicate = false;
  while (!saw_duplicate) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("type", "") != "error") continue;
    EXPECT_EQ(frame->string_or("code", ""), "duplicate_id");
    EXPECT_EQ(frame->string_or("id", ""), "dup");
    saw_duplicate = true;
  }

  client.cancel("never-submitted");
  bool saw_unknown = false;
  while (!saw_unknown) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("type", "") != "error") continue;
    EXPECT_EQ(frame->string_or("code", ""), "unknown_id");
    saw_unknown = true;
  }

  client.cancel("dup");  // release the slow solve before teardown
  server.stop();
  server.wait();
}

TEST(NetServerTest, CancelResolvesWithCancelledStatus) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.submit(slow_request(), "slow", /*want_progress=*/true);
  // Wait for Started so the cancel lands mid-solve, then cancel.
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "started") break;
  }
  client.cancel("slow");
  bool saw_ok = false;
  bool saw_finished = false;
  while (!saw_finished) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    const std::string type = frame->string_or("type", "");
    if (type == "ok") {
      EXPECT_EQ(frame->string_or("op", ""), "cancel");
      saw_ok = true;
    }
    if (frame->string_or("event", "") == "finished") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "cancelled");
      saw_finished = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_EQ(server.counters().cancels, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, LoadShedsWithStructuredRejectionFrames) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  config.service.max_queue_depth = 1;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // One solve occupies the slot, one sits in the queue; the rest must come
  // back as structured rejection frames, not dropped connections.
  client.submit(slow_request(), "hog");
  client.submit(slow_request(), "queued");
  const int kOverflow = 4;
  int rejections = 0;
  for (int i = 0; i < kOverflow; ++i) {
    const auto result =
        client.solve(quick_request(), "over-" + std::to_string(i));
    EXPECT_EQ(result.status, api::SolveStatus::Cancelled);
    EXPECT_NE(result.error.find("rejected"), std::string::npos);
    ++rejections;
  }
  EXPECT_EQ(rejections, kOverflow);
  EXPECT_EQ(server.service().stats().rejected,
            static_cast<std::uint64_t>(kOverflow));
  client.cancel("hog");
  client.cancel("queued");
  server.stop();
  server.wait();
}

TEST(NetServerTest, StatsFrameCarriesServiceCacheAndServerSections) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.solve(quick_request(), "warm").ok());
  const Json stats = client.stats();
  EXPECT_EQ(stats.at("service").at("submitted").as_int(), 1);
  EXPECT_EQ(stats.at("service").at("finished").as_int(), 1);
  EXPECT_GE(stats.at("server").at("frames_in").as_int(), 2);
  EXPECT_EQ(stats.at("server").at("connections_active").as_int(), 1);
  EXPECT_TRUE(stats.at("cache").find("entries") != nullptr);
  server.stop();
  server.wait();
}

TEST(NetServerTest, PingPong) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line("{\"type\":\"ping\"}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  server.stop();
  server.wait();
}

TEST(NetServerTest, MetricsEndpointServesPrometheusText) {
  SchedServer server(test_config());
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.solve(quick_request(), "m").ok());
  }
  const std::string body = net::fetch_metrics("127.0.0.1", server.port());
  EXPECT_NE(body.find("# TYPE bagsched_service_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_service_submitted_total 1"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_service_queue_depth 0"), std::string::npos);
  EXPECT_NE(body.find("bagsched_server_connections_accepted"),
            std::string::npos);
  EXPECT_NE(body.find("bagsched_cache_entries"), std::string::npos);
  EXPECT_EQ(server.counters().metrics_requests, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, MetricsCoverEveryStatsFrameField) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const Json stats = client.stats();
  const std::string body = net::fetch_metrics("127.0.0.1", server.port());
  std::size_t fields = 0;
  for (const char* section : {"service", "cache", "server"}) {
    for (const auto& [key, value] : stats.at(section).as_object()) {
      const std::string family = std::string("bagsched_") + section + "_" +
                                 key;
      EXPECT_TRUE(body.find("# TYPE " + family + " gauge\n") !=
                      std::string::npos ||
                  body.find("# TYPE " + family + "_total counter\n") !=
                      std::string::npos)
          << family << " is in the stats frame but not at /metrics";
      ++fields;
    }
  }
  EXPECT_GE(fields, 40u);
  client.close();
  server.stop();
  server.wait();
}

TEST(NetServerTest, ManyConcurrentClientsAllGetTheirResults) {
  // The acceptance bar: >= 64 clients served concurrently on one poll
  // loop, every one getting its own correct result back.
  auto config = test_config();
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  SchedServer server(config);
  server.start();

  const int kClients = 64;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&server, &ok_count, i] {
      auto client = Client::connect("127.0.0.1", server.port());
      const auto result = client.solve(
          quick_request(static_cast<std::uint64_t>(i % 5 + 1)),
          "c" + std::to_string(i));
      if (result.ok() && result.schedule_feasible) ++ok_count;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(server.counters().connections_accepted,
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(server.service().stats().finished,
            static_cast<std::uint64_t>(kClients));
  server.stop();
  server.wait();
}

TEST(NetServerTest, MidStreamDisconnectCancelsOrphanedSolves) {
  auto config = test_config();
  config.service.num_threads = 1;
  config.service.max_concurrent = 1;
  SchedServer server(config);
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    client.submit(slow_request(), "orphan", /*want_progress=*/true);
    for (;;) {
      auto frame = client.read_frame();
      ASSERT_TRUE(frame.has_value());
      if (frame->string_or("event", "") == "started") break;
    }
    client.abort();  // RST mid-solve, no goodbye
  }
  // The orphan must be cancelled so its slot frees up; a new client's
  // solve on the single slot proves the release (it would otherwise block
  // behind 30 s of exact search).
  auto client = Client::connect("127.0.0.1", server.port());
  const auto result = client.solve(quick_request(), "next");
  EXPECT_TRUE(result.ok());
  EXPECT_GE(server.counters().disconnect_cancels, 1u);
  server.stop();
  server.wait();
  // And nothing leaked: the service settled every request it accepted.
  const auto stats = server.service().stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.submitted, stats.finished);
}

TEST(NetServerTest, GracefulDrainFlushesResultsThenRefusesSubmits) {
  auto config = test_config();
  // Generous: the solve must finish well inside the grace even under
  // ASan, or the drain cancels it and the test sees "cancelled".
  config.drain_grace_seconds = 60.0;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  // An eptas solve runs long enough (milliseconds) that the late submit
  // below lands while it is still in flight.
  api::SolveOptions options;
  options.eps = 0.5;
  options.seed = 7;
  const auto inflight_request = api::make_request(
      api::make_instance("uniform", 20, 3, options), options, {"eptas"});
  client.submit(inflight_request, "inflight", /*want_progress=*/true);
  // Wait until the submit is provably accepted, then drain.
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "queued") break;
  }
  server.request_drain();
  // Past the drain point: this submit must get a structured refusal, not
  // a dropped connection.
  client.submit(quick_request(), "late");

  // The in-flight solve still streams to completion; once everything is
  // flushed the server half-closes and EOF follows.
  bool finished = false;
  bool refused = false;
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value()) break;  // EOF after the drain completed
    if (frame->string_or("event", "") == "finished" &&
        frame->string_or("id", "") == "inflight") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "feasible");
      finished = true;
    }
    if (frame->string_or("type", "") == "error" &&
        frame->string_or("id", "") == "late") {
      EXPECT_EQ(frame->string_or("code", ""), "draining");
      refused = true;
    }
  }
  EXPECT_TRUE(finished);
  EXPECT_TRUE(refused);
  client.close();  // our EOF lets the server retire the connection
  server.wait();   // must return: drain completed
  // New connections are refused once the listener closed.
  EXPECT_THROW(Client::connect("127.0.0.1", server.port()),
               std::runtime_error);
}

TEST(NetServerTest, DrainCancelsOverdueSolvesAfterTheGracePeriod) {
  auto config = test_config();
  config.drain_grace_seconds = 0.2;
  SchedServer server(config);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.submit(slow_request(), "stuck", /*want_progress=*/true);
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->string_or("event", "") == "started") break;
  }
  server.request_drain();
  bool cancelled = false;
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value()) break;
    if (frame->string_or("event", "") == "finished") {
      const Json* result = frame->find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->at("status").as_string(), "cancelled");
      cancelled = true;
    }
  }
  EXPECT_TRUE(cancelled);
  client.close();
  server.wait();
}

// --- Protocol v2: hello, versioning, sessions ------------------------------

TEST(NetServerTest, HelloHandshakeExposesTheServerProtoVersion) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.server_proto_version(), 0);  // nothing read yet
  client.send_line("{\"type\":\"ping\"}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  // The greeting is swallowed by the client (recorded, not surfaced), so
  // the first visible frame is still the pong a v1 caller expects.
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  EXPECT_EQ(client.server_proto_version(), net::kProtoVersion);
  server.stop();
  server.wait();
}

TEST(NetServerTest, FramesFromTheFutureAreRejectedStructurally) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line("{\"type\":\"ping\",\"proto_version\":99}");
  auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "error");
  EXPECT_EQ(frame->string_or("code", ""), "unsupported_version");
  // Declaring the server's own version (or none) proceeds normally.
  client.send_line("{\"type\":\"ping\",\"proto_version\":" +
                   std::to_string(net::kProtoVersion) + "}");
  frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->string_or("type", ""), "pong");
  EXPECT_EQ(server.counters().version_rejects, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, SessionOpenDeltaCloseOverTheWire) {
  SchedServer server(test_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  const auto request = quick_request(9);
  const auto session = client.open_session(request, "open-1");
  ASSERT_GE(session.id, 1u);
  ASSERT_TRUE(session.initial.ok()) << session.initial.error;
  EXPECT_TRUE(session.initial.schedule_feasible);

  // Apply a delta: one arrival into a fresh bag (always feasible).
  model::Delta delta;
  delta.arrivals.push_back(
      model::JobArrival{0.5, request.instance->num_bags()});
  const auto repaired = client.delta(session.id, delta, "d-1");
  ASSERT_TRUE(repaired.ok()) << repaired.error;
  EXPECT_EQ(repaired.schedule.num_jobs(),
            request.instance->num_jobs() + 1);
  EXPECT_GE(repaired.moved_jobs, 0);
  EXPECT_LE(repaired.migration_ratio, 1.0);

  // A session id this connection never opened is a structured error.
  EXPECT_THROW(client.delta(session.id + 100, delta, "d-bad"),
               std::runtime_error);

  client.close_session(session.id, "close-1");
  EXPECT_THROW(client.delta(session.id, delta, "d-late"),
               std::runtime_error);

  const auto counters = server.counters();
  EXPECT_EQ(counters.session_opens, 1u);
  EXPECT_EQ(counters.session_closes, 1u);
  EXPECT_GE(counters.session_deltas, 1u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, SessionsDieWithTheirConnection) {
  SchedServer server(test_config());
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(quick_request(4), "s");
    ASSERT_TRUE(session.initial.ok());
    EXPECT_EQ(server.service().stats().open_sessions, 1u);
    client.abort();  // RST, no close_session
  }
  // The poll loop notices the disconnect and closes the orphaned session.
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    closed = server.service().stats().open_sessions == 0;
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed);
  server.stop();
  server.wait();
}

TEST(NetServerTest, RecoveringServerRefusesWorkUntilReady) {
  auto config = test_config();
  config.start_recovering = true;
  SchedServer server(config);
  server.start();
  ASSERT_TRUE(server.recovering());

  // Probes see 503 "recovering" — distinguishable from both "down" (no
  // listener) and "draining".
  const auto [status, body] = net::fetch_healthz("127.0.0.1", server.port());
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "recovering\n");

  auto client = Client::connect("127.0.0.1", server.port());
  // Diagnostics still answer...
  const Json stats = client.stats();
  EXPECT_EQ(stats.string_or("type", ""), "stats");
  // ...but work is refused with a structured "recovering" error.
  try {
    client.solve(quick_request(1), "early");
    FAIL() << "expected a recovering error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("recovering"),
              std::string::npos);
  }
  EXPECT_GE(server.counters().recovering_rejects, 1u);

  server.set_ready();
  EXPECT_FALSE(server.recovering());
  const auto [ready_status, ready_body] =
      net::fetch_healthz("127.0.0.1", server.port());
  EXPECT_EQ(ready_status, 200);
  const auto result = client.solve(quick_request(1), "late");
  EXPECT_TRUE(result.ok()) << result.error;
  server.stop();
  server.wait();
}

TEST(NetServerTest, ResumeSessionReclaimsAnOrphanInsideTheLingerWindow) {
  auto config = test_config();
  config.session_linger_seconds = 30.0;
  SchedServer server(config);
  server.start();

  const auto request = quick_request(9);
  model::Delta delta;
  delta.arrivals.push_back(
      model::JobArrival{0.5, request.instance->num_bags()});

  // Open a session, commit one delta, then die without close_session.
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  std::string committed_digest;
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(request, "s1");
    ASSERT_TRUE(session.initial.ok());
    ASSERT_NE(session.epoch, 0u);
    session_id = session.id;
    epoch = session.epoch;
    const auto repaired = client.delta(session.id, delta, "d1");
    ASSERT_TRUE(repaired.ok()) << repaired.error;
    committed_digest = persist::schedule_digest(repaired.schedule);
    client.abort();  // RST, no goodbye
  }

  // The session is parked, not closed: still open service-side.
  bool orphaned = false;
  for (int i = 0; i < 100 && !orphaned; ++i) {
    orphaned = server.counters().sessions_orphaned >= 1;
    if (!orphaned) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(orphaned);
  EXPECT_EQ(server.service().stats().open_sessions, 1u);

  auto reclaimer = Client::connect("127.0.0.1", server.port());
  // A delta into the linger window without resuming first: the session is
  // not bound to this connection, so it must be refused...
  EXPECT_THROW(reclaimer.delta(session_id, delta, "too-early"),
               std::runtime_error);
  // ...a stale epoch token must be refused...
  try {
    reclaimer.resume_session(session_id, epoch + 1, "bad-epoch");
    FAIL() << "expected stale_epoch";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("stale_epoch"),
              std::string::npos);
  }
  // ...an unknown session likewise...
  EXPECT_THROW(reclaimer.resume_session(session_id + 99, epoch, "bad-id"),
               std::runtime_error);
  // ...and the genuine token reclaims the session where it left off.
  const Client::Resumed resumed =
      reclaimer.resume_session(session_id, epoch, "r1");
  EXPECT_EQ(resumed.session, session_id);
  EXPECT_EQ(resumed.epoch, epoch);
  EXPECT_EQ(resumed.revision, 1u);
  EXPECT_EQ(resumed.digest, committed_digest);

  // The reclaimed session keeps working on the new connection.
  model::Delta another;
  another.arrivals.push_back(
      model::JobArrival{0.25, request.instance->num_bags()});
  const auto after = reclaimer.delta(session_id, another, "d2");
  ASSERT_TRUE(after.ok()) << after.error;
  reclaimer.close_session(session_id, "c1");

  const auto counters = server.counters();
  EXPECT_EQ(counters.session_resumes, 1u);
  EXPECT_GE(counters.resume_rejects, 2u);
  EXPECT_EQ(counters.orphans_expired, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, OrphanedSessionsExpireAfterTheLingerWindow) {
  auto config = test_config();
  config.session_linger_seconds = 0.05;
  SchedServer server(config);
  server.start();

  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  {
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(quick_request(4), "s");
    ASSERT_TRUE(session.initial.ok());
    session_id = session.id;
    epoch = session.epoch;
    client.abort();
  }
  // The sweep closes the orphan once the linger elapses.
  bool expired = false;
  for (int i = 0; i < 200 && !expired; ++i) {
    expired = server.service().stats().open_sessions == 0;
    if (!expired) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(expired);
  EXPECT_GE(server.counters().orphans_expired, 1u);

  // Too late: even the correct epoch cannot bring it back.
  auto late = Client::connect("127.0.0.1", server.port());
  try {
    late.resume_session(session_id, epoch, "late");
    FAIL() << "expected unknown_session";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown_session"),
              std::string::npos);
  }
  server.stop();
  server.wait();
}

TEST(NetServerTest, ResumeIsRefusedWhileTheSessionIsOwnedElsewhere) {
  auto config = test_config();
  config.session_linger_seconds = 30.0;
  SchedServer server(config);
  server.start();

  auto owner = Client::connect("127.0.0.1", server.port());
  const auto session = owner.open_session(quick_request(5), "s");
  ASSERT_TRUE(session.initial.ok());

  auto thief = Client::connect("127.0.0.1", server.port());
  try {
    thief.resume_session(session.id, session.epoch, "steal");
    FAIL() << "expected session_owned";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("session_owned"),
              std::string::npos);
  }
  // Resuming a session already bound to THIS connection is an idempotent
  // re-acknowledgement, not an error (a retried resume whose ok was lost).
  const Client::Resumed again =
      owner.resume_session(session.id, session.epoch, "again");
  EXPECT_EQ(again.session, session.id);
  EXPECT_EQ(again.revision, 0u);
  server.stop();
  server.wait();
}

TEST(NetServerTest, CloseSessionRacingDrainStaysConsistent) {
  // close_session and request_drain land at the same instant, repeatedly:
  // whichever wins, the server must answer something structured (ok or a
  // draining error), drain to completion, and leave no session behind.
  // The client reads to EOF and closes, so every round ends through the
  // clean half-close path, far ahead of the drain force-close backstop.
  for (int round = 0; round < 5; ++round) {
    auto config = test_config();
    config.session_linger_seconds = 5.0;  // orphans must not outlive drain
    SchedServer server(config);
    server.start();
    auto client = Client::connect("127.0.0.1", server.port());
    const auto session = client.open_session(
        quick_request(static_cast<std::uint64_t>(round)), "s");
    ASSERT_TRUE(session.initial.ok());

    const auto started = std::chrono::steady_clock::now();
    std::thread drainer([&server] { server.request_drain(); });
    try {
      client.close_session(session.id, "race");
    } catch (const std::exception&) {
      // A draining refusal (or a closed connection) is a legal outcome.
    }
    drainer.join();
    // The drained server half-closes the idle connection: read whatever
    // is left up to its EOF, then close, which lets the server finish.
    try {
      while (client.connected() && client.read_frame(2.0)) {
      }
    } catch (const std::exception&) {
      // A reset after the half-close is as final as an EOF.
    }
    client.close();
    server.wait();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    EXPECT_LT(seconds, 1.0) << "round " << round
                            << " waited for the force-close backstop";
    EXPECT_EQ(server.service().stats().open_sessions, 0u);
    EXPECT_EQ(server.counters().connections_active, 0u);
  }
}

TEST(NetServerTest, SoakManyConnectionsWithKills) {
  // Hundreds of short-lived connections, a third of them killed abruptly
  // (RST) mid-request; the server must neither leak handles nor wedge, and
  // the service must settle to submitted == finished. Sized to stay fast
  // under ASan.
  auto config = test_config();
  SchedServer server(config);
  server.start();

  const int kRounds = 150;
  int clean = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto client = Client::connect("127.0.0.1", server.port());
    if (i % 3 == 2) {
      // Kill mid-stream: submit, read one frame, RST.
      client.submit(quick_request(static_cast<std::uint64_t>(i)), "kill");
      auto frame = client.read_frame();
      client.abort();
      continue;
    }
    const auto result =
        client.solve(quick_request(static_cast<std::uint64_t>(i)), "s");
    if (result.ok()) ++clean;
  }
  EXPECT_EQ(clean, kRounds - kRounds / 3);
  server.service().wait_idle();
  const auto stats = server.service().stats();
  EXPECT_EQ(stats.submitted, stats.finished);
  EXPECT_EQ(stats.active, 0u);
  const auto counters = server.counters();
  EXPECT_EQ(counters.connections_accepted,
            static_cast<std::uint64_t>(kRounds));
  server.stop();
  server.wait();
  EXPECT_EQ(server.counters().connections_active, 0u);
}

}  // namespace
}  // namespace bagsched
