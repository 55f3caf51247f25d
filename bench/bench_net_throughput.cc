// Network throughput: requests/sec through a loopback sched_server — the
// regression-tracked bench for the net subsystem (BENCH_net.json).
//
// Every case drives real TCP sockets against a live server on 127.0.0.1
// with a fast solver (greedy-bags on small instances), so the numbers
// measure the wire path itself: framing, JSON encode/decode, the poll
// loop, the sink bridge and flush — not solver time.
//
//   seq        one client, blocking round trips
//   pipelined  one connection, the whole batch in flight at once
//              (multiplexed ids), then stream all results back
//   4clients   four threads, each with its own connection
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "util/stopwatch.h"

namespace {

namespace api = bagsched::api;
namespace bench = bagsched::bench;
namespace net = bagsched::net;

api::SolveRequest small_request(std::uint64_t seed) {
  api::SolveOptions options;
  options.seed = seed % 16 + 1;
  return api::make_request(
      api::make_instance("uniform", 24, 4, options), options,
      {"greedy-bags"});
}

net::ServerConfig server_config() {
  net::ServerConfig config;
  config.port = 0;
  config.service.num_threads = 2;
  config.service.max_concurrent = 2;
  return config;
}

int run_sequential(std::uint16_t port, int requests) {
  auto client = net::Client::connect("127.0.0.1", port);
  int ok = 0;
  for (int i = 0; i < requests; ++i) {
    const auto result = client.solve(
        small_request(static_cast<std::uint64_t>(i)), std::to_string(i),
        /*want_progress=*/false, {}, /*want_schedule=*/false);
    if (result.ok()) ++ok;
  }
  return ok;
}

int run_pipelined(std::uint16_t port, int requests) {
  auto client = net::Client::connect("127.0.0.1", port);
  for (int i = 0; i < requests; ++i) {
    client.submit(small_request(static_cast<std::uint64_t>(i)),
                  std::to_string(i), /*want_progress=*/false,
                  /*want_schedule=*/false);
  }
  int finished = 0;
  while (finished < requests) {
    auto frame = client.read_frame();
    if (!frame.has_value()) break;
    if (frame->string_or("event", "") == "finished") ++finished;
  }
  return finished;
}

int run_multi_client(std::uint16_t port, int clients, int per_client) {
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([port, per_client, c, &ok] {
      auto client = net::Client::connect("127.0.0.1", port);
      for (int i = 0; i < per_client; ++i) {
        const auto result = client.solve(
            small_request(static_cast<std::uint64_t>(c * 1000 + i)),
            std::to_string(i), /*want_progress=*/false, {},
            /*want_schedule=*/false);
        if (result.ok()) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return ok.load();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("net", argc, argv);

  net::SchedServer server(server_config());
  server.start();
  const std::uint16_t port = server.port();

  const int kRequests = 64;
  {
    int ok = 0;
    double seconds = 0.0;
    auto& result = harness.run_case(
        "loopback/seq/64", harness.reps(3), [&] {
          bagsched::util::Stopwatch timer;
          ok = run_sequential(port, kRequests);
          seconds = timer.seconds();
        });
    result.metrics.set("requests", kRequests);
    result.metrics.set("ok", ok);
    result.metrics.set("reqs_per_s", kRequests / seconds);
  }
  {
    int finished = 0;
    double seconds = 0.0;
    auto& result = harness.run_case(
        "loopback/pipelined/64", harness.reps(3), [&] {
          bagsched::util::Stopwatch timer;
          finished = run_pipelined(port, kRequests);
          seconds = timer.seconds();
        });
    result.metrics.set("requests", kRequests);
    result.metrics.set("ok", finished);
    result.metrics.set("reqs_per_s", kRequests / seconds);
  }
  {
    const int kClients = 4;
    const int kPerClient = 16;
    int ok = 0;
    double seconds = 0.0;
    auto& result = harness.run_case(
        "loopback/4clients/16each", harness.reps(3), [&] {
          bagsched::util::Stopwatch timer;
          ok = run_multi_client(port, kClients, kPerClient);
          seconds = timer.seconds();
        });
    result.metrics.set("requests", kClients * kPerClient);
    result.metrics.set("ok", ok);
    result.metrics.set("reqs_per_s", kClients * kPerClient / seconds);
  }

  const auto counters = server.counters();
  std::cout << "server: " << counters.connections_accepted
            << " connections, " << counters.frames_in << " frames in, "
            << counters.frames_out << " frames out, " << counters.bytes_out
            << " bytes out\n";
  server.stop();
  server.wait();
  return harness.finish(std::cout) ? 0 : 1;
}
