// sched_server core: a TCP front end over api::SchedulingService speaking
// the NDJSON wire protocol (net/protocol.h, DESIGN.md §5).
//
//   net::ServerConfig config;
//   config.port = 0;                    // ephemeral; port() tells which
//   config.service.max_queue_depth = 256;
//   net::SchedServer server(config);
//   server.start();
//   ...
//   server.request_drain();             // SIGTERM handler calls this
//   server.wait();                      // returns once drained
//
// Architecture: ONE event-loop thread owns every socket (accept, read,
// frame, dispatch, write) via poll() — no thread-per-connection — while
// the solves run on the SchedulingService's worker pool. The bridge back
// is a per-connection Sink: progress callbacks (worker threads) serialize
// their frame, append it under the sink mutex and wake the loop through a
// self-pipe; the loop moves pending frames into the connection's outbound
// buffer and flushes when the socket is writable. A disconnected client's
// sink goes dead (late events are dropped) and every solve it still had in
// flight is cancelled, so orphaned requests release their slots instead of
// leaking.
//
// Graceful drain (request_drain): the listener closes, new submits are
// refused with a "draining" error frame, in-flight solves get
// drain_grace_seconds to finish before they are cancelled, every Finished
// event is flushed, connections close, and wait() returns. The /metrics
// endpoint (HTTP GET on the same port) serves Prometheus text of
// ServiceStats + SolveCache counters + the ServerCounters gauges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.h"
#include "net/protocol.h"

namespace bagsched::persist {
class SessionJournal;
}  // namespace bagsched::persist

namespace bagsched::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 = ephemeral (read the bound port back via port()).
  std::uint16_t port = 0;
  /// Forwarded to the owned SchedulingService (threads, max_concurrent,
  /// max_queue_depth, cache budget).
  api::ServiceConfig service;
  /// One NDJSON frame (line) may not exceed this; larger frames close the
  /// connection with an oversized_frame error.
  std::size_t max_frame_bytes = 4u << 20;
  /// Outbound-buffer cap per connection; a client that cannot keep up with
  /// its own event stream is disconnected instead of ballooning memory.
  std::size_t max_output_bytes = 64u << 20;
  /// Connection cap; accepts beyond it are closed immediately.
  std::size_t max_connections = 1024;
  /// Drain: how long in-flight solves may keep running before they are
  /// cancelled so the server can exit.
  double drain_grace_seconds = 5.0;
  /// Per-request wall-clock budget (0 = unlimited). Enforced twice: the
  /// submit's deadline is clamped to it (cooperative cancellation through
  /// the service watchdog), and a solver still unresolved
  /// stuck_grace_seconds past the budget is escalated — the request gets a
  /// terminal "timeout" error frame and its late result is suppressed.
  double request_budget_seconds = 0.0;
  /// Grace between the budget's cooperative cancel and the stuck-solver
  /// escalation above.
  double stuck_grace_seconds = 2.0;
  /// Overload brown-out (0 = disabled): when the service's queue-wait EWMA
  /// exceeds this, new submits are degraded to the cheap `bag-lpt` solver
  /// and their frames are flagged "degraded":true on the wire.
  double brownout_queue_latency_seconds = 0.0;
  /// Orphan grace (0 = sessions die with their connection, the pre-v3
  /// behaviour): with a linger, a disconnect parks the connection's open
  /// sessions as orphans for this many seconds, during which a client
  /// holding the epoch token can reclaim them with resume_session. Expired
  /// orphans are closed by the event loop.
  double session_linger_seconds = 0.0;
  /// Boot in the "recovering" state: every frame except ping/stats is
  /// refused with a "recovering" error and /healthz answers 503 until
  /// set_ready() is called. sched_server uses this to replay its journal
  /// after the port is already bound, so probes see the boot progressing.
  bool start_recovering = false;
};

namespace detail {
struct Connection;
struct Sink;
}  // namespace detail

class SchedServer {
 public:
  explicit SchedServer(ServerConfig config = {});
  /// stop() + wait().
  ~SchedServer();

  SchedServer(const SchedServer&) = delete;
  SchedServer& operator=(const SchedServer&) = delete;

  /// Binds, listens and starts the event-loop thread. Throws
  /// std::runtime_error when the address cannot be bound.
  void start();

  /// The bound TCP port (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const { return port_; }

  /// Graceful drain; thread-safe and idempotent. wait() returns once every
  /// in-flight request resolved and every event flushed.
  void request_drain();
  /// Hard stop: cancels everything, drops unflushed frames, closes.
  void stop();
  /// Joins the event loop (after request_drain()/stop()).
  void wait();

  bool draining() const {
    return drain_.load(std::memory_order_relaxed) ||
           stop_.load(std::memory_order_relaxed);
  }

  /// True while the server refuses work with "recovering" errors (journal
  /// replay still running). Starts true iff config.start_recovering.
  bool recovering() const {
    return recovering_.load(std::memory_order_acquire);
  }
  /// Leaves the recovering state; thread-safe, idempotent. Called by
  /// sched_server once journal replay and session restoration finished.
  void set_ready();

  /// Park sessions (typically the ones just restored from the journal) as
  /// orphans, exactly as if their connection had died: resumable with
  /// resume_session inside the linger window, closed when it expires.
  /// Thread-safe; the event loop adopts them on its next pass.
  void adopt_orphans(const std::vector<std::uint64_t>& sessions);

  ServerCounters counters() const;
  api::SchedulingService& service() { return service_; }
  const ServerConfig& config() const { return config_; }

 private:
  void loop();
  void escalate_stuck();
  void accept_ready();
  void read_ready(detail::Connection& connection);
  void flush(detail::Connection& connection);
  void pump_sink(detail::Connection& connection);
  void close_connection(detail::Connection& connection,
                        bool count_orphans = true);
  void handle_line(detail::Connection& connection, const std::string& line);
  /// Admission preamble of every frame that names a request: the client id
  /// (bad_request when missing or malformed) and, for a frame that starts
  /// a request (`refusal` set), the duplicate_id and draining refusals —
  /// the latter worded "server is draining and <refusal>". Returns nullopt
  /// once the error frame is sent.
  std::optional<std::string> admit(detail::Connection& connection,
                                   const util::Json& frame,
                                   const std::string& type,
                                   const char* refusal);
  void handle_http(detail::Connection& connection, const std::string& line);
  void handle_submit(detail::Connection& connection, const util::Json& frame);
  void handle_cancel(detail::Connection& connection, const util::Json& frame);
  void handle_open_session(detail::Connection& connection,
                           const util::Json& frame);
  void handle_delta(detail::Connection& connection, const util::Json& frame);
  void handle_close_session(detail::Connection& connection,
                            const util::Json& frame);
  void handle_resume_session(detail::Connection& connection,
                             const util::Json& frame);
  void sweep_orphans(bool close_all);
  void send_frame(detail::Connection& connection, std::string frame);
  /// Adds `n` to one counter under counters_mutex_, so counters() stays
  /// one consistent snapshot.
  void count(std::uint64_t ServerCounters::*counter, std::uint64_t n = 1);
  void wake();

  ServerConfig config_;
  api::SchedulingService service_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> drain_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> recovering_{false};
  std::thread loop_thread_;

  /// Owned by the loop thread exclusively.
  std::vector<std::unique_ptr<detail::Connection>> connections_;
  /// Sessions whose connection died inside the linger window, keyed to the
  /// instant they were orphaned. Owned by the loop thread exclusively;
  /// swept every iteration and resume_session removes entries on reclaim.
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point>
      orphaned_sessions_;
  /// Hand-off for adopt_orphans() callers (main thread at boot): drained
  /// into orphaned_sessions_ by the loop under adopted_mutex_.
  std::mutex adopted_mutex_;
  std::vector<std::uint64_t> adopted_orphans_;

  mutable std::mutex counters_mutex_;
  ServerCounters counters_;

  std::mutex wait_mutex_;  ///< serializes wait() callers around the join
};

}  // namespace bagsched::net
