// Blocking NDJSON client for sched_server — the reference implementation
// of the wire protocol's client side, used by `instance_tool --connect`,
// tests/test_net.cc and bench_net_throughput.
//
//   auto client = net::Client::connect("127.0.0.1", port);
//   api::SolveResult result = client.solve(request, "job-1",
//                                          /*want_progress=*/true,
//                                          print_progress);
//
// solve() submits, streams the event frames (invoking the progress
// callback for each) and returns the finished result; a structured
// rejection frame comes back as a Cancelled result carrying the server's
// message, any other error frame throws std::runtime_error. The lower
// send_line()/read_frame() layer is exposed for multiplexed use (several
// client-assigned ids in flight on one connection).
//
// Failure reporting is typed: transport problems (unreachable server,
// socket errors, EOF before the result) throw ConnectionError and
// expired connect/read budgets throw TimedOut — both subclasses of
// std::runtime_error, so legacy catch sites keep working. RetryingClient
// layers a RetryPolicy on top: poll-based connect/read timeouts,
// exponential backoff with deterministic jitter, capped attempts, and
// at-most-once resubmission of idempotent requests under the same
// client-assigned id (the server's fingerprint cache and single-flight
// dedup make a resubmitted solve hit instead of re-running).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/progress.h"
#include "api/request.h"
#include "api/solver.h"
#include "net/framing.h"
#include "util/json.h"

namespace bagsched::net {

/// "host:port" → {host, port}; throws std::runtime_error on bad input.
std::pair<std::string, std::uint16_t> parse_hostport(
    const std::string& hostport);

/// Transport-level failure: connect refused, socket error, or the server
/// closed the connection before the awaited frame arrived. Retryable.
struct ConnectionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A connect or read budget expired (RetryPolicy timeouts). Distinct from
/// ConnectionError so callers can tell "server gone" from "server slow".
struct TimedOut : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  Client() = default;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Throws ConnectionError when the server is unreachable. A nonzero
  /// `connect_timeout_seconds` bounds the connect via poll() and throws
  /// TimedOut on expiry (0 = block indefinitely).
  static Client connect(const std::string& host, std::uint16_t port,
                        double connect_timeout_seconds = 0.0);
  static Client connect(const std::string& hostport);

  bool connected() const { return fd_ != -1; }
  void close();
  /// Closes abruptly without a FIN handshake (for kill-and-reconnect
  /// tests): an RST is queued via SO_LINGER 0.
  void abort();

  /// Writes one frame (newline appended). Throws ConnectionError on a
  /// broken connection (partial writes and EINTR are handled internally).
  void send_line(const std::string& line);

  /// Next frame from the server; std::nullopt on EOF. Throws
  /// ConnectionError on a socket error, std::runtime_error on a frame
  /// that is not valid JSON, and TimedOut when a nonzero
  /// `timeout_seconds` elapses with no complete frame (the connection is
  /// then in an unknown mid-frame state; callers should close it).
  std::optional<util::Json> read_frame(double timeout_seconds = 0.0);

  /// Sends a submit frame for `request` under the client-assigned `id`.
  void submit(const api::SolveRequest& request, const std::string& id,
              bool want_progress = false, bool want_schedule = true);
  void cancel(const std::string& id);

  /// The server's protocol version, captured from its hello greeting; 0
  /// until the first frame has been read (v1 servers never send one).
  int server_proto_version() const { return server_proto_version_; }

  /// An open schedule session: the server-assigned id, its epoch token
  /// (v3 — needed to resume the session after a reconnect; 0 against a v2
  /// server) and the initial solve's result.
  struct Session {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
    api::SolveResult initial;
  };

  /// Acknowledgement of a resume_session (v3): where the server says the
  /// session is, so the client can reconcile before its next delta.
  struct Resumed {
    std::uint64_t session = 0;
    std::uint64_t epoch = 0;
    std::uint64_t revision = 0;
    std::string digest;  ///< committed schedule digest ("" on a v2 server)
  };

  /// Opens a schedule session (v2): sends open_session, awaits the ok
  /// frame carrying the session id, then the initial solve's finished
  /// event. `regret_bound` < 0 keeps the server default. Error frames for
  /// this id throw std::runtime_error.
  Session open_session(const api::SolveRequest& request,
                       const std::string& id = "s1",
                       double regret_bound = -1.0, bool want_schedule = true,
                       double read_timeout_seconds = 0.0);

  /// Reclaims an orphaned (or journal-restored) session on this connection
  /// (v3): sends resume_session with the epoch token from open_session and
  /// awaits the ok frame. Error frames for this id — unknown_session,
  /// stale_epoch, session_owned, draining — throw std::runtime_error.
  Resumed resume_session(std::uint64_t session, std::uint64_t epoch,
                         const std::string& id = "r1",
                         double read_timeout_seconds = 0.0);

  /// Applies a delta to an open session and returns the repaired result
  /// (migration fields filled). Error frames for this id — including
  /// unknown_session — throw std::runtime_error. `expect_revision` (v3)
  /// makes the commit idempotent across a reconnect: the revision the
  /// client last saw committed — a resend whose first copy already landed
  /// is answered from the server's commit cache instead of re-applied.
  api::SolveResult delta(
      std::uint64_t session, const model::Delta& delta,
      const std::string& id = "d1", bool want_schedule = true,
      double read_timeout_seconds = 0.0,
      std::optional<std::uint64_t> expect_revision = std::nullopt);

  /// Closes a session and awaits the acknowledgement.
  void close_session(std::uint64_t session, const std::string& id = "c1",
                     double read_timeout_seconds = 0.0);

  /// Full round trip: submit, stream until this id's terminal frame.
  /// Progress events are surfaced through `on_progress` (request ids are
  /// not service ids here — the event's request_id is 0). Rejection frames
  /// return a Cancelled result; other error frames for this id throw.
  /// A nonzero `read_timeout_seconds` bounds every read (TimedOut).
  api::SolveResult solve(const api::SolveRequest& request,
                         const std::string& id = "1",
                         bool want_progress = false,
                         const api::ProgressFn& on_progress = {},
                         bool want_schedule = true,
                         double read_timeout_seconds = 0.0);

  /// One stats round trip ({"type":"stats"} → the stats frame).
  util::Json stats();

 private:
  /// Reads frames until the ok frame for (`op`, `id`), returning it, or an
  /// error frame for `id` (throwing). Shared by the session ops.
  util::Json await_ok(const std::string& op, const std::string& id,
                      double read_timeout_seconds);
  /// Reads frames until `id`'s finished event (returning its result) or an
  /// error frame for `id` (throwing). Shared tail of solve/delta.
  api::SolveResult await_result(const std::string& id,
                                const api::ProgressFn& on_progress,
                                double read_timeout_seconds);

  int fd_ = -1;
  int server_proto_version_ = 0;
  LineFramer framer_;
};

/// Retry behaviour of RetryingClient. Attempts are total tries (1 = no
/// retry); backoff between attempts grows exponentially and is jittered
/// deterministically from `seed` and the request id.
struct RetryPolicy {
  int max_attempts = 4;
  double connect_timeout_seconds = 5.0;
  /// Per-read budget while awaiting frames; 0 = unbounded.
  double read_timeout_seconds = 0.0;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  /// Backoff is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.5;
  std::uint64_t seed = 0x5eedULL;
  /// Resubmit after a failure that may have reached the server. Solve
  /// requests are idempotent — a resubmission under the same id lands in
  /// the server's fingerprint cache / single-flight dedup, so the solve
  /// itself runs at most once. Set false for at-most-once *delivery*: a
  /// failure once the call's frame has begun to be sent then propagates
  /// instead. Failures before that (connect, the session resume) are
  /// retried either way: nothing of the call reached the server yet.
  bool resubmit = true;
};

/// Counters over every RetryingClient call (solve and the session ops).
struct RetryStats {
  std::uint64_t attempts = 0;    ///< tries, first tries included
  std::uint64_t reconnects = 0;  ///< connections re-established
  /// Frames re-sent after a failure. A retry that fails before it sends
  /// (connect or resume refused) re-sends nothing and is not counted.
  std::uint64_t resubmits = 0;
  std::uint64_t timeouts = 0;    ///< TimedOut errors hit, a thrown one too
  std::uint64_t recovered = 0;   ///< calls that succeeded after >=1 retry
  std::uint64_t resumes = 0;     ///< sessions reclaimed via resume_session
  std::uint64_t duplicate_acks = 0;  ///< resent deltas answered from the
                                     ///< server's commit cache
};

/// A Client wrapper that survives flaky transport: connect and reads are
/// bounded by the policy's timeouts, and transport failures (ConnectionError
/// / TimedOut / EOF) trigger reconnect + resubmission with capped,
/// jittered exponential backoff. Protocol-level error frames are NOT
/// retried — they are answers, not failures. Not thread-safe (one
/// connection, like Client).
class RetryingClient {
 public:
  RetryingClient(std::string host, std::uint16_t port,
                 RetryPolicy policy = {});

  /// Like Client::solve, but retried under the policy. Throws the last
  /// transport error once max_attempts is exhausted.
  api::SolveResult solve(const api::SolveRequest& request,
                         const std::string& id = "1",
                         bool want_progress = false,
                         const api::ProgressFn& on_progress = {},
                         bool want_schedule = true);

  // --- Durable session (v3). One session per RetryingClient: the wrapper
  // remembers its id, epoch token and last committed revision, and a
  // transport failure mid-delta triggers reconnect → resume_session →
  // resubmission with expect_revision, so a commit whose ack was lost is
  // answered from the server's commit cache instead of applied twice.

  /// Opens the tracked session (retried under the policy).
  Client::Session open_session(const api::SolveRequest& request,
                               const std::string& id = "s1",
                               double regret_bound = -1.0,
                               bool want_schedule = true);
  /// Delta against the tracked session with reconnect-and-resume. Throws
  /// std::runtime_error when no session is open, the last transport error
  /// when attempts are exhausted, and protocol errors as-is (a
  /// stale_epoch/unknown_session on resume ends the session: the server
  /// genuinely lost it).
  api::SolveResult delta(const model::Delta& delta,
                         const std::string& id = "d1",
                         bool want_schedule = true);
  /// Closes the tracked session, retried under the policy. Best effort:
  /// a refusal, or a transport failure the policy does not retry, is
  /// swallowed — an unreachable server reaps the session via its linger
  /// window anyway.
  void close_session(const std::string& id = "c1");

  /// The tracked session's id (0 = none open), epoch token and the last
  /// revision this client saw committed.
  std::uint64_t session() const { return session_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t revision() const { return revision_; }

  const RetryStats& stats() const { return stats_; }
  bool connected() const { return client_.connected(); }
  void close() { client_.close(); }

 private:
  void backoff(int attempt, const std::string& id);
  /// The one attempt/backoff loop behind every call: (re)connect, claim
  /// the tracked session first when `claim` (resume_session after a
  /// reconnect), then `send` the call's frame and await its answer. A
  /// transport failure closes the connection, drops the session claim and
  /// retries under the policy — unless attempts are exhausted, or the
  /// send had begun and the policy forbids resubmission. Protocol errors
  /// propagate at once.
  void retry(const std::string& id, bool claim,
             const std::function<void()>& send);
  /// Resume the tracked session on the current connection unless it is
  /// already claimed there. A structured refusal forgets the session.
  void claim_session(const std::string& id);
  void forget_session();

  std::string host_;
  std::uint16_t port_ = 0;
  RetryPolicy policy_;
  Client client_;
  RetryStats stats_;
  std::uint64_t session_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t revision_ = 0;
  bool session_claimed_ = false;  ///< current connection owns the session
};

/// One-shot `GET /metrics` scrape; returns the Prometheus text body.
/// Throws std::runtime_error on connection failure or a non-200 status.
std::string fetch_metrics(const std::string& host, std::uint16_t port);

/// One-shot `GET /healthz` probe; returns {status_code, body}. 200 means
/// live and ready, 503 means draining. Throws on connection failure.
std::pair<int, std::string> fetch_healthz(const std::string& host,
                                          std::uint16_t port);

}  // namespace bagsched::net
