#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "api/serialize.h"
#include "net/framing.h"
#include "net/metrics.h"
#include "persist/journal.h"
#include "util/fault.h"

namespace bagsched::net {

namespace detail {

/// The worker-thread → event-loop bridge for one connection. Progress
/// callbacks append serialized frames under the mutex; the loop swaps them
/// out in pump_sink(). `alive` goes false when the connection closes, so a
/// callback for an orphaned solve drops its frame instead of writing into
/// a dead connection (or a reused fd).
struct Sink {
  std::mutex mutex;
  std::vector<std::string> frames;
  std::vector<std::string> finished;  ///< client ids whose request resolved
  /// Service request ids escalated to a "timeout" error by the budget
  /// watchdog: their terminal frame was already sent, so any late frames
  /// from the solve are dropped (the id leaves the set when its Finished
  /// event arrives). Keyed by the service id, not the client id, so a
  /// client may reuse an escalated id while the stuck solve still runs.
  std::unordered_set<std::uint64_t> suppressed;
  bool alive = true;
  int wake_fd = -1;
};

/// One in-flight request on a connection: the service handle plus, when a
/// request budget is configured, the instant past which a still-unresolved
/// solve is escalated to a terminal "timeout" error.
struct Inflight {
  api::SolveHandle handle;
  std::optional<std::chrono::steady_clock::time_point> escalate_at;
};

struct Connection {
  explicit Connection(std::size_t max_frame_bytes)
      : framer(max_frame_bytes) {}

  int fd = -1;
  std::shared_ptr<Sink> sink;
  LineFramer framer;
  std::string out;            ///< outbound bytes, [out_offset, size) unsent
  std::size_t out_offset = 0;
  /// Client-assigned id → the in-flight request. Entries leave when the
  /// terminal frame is pumped, via cancellation on disconnect, or via
  /// stuck-solver escalation.
  std::unordered_map<std::string, Inflight> inflight;
  bool saw_frame = false;  ///< an NDJSON frame arrived (disables HTTP sniff)
  bool greeted = false;    ///< hello frame sent (first NDJSON frame only —
                           ///< HTTP probes must not see a stray JSON line)
  /// Sessions opened by this connection; closed with it on disconnect.
  std::unordered_set<std::uint64_t> sessions;
  bool http = false;       ///< HTTP mode: first line consumed, rest ignored
  bool close_after_flush = false;
  bool half_closed = false;  ///< SHUT_WR sent, waiting for the peer's EOF
  bool dead = false;         ///< closed; reaped at the end of the iteration
};

}  // namespace detail

using detail::Connection;
using detail::Inflight;
using detail::Sink;

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool is_rejection(const api::SolveResult& result) {
  return result.status == api::SolveStatus::Cancelled &&
         result.error.rfind("rejected:", 0) == 0;
}

/// The progress callback of one wire request. It runs on service worker
/// threads (and, for Queued, on the loop thread inside submit): it
/// serializes the frame outside the sink lock, drops it when the
/// connection is gone or the request was escalated to a timeout, and wakes
/// the poll loop.
api::ProgressFn progress_callback(std::shared_ptr<Sink> sink, std::string id,
                                  bool want_progress, bool want_schedule,
                                  bool degraded) {
  return [sink = std::move(sink), id = std::move(id), want_progress,
          want_schedule, degraded](const api::ProgressEvent& event) {
    const bool terminal = event.kind == api::ProgressKind::Finished;
    if (!terminal && !want_progress) return;
    std::string frame_text =
        terminal && event.result != nullptr && is_rejection(*event.result)
            ? error_frame("rejected", event.result->error, &id)
            : event_frame(id, event, want_schedule, degraded);
    int wake_fd = -1;
    {
      std::lock_guard<std::mutex> lock(sink->mutex);
      if (!sink->alive) return;
      const auto suppressed = sink->suppressed.find(event.request_id);
      if (suppressed != sink->suppressed.end()) {
        // Escalated: the "timeout" error was this request's terminal
        // frame. Late events are dropped; the Finished one retires the
        // suppression.
        if (terminal) sink->suppressed.erase(suppressed);
        return;
      }
      sink->frames.push_back(std::move(frame_text));
      if (terminal) sink->finished.push_back(id);
      wake_fd = sink->wake_fd;
    }
    if (wake_fd != -1) {
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
    }
  };
}

/// Error code for an exception out of a service_ call that starts a
/// request: an unregistered solver name, any other invalid request, or
/// the service refusing work because it is shutting down.
const char* service_error_code(const std::exception& error) {
  if (dynamic_cast<const std::invalid_argument*>(&error) == nullptr) {
    return "draining";
  }
  return std::string(error.what()).find("solver") != std::string::npos
             ? "unknown_solver"
             : "bad_request";
}

/// The "request" payload of a submit/open_session frame; throws on a
/// missing or malformed one.
api::SolveRequest request_field(const util::Json& frame,
                                const std::string& type) {
  const util::Json* value = frame.find("request");
  if (value == nullptr) {
    throw std::runtime_error(type + " requires a \"request\"");
  }
  return api::solve_request_from_json(*value);
}

/// The positive "session" id of a close/resume frame; throws on a missing
/// or malformed one.
std::uint64_t session_field(const util::Json& frame, const std::string& type) {
  const util::Json* value = frame.find("session");
  if (value == nullptr) {
    throw std::runtime_error(type + " requires a \"session\"");
  }
  const long long raw = value->as_int();
  if (raw <= 0) throw std::runtime_error("session must be a positive id");
  return static_cast<std::uint64_t>(raw);
}

/// First whitespace-separated token after the method of an HTTP request
/// line ("GET /metrics HTTP/1.0" → "/metrics").
std::string http_target(const std::string& line) {
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string::npos) return "";
  const std::size_t target_start =
      line.find_first_not_of(' ', method_end + 1);
  if (target_start == std::string::npos) return "";
  return line.substr(target_start,
                     line.find(' ', target_start) - target_start);
}

}  // namespace

SchedServer::SchedServer(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {
  recovering_.store(config_.start_recovering, std::memory_order_release);
}

void SchedServer::set_ready() {
  recovering_.store(false, std::memory_order_release);
  wake();
}

void SchedServer::adopt_orphans(const std::vector<std::uint64_t>& sessions) {
  {
    std::lock_guard<std::mutex> lock(adopted_mutex_);
    adopted_orphans_.insert(adopted_orphans_.end(), sessions.begin(),
                            sessions.end());
  }
  count(&ServerCounters::sessions_orphaned, sessions.size());
  wake();
}

SchedServer::~SchedServer() {
  stop();
  wait();
  if (listen_fd_ != -1) ::close(listen_fd_);  // start() threw / never ran
  if (wake_read_fd_ != -1) ::close(wake_read_fd_);
  if (wake_write_fd_ != -1) ::close(wake_write_fd_);
}

void SchedServer::start() {
  if (loop_thread_.joinable()) {
    throw std::logic_error("SchedServer: already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad bind address \"" + config_.bind_address +
                             "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 256) != 0) {
    const std::string message =
        std::string("bind ") + config_.bind_address + ":" +
        std::to_string(config_.port) + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(message);
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_size);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  int wake_fds[2];
  if (::pipe(wake_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = wake_fds[0];
  wake_write_fd_ = wake_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  loop_thread_ = std::thread([this] { loop(); });
}

void SchedServer::request_drain() {
  drain_.store(true, std::memory_order_relaxed);
  wake();
}

void SchedServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void SchedServer::wait() {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

ServerCounters SchedServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void SchedServer::wake() {
  if (wake_write_fd_ == -1) return;
  const char byte = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void SchedServer::loop() {
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> cancel_at;  ///< drain grace expiry
  std::optional<Clock::time_point> force_close_at;
  bool drain_cancelled = false;
  std::vector<pollfd> pollfds;
  std::vector<Connection*> polled;

  for (;;) {
    const bool stopping = stop_.load(std::memory_order_relaxed);
    const bool draining =
        stopping || drain_.load(std::memory_order_relaxed);
    if (draining && listen_fd_ != -1) {
      // Adopt the kernel accept queue before the listener closes: those
      // peers completed their handshake pre-drain, and closing the
      // listener would RST them — including a health probe whose GET is
      // in flight. Accepted here, they land in the not-yet-spoken spare
      // of the drain sweep below and get their 503 (force_close_at
      // bounds ones that never speak).
      accept_ready();
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining && !cancel_at.has_value()) {
      const auto now = Clock::now();
      cancel_at = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                config_.drain_grace_seconds));
      // Clients that never read their Finished events must not pin the
      // drain forever; past this everything force-closes.
      force_close_at =
          *cancel_at + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(5.0));
    }
    if ((stopping || (draining && Clock::now() >= *cancel_at)) &&
        !drain_cancelled) {
      for (const auto& connection : connections_) {
        for (auto& [id, entry] : connection->inflight) entry.handle.cancel();
      }
      drain_cancelled = true;
    }

    // Orphaned sessions: close the expired ones; a drain closes them all
    // immediately (nobody may resume into a draining server).
    sweep_orphans(/*close_all=*/draining);

    for (const auto& connection : connections_) {
      if (!connection->dead) pump_sink(*connection);
    }
    if (config_.request_budget_seconds > 0.0) escalate_stuck();
    if (stopping) break;
    for (const auto& connection : connections_) {
      if (!connection->dead) flush(*connection);
    }
    if (draining) {
      const bool force = Clock::now() >= *force_close_at;
      for (const auto& connection : connections_) {
        if (connection->dead) continue;
        if (force) {
          close_connection(*connection);
          continue;
        }
        // Retire idle connections through the half-close path: an abrupt
        // close would RST a client whose submit bytes are still in flight
        // and could discard frames it has not read yet. After SHUT_WR the
        // peer reads everything plus EOF and closes; its EOF fully closes
        // the connection (force_close_at bounds peers that never do).
        // Connections that have not spoken yet are spared: they may be
        // health probes whose `GET /healthz` is still in flight, and the
        // half-close would discard the request before the 503 could answer
        // it. force_close_at bounds them too.
        const bool flushed =
            connection->out_offset >= connection->out.size();
        if ((connection->saw_frame || connection->http) &&
            connection->inflight.empty() && flushed &&
            !connection->close_after_flush) {
          connection->close_after_flush = true;
          flush(*connection);  // out is empty: half-closes immediately
        }
      }
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const auto& c) { return c->dead; }),
        connections_.end());
    if (draining && connections_.empty()) break;

    pollfds.clear();
    polled.clear();
    pollfds.push_back({wake_read_fd_, POLLIN, 0});
    if (listen_fd_ != -1) pollfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& connection : connections_) {
      short events = POLLIN;
      if (connection->out_offset < connection->out.size()) {
        events |= POLLOUT;
      }
      pollfds.push_back({connection->fd, events, 0});
      polled.push_back(connection.get());
    }
    int timeout_ms = draining ? 50 : -1;
    // Orphan expiry needs a heartbeat: an orphan's old connection is gone,
    // so no socket event will ever fire for it.
    if (timeout_ms < 0 && !orphaned_sessions_.empty()) timeout_ms = 50;
    if (timeout_ms < 0 && config_.request_budget_seconds > 0.0) {
      // Budget escalation needs a heartbeat even when no socket stirs:
      // a stuck solver produces no events to wake the loop with.
      for (const auto& connection : connections_) {
        if (!connection->dead && !connection->inflight.empty()) {
          timeout_ms = 50;
          break;
        }
      }
    }
    const int ready = ::poll(pollfds.data(), pollfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable; exit loop
    if (ready <= 0) continue;

    std::size_t index = 0;
    if (pollfds[index].revents & POLLIN) {
      char buffer[256];
      while (::read(wake_read_fd_, buffer, sizeof(buffer)) > 0) {
      }
    }
    ++index;
    if (listen_fd_ != -1) {
      if (pollfds[index].revents & (POLLIN | POLLERR)) accept_ready();
      ++index;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Connection& connection = *polled[i];
      const short revents = pollfds[index + i].revents;
      if (connection.dead || revents == 0) continue;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        read_ready(connection);
      }
      if (!connection.dead && (revents & POLLOUT)) flush(connection);
    }
  }

  // Exit: cancel whatever is still attached, kill every sink so late
  // worker-thread events are dropped, and wait for the service to go idle
  // — after that no progress callback can fire, so the wake pipe can be
  // closed safely by the destructor.
  for (const auto& connection : connections_) {
    if (!connection->dead) {
      close_connection(*connection, /*count_orphans=*/false);
    }
  }
  connections_.clear();
  sweep_orphans(/*close_all=*/true);
  if (listen_fd_ != -1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  service_.wait_idle();
}

/// Budget watchdog (loop thread): a request still unresolved past its
/// escalation instant gets a terminal "timeout" error frame; the solve is
/// cancelled and its late result suppressed at the sink, so the client
/// sees exactly one terminal frame per request.
void SchedServer::escalate_stuck() {
  const auto now = std::chrono::steady_clock::now();
  for (const auto& connection : connections_) {
    if (connection->dead) continue;
    for (auto it = connection->inflight.begin();
         it != connection->inflight.end();) {
      if (!it->second.escalate_at.has_value() ||
          now < *it->second.escalate_at) {
        ++it;
        continue;
      }
      const std::string& id = it->first;
      // The terminal frame may already be queued on the sink (pushed after
      // this iteration's pump): then the request DID resolve and the pump
      // will retire the entry — escalating too would send two terminal
      // frames. The check and the suppression insert share the sink mutex
      // with the callback's push, so there is no window between them.
      bool already_finished = false;
      {
        std::lock_guard<std::mutex> lock(connection->sink->mutex);
        already_finished =
            std::find(connection->sink->finished.begin(),
                      connection->sink->finished.end(),
                      id) != connection->sink->finished.end();
        if (!already_finished) {
          connection->sink->suppressed.insert(it->second.handle.id());
        }
      }
      if (already_finished) {
        ++it;
        continue;
      }
      it->second.handle.cancel();
      send_frame(*connection,
                 error_frame("timeout",
                             "request exceeded its " +
                                 std::to_string(
                                     config_.request_budget_seconds) +
                                 "s budget",
                             &id));
      count(&ServerCounters::request_timeouts);
      it = connection->inflight.erase(it);
    }
  }
}

void SchedServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error; poll again
    }
    // Injected accept failure: the connection is dropped before setup, as
    // if the kernel ran out of descriptors mid-accept.
    if (BAGSCHED_FAULT("net.server.accept")) {
      ::close(fd);
      continue;
    }
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection =
        std::make_unique<Connection>(config_.max_frame_bytes);
    connection->fd = fd;
    connection->sink = std::make_shared<Sink>();
    connection->sink->wake_fd = wake_write_fd_;
    count(&ServerCounters::connections_accepted);
    count(&ServerCounters::connections_active);
    connections_.push_back(std::move(connection));
  }
}

void SchedServer::read_ready(Connection& connection) {
  // Injected read error: the connection drops as if recv returned
  // ECONNRESET; in-flight solves are cancelled via close_connection.
  if (BAGSCHED_FAULT("net.server.read")) {
    close_connection(connection);
    return;
  }
  char buffer[16384];
  for (;;) {
    // Injected short read: bytes trickle in one at a time, stressing the
    // framing reassembly without violating the protocol.
    const std::size_t cap =
        BAGSCHED_FAULT("net.server.read.short") ? 1 : sizeof(buffer);
    const ssize_t n = ::recv(connection.fd, buffer, cap, 0);
    if (n > 0) {
      count(&ServerCounters::bytes_in, static_cast<std::uint64_t>(n));
      connection.framer.feed(buffer, static_cast<std::size_t>(n));
      while (!connection.dead && !connection.close_after_flush) {
        const auto line = connection.framer.next();
        if (!line.has_value()) break;
        if (line->empty()) continue;
        handle_line(connection, *line);
      }
      if (!connection.dead && connection.framer.overflowed() &&
          !connection.close_after_flush) {
        count(&ServerCounters::oversized_frames);
        send_frame(connection,
                   error_frame("oversized_frame",
                               "frame exceeds " +
                                   std::to_string(config_.max_frame_bytes) +
                                   " bytes; closing"));
        connection.close_after_flush = true;
      }
      continue;
    }
    if (n == 0) {
      close_connection(connection);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(connection);
    return;
  }
  if (!connection.dead) flush(connection);
}

void SchedServer::flush(Connection& connection) {
  // Injected write error: the peer is treated as gone (EPIPE).
  if (connection.out_offset < connection.out.size() &&
      BAGSCHED_FAULT("net.server.write")) {
    close_connection(connection);
    return;
  }
  while (connection.out_offset < connection.out.size()) {
    // Injected short write: one byte leaves per send, forcing the partial-
    // write resume path that out_offset exists for.
    const std::size_t cap = BAGSCHED_FAULT("net.server.write.short")
                                ? 1
                                : connection.out.size() -
                                      connection.out_offset;
    const ssize_t n = ::send(
        connection.fd, connection.out.data() + connection.out_offset,
        cap, MSG_NOSIGNAL);
    if (n > 0) {
      connection.out_offset += static_cast<std::size_t>(n);
      count(&ServerCounters::bytes_out, static_cast<std::uint64_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(connection);
    return;
  }
  if (connection.out_offset >= connection.out.size()) {
    connection.out.clear();
    connection.out_offset = 0;
    if (connection.close_after_flush && !connection.half_closed) {
      // Half-close so the peer reads everything we sent; the connection
      // fully closes when its EOF arrives (or at drain force-close).
      ::shutdown(connection.fd, SHUT_WR);
      connection.half_closed = true;
    }
  } else if (connection.out_offset > connection.out.size() / 2) {
    connection.out.erase(0, connection.out_offset);
    connection.out_offset = 0;
  }
}

void SchedServer::pump_sink(Connection& connection) {
  std::vector<std::string> frames;
  std::vector<std::string> finished;
  {
    std::lock_guard<std::mutex> lock(connection.sink->mutex);
    frames.swap(connection.sink->frames);
    finished.swap(connection.sink->finished);
  }
  for (auto& frame : frames) {
    connection.out += frame;
    connection.out += '\n';
  }
  if (!frames.empty()) count(&ServerCounters::frames_out, frames.size());
  for (const auto& id : finished) connection.inflight.erase(id);
  if (connection.out.size() - connection.out_offset >
      config_.max_output_bytes) {
    count(&ServerCounters::slow_client_disconnects);
    close_connection(connection);
  }
}

/// Close orphaned sessions whose linger expired — or all of them when the
/// loop is draining or exiting. Loop thread only.
void SchedServer::sweep_orphans(bool close_all) {
  {
    std::lock_guard<std::mutex> lock(adopted_mutex_);
    if (!adopted_orphans_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      for (const std::uint64_t session : adopted_orphans_) {
        orphaned_sessions_.emplace(session, now);
      }
      adopted_orphans_.clear();
    }
  }
  if (orphaned_sessions_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto linger =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.session_linger_seconds));
  std::size_t expired = 0;
  for (auto it = orphaned_sessions_.begin();
       it != orphaned_sessions_.end();) {
    if (close_all || now - it->second >= linger) {
      service_.close_session(it->first);
      ++expired;
      it = orphaned_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  if (expired > 0) count(&ServerCounters::orphans_expired, expired);
}

void SchedServer::close_connection(Connection& connection,
                                   bool count_orphans) {
  if (connection.dead) return;
  {
    std::lock_guard<std::mutex> lock(connection.sink->mutex);
    connection.sink->alive = false;
    connection.sink->wake_fd = -1;
    connection.sink->frames.clear();
    connection.sink->finished.clear();
  }
  std::size_t orphans = 0;
  for (auto& [id, entry] : connection.inflight) {
    entry.handle.cancel();
    ++orphans;
  }
  connection.inflight.clear();
  // Sessions: without a linger they are connection-scoped and die here,
  // the pre-v3 behaviour. With one, a live server parks them as orphans so
  // the client can reconnect and resume_session inside the window; a
  // draining server closes them anyway (resumes are refused while
  // draining, so parking would only delay the exit).
  const bool park = config_.session_linger_seconds > 0.0 && !draining();
  std::size_t parked = 0;
  if (park && !connection.sessions.empty()) {
    const auto now = std::chrono::steady_clock::now();
    for (const std::uint64_t session : connection.sessions) {
      orphaned_sessions_.emplace(session, now);
      ++parked;
    }
  } else {
    for (const std::uint64_t session : connection.sessions) {
      service_.close_session(session);
    }
  }
  connection.sessions.clear();
  ::close(connection.fd);
  connection.fd = -1;
  connection.dead = true;
  std::lock_guard<std::mutex> lock(counters_mutex_);
  if (count_orphans) counters_.disconnect_cancels += orphans;
  counters_.sessions_orphaned += parked;
  --counters_.connections_active;
}

void SchedServer::send_frame(Connection& connection, std::string frame) {
  connection.out += frame;
  connection.out += '\n';
  count(&ServerCounters::frames_out);
}

void SchedServer::count(std::uint64_t ServerCounters::*counter,
                        std::uint64_t n) {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  counters_.*counter += n;
}

void SchedServer::handle_line(Connection& connection,
                              const std::string& line) {
  if (connection.http) return;  // ignore trailing HTTP header lines
  if (!connection.saw_frame &&
      (line.rfind("GET ", 0) == 0 || line.rfind("HEAD ", 0) == 0 ||
       line.rfind("POST ", 0) == 0)) {
    handle_http(connection, line);
    return;
  }
  count(&ServerCounters::frames_in);
  connection.saw_frame = true;
  // Greeting: sent once per NDJSON connection, before the first frame's
  // response. Deferred to here (not accept time) so HTTP probes on the
  // same port never see a stray JSON line ahead of their response.
  if (!connection.greeted) {
    connection.greeted = true;
    send_frame(connection, hello_frame());
  }
  util::Json frame;
  try {
    frame = util::Json::parse(line);
  } catch (const std::exception& error) {
    count(&ServerCounters::parse_errors);
    send_frame(connection, error_frame("parse_error", error.what()));
    return;
  }
  if (!frame.is_object()) {
    send_frame(connection,
               error_frame("bad_request", "frame must be a JSON object"));
    return;
  }
  // Version gate (DESIGN.md §5): a frame from the future is rejected with
  // a structured error instead of being half-understood. Undeclared or
  // older versions process normally — the v2 additions are additive.
  if (const util::Json* version = frame.find("proto_version")) {
    long long declared = -1;
    try {
      declared = version->as_int();
    } catch (const std::exception&) {
      send_frame(connection,
                 error_frame("bad_request",
                             "proto_version must be an integer"));
      return;
    }
    if (declared > kProtoVersion) {
      count(&ServerCounters::version_rejects);
      send_frame(connection,
                 error_frame("unsupported_version",
                             "frame declares proto_version " +
                                 std::to_string(declared) +
                                 " but this server speaks " +
                                 std::to_string(kProtoVersion)));
      return;
    }
  }
  const std::string type = frame.string_or("type", "");
  // Recovering gate: while the journal replays, only ping and stats are
  // served — everything else would race the session restoration. The error
  // is structured so clients can tell "retry shortly" from a real refusal.
  if (recovering() && type != "ping" && type != "stats") {
    std::string id;
    if (const util::Json* id_value = frame.find("id")) {
      try {
        id = client_id_text(*id_value);
      } catch (const std::exception&) {
      }
    }
    count(&ServerCounters::recovering_rejects);
    send_frame(connection,
               error_frame("recovering",
                           "server is replaying its journal; retry shortly",
                           id.empty() ? nullptr : &id));
    return;
  }
  if (type == "submit") {
    handle_submit(connection, frame);
  } else if (type == "cancel") {
    handle_cancel(connection, frame);
  } else if (type == "open_session") {
    handle_open_session(connection, frame);
  } else if (type == "delta") {
    handle_delta(connection, frame);
  } else if (type == "close_session") {
    handle_close_session(connection, frame);
  } else if (type == "resume_session") {
    handle_resume_session(connection, frame);
  } else if (type == "stats") {
    send_frame(connection, stats_frame(service_.stats(),
                                       service_.cache_stats(), counters()));
  } else if (type == "ping") {
    send_frame(connection, pong_frame());
  } else {
    send_frame(connection,
               error_frame("bad_request",
                           "unknown frame type \"" + type + "\""));
  }
}

void SchedServer::handle_http(Connection& connection,
                              const std::string& line) {
  connection.http = true;
  connection.close_after_flush = true;
  const std::string target = http_target(line);
  std::string response;
  if (line.rfind("GET ", 0) != 0) {
    response = http_response(400, "text/plain",
                             "only GET is supported on this port\n");
  } else if (target == "/metrics") {
    count(&ServerCounters::metrics_requests);
    std::optional<persist::JournalStats> journal;
    if (config_.service.journal != nullptr) {
      journal = config_.service.journal->stats();
    }
    response = http_response(
        200, "text/plain; version=0.0.4",
        prometheus_text(service_.stats(), service_.cache_stats(), counters(),
                        journal.has_value() ? &*journal : nullptr));
  } else if (target == "/healthz") {
    // Liveness + readiness on the serving port itself: a response at all
    // means the event loop is alive; 200 means submits are accepted, 503
    // that the server is draining (stop routing here) or still recovering
    // (journal replay; route back once the body flips to "ok").
    count(&ServerCounters::healthz_requests);
    response = recovering()
                   ? http_response(503, "text/plain", "recovering\n")
               : draining()
                   ? http_response(503, "text/plain", "draining\n")
                   : http_response(200, "text/plain", "ok\n");
  } else {
    response = http_response(404, "text/plain",
                             "unknown path; try /metrics or /healthz\n");
  }
  connection.out += response;
  flush(connection);
}

std::optional<std::string> SchedServer::admit(Connection& connection,
                                              const util::Json& frame,
                                              const std::string& type,
                                              const char* refusal) {
  std::string id;
  try {
    const util::Json* id_value = frame.find("id");
    if (id_value == nullptr) {
      throw std::runtime_error(type + " requires an \"id\"");
    }
    id = client_id_text(*id_value);
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what()));
    return std::nullopt;
  }
  if (refusal == nullptr) return id;
  if (connection.inflight.count(id) != 0) {
    send_frame(connection,
               error_frame("duplicate_id",
                           "id \"" + id +
                               "\" is already in flight on this connection",
                           &id));
    return std::nullopt;
  }
  if (draining()) {
    send_frame(connection,
               error_frame("draining",
                           std::string("server is draining and ") + refusal,
                           &id));
    return std::nullopt;
  }
  return id;
}

void SchedServer::handle_submit(Connection& connection,
                                const util::Json& frame) {
  const std::optional<std::string> admitted =
      admit(connection, frame, "submit", "accepts no new submits");
  if (!admitted.has_value()) return;
  const std::string& id = *admitted;
  api::SolveRequest request;
  try {
    request = request_field(frame, "submit");
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what(), &id));
    return;
  }

  // Overload brown-out: with the queue-wait EWMA past the threshold, a
  // full solve would only deepen the backlog. Degrade to the cheap bag-LPT
  // heuristic — an answer now beats a better answer after the queue melts
  // — and flag every frame of this request "degraded" on the wire.
  bool degraded = false;
  if (config_.brownout_queue_latency_seconds > 0.0 &&
      service_.stats().queue_wait_ewma_seconds >
          config_.brownout_queue_latency_seconds) {
    request.solvers = {"bag-lpt"};
    degraded = true;
    count(&ServerCounters::brownouts);
  }

  // Per-request budget: clamp the deadline so the service watchdog cancels
  // cooperatively at the budget; escalate_stuck() handles solvers that
  // ignore the cancel past the extra grace.
  std::optional<std::chrono::steady_clock::time_point> escalate_at;
  if (config_.request_budget_seconds > 0.0) {
    const auto budget_deadline =
        api::deadline_in(config_.request_budget_seconds);
    if (!request.deadline.has_value() ||
        *request.deadline > budget_deadline) {
      request.deadline = budget_deadline;
    }
    escalate_at =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.request_budget_seconds +
                                          config_.stuck_grace_seconds));
  }

  request.on_progress = progress_callback(
      connection.sink, id, frame.bool_or("progress", false),
      frame.bool_or("schedule", true), degraded);
  try {
    api::SolveHandle handle = service_.submit(std::move(request));
    // A backpressure rejection resolved synchronously inside submit(): its
    // terminal frame and finished-id are already queued on the sink, and
    // the pump after this dispatch erases the entry again.
    connection.inflight.emplace(id, Inflight{std::move(handle), escalate_at});
    count(&ServerCounters::submits);
  } catch (const std::exception& error) {
    send_frame(connection,
               error_frame(service_error_code(error), error.what(), &id));
  }
  pump_sink(connection);
}

void SchedServer::handle_cancel(Connection& connection,
                                const util::Json& frame) {
  const std::optional<std::string> id =
      admit(connection, frame, "cancel", nullptr);
  if (!id.has_value()) return;
  const auto it = connection.inflight.find(*id);
  if (it == connection.inflight.end()) {
    send_frame(connection,
               error_frame("unknown_id",
                           "id \"" + *id + "\" is not in flight", &*id));
    return;
  }
  it->second.handle.cancel();
  count(&ServerCounters::cancels);
  send_frame(connection, ok_frame("cancel", *id));
}

void SchedServer::handle_open_session(Connection& connection,
                                      const util::Json& frame) {
  const std::optional<std::string> admitted =
      admit(connection, frame, "open_session", "opens no new sessions");
  if (!admitted.has_value()) return;
  const std::string& id = *admitted;
  api::SolveRequest request;
  online::SessionOptions tuning;
  try {
    request = request_field(frame, "open_session");
    if (const util::Json* regret = frame.find("regret_bound")) {
      tuning.regret_bound = regret->as_number();
      if (!(tuning.regret_bound >= 0.0)) {
        throw std::runtime_error("regret_bound must be >= 0");
      }
    }
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what(), &id));
    return;
  }
  request.on_progress = progress_callback(
      connection.sink, id, frame.bool_or("progress", false),
      frame.bool_or("schedule", true), /*degraded=*/false);
  try {
    api::SchedulingService::SessionOpening opening =
        service_.open_session(std::move(request), std::move(tuning));
    // The ok frame (with the assigned session id and its epoch token)
    // precedes every event of the initial solve: it goes straight to the
    // outbound buffer while the events wait on the sink until the pump
    // below.
    send_frame(connection, session_ok_frame("open_session", id,
                                            opening.session, opening.epoch,
                                            /*revision=*/0));
    connection.sessions.insert(opening.session);
    // Session ops ignore cancellation tokens, so no timeout escalation.
    connection.inflight.emplace(
        id, Inflight{std::move(opening.initial), std::nullopt});
    count(&ServerCounters::session_opens);
  } catch (const std::exception& error) {
    send_frame(connection,
               error_frame(service_error_code(error), error.what(), &id));
  }
  pump_sink(connection);
}

void SchedServer::handle_delta(Connection& connection,
                               const util::Json& frame) {
  const std::optional<std::string> admitted =
      admit(connection, frame, "delta", "accepts no new deltas");
  if (!admitted.has_value()) return;
  const std::string& id = *admitted;
  api::DeltaRequest request;
  try {
    request = api::delta_request_from_json(frame);
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what(), &id));
    return;
  }
  // Ownership check: a connection may only mutate sessions it opened. This
  // also catches ids from closed connections, whose sessions died with them.
  if (connection.sessions.count(request.session) == 0) {
    send_frame(connection,
               error_frame("unknown_session",
                           "session " + std::to_string(request.session) +
                               " is not open on this connection",
                           &id));
    return;
  }
  request.on_progress = progress_callback(
      connection.sink, id, frame.bool_or("progress", false),
      frame.bool_or("schedule", true), /*degraded=*/false);
  try {
    api::SolveHandle handle = service_.submit(std::move(request));
    connection.inflight.emplace(id,
                                Inflight{std::move(handle), std::nullopt});
    count(&ServerCounters::session_deltas);
  } catch (const std::exception& error) {
    send_frame(connection,
               error_frame(service_error_code(error), error.what(), &id));
  }
  pump_sink(connection);
}

void SchedServer::handle_close_session(Connection& connection,
                                       const util::Json& frame) {
  const std::optional<std::string> admitted =
      admit(connection, frame, "close_session", nullptr);
  if (!admitted.has_value()) return;
  const std::string& id = *admitted;
  std::uint64_t session = 0;
  try {
    session = session_field(frame, "close_session");
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what(), &id));
    return;
  }
  if (connection.sessions.erase(session) == 0) {
    send_frame(connection,
               error_frame("unknown_session",
                           "session " + std::to_string(session) +
                               " is not open on this connection",
                           &id));
    return;
  }
  service_.close_session(session);
  count(&ServerCounters::session_closes);
  send_frame(connection, ok_frame("close_session", id, session));
}

void SchedServer::handle_resume_session(Connection& connection,
                                        const util::Json& frame) {
  const std::optional<std::string> admitted =
      admit(connection, frame, "resume_session", nullptr);
  if (!admitted.has_value()) return;
  const std::string& id = *admitted;
  std::uint64_t session = 0;
  std::uint64_t epoch = 0;
  try {
    session = session_field(frame, "resume_session");
    const util::Json* epoch_value = frame.find("epoch");
    if (epoch_value == nullptr) {
      throw std::runtime_error("resume_session requires an \"epoch\"");
    }
    // The token is issued as a decimal string (a u64 does not survive a
    // JSON double) but an integer is accepted for hand-written frames.
    if (epoch_value->is_string()) {
      std::size_t consumed = 0;
      epoch = std::stoull(epoch_value->as_string(), &consumed);
      if (consumed != epoch_value->as_string().size()) {
        throw std::runtime_error("epoch must be a decimal string");
      }
    } else {
      epoch = static_cast<std::uint64_t>(epoch_value->as_int());
    }
  } catch (const std::exception& error) {
    send_frame(connection, error_frame("bad_request", error.what(), &id));
    return;
  }
  const auto reject = [&](const char* code, const std::string& message) {
    count(&ServerCounters::resume_rejects);
    send_frame(connection, error_frame(code, message, &id));
  };
  if (draining()) {
    reject("draining", "server is draining and resumes no sessions");
    return;
  }
  const std::optional<api::SchedulingService::SessionInfo> info =
      service_.session_info(session);
  if (!info.has_value()) {
    reject("unknown_session", "session " + std::to_string(session) +
                                  " is not open on this server");
    return;
  }
  if (info->epoch != epoch) {
    // A matching id with a foreign epoch means a different lineage (the
    // journal was wiped and the id reissued) — resuming would silently
    // splice two unrelated sessions together.
    reject("stale_epoch", "epoch token does not match session " +
                              std::to_string(session));
    return;
  }
  if (connection.sessions.count(session) != 0) {
    // Already bound here: a resend of a resume whose ok was lost in
    // flight. Re-acknowledge instead of erroring so retries are safe.
    send_frame(connection,
               session_ok_frame("resume_session", id, session, info->epoch,
                                info->revision, info->digest));
    return;
  }
  for (const auto& other : connections_) {
    if (other.get() != &connection && !other->dead &&
        other->sessions.count(session) != 0) {
      reject("session_owned", "session " + std::to_string(session) +
                                  " is bound to another live connection");
      return;
    }
  }
  orphaned_sessions_.erase(session);
  connection.sessions.insert(session);
  count(&ServerCounters::session_resumes);
  send_frame(connection,
             session_ok_frame("resume_session", id, session, info->epoch,
                              info->revision, info->digest));
}

}  // namespace bagsched::net
