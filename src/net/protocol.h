// Wire-protocol frame schemas for sched_server (see DESIGN.md §5).
//
// Every frame is one JSON object on one line. Client → server:
//
//   {"type":"submit","id":ID,"request":{...},"progress":B,"schedule":B}
//   {"type":"open_session","id":ID,"request":{...},"schedule":B
//    [,"regret_bound":R]}                              — v2
//   {"type":"delta","id":ID,"session":S,"delta":{...},"schedule":B
//    [,"expect_revision":R]}                           — v2 (+R: v3)
//   {"type":"close_session","id":ID,"session":S}                    — v2
//   {"type":"resume_session","id":ID,"session":S,"epoch":"E"}       — v3
//   {"type":"cancel","id":ID}
//   {"type":"stats"}
//   {"type":"ping"}
//
// Server → client:
//
//   {"type":"hello","proto_version":V,"server":"bagsched"} — greeting, sent
//     once per connection before the first NDJSON response (v2+ servers)
//   {"type":"event","id":ID,"event":"queued|started|phase|incumbent|
//    finished",...}                       — streamed request lifecycle
//   {"type":"error","code":C,"message":M[,"id":ID]}   — structured errors
//   {"type":"stats","service":{...},"cache":{...},"server":{...}}
//   {"type":"ok","op":OP,"id":ID,"proto_version":V[,"session":S]
//    [,"epoch":"E","revision":R,"digest":D]}  — session fields: v3
//   {"type":"pong"}
//
// ID is client-assigned (a JSON string or integer, canonicalized to its
// text) and scopes the request on its connection: all event frames for a
// submit echo it back, so one connection can multiplex any number of
// in-flight requests. The request payload and the finished event's result
// reuse the api/serialize JSON shapes verbatim.
//
// Versioning (DESIGN.md §5): kProtoVersion is the server's protocol level.
// Any client frame may declare "proto_version"; the server rejects frames
// from the future (declared version > its own) with an
// "unsupported_version" error and processes undeclared or older versions
// as today — new response fields are additive and unknown frame types are
// skipped by v1 clients, so old clients keep working against new servers.
// Session frames require a v2 server. Up to v2, sessions were scoped to
// their connection and died with it; from v3 sessions are server-scoped:
// a disconnect orphans them for a configurable linger window, during
// which a client presenting the session's epoch token (issued verbatim —
// as a decimal string — in open_session's ok frame) can reclaim them
// with resume_session. The resume ok echoes the committed revision and
// schedule digest so the client can verify where the session is before
// continuing, and delta frames may carry expect_revision to make resent
// commits idempotent across the reconnect (see api/request.h).
#pragma once

#include <cstdint>
#include <string>

#include "api/progress.h"
#include "util/json.h"

namespace bagsched::net {

/// The protocol level this build speaks.
/// v1: submit/cancel/stats/ping. v2: hello greeting, versioned ok frames,
/// open_session/delta/close_session. v3: durable sessions —
/// resume_session, epoch tokens, expect_revision, recovering state.
inline constexpr int kProtoVersion = 3;

/// Error codes carried by {"type":"error"} frames.
///   parse_error      the line was not a JSON object
///   oversized_frame  the line exceeded the frame-size cap (connection
///                    closes: the stream cannot be resynchronized)
///   bad_request      well-formed JSON, malformed request
///   unknown_solver   a requested solver name is not registered
///   duplicate_id     the id is already in flight on this connection
///   unknown_id       cancel for an id that is not in flight
///   unknown_session  delta/close_session for a session this connection
///                    does not hold open
///   unsupported_version  the frame declared proto_version > the server's
///                    kProtoVersion; re-send without the field (or with a
///                    supported version) to proceed
///   rejected         load shed: the service's max_queue_depth is full
///   draining         the server is draining and takes no new submits
///   recovering       the server is still replaying its journal; only
///                    ping/stats are served — retry shortly (v3)
///   stale_epoch      resume_session named a live session but the epoch
///                    token does not match — the id belongs to another
///                    journal lineage (e.g. reissued after a wipe) (v3)
///   session_owned    resume_session for a session currently bound to
///                    another live connection (v3)
///   timeout          the per-request wall-clock budget expired and the
///                    stuck-solver watchdog escalated: this error IS the
///                    request's terminal frame (any late result is dropped)
/// Codes are plain strings on the wire so clients never break on new ones.
///
/// Event frames carry "degraded":true when the server's overload brown-out
/// rewrote the request to a cheap heuristic solver — the answer is valid
/// but weaker than what was asked for.

/// Connection/byte/frame gauges exported at /metrics next to the
/// ServiceStats and cache counters.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;  ///< gauge
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t oversized_frames = 0;
  std::uint64_t submits = 0;
  std::uint64_t cancels = 0;
  std::uint64_t metrics_requests = 0;
  std::uint64_t healthz_requests = 0;
  /// Orphaned solves cancelled because their client disconnected.
  std::uint64_t disconnect_cancels = 0;
  /// Clients dropped because their outbound buffer exceeded the cap.
  std::uint64_t slow_client_disconnects = 0;
  /// Submits degraded to the brown-out solver under queue-latency pressure.
  std::uint64_t brownouts = 0;
  /// Requests escalated to a "timeout" error by the per-request budget's
  /// stuck-solver watchdog.
  std::uint64_t request_timeouts = 0;
  // --- v2 ---------------------------------------------------------------
  std::uint64_t session_opens = 0;
  std::uint64_t session_deltas = 0;
  std::uint64_t session_closes = 0;
  /// Frames rejected for declaring a proto_version above the server's.
  std::uint64_t version_rejects = 0;
  // --- v3: durable sessions ---------------------------------------------
  /// Sessions successfully reclaimed via resume_session.
  std::uint64_t session_resumes = 0;
  /// resume_session frames refused (unknown_session / stale_epoch /
  /// session_owned / draining).
  std::uint64_t resume_rejects = 0;
  /// Sessions whose connection died inside the linger window (they stay
  /// open, orphaned, until resumed or expired).
  std::uint64_t sessions_orphaned = 0;
  /// Orphaned sessions closed because nobody resumed them in time.
  std::uint64_t orphans_expired = 0;
  /// Frames refused with "recovering" while the journal replayed.
  std::uint64_t recovering_rejects = 0;
};

/// Canonical text of a client-assigned id: a JSON string passes through,
/// an integer becomes its decimal text. Throws std::runtime_error on any
/// other kind (null/bool/array/object/non-integer number).
std::string client_id_text(const util::Json& id);

/// Inverse of api::to_string(api::ProgressKind); throws std::runtime_error
/// on an unknown name.
api::ProgressKind progress_kind_from_string(const std::string& name);

// --- Frame builders (compact dump, no trailing newline) --------------------

/// Event frame for one progress event. Finished events embed the full
/// result (schedule included only when `include_schedule`); `degraded`
/// marks answers produced under overload brown-out.
std::string event_frame(const std::string& id, const api::ProgressEvent& event,
                        bool include_schedule, bool degraded = false);

/// Error frame; `id` is echoed when the error concerns a specific request.
std::string error_frame(const std::string& code, const std::string& message,
                        const std::string* id = nullptr);

/// Versioned ok frame; `session` >0 adds the session id (open_session's
/// acknowledgement carries the freshly assigned id).
std::string ok_frame(const std::string& op, const std::string& id,
                     std::uint64_t session = 0);

/// Session ok frame (open_session / resume_session acknowledgement): the
/// session id, its epoch token (decimal string — full u64 range doesn't
/// survive a JSON double), the committed revision, and — when non-empty —
/// the committed schedule's digest so a resuming client can verify state.
std::string session_ok_frame(const std::string& op, const std::string& id,
                             std::uint64_t session, std::uint64_t epoch,
                             std::uint64_t revision,
                             const std::string& digest = std::string());

std::string pong_frame();

/// Connection greeting: the server's protocol version and software name.
std::string hello_frame();

}  // namespace bagsched::net
