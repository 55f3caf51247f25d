#include "net/metrics.h"

#include <cstdint>
#include <variant>
#include <vector>

#include "persist/journal.h"

namespace bagsched::net {

namespace {

constexpr bool kCounter = true;
constexpr bool kGauge = false;

/// One exported field of a stats struct: the stats frame writes it as
/// "<name>":value inside its section, /metrics as the family
/// bagsched_<section>_<name> (plus _total for a counter).
struct Field {
  const char* name;
  bool counter;
  const char* help;
  std::variant<std::uint64_t, double> value;
};

std::vector<Field> fields(const api::ServiceStats& s) {
  return {
      {"submitted", kCounter, "Requests accepted by the service queue",
       s.submitted},
      {"rejected", kCounter, "Requests shed at the max_queue_depth cap",
       s.rejected},
      {"finished", kCounter, "Accepted requests that resolved", s.finished},
      {"queue_depth", kGauge, "Requests waiting for a slot right now",
       std::uint64_t{s.queue_depth}},
      {"active", kGauge, "Requests running right now",
       std::uint64_t{s.active}},
      {"cache_hits", kCounter, "Requests served from the solve cache",
       s.cache_hits},
      {"cache_rounded_hits", kCounter,
       "Cache hits through the eps-rounded key", s.cache_rounded_hits},
      {"dedup_shared", kCounter,
       "Single-flight followers resolved from another request's solve",
       s.dedup_shared},
      {"queue_wait_ewma_seconds", kGauge,
       "EWMA of request queue wait in seconds (brown-out signal)",
       s.queue_wait_ewma_seconds},
      {"sessions_opened", kCounter, "Online schedule sessions opened",
       s.sessions_opened},
      {"sessions_closed", kCounter, "Online schedule sessions closed",
       s.sessions_closed},
      {"open_sessions", kGauge, "Online schedule sessions open right now",
       std::uint64_t{s.open_sessions}},
      {"session_deltas", kCounter,
       "Delta requests resolved by online sessions", s.session_deltas},
      {"session_repaired", kCounter,
       "Deltas settled without a full solve (noop/memo/repair/region)",
       s.session_repaired},
      {"session_fresh", kCounter,
       "Deltas that fell through to a fresh portfolio solve",
       s.session_fresh},
      {"sessions_restored", kCounter,
       "Sessions re-adopted from the journal at boot", s.sessions_restored},
      {"session_duplicates", kCounter,
       "Deltas answered from the commit cache via expect_revision",
       s.session_duplicates},
  };
}

std::vector<Field> fields(const cache::CacheStats& c) {
  return {
      {"hits", kCounter, "Solve-cache lookup hits", c.hits},
      {"misses", kCounter, "Solve-cache lookup misses", c.misses},
      {"insertions", kCounter, "Solve-cache insertions", c.insertions},
      {"evictions", kCounter, "Entries evicted to fit the byte budget",
       c.evictions},
      {"oversized", kCounter,
       "Insertions skipped because the entry alone exceeds the byte budget",
       c.oversized},
      {"entries", kGauge, "Resident cache entries", std::uint64_t{c.entries}},
      {"bytes", kGauge, "Approximate resident cache footprint in bytes",
       std::uint64_t{c.bytes}},
  };
}

std::vector<Field> fields(const ServerCounters& c) {
  return {
      {"connections_accepted", kCounter, "Client connections accepted",
       c.connections_accepted},
      {"connections_active", kGauge, "Client connections open right now",
       c.connections_active},
      {"frames_in", kCounter, "Protocol frames received", c.frames_in},
      {"frames_out", kCounter, "Protocol frames sent", c.frames_out},
      {"bytes_in", kCounter, "Bytes received from clients", c.bytes_in},
      {"bytes_out", kCounter, "Bytes sent to clients", c.bytes_out},
      {"parse_errors", kCounter, "Frames rejected by the JSON parser",
       c.parse_errors},
      {"oversized_frames", kCounter,
       "Connections closed for exceeding the frame-size cap",
       c.oversized_frames},
      {"submits", kCounter, "Submit frames admitted to the service",
       c.submits},
      {"cancels", kCounter, "Cancel frames applied to an in-flight request",
       c.cancels},
      {"metrics_requests", kCounter, "GET /metrics scrapes served",
       c.metrics_requests},
      {"disconnect_cancels", kCounter,
       "Orphaned solves cancelled after a client disconnect",
       c.disconnect_cancels},
      {"slow_client_disconnects", kCounter,
       "Clients dropped for an overfull outbound buffer",
       c.slow_client_disconnects},
      {"healthz_requests", kCounter, "GET /healthz probes served",
       c.healthz_requests},
      {"brownouts", kCounter,
       "Submits degraded to the brown-out solver under queue pressure",
       c.brownouts},
      {"request_timeouts", kCounter,
       "Requests escalated to a timeout error by the budget watchdog",
       c.request_timeouts},
      {"session_opens", kCounter,
       "open_session frames admitted to the service", c.session_opens},
      {"session_deltas", kCounter, "delta frames routed to an open session",
       c.session_deltas},
      {"session_closes", kCounter,
       "Sessions closed by close_session frames or disconnects",
       c.session_closes},
      {"version_rejects", kCounter,
       "Frames rejected for declaring a newer proto_version",
       c.version_rejects},
      {"session_resumes", kCounter, "Sessions reclaimed via resume_session",
       c.session_resumes},
      {"resume_rejects", kCounter, "resume_session frames refused",
       c.resume_rejects},
      {"sessions_orphaned", kCounter,
       "Sessions parked in the linger window after a disconnect",
       c.sessions_orphaned},
      {"orphans_expired", kCounter,
       "Orphaned sessions closed because nobody resumed them",
       c.orphans_expired},
      {"recovering_rejects", kCounter,
       "Frames refused while the journal replayed", c.recovering_rejects},
  };
}

std::vector<Field> fields(const persist::JournalStats& j) {
  return {
      {"records_appended", kCounter,
       "Records appended to the write-ahead journal", j.records_appended},
      {"bytes_appended", kCounter, "Payload bytes appended to the journal",
       j.bytes_appended},
      {"fsyncs", kCounter, "fsync calls issued by the journal", j.fsyncs},
      {"snapshots", kCounter, "Snapshot compactions completed", j.snapshots},
      {"snapshot_failures", kCounter,
       "Snapshot compactions abandoned (old journal kept)",
       j.snapshot_failures},
      {"records_replayed", kCounter,
       "Records replayed from the journal at boot", j.records_replayed},
      {"sessions_recovered", kCounter,
       "Sessions reconstructed from the journal at boot",
       j.sessions_recovered},
      {"truncated_bytes", kCounter,
       "Torn-tail bytes truncated at journal open", j.truncated_bytes},
      {"live_sessions", kGauge, "Sessions the journal currently tracks",
       j.live_sessions},
      {"bytes", kGauge, "Journal file size in bytes", j.journal_bytes},
  };
}

util::Json section_json(const std::vector<Field>& section) {
  util::Json json = util::Json::object();
  for (const Field& field : section) {
    std::visit([&](auto value) { json.set(field.name, value); }, field.value);
  }
  return json;
}

void write_families(std::string& out, const char* section,
                    const std::vector<Field>& families) {
  for (const Field& field : families) {
    std::string name = std::string("bagsched_") + section + '_' + field.name;
    if (field.counter) name += "_total";
    out += "# HELP " + name + ' ' + field.help + "\n# TYPE " + name +
           (field.counter ? " counter\n" : " gauge\n") + name + ' ';
    out += std::visit([](auto value) { return std::to_string(value); },
                      field.value);
    out += '\n';
  }
}

}  // namespace

std::string stats_frame(const api::ServiceStats& service,
                        const cache::CacheStats& cache,
                        const ServerCounters& server) {
  util::Json frame = util::Json::object();
  frame.set("type", "stats");
  frame.set("service", section_json(fields(service)));
  frame.set("cache", section_json(fields(cache)));
  frame.set("server", section_json(fields(server)));
  return frame.dump();
}

std::string prometheus_text(const api::ServiceStats& service,
                            const cache::CacheStats& cache,
                            const ServerCounters& server,
                            const persist::JournalStats* journal) {
  std::string out;
  out.reserve(8192);
  write_families(out, "service", fields(service));
  write_families(out, "cache", fields(cache));
  write_families(out, "server", fields(server));
  if (journal != nullptr) write_families(out, "journal", fields(*journal));
  return out;
}

std::string http_response(int status, const std::string& content_type,
                          const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 503 ? "Service Unavailable"
                                       : "Bad Request";
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace bagsched::net
