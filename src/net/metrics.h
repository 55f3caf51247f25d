// Stats export for sched_server: the stats frame and the Prometheus text
// exposition served at /metrics.
//
// Both walk one field list per stats struct (ServiceStats, CacheStats,
// ServerCounters and, when sched_server journals, persist::JournalStats),
// so a field added there shows up on the wire and in the scrape at once.
// sched_server answers `GET /metrics` on its NDJSON port with the
// text/plain 0.0.4 exposition format — everything a scrape needs to alert
// on load shedding, cache efficiency, slow clients and journal health.
#pragma once

#include <string>

#include "api/service.h"
#include "cache/solve_cache.h"
#include "net/protocol.h"

namespace bagsched::persist {
struct JournalStats;
}  // namespace bagsched::persist

namespace bagsched::net {

/// {"type":"stats","service":{...},"cache":{...},"server":{...}}: each
/// section holds one key per field of its stats struct.
std::string stats_frame(const api::ServiceStats& service,
                        const cache::CacheStats& cache,
                        const ServerCounters& server);

/// The full exposition document (HELP/TYPE lines included): one family
/// `bagsched_<section>_<field>` per field, with `_total` on counters.
/// `journal` (optional — sched_server passes it when --journal-dir is set)
/// adds the write-ahead journal's append/fsync/snapshot/recovery families.
std::string prometheus_text(const api::ServiceStats& service,
                            const cache::CacheStats& cache,
                            const ServerCounters& server,
                            const persist::JournalStats* journal = nullptr);

/// Minimal HTTP/1.0 response envelope (Content-Length + close).
std::string http_response(int status, const std::string& content_type,
                          const std::string& body);

}  // namespace bagsched::net
