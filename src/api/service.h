// Long-lived asynchronous scheduling service — the production entry point
// of the library.
//
//   api::SchedulingService service({.num_threads = 8});
//   auto request = api::make_request(instance, {.eps = 0.25}, {"eptas"});
//   request.deadline = api::deadline_in(0.5);
//   api::SolveHandle handle = service.submit(std::move(request));
//   ... do other work ...
//   const api::SolveResult& result = handle.wait();
//
// The service owns one shared util::ThreadPool and a priority/deadline-
// aware request queue with a configurable concurrency cap. Every request
// gets its own CancellationToken chained onto the caller's: deadline
// expiry (tracked by a watchdog thread) and SolveHandle::cancel() both
// request a cooperative stop, and the handle then resolves with
// SolveStatus::Cancelled carrying the best incumbent found before the
// stop. submit_batch() fans a vector of requests through the queue and
// returns all handles at once. Progress (Queued / Started / Phase /
// Incumbent / Finished) streams to the request's on_progress callback.
//
// Portfolio::solve is a thin client of this service, so single solves,
// portfolio races and batched service traffic all go through one
// scheduling path.
//
// Requests that opt in via SolveOptions::cache_mode additionally pass
// through a canonicalizing solve cache (src/cache): results are keyed by
// the instance's symmetry-invariant fingerprint, so a repeat of a solved
// request — even job-permuted, bag-relabeled, or (for approximation
// solvers) eps-rounded-equal — resolves from the cache without running a
// solver, and concurrent identical requests single-flight onto one
// underlying solve.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/request.h"
#include "api/solver.h"
#include "cache/solve_cache.h"
#include "online/session.h"
#include "util/thread_pool.h"

namespace bagsched::persist {
class SessionJournal;
struct RecoveredState;
}  // namespace bagsched::persist

namespace bagsched::api {

namespace detail {
struct RequestState;
struct SessionState;
}

/// Caller's view of one submitted request. Cheap to copy (shared state);
/// all methods are thread-safe. A default-constructed handle is invalid:
/// wait()/wait_for() throw std::logic_error on it, try_get() returns
/// nullopt, done() returns false and cancel() is a no-op.
class SolveHandle {
 public:
  SolveHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// Service-assigned id (1-based, unique per service); 0 when invalid.
  std::uint64_t id() const;

  /// Blocks until the request resolves; the reference stays valid for the
  /// handle's lifetime.
  const SolveResult& wait();
  /// Non-blocking: the result when resolved, std::nullopt while in flight.
  std::optional<SolveResult> try_get() const;
  /// Blocks up to `seconds`; true when the request resolved in time.
  bool wait_for(double seconds) const;
  bool done() const;

  /// Cooperative cancellation: requests a stop; the handle still resolves
  /// (with SolveStatus::Cancelled and the best incumbent, if any).
  void cancel();

 private:
  friend class SchedulingService;
  explicit SolveHandle(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::RequestState> state_;
};

struct ServiceConfig {
  /// Worker threads in the shared pool (hardware concurrency when 0).
  std::size_t num_threads = 0;
  /// Requests running concurrently; queue the rest (pool size when 0).
  std::size_t max_concurrent = 0;
  /// Pending-queue cap; submits beyond it resolve immediately with
  /// status Cancelled and error "rejected: ..." (0 = unbounded).
  std::size_t max_queue_depth = 0;
  /// Canonicalizing solve cache (shards, byte budget). Consulted only by
  /// requests whose SolveOptions::cache_mode is not Off.
  cache::CacheConfig cache;
  /// Durable session journal (persist/journal.h), not owned; nullptr = no
  /// durability. When set, every session open/commit/close is appended
  /// BEFORE its handle resolves (append-before-ack), so an acked commit
  /// survives a crash. An append failure poisons the session: the op
  /// resolves with status Error and the session closes.
  persist::SessionJournal* journal = nullptr;
};

/// One consistent snapshot: stats() captures every field under a single
/// acquisition of the service lock (all counters are updated under that
/// same lock), so exported values — e.g. the /metrics endpoint of
/// net::SchedServer — are never torn against each other: a drained
/// service always shows submitted == finished and queue_depth == active
/// == 0 in the same snapshot.
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted requests (excludes rejected)
  std::uint64_t rejected = 0;   ///< bounced off the max_queue_depth cap
  std::size_t queue_depth = 0;  ///< gauge: waiting for a slot right now
  std::size_t active = 0;       ///< gauge: in flight right now
  std::uint64_t finished = 0;   ///< accepted requests that resolved —
                                ///< submitted == finished once drained;
                                ///< rejected handles resolve too but are
                                ///< counted under rejected, not here
  std::uint64_t cache_hits = 0;  ///< requests served from the solve cache
                                 ///< (without running a solver)
  std::uint64_t cache_rounded_hits = 0;  ///< subset of cache_hits that came
                                         ///< through the eps-rounded key
  std::uint64_t dedup_shared = 0;  ///< single-flight followers resolved
                                   ///< from another request's solve
  /// Exponential moving average of queue wait (seconds), updated at every
  /// dispatch. The overload signal for net::SchedServer's brown-out mode:
  /// it rises when requests sit in the queue and decays as dispatch
  /// latency recovers, without a scrape-window dependency.
  double queue_wait_ewma_seconds = 0.0;
  // --- Online sessions (v2) ---------------------------------------------
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::size_t open_sessions = 0;     ///< gauge
  std::uint64_t session_deltas = 0;  ///< resolved delta requests
  /// Deltas settled without a full solve (noop / memo / repair / region).
  std::uint64_t session_repaired = 0;
  /// Deltas that fell through to a fresh portfolio solve.
  std::uint64_t session_fresh = 0;
  // --- Durability (v3) ---------------------------------------------------
  /// Sessions re-adopted from the journal at boot (restore_sessions).
  std::uint64_t sessions_restored = 0;
  /// Deltas answered from the previous commit via expect_revision dedupe
  /// (the commit was applied but its ack was lost).
  std::uint64_t session_duplicates = 0;
};

class SchedulingService {
 public:
  using Config = ServiceConfig;
  using Stats = ServiceStats;

  explicit SchedulingService(Config config = {});
  /// Cancels everything in flight, resolves all pending handles with
  /// status Cancelled, and joins the workers.
  ~SchedulingService();

  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  /// Validates eagerly — throws std::invalid_argument on a null instance
  /// or an unknown solver name (like SolverRegistry::resolve), and
  /// std::logic_error after shutdown began. Backpressure does NOT throw:
  /// past max_queue_depth the handle resolves immediately as rejected.
  SolveHandle submit(SolveRequest request);

  /// Fans a vector of requests through the queue atomically (they are
  /// prioritised against each other before any of them dispatches) and
  /// returns all handles at once, in request order.
  std::vector<SolveHandle> submit_batch(std::vector<SolveRequest> requests);

  // --- Online sessions (v2) ------------------------------------------------

  /// A freshly opened session: the id to address deltas to, plus the handle
  /// of the initial solve (the session's first committed schedule). The
  /// session accepts deltas immediately — they queue behind the initial
  /// solve in the session's FIFO. When the initial solve fails (infeasible
  /// instance), its handle carries the error and the session closes itself;
  /// queued deltas then resolve with "unknown session".
  struct SessionOpening {
    std::uint64_t session = 0;
    /// Resume token: proves to resume_session that a client's session id
    /// is from THIS journal lineage, not a recycled id of a later boot.
    std::uint64_t epoch = 0;
    SolveHandle initial;
  };

  /// Opens a schedule session on the request's instance. The request's
  /// options/solvers become the session's solve configuration; the repair
  /// knobs (regret bound, budgets, memo size) come from `tuning` — its
  /// solve/solvers fields are overwritten from the request. Throws like
  /// submit() on a null instance or unknown solver names.
  SessionOpening open_session(SolveRequest request,
                              online::SessionOptions tuning = {});

  /// Routes a delta to its session. Deltas are serialized per session in
  /// submit order (FIFO); the handle resolves with the repaired schedule
  /// and migration cost, status Error on an unknown/closed session, or
  /// status Infeasible when the delta makes the instance bag-infeasible
  /// (the session then keeps its previous commit and stays open).
  SolveHandle submit(DeltaRequest request);

  /// Closes a session: already-queued deltas still resolve, new ones get
  /// "unknown session". False when the id is unknown (or already closed).
  bool close_session(std::uint64_t session);

  /// What resume_session needs to validate a reconnecting client.
  struct SessionInfo {
    std::uint64_t session = 0;
    std::uint64_t epoch = 0;
    std::uint64_t revision = 0;  ///< committed revisions so far
    std::string digest;          ///< persist::schedule_digest of the commit
  };

  /// Snapshot of an OPEN session's resume-relevant state; nullopt when the
  /// id is unknown or the session is closed/failed.
  std::optional<SessionInfo> session_info(std::uint64_t session) const;

  /// Re-adopts journal-recovered sessions (boot-time, before traffic).
  /// Each session comes back with its committed schedule, revision, epoch
  /// and tuning exactly as journaled — no re-solving. Returns the number
  /// adopted; sessions whose journaled schedule fails validation are
  /// skipped defensively. Also advances the session id counter past every
  /// journaled id so restarted servers never reissue one.
  std::size_t restore_sessions(const persist::RecoveredState& recovered);

  /// Blocks until no request is queued or running.
  void wait_idle();

  Stats stats() const;
  /// Counters of the canonicalizing solve cache (hits/misses/evictions and
  /// the resident footprint). Lookup counts include the service's own
  /// second-chance lookups at dispatch time, so they can exceed
  /// stats().cache_hits + misses of first-time submits.
  cache::CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t num_threads() const { return pool_.size(); }

 private:
  void dispatch_locked();
  void prepare_cache(detail::RequestState& state);
  std::optional<SolveResult> cache_lookup(detail::RequestState& state);
  /// Single-flight admission: attach to an in-flight leader with the same
  /// key as a follower, or become the leader and enter the queue.
  void lead_or_follow_locked(std::shared_ptr<detail::RequestState> state);
  void run_request(std::shared_ptr<detail::RequestState> state);
  SolveResult execute(detail::RequestState& state);
  void resolve(const std::shared_ptr<detail::RequestState>& state,
               SolveResult result, bool emit_finished);
  void watchdog_loop();
  void run_session_op(std::shared_ptr<detail::SessionState> session,
                      std::shared_ptr<detail::RequestState> state);
  /// Pops the session's next pending op onto the pool (or retires the
  /// session when it is closed and drained). Requires mutex_.
  void pump_session_locked(const std::shared_ptr<detail::SessionState>& s);

  Config config_;
  std::size_t max_concurrent_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::condition_variable watchdog_cv_;
  std::vector<std::shared_ptr<detail::RequestState>> queue_;
  std::vector<std::shared_ptr<detail::RequestState>> running_;
  /// Single-flight registry: exact cache key -> the leader request
  /// currently queued or solving it. Guarded by mutex_ (as are the
  /// leaders' follower lists).
  std::unordered_map<cache::CacheKey, std::shared_ptr<detail::RequestState>,
                     cache::CacheKeyHash>
      inflight_;
  bool stopping_ = false;
  /// Every counter of stats() except its three gauges (queue_depth,
  /// active, open_sessions), which stats() reads off the live state.
  /// Guarded by mutex_ (like the fields above) so stats() is one coherent
  /// cut; bumped where the owning request settles under the lock, not at
  /// the lock-free lookup sites.
  Stats stats_;
  std::atomic<std::uint64_t> next_id_{0};

  /// Open sessions by id; entries outlive close_session until their FIFO
  /// drains. Guarded by mutex_ (the ScheduleSession object itself is only
  /// touched by the single in-flight op of its session).
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::SessionState>>
      sessions_;
  std::uint64_t next_session_id_ = 0;
  std::size_t session_ops_active_ = 0;  ///< ops on the pool right now
  /// Per-boot random nonce mixed into every session epoch, so epochs from
  /// a previous boot never validate against recycled session ids.
  std::uint64_t boot_nonce_ = 0;

  cache::SolveCache cache_;
  util::ThreadPool pool_;
  std::thread watchdog_;
};

}  // namespace bagsched::api
