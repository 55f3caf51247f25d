#include "api/service.h"

#include <algorithm>
#include <deque>
#include <random>
#include <stdexcept>
#include <utility>

#include "api/options_digest.h"
#include "api/portfolio.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "model/lower_bounds.h"
#include "persist/journal.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace bagsched::api {

namespace detail {

struct RequestState {
  explicit RequestState(SolveRequest req)
      : request(std::move(req)), cancel(request.options.cancel) {}

  std::uint64_t id = 0;
  SolveRequest request;

  // --- Session routing (set only for session ops) ------------------------
  std::uint64_t session_id = 0;
  bool session_op = false;    ///< runs on a session FIFO, not the queue
  bool session_open = false;  ///< this op is the session's initial solve
  model::Delta delta;         ///< the delta, when !session_open
  /// DeltaRequest::expect_revision, carried to the session op.
  std::optional<std::uint64_t> expect_revision;

  // --- Solve-cache participation (immutable after prepare_cache) ---------
  bool cache_enabled = false;   ///< cache_mode != Off and instance is valid
  bool rounded_enabled = false; ///< also keyed on the eps-rounded form
  cache::CanonicalForm form;          ///< exact canonical form
  cache::CanonicalForm rounded_form;  ///< only when rounded_enabled
  cache::CacheKey key;                ///< exact-fingerprint cache key
  cache::CacheKey rounded_key;        ///< only when rounded_enabled
  /// Submit-time cache hit, resolved without queueing (set in pass 1 of
  /// submit_batch, consumed under the service lock).
  std::optional<SolveResult> submit_hit;
  /// Single-flight followers attached to this leader; guarded by the
  /// service mutex. Followers are never queued or run — they resolve from
  /// the leader's result (or re-enter the queue if the leader's outcome is
  /// not shareable).
  std::vector<std::shared_ptr<RequestState>> followers;
  /// Per-request token chained onto the caller's options.cancel; fired by
  /// the deadline watchdog, SolveHandle::cancel() and service shutdown.
  util::CancellationToken cancel;
  /// The service itself requested the stop (deadline / handle / shutdown),
  /// so the final status must read Cancelled.
  std::atomic<bool> service_cancel{false};
  std::atomic<bool> deadline_fired{false};
  /// The deadline clamp reduced the solver's time budget below what the
  /// options asked for (see execute()). A Feasible-but-unproven result
  /// produced under a tighter budget must not be cached or shared under
  /// the full-budget options key — it could be arbitrarily weaker than
  /// what an unconstrained run would return.
  std::atomic<bool> budget_clamped{false};
  util::Stopwatch since_submit;
  double queue_seconds = 0.0;  ///< written by the dispatcher, pre-Started

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  SolveResult result;

  /// Observer fan-out with the request id and submit-relative elapsed time
  /// filled in. Lifecycle events (Queued/Started/Finished) go only to
  /// request.on_progress — options.progress is the solver-level stream, and
  /// forwarding lifecycle there would leak nested portfolio-member
  /// lifecycles as extra "terminal" Finished events on the outer request.
  void emit(ProgressEvent event, bool solver_level = false) {
    if (!request.on_progress && !request.options.progress) return;
    event.request_id = id;
    event.elapsed_seconds = since_submit.seconds();
    try {
      if (request.on_progress) request.on_progress(event);
      if (solver_level && request.options.progress) {
        request.options.progress(event);
      }
    } catch (...) {
      // Observability must never break scheduling: a throwing callback is
      // dropped so the solve still resolves and the handle never hangs.
    }
  }
};

/// One open schedule session: the repair engine plus a FIFO of its pending
/// operations. All fields except `session` are guarded by the service
/// mutex; `session` (the ScheduleSession itself) is only ever touched by
/// the single in-flight op of this session, which `busy` serializes.
struct SessionState {
  std::uint64_t id = 0;
  online::SessionOptions tuning;
  std::shared_ptr<const model::Instance> initial_instance;
  std::unique_ptr<online::ScheduleSession> session;
  bool busy = false;    ///< an op of this session is on the pool
  bool closed = false;  ///< no new ops accepted; drains then retires
  bool failed = false;  ///< the initial solve failed; deltas error out
  std::deque<std::shared_ptr<RequestState>> pending;
  // --- Resume/durability shadow (guarded by the service mutex; written
  // by the session's single in-flight op BEFORE it resolves, so whatever
  // a client was acked is already visible to session_info) --------------
  std::uint64_t epoch = 0;
  std::uint64_t revision = 0;
  std::string last_delta_json;     ///< serialized delta of the last commit
  SolveResult last_commit_result;  ///< returned again on a duplicate resend
  std::string digest;              ///< schedule_digest of the last commit
};

}  // namespace detail

using detail::RequestState;
using detail::SessionState;

// --- SolveHandle -----------------------------------------------------------

std::uint64_t SolveHandle::id() const {
  return state_ != nullptr ? state_->id : 0;
}

const SolveResult& SolveHandle::wait() {
  if (state_ == nullptr) {
    throw std::logic_error("SolveHandle: wait() on an invalid handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

std::optional<SolveResult> SolveHandle::try_get() const {
  if (state_ == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->done) return std::nullopt;
  return state_->result;
}

bool SolveHandle::wait_for(double seconds) const {
  if (state_ == nullptr) {
    throw std::logic_error("SolveHandle: wait_for() on an invalid handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [this] { return state_->done; });
}

bool SolveHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void SolveHandle::cancel() {
  if (state_ == nullptr) return;
  state_->service_cancel.store(true, std::memory_order_relaxed);
  state_->cancel.request_stop();
}

// --- SchedulingService -----------------------------------------------------

namespace {

/// Queue order: priority desc, then deadline asc (none = last), then
/// submission order. Used to pick the next request, not to keep the vector
/// sorted — queue depths are service-level, not algorithmic.
bool dispatches_before(const RequestState& a, const RequestState& b) {
  if (a.request.priority != b.request.priority) {
    return a.request.priority > b.request.priority;
  }
  const bool a_has = a.request.deadline.has_value();
  const bool b_has = b.request.deadline.has_value();
  if (a_has != b_has) return a_has;
  if (a_has && *a.request.deadline != *b.request.deadline) {
    return *a.request.deadline < *b.request.deadline;
  }
  return a.id < b.id;
}

/// Cache-key component for the solver selection: the registry name, a
/// joined portfolio list, or a marker for the default portfolio mix.
std::string solver_signature(const std::vector<std::string>& solvers) {
  if (solvers.empty()) return "portfolio:default";
  std::string signature = solvers.front();
  for (std::size_t i = 1; i < solvers.size(); ++i) {
    signature += '+';
    signature += solvers[i];
  }
  return signature;
}

/// Whether every requested solver tolerates eps-rounded key collisions: a
/// rounded hit hands back a schedule whose makespan is only within a
/// (1+eps) factor of what a fresh solve would find, which is fine for the
/// approximation/heuristic solvers but would silently weaken an exact
/// solver's contract (and the bag-ignoring reference solvers never produce
/// cacheable schedules at all).
bool rounded_keys_allowed(const std::vector<std::string>& solvers) {
  if (solvers.empty()) return false;  // default portfolio includes "exact"
  for (const auto& name : solvers) {
    const Guarantee guarantee =
        SolverRegistry::global().info(name).guarantee;
    if (guarantee == Guarantee::Exact || guarantee == Guarantee::Reference) {
      return false;
    }
  }
  return true;
}

/// A result worth storing: a complete, bag-feasible schedule that wasn't
/// truncated by cancellation. Infeasible/Error outcomes are not cached —
/// they can encode request-specific circumstances (a malformed twin, a
/// transient failure) that must not leak onto other requests.
bool is_cacheable(const SolveResult& result) {
  return (result.status == SolveStatus::Optimal ||
          result.status == SolveStatus::Feasible) &&
         result.schedule_feasible && !result.cancelled;
}

}  // namespace

SchedulingService::SchedulingService(Config config)
    : config_(config), pool_(config.num_threads) {
  max_concurrent_ =
      config_.max_concurrent != 0 ? config_.max_concurrent : pool_.size();
  std::random_device entropy;
  boot_nonce_ = (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
  // The deadline watchdog starts lazily on the first deadline-bearing
  // submit — deadline-free services (e.g. the per-call service inside
  // Portfolio::solve) never pay for the extra thread.
}

SchedulingService::~SchedulingService() {
  std::vector<std::shared_ptr<RequestState>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    pending = std::move(queue_);
    queue_.clear();
    // Single-flight followers are parked on their leaders, not in the
    // queue; drain them here so their handles resolve too. Running
    // leaders find their follower lists empty afterwards — fine, the
    // share-out is a no-op.
    for (const auto& [key, leader] : inflight_) {
      for (auto& follower : leader->followers) {
        pending.push_back(std::move(follower));
      }
      leader->followers.clear();
    }
    inflight_.clear();
    for (const auto& state : running_) {
      state->service_cancel.store(true, std::memory_order_relaxed);
      state->cancel.request_stop();
    }
    // Session FIFOs: queued ops resolve as cancelled below; in-flight ones
    // run to completion (repairs are short) and the idle wait covers them.
    for (const auto& [id, session] : sessions_) {
      session->closed = true;
      while (!session->pending.empty()) {
        pending.push_back(std::move(session->pending.front()));
        session->pending.pop_front();
      }
    }
  }
  watchdog_cv_.notify_all();
  // Resolve never-dispatched requests so their handles don't block forever.
  for (const auto& state : pending) {
    SolveResult result;
    result.status = SolveStatus::Cancelled;
    result.cancelled = true;
    result.error = "cancelled: service shut down before the request ran";
    resolve(state, std::move(result), /*emit_finished=*/true);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.finished;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] {
      return running_.empty() && session_ops_active_ == 0;
    });
  }
  if (watchdog_.joinable()) watchdog_.join();
  // pool_ destructor joins the workers (its queue is already drained).
}

SolveHandle SchedulingService::submit(SolveRequest request) {
  std::vector<SolveRequest> one;
  one.push_back(std::move(request));
  return submit_batch(std::move(one)).front();
}

std::vector<SolveHandle> SchedulingService::submit_batch(
    std::vector<SolveRequest> requests) {
  std::vector<SolveHandle> handles;
  handles.reserve(requests.size());
  std::vector<std::shared_ptr<RequestState>> states;
  states.reserve(requests.size());
  for (auto& request : requests) {
    if (request.instance == nullptr) {
      throw std::invalid_argument("SolveRequest.instance is null");
    }
    for (const auto& name : request.solvers) {
      SolverRegistry::global().resolve(name);  // throws, listing names
    }
    auto state = std::make_shared<RequestState>(std::move(request));
    state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Canonicalization and the first cache probe run outside the service
    // lock — they are O(n log n) per request and purely local.
    prepare_cache(*state);
    if (state->cache_enabled) state->submit_hit = cache_lookup(*state);
    handles.push_back(SolveHandle(state));
    states.push_back(std::move(state));
  }
  std::vector<std::shared_ptr<RequestState>> bounced;
  std::vector<std::shared_ptr<RequestState>> hits;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: submit after shutdown");
    }
    // Backpressure counts the slots the deferred dispatch below will free:
    // after it runs, the pending queue is back under max_queue_depth, and
    // a batch admits exactly what the same requests submitted one-by-one
    // would have admitted.
    const std::size_t free_slots =
        max_concurrent_ > running_.size() ? max_concurrent_ - running_.size()
                                          : 0;
    for (auto& state : states) {
      // Cache hits take no queue slot, no backpressure, no solver run.
      // Counters settle under the lock; the handle resolves after it is
      // released (like rejected submits), so a Finished callback that
      // calls back into the service cannot deadlock on mutex_.
      if (state->submit_hit.has_value()) {
        ++stats_.submitted;
        ++stats_.finished;
        ++stats_.cache_hits;
        if (stat_bool(state->submit_hit->stats, "cache_hit_rounded")) {
          ++stats_.cache_rounded_hits;
        }
        state->emit({.kind = ProgressKind::Queued});
        hits.push_back(std::move(state));
        continue;
      }
      // Single-flight followers ride along on an in-flight leader: they
      // hold no queue slot either, so they are exempt from backpressure.
      if (state->cache_enabled) {
        const auto leader = inflight_.find(state->key);
        if (leader != inflight_.end()) {
          ++stats_.submitted;
          if (state->request.deadline.has_value() &&
              !watchdog_.joinable()) {
            watchdog_ = std::thread([this] { watchdog_loop(); });
          }
          state->emit({.kind = ProgressKind::Queued});
          leader->second->followers.push_back(std::move(state));
          continue;
        }
      }
      if (config_.max_queue_depth != 0 &&
          queue_.size() >= config_.max_queue_depth + free_slots) {
        ++stats_.rejected;
        bounced.push_back(std::move(state));
        continue;
      }
      ++stats_.submitted;
      if (state->request.deadline.has_value() && !watchdog_.joinable()) {
        watchdog_ = std::thread([this] { watchdog_loop(); });
      }
      // Queued is emitted under the lock, strictly for accepted requests:
      // the dispatch below happens after, so Started can never precede it.
      state->emit({.kind = ProgressKind::Queued});
      if (state->cache_enabled) inflight_.emplace(state->key, state);
      queue_.push_back(std::move(state));
    }
    // One dispatch pass after the whole batch is queued, so the batch is
    // prioritised as a unit instead of first-come-first-dispatched.
    dispatch_locked();
  }
  for (const auto& state : hits) {
    SolveResult result = std::move(*state->submit_hit);
    state->submit_hit.reset();
    result.stats["request_id"] = static_cast<long long>(state->id);
    result.stats["queue_seconds"] = 0.0;
    resolve(state, std::move(result), /*emit_finished=*/true);
  }
  for (const auto& state : bounced) {
    SolveResult result;
    result.status = SolveStatus::Cancelled;
    result.cancelled = true;
    result.error =
        "rejected: service queue is full (max_queue_depth=" +
        std::to_string(config_.max_queue_depth) + ")";
    resolve(state, std::move(result), /*emit_finished=*/true);
  }
  watchdog_cv_.notify_one();
  return handles;
}

// --- Sessions ---------------------------------------------------------------

SchedulingService::SessionOpening SchedulingService::open_session(
    SolveRequest request, online::SessionOptions tuning) {
  if (request.instance == nullptr) {
    throw std::invalid_argument("SolveRequest.instance is null");
  }
  for (const auto& name : request.solvers) {
    SolverRegistry::global().resolve(name);  // throws, listing names
  }
  // The request's options/solvers become the session's solve configuration
  // (the tuning struct only contributes the repair knobs) — one source of
  // truth for the session's memo and regret accounting.
  tuning.solve = request.options;
  tuning.solvers = request.solvers;
  // The session runs its own solves; the caller's progress callback is the
  // request's, not the option-level one (which portfolio members would
  // multiply), and cancellation is not plumbed through repairs.
  tuning.solve.progress = nullptr;

  auto session = std::make_shared<SessionState>();
  session->tuning = std::move(tuning);
  session->initial_instance = request.instance;
  auto state = std::make_shared<RequestState>(std::move(request));
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  state->session_op = true;
  state->session_open = true;

  SessionOpening opening;
  opening.initial = SolveHandle(state);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: open_session after shutdown");
    }
    session->id = ++next_session_id_;
    session->epoch = util::mix64(session->id ^ boot_nonce_);
    state->session_id = session->id;
    sessions_.emplace(session->id, session);
    ++stats_.sessions_opened;
    session->busy = true;
    ++session_ops_active_;
  }
  opening.session = session->id;
  opening.epoch = session->epoch;
  state->emit({.kind = ProgressKind::Queued});
  pool_.submit([this, session, state] { run_session_op(session, state); });
  return opening;
}

SolveHandle SchedulingService::submit(DeltaRequest request) {
  // Carry the shared base fields (deadline, progress, ...) in a SolveRequest
  // shell with no instance — session ops never dereference it.
  SolveRequest carrier;
  static_cast<RequestBase&>(carrier) =
      std::move(static_cast<RequestBase&>(request));
  auto state = std::make_shared<RequestState>(std::move(carrier));
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  state->session_op = true;
  state->session_id = request.session;
  state->delta = std::move(request.delta);
  state->expect_revision = request.expect_revision;

  std::shared_ptr<SessionState> session;
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: submit after shutdown");
    }
    const auto it = sessions_.find(request.session);
    if (it != sessions_.end() && !it->second->closed) {
      session = it->second;
      state->emit({.kind = ProgressKind::Queued});
      if (session->busy) {
        session->pending.push_back(state);
      } else {
        session->busy = true;
        ++session_ops_active_;
        start = true;
      }
    }
  }
  if (session == nullptr) {
    SolveResult result;
    result.solver = "online-session";
    result.status = SolveStatus::Error;
    result.error = "unknown session " + std::to_string(request.session);
    resolve(state, std::move(result), /*emit_finished=*/true);
    return SolveHandle(state);
  }
  if (start) {
    pool_.submit([this, session, state] { run_session_op(session, state); });
  }
  return SolveHandle(state);
}

bool SchedulingService::close_session(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end() || it->second->closed) return false;
    it->second->closed = true;
    ++stats_.sessions_closed;
    // Queued deltas still resolve; the last one retires the entry (see
    // pump_session_locked). An idle session retires immediately.
    if (!it->second->busy && it->second->pending.empty()) sessions_.erase(it);
  }
  if (config_.journal != nullptr) {
    try {
      config_.journal->record_close(session);
    } catch (const std::exception&) {
      // Worst case the next boot recovers an already-closed session; that
      // wastes memory but corrupts nothing, so a close is never failed
      // over its journal record.
    }
  }
  return true;
}

std::optional<SchedulingService::SessionInfo> SchedulingService::session_info(
    std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second->closed || it->second->failed) {
    return std::nullopt;
  }
  SessionInfo info;
  info.session = session;
  info.epoch = it->second->epoch;
  info.revision = it->second->revision;
  info.digest = it->second->digest;
  return info;
}

std::size_t SchedulingService::restore_sessions(
    const persist::RecoveredState& recovered) {
  std::size_t restored = 0;
  for (const persist::RecoveredSession& entry : recovered.sessions) {
    auto session = std::make_shared<SessionState>();
    session->id = entry.session;
    session->epoch = entry.epoch;
    session->tuning = entry.tuning;
    session->initial_instance =
        std::make_shared<const model::Instance>(entry.instance);
    try {
      session->session = std::make_unique<online::ScheduleSession>(
          entry.instance, entry.schedule, session->tuning);
    } catch (const std::exception&) {
      continue;  // journaled as feasible; skip rather than refuse to boot
    }
    session->session->restore_revision(entry.revision);
    session->revision = entry.revision;
    session->last_delta_json = entry.last_delta_json;
    session->digest = entry.digest;
    SolveResult result = session->session->last_result();
    result.stats["session"] = static_cast<long long>(session->id);
    result.stats["online.revision"] = static_cast<long long>(entry.revision);
    result.stats["online.recovered"] = true;
    session->last_commit_result = std::move(result);

    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[session->id] = session;
    ++stats_.sessions_restored;
    ++restored;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_session_id_ < recovered.max_session_id) {
    next_session_id_ = recovered.max_session_id;
  }
  return restored;
}

void SchedulingService::pump_session_locked(
    const std::shared_ptr<SessionState>& session) {
  if (session->busy) return;
  if (!session->pending.empty() && !stopping_) {
    auto next = std::move(session->pending.front());
    session->pending.pop_front();
    session->busy = true;
    ++session_ops_active_;
    pool_.submit(
        [this, session, next] { run_session_op(session, next); });
    return;
  }
  if (session->closed && session->pending.empty()) {
    sessions_.erase(session->id);
  }
}

void SchedulingService::run_session_op(
    std::shared_ptr<detail::SessionState> session,
    std::shared_ptr<detail::RequestState> state) {
  state->emit({.kind = ProgressKind::Started});
  SolveResult result;
  bool failed_open = false;
  bool duplicate = false;
  std::uint64_t revision_before = 0;
  if (state->session_open) {
    try {
      session->session = std::make_unique<online::ScheduleSession>(
          *session->initial_instance, session->tuning);
      result = session->session->last_result();
    } catch (const std::exception& error) {
      result.status = SolveStatus::Infeasible;
      result.solver = "online-session";
      result.error = error.what();
      failed_open = true;
    }
  } else if (session->failed || session->session == nullptr) {
    result.status = SolveStatus::Error;
    result.solver = "online-session";
    result.error = "unknown session " + std::to_string(session->id) +
                   ": its initial solve failed";
  } else {
    revision_before = session->session->revision();
    bool mismatch = false;
    if (state->expect_revision.has_value()) {
      // Resend-safe commits: a client that lost an ack resubmits with the
      // revision it last saw. One revision behind with an identical delta
      // means the commit landed and only the ack was lost — hand back the
      // cached result instead of double-applying. Anything else is a real
      // divergence and must fail loudly.
      const std::string delta_json = to_json(state->delta).dump();
      if (*state->expect_revision + 1 == revision_before &&
          delta_json == session->last_delta_json) {
        duplicate = true;
      } else if (*state->expect_revision != revision_before) {
        mismatch = true;
        result.status = SolveStatus::Error;
        result.solver = "online-session";
        result.error = "revision mismatch: session " +
                       std::to_string(session->id) + " is at revision " +
                       std::to_string(revision_before) +
                       ", request expected " +
                       std::to_string(*state->expect_revision);
      }
    }
    if (duplicate) {
      result = session->last_commit_result;
      result.stats["online.duplicate"] = true;
    } else if (!mismatch) {
      try {
        result = session->session->apply(state->delta);
      } catch (const std::exception& error) {
        // Malformed delta (unknown job ids, duplicate departures, ...): the
        // session keeps its previous commit and stays usable.
        result.status = SolveStatus::Error;
        result.solver = "online-session";
        result.error = std::string("invalid delta: ") + error.what();
      }
    }
  }

  // Durability: journal every commit BEFORE the handle resolves, so an
  // acked commit is on disk no matter when the process dies (DESIGN.md
  // §8, "acked ⇒ recovered"). A journal append failure poisons the
  // session — the client gets an error, not an ack the journal missed —
  // and the session closes rather than drift from its journal.
  const bool is_delta = !state->session_open;
  const bool committed =
      state->session_open
          ? !failed_open
          : (!duplicate && session->session != nullptr &&
             session->session->revision() != revision_before);
  bool poisoned = false;
  if (committed && config_.journal != nullptr) {
    try {
      if (state->session_open) {
        config_.journal->record_open(session->id, session->epoch,
                                     session->session->instance(),
                                     session->tuning,
                                     session->session->schedule());
      } else {
        config_.journal->record_commit(
            session->id, session->session->revision(), state->delta,
            session->session->schedule(),
            &session->session->instance());
      }
    } catch (const std::exception& error) {
      poisoned = true;
      result = SolveResult{};
      result.status = SolveStatus::Error;
      result.solver = "online-session";
      result.error =
          std::string("journal append failed, session closed: ") +
          error.what();
    }
  }

  result.stats["request_id"] = static_cast<long long>(state->id);
  result.stats["session"] = static_cast<long long>(session->id);

  if (committed && !poisoned) {
    // Publish the resume/dedupe shadow before the ack is visible: a client
    // that acts on this result must find session_info consistent with it.
    std::lock_guard<std::mutex> lock(mutex_);
    session->revision = session->session->revision();
    session->digest = persist::schedule_digest(session->session->schedule());
    if (is_delta) {
      session->last_delta_json = to_json(state->delta).dump();
    }
    session->last_commit_result = result;
  }

  if (is_delta) {
    // Counted before the ack is visible: a caller whose delta resolved
    // must find it in stats().
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.session_deltas;
    if (duplicate) {
      ++stats_.session_duplicates;
    } else if (stat_str(result.stats, "online.path") == "fresh") {
      ++stats_.session_fresh;
    } else if (result.ok()) {
      ++stats_.session_repaired;
    }
  }
  resolve(state, std::move(result), /*emit_finished=*/true);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    session->busy = false;
    --session_ops_active_;
    if ((failed_open || poisoned) && !session->closed) {
      // A session that never committed a schedule — or whose journal no
      // longer matches its state — cannot serve deltas; close it so queued
      // ones drain with "unknown session".
      session->failed = true;
      session->closed = true;
      ++stats_.sessions_closed;
    }
    pump_session_locked(session);
  }
  idle_cv_.notify_all();
}

void SchedulingService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && running_.empty() && session_ops_active_ == 0;
  });
}

SchedulingService::Stats SchedulingService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.queue_depth = queue_.size();
  stats.active = running_.size();
  for (const auto& [id, session] : sessions_) {
    if (!session->closed) ++stats.open_sessions;
  }
  return stats;
}

void SchedulingService::prepare_cache(RequestState& state) {
  const SolveRequest& request = state.request;
  if (request.options.cache_mode == CacheMode::Off) return;
  // Malformed instances stay out of the cache and the single-flight
  // registry: their fingerprints could collide with valid twins, and their
  // error messages describe this request's instance specifically.
  try {
    request.instance->validate();
  } catch (const std::exception&) {
    return;
  }
  const std::string signature = solver_signature(request.solvers);
  const std::uint64_t digest = options_digest(request.options);
  state.form = cache::Canonicalizer::exact(*request.instance);
  state.key = cache::CacheKey{state.form.fingerprint, signature, digest,
                              /*rounded=*/false};
  state.cache_enabled = true;
  if (request.options.eps > 0.0 && rounded_keys_allowed(request.solvers)) {
    state.rounded_form = cache::Canonicalizer::rounded(*request.instance,
                                                       request.options.eps);
    state.rounded_key =
        cache::CacheKey{state.rounded_form.fingerprint, signature, digest,
                        /*rounded=*/true};
    state.rounded_enabled = true;
  }
}

std::optional<SolveResult> SchedulingService::cache_lookup(
    RequestState& state) {
  const model::Instance& instance = *state.request.instance;
  if (auto hit = cache_.lookup(state.key)) {
    // Exact-fingerprint twin: sizes agree position-by-position, so the
    // remapped schedule has the identical makespan and the cached status —
    // including a proven Optimal — transfers verbatim.
    SolveResult result = std::move(*hit);
    if (result.schedule.num_jobs() == instance.num_jobs() &&
        result.schedule.num_jobs() > 0) {
      result.schedule = cache::from_canonical(result.schedule, state.form);
    }
    result.stats["cache_hit"] = true;
    return result;
  }
  if (!state.rounded_enabled) return std::nullopt;
  if (auto hit = cache_.lookup(state.rounded_key)) {
    // Rounded-key twin: the bag structure matches position-by-position but
    // sizes only agree up to (1+eps), so the remapped schedule is
    // re-evaluated against THIS instance — the returned makespan/gap are
    // exact for the schedule we hand back; only optimality claims and the
    // solver's a-priori ratio are relaxed by the rounding.
    SolveResult result = std::move(*hit);
    if (result.schedule.num_jobs() != instance.num_jobs() ||
        result.schedule.num_jobs() == 0) {
      return std::nullopt;
    }
    result.schedule =
        cache::from_canonical(result.schedule, state.rounded_form);
    if (!model::validate(instance, result.schedule).ok()) {
      return std::nullopt;  // cannot happen for equal fingerprints
    }
    result.makespan = result.schedule.makespan(instance);
    result.lower_bound = model::combined_lower_bound(instance);
    result.schedule_feasible = true;
    result.proven_optimal = false;
    result.status = SolveStatus::Feasible;
    result.optimality_gap =
        result.lower_bound > 0.0
            ? result.makespan / result.lower_bound - 1.0
            : 0.0;
    result.stats["cache_hit"] = true;
    result.stats["cache_hit_rounded"] = true;
    return result;
  }
  return std::nullopt;
}

void SchedulingService::lead_or_follow_locked(
    std::shared_ptr<RequestState> state) {
  if (state->cache_enabled) {
    const auto leader = inflight_.find(state->key);
    if (leader != inflight_.end()) {
      leader->second->followers.push_back(std::move(state));
      return;
    }
    inflight_.emplace(state->key, state);
  }
  queue_.push_back(std::move(state));
}

void SchedulingService::dispatch_locked() {
  while (running_.size() < max_concurrent_ && !queue_.empty()) {
    auto next = std::min_element(
        queue_.begin(), queue_.end(),
        [](const auto& a, const auto& b) {
          return dispatches_before(*a, *b);
        });
    std::shared_ptr<RequestState> state = std::move(*next);
    queue_.erase(next);
    state->queue_seconds = state->since_submit.seconds();
    stats_.queue_wait_ewma_seconds =
        0.8 * stats_.queue_wait_ewma_seconds + 0.2 * state->queue_seconds;
    running_.push_back(state);
    pool_.submit([this, state = std::move(state)]() mutable {
      run_request(std::move(state));
    });
  }
}

SolveResult SchedulingService::execute(RequestState& state) {
  // Injected solver failure: run_request's catch turns the throw into a
  // terminal SolveStatus::Error result, so the handle still resolves.
  if (BAGSCHED_FAULT("service.execute")) {
    throw std::runtime_error("injected fault: service.execute");
  }
  const SolveRequest& request = state.request;
  SolveOptions options = request.options;
  options.cancel = &state.cancel;
  // Deadline cooperation beyond the token: solvers that only honour wall
  // budgets (exact / MILP time limits) get their budget clamped to the
  // time remaining, so they stop near the deadline even between polls.
  if (request.deadline.has_value()) {
    const double remaining =
        std::chrono::duration<double>(*request.deadline -
                                      ServiceClock::now())
            .count();
    if (remaining < options.time_limit_seconds) {
      state.budget_clamped.store(true, std::memory_order_relaxed);
    }
    options.time_limit_seconds =
        std::min(options.time_limit_seconds, std::max(remaining, 0.0));
  }
  // Progress events from the solver layer (Phase / Incumbent — and, for a
  // portfolio, the members' solver streams) fan out to both observers.
  options.progress = [&state](const ProgressEvent& event) {
    state.emit(event, /*solver_level=*/true);
  };

  if (request.solvers.size() == 1) {
    return SolverRegistry::global()
        .resolve(request.solvers.front())
        .solve(*request.instance, options);
  }

  // Portfolio race (empty selection = the default mix). The portfolio is
  // itself a client of a nested service, so this stays one code path.
  Portfolio portfolio = request.solvers.empty()
                            ? Portfolio()
                            : Portfolio(request.solvers);
  PortfolioResult race = portfolio.solve(*request.instance, options);
  SolveResult result = std::move(race.best);
  result.stats["portfolio_members"] =
      static_cast<long long>(portfolio.solvers().size());
  result.stats["portfolio_cancelled"] =
      static_cast<long long>(race.cancelled_count);
  // Per-member summaries (schedules dropped) ride along machine-readably,
  // so service clients can still render the whole race.
  util::Json runs = util::Json::array();
  for (const auto& run : race.runs) {
    runs.push_back(to_json(run, /*include_schedule=*/false));
  }
  result.stats["portfolio_runs_json"] = runs.dump();
  return result;
}

void SchedulingService::run_request(std::shared_ptr<RequestState> state) {
  state->emit({.kind = ProgressKind::Started});
  SolveResult result;
  bool from_cache = false;
  // Second-chance probe: the first lookup ran at submit time, but anything
  // cached since then — by an earlier queue entry this request could not
  // single-flight onto (rounded-key twins dedup only through the cache) —
  // serves now without running a solver.
  if (state->cache_enabled &&
      !state->service_cancel.load(std::memory_order_relaxed)) {
    if (auto hit = cache_lookup(*state)) {
      result = std::move(*hit);
      from_cache = true;
    }
  }
  if (from_cache) {
    // nothing to run
  } else
  try {
    result = execute(*state);
  } catch (const std::exception& error) {
    // A throwing solver (bad eps, internal failure) must still resolve the
    // handle — an unhandled exception would die in the pool wrapper and
    // leave wait() blocked forever.
    result = SolveResult{};
    if (state->request.solvers.size() == 1) {
      result.solver = state->request.solvers.front();
    }
    result.status = SolveStatus::Error;
    result.error = error.what();
  } catch (...) {
    result = SolveResult{};
    result.status = SolveStatus::Error;
    result.error = "solver threw a non-standard exception";
  }

  // Deadline attribution is decided here, from the clock, not from the
  // watchdog: the time-limit clamp in execute() can stop the solver right
  // at the deadline before the watchdog's wakeup lands, and the outcome
  // must not depend on that race.
  if (state->request.deadline.has_value() &&
      ServiceClock::now() >= *state->request.deadline) {
    state->deadline_fired.store(true, std::memory_order_relaxed);
    state->service_cancel.store(true, std::memory_order_relaxed);
  }
  if (state->service_cancel.load(std::memory_order_relaxed)) {
    // Deadline / handle / shutdown cancellation determines the status —
    // except a completed optimality proof, which beats the deadline. The
    // incumbent fields (schedule, makespan, schedule_feasible) are kept as
    // the solver filled them: Cancelled-with-incumbent is a usable result.
    if (result.status == SolveStatus::Feasible) {
      result.status = SolveStatus::Cancelled;
    }
    if (result.status == SolveStatus::Cancelled) result.cancelled = true;
  }
  result.stats["request_id"] = static_cast<long long>(state->id);
  result.stats["queue_seconds"] = state->queue_seconds;
  if (state->deadline_fired.load(std::memory_order_relaxed)) {
    result.stats["deadline_expired"] = true;
  }

  // --- Single-flight settlement -------------------------------------------
  // Detach this leader from the in-flight registry and claim its
  // followers. A shareable outcome fans out to all of them below; a
  // cancelled/error outcome must not (the cancellation or failure may be
  // specific to this request), so those followers re-enter the queue and
  // the first of them leads the retry.
  std::vector<std::shared_ptr<RequestState>> shared;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (from_cache) {
      ++stats_.cache_hits;
      if (stat_bool(result.stats, "cache_hit_rounded")) {
        ++stats_.cache_rounded_hits;
      }
    }
    if (state->cache_enabled) {
      const auto it = inflight_.find(state->key);
      if (it != inflight_.end() && it->second == state) inflight_.erase(it);
      shared = std::move(state->followers);
      state->followers.clear();
      // A clamped-budget Feasible result only blocks sharing when it is
      // neither proven (Optimal is budget-independent) nor structural
      // (Infeasible does not depend on the budget at all).
      const bool shareable =
          !result.cancelled && result.status != SolveStatus::Error &&
          !(state->budget_clamped.load(std::memory_order_relaxed) &&
            result.status == SolveStatus::Feasible);
      if (!shared.empty() && !shareable && !stopping_) {
        for (auto& follower : shared) {
          lead_or_follow_locked(std::move(follower));
        }
        shared.clear();
        dispatch_locked();
      }
      // When stopping, unshareable followers stay in `shared` and resolve
      // below with the leader's (cancelled) result — the destructor has
      // already drained the ones it saw, this catches late attachments.
    }
  }

  // Store before sharing/resolving: any request submitted from a Finished
  // callback already finds the entry. The cached copy keeps its schedule
  // in canonical order and drops the per-request bookkeeping.
  // Store under the leader's ReadWrite — or a shared follower's: the
  // followers asked the identical question, so any of them opting into
  // writes is enough to persist the answer.
  bool store = state->request.options.cache_mode == CacheMode::ReadWrite;
  for (const auto& follower : shared) {
    store = store ||
            follower->request.options.cache_mode == CacheMode::ReadWrite;
  }
  if (!from_cache && state->cache_enabled && store && is_cacheable(result) &&
      !(state->budget_clamped.load(std::memory_order_relaxed) &&
        result.status == SolveStatus::Feasible)) {
    SolveResult canonical = result;
    canonical.stats.erase("request_id");
    canonical.stats.erase("queue_seconds");
    canonical.schedule = cache::to_canonical(result.schedule, state->form);
    cache_.insert(state->key, canonical);
    if (state->rounded_enabled) {
      canonical.schedule =
          cache::to_canonical(result.schedule, state->rounded_form);
      cache_.insert(state->rounded_key, std::move(canonical));
    }
    result.stats["cache_stored"] = true;
  }

  {
    // Counted before any handle resolves: a caller whose wait() returned
    // must find its request in stats().
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.finished += 1 + shared.size();
    stats_.dedup_shared += shared.size();
  }

  // Fan the result out to the followers (exact-key twins: the remapped
  // schedule, makespan and status transfer verbatim), honouring each
  // follower's own deadline/cancel state. The leader is still in running_,
  // so wait_idle() cannot fire while followers are unresolved.
  for (auto& follower : shared) {
    SolveResult out = result;
    out.stats.erase("cache_stored");
    if (out.schedule.num_jobs() > 0 &&
        out.schedule.num_jobs() == follower->request.instance->num_jobs()) {
      out.schedule = model::remap_jobs(result.schedule, state->form.job_at,
                                       follower->form.job_at);
    }
    out.stats["single_flight"] = true;
    out.stats["request_id"] = static_cast<long long>(follower->id);
    out.stats["queue_seconds"] = follower->since_submit.seconds();
    if (follower->request.deadline.has_value() &&
        ServiceClock::now() >= *follower->request.deadline) {
      follower->deadline_fired.store(true, std::memory_order_relaxed);
      follower->service_cancel.store(true, std::memory_order_relaxed);
    }
    if (follower->service_cancel.load(std::memory_order_relaxed)) {
      if (out.status == SolveStatus::Feasible) {
        out.status = SolveStatus::Cancelled;
      }
      if (out.status == SolveStatus::Cancelled) out.cancelled = true;
    }
    if (follower->deadline_fired.load(std::memory_order_relaxed)) {
      out.stats["deadline_expired"] = true;
    }
    resolve(follower, std::move(out), /*emit_finished=*/true);
  }

  resolve(state, std::move(result), /*emit_finished=*/true);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_.erase(std::find(running_.begin(), running_.end(), state));
    if (!stopping_) dispatch_locked();
  }
  idle_cv_.notify_all();
  watchdog_cv_.notify_one();
}

void SchedulingService::resolve(
    const std::shared_ptr<RequestState>& state, SolveResult result,
    bool emit_finished) {
  // Store first, then emit Finished pointing at the stored result, then
  // open the done gate: every progress event for a request is delivered
  // before any wait() on its handle returns.
  state->result = std::move(result);
  if (emit_finished) {
    ProgressEvent event;
    event.kind = ProgressKind::Finished;
    event.solver = state->result.solver;
    event.result = &state->result;
    state->emit(std::move(event));
  }
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->done = true;
  }
  state->cv.notify_all();
}

void SchedulingService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    std::optional<ServiceClock::time_point> earliest;
    const auto consider = [&](const std::shared_ptr<RequestState>& state) {
      if (!state->request.deadline.has_value()) return;
      if (state->deadline_fired.load(std::memory_order_relaxed)) return;
      if (!earliest.has_value() || *state->request.deadline < *earliest) {
        earliest = *state->request.deadline;
      }
    };
    for (const auto& state : queue_) consider(state);
    for (const auto& state : running_) consider(state);
    // Single-flight followers are parked on their leaders (which are in
    // the queue or running), not in either list — scan them too.
    for (const auto& [key, leader] : inflight_) {
      for (const auto& follower : leader->followers) consider(follower);
    }

    if (!earliest.has_value()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    if (watchdog_cv_.wait_until(lock, *earliest) ==
        std::cv_status::timeout) {
      const auto now = ServiceClock::now();
      const auto fire = [&](const std::shared_ptr<RequestState>& state) {
        if (!state->request.deadline.has_value()) return false;
        if (*state->request.deadline > now) return false;
        if (state->deadline_fired.exchange(true,
                                           std::memory_order_relaxed)) {
          return false;
        }
        state->service_cancel.store(true, std::memory_order_relaxed);
        state->cancel.request_stop();
        return true;
      };
      for (const auto& state : running_) fire(state);
      // Queued requests whose deadline passed resolve right here — the
      // deadline is a latency bound, so the handle must not keep waiting
      // behind a busy slot (nor burn one later just to report Cancelled).
      std::vector<std::shared_ptr<RequestState>> expired;
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (fire(*it)) {
          expired.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      // An expired queue entry may have been a single-flight leader: drop
      // its registry entry and re-admit its followers (the first becomes
      // the new leader), or they would wait on a request that never runs.
      bool requeued_followers = false;
      for (const auto& state : expired) {
        if (!state->cache_enabled) continue;
        const auto it = inflight_.find(state->key);
        if (it == inflight_.end() || it->second != state) continue;
        inflight_.erase(it);
        auto followers = std::move(state->followers);
        state->followers.clear();
        for (auto& follower : followers) {
          lead_or_follow_locked(std::move(follower));
          requeued_followers = true;
        }
      }
      if (requeued_followers) dispatch_locked();
      // Expired followers resolve here too: the deadline is a latency
      // bound and must not depend on when their leader finishes. A
      // leader's own expiry does NOT expire its followers — they re-enter
      // the queue when the cancelled leader fails to share.
      for (const auto& [key, leader] : inflight_) {
        auto& followers = leader->followers;
        for (auto it = followers.begin(); it != followers.end();) {
          if (fire(*it)) {
            expired.push_back(std::move(*it));
            it = followers.erase(it);
          } else {
            ++it;
          }
        }
      }
      // Resolved while the lock is held (like Queued emission), so there
      // is no window where wait_idle()/stats() see the queue drained while
      // an expired handle is still unresolved.
      for (const auto& state : expired) {
        SolveResult result;
        result.status = SolveStatus::Cancelled;
        result.cancelled = true;
        result.error =
            "cancelled: deadline expired before the request was dispatched";
        result.stats["deadline_expired"] = true;
        result.stats["request_id"] = static_cast<long long>(state->id);
        resolve(state, std::move(result), /*emit_finished=*/true);
      }
      stats_.finished += expired.size();
      if (!expired.empty()) idle_cv_.notify_all();
    }
  }
}

}  // namespace bagsched::api
