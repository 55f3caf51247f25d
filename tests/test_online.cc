// Tests for the online scheduling subsystem (DESIGN.md §7): the churn-trace
// generator (fixed-seed determinism, per-step feasibility), delta
// apply/undo round trips through exact canonical fingerprints, migration
// cost against a brute-force recount, ScheduleSession's repair pipeline
// (regret bound, noop/memo/region paths, infeasible rejection), the service's
// session routing (FIFO per session, unknown-session errors, close
// semantics), and the delta JSON round trips.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/serialize.h"
#include "api/service.h"
#include "api/telemetry.h"
#include "cache/canonicalize.h"
#include "gen/churn.h"
#include "model/delta.h"
#include "model/schedule.h"
#include "online/session.h"
#include "util/prng.h"

namespace bagsched {
namespace {

gen::ChurnParams small_churn(std::uint64_t seed = 11) {
  gen::ChurnParams params;
  params.num_jobs = 40;
  params.num_machines = 6;
  params.num_bags = 10;
  params.steps = 25;
  params.seed = seed;
  return params;
}

online::SessionOptions quick_session(const char* solver = "greedy-bags") {
  online::SessionOptions options;
  options.solvers = {solver};
  options.solve.seed = 5;
  return options;
}

// --- Churn trace -----------------------------------------------------------

TEST(ChurnTraceTest, FixedSeedIsDeterministic) {
  const auto a = gen::churn_trace(small_churn());
  const auto b = gen::churn_trace(small_churn());
  ASSERT_EQ(a.deltas.size(), b.deltas.size());
  EXPECT_EQ(cache::Canonicalizer::exact(a.initial).fingerprint,
            cache::Canonicalizer::exact(b.initial).fingerprint);
  model::Instance current_a = a.initial;
  model::Instance current_b = b.initial;
  for (std::size_t step = 0; step < a.deltas.size(); ++step) {
    ASSERT_EQ(a.deltas[step].arrivals.size(), b.deltas[step].arrivals.size());
    ASSERT_EQ(a.deltas[step].departures, b.deltas[step].departures);
    current_a = model::apply_delta(current_a, a.deltas[step]);
    current_b = model::apply_delta(current_b, b.deltas[step]);
    EXPECT_EQ(cache::Canonicalizer::exact(current_a).fingerprint,
              cache::Canonicalizer::exact(current_b).fingerprint);
  }
  // A different seed produces a different trace.
  const auto c = gen::churn_trace(small_churn(12));
  EXPECT_NE(cache::Canonicalizer::exact(a.initial).fingerprint,
            cache::Canonicalizer::exact(c.initial).fingerprint);
}

TEST(ChurnTraceTest, EveryIntermediateInstanceStaysFeasible) {
  const auto trace = gen::churn_trace(small_churn(3));
  model::Instance current = trace.initial;
  ASSERT_TRUE(current.is_feasible());
  for (const auto& delta : trace.deltas) {
    current = model::apply_delta(current, delta);
    current.validate();
    EXPECT_TRUE(current.is_feasible());
    EXPECT_GE(current.num_jobs(), 1);
    EXPECT_GE(current.num_machines(), 1);
  }
}

// --- Delta apply/undo ------------------------------------------------------

TEST(DeltaTest, ApplyUndoRoundTripSharesExactFingerprint) {
  const auto trace = gen::churn_trace(small_churn(7));
  model::Instance current = trace.initial;
  for (const auto& delta : trace.deltas) {
    model::DeltaMap map;
    const model::Instance next = model::apply_delta(current, delta, &map);
    const model::Delta undo = model::inverse_delta(current, delta, map);
    const model::Instance back = model::apply_delta(next, undo);
    EXPECT_EQ(cache::Canonicalizer::exact(back).fingerprint,
              cache::Canonicalizer::exact(current).fingerprint);
    EXPECT_EQ(back.num_jobs(), current.num_jobs());
    EXPECT_EQ(back.num_machines(), current.num_machines());
    current = next;
  }
}

TEST(DeltaTest, InverseRoundTripAcrossAFailedThenReAddedMachine) {
  // Bags of size 2 on 4 machines: still bag-feasible after one failure.
  const model::Instance start = model::Instance::from_vectors(
      {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0},
      {0, 0, 1, 1, 2, 2, 3, 3}, 4);
  ASSERT_GE(start.num_machines(), 2);

  // Fail a machine, then bring a replacement back: machines are identical,
  // so the round trip restores the exact canonical fingerprint.
  model::Delta fail;
  fail.failed_machines = {1};
  model::DeltaMap fail_map;
  const model::Instance degraded = model::apply_delta(start, fail, &fail_map);
  ASSERT_TRUE(degraded.is_feasible());
  EXPECT_EQ(degraded.num_machines(), start.num_machines() - 1);

  model::Delta readd;
  readd.machines_added = 1;
  model::DeltaMap readd_map;
  const model::Instance restored =
      model::apply_delta(degraded, readd, &readd_map);
  EXPECT_EQ(restored.num_machines(), start.num_machines());
  EXPECT_EQ(cache::Canonicalizer::exact(restored).fingerprint,
            cache::Canonicalizer::exact(start).fingerprint);

  // Each step's inverse unwinds it: restored -> degraded -> start.
  const model::Delta undo_readd =
      model::inverse_delta(degraded, readd, readd_map);
  const model::Instance back_degraded =
      model::apply_delta(restored, undo_readd);
  EXPECT_EQ(cache::Canonicalizer::exact(back_degraded).fingerprint,
            cache::Canonicalizer::exact(degraded).fingerprint);
  const model::Delta undo_fail = model::inverse_delta(start, fail, fail_map);
  const model::Instance back_start =
      model::apply_delta(back_degraded, undo_fail);
  EXPECT_EQ(cache::Canonicalizer::exact(back_start).fingerprint,
            cache::Canonicalizer::exact(start).fingerprint);

  // A live session repairs across the same outage: every job on the failed
  // machine migrates, revisions advance, and the schedule stays feasible.
  online::ScheduleSession session(start, quick_session());
  const api::SolveResult after_fail = session.apply(fail);
  ASSERT_TRUE(after_fail.ok()) << after_fail.error;
  EXPECT_TRUE(after_fail.schedule_feasible);
  const api::SolveResult after_readd = session.apply(readd);
  ASSERT_TRUE(after_readd.ok()) << after_readd.error;
  EXPECT_TRUE(after_readd.schedule_feasible);
  EXPECT_EQ(session.revision(), 2u);
  EXPECT_EQ(session.instance().num_machines(), start.num_machines());
}

TEST(DeltaTest, MalformedDeltasThrow) {
  const auto instance =
      model::Instance::from_vectors({1.0, 2.0, 3.0}, {0, 0, 1}, 2);
  model::Delta unknown_job;
  unknown_job.departures = {7};
  EXPECT_THROW(model::apply_delta(instance, unknown_job),
               std::invalid_argument);
  model::Delta duplicate;
  duplicate.departures = {1, 1};
  EXPECT_THROW(model::apply_delta(instance, duplicate),
               std::invalid_argument);
  model::Delta bad_size;
  bad_size.resizes = {model::JobResize{0, -1.0}};
  EXPECT_THROW(model::apply_delta(instance, bad_size),
               std::invalid_argument);
  model::Delta no_machines;
  no_machines.failed_machines = {0, 1};
  EXPECT_THROW(model::apply_delta(instance, no_machines),
               std::invalid_argument);
}

// --- Migration cost --------------------------------------------------------

/// Brute force: enumerate surviving (old, new) job pairs and compare their
/// machines through the delta's machine renaming, counting mismatches and
/// jobs stranded on failed machines.
int brute_force_migration(const model::Schedule& prev,
                          const model::Schedule& next,
                          const model::DeltaMap& map) {
  int moved = 0;
  for (model::JobId old_job = 0; old_job < prev.num_jobs(); ++old_job) {
    const model::JobId new_job =
        map.new_job_of[static_cast<std::size_t>(old_job)];
    if (new_job == model::kRemovedJob) continue;
    const model::MachineId old_machine = prev.machine_of(old_job);
    bool same = false;
    if (old_machine != model::kUnassigned) {
      const model::MachineId renamed =
          map.new_machine_of[static_cast<std::size_t>(old_machine)];
      same = renamed != model::kUnassigned &&
             next.machine_of(new_job) == renamed;
    }
    if (!same) ++moved;
  }
  return moved;
}

TEST(MigrationCostTest, MatchesBruteForceOnRandomSchedules) {
  util::Xoshiro256 rng(99);
  const auto trace = gen::churn_trace(small_churn(21));
  model::Instance current = trace.initial;
  for (const auto& delta : trace.deltas) {
    model::DeltaMap map;
    const model::Instance next_instance =
        model::apply_delta(current, delta, &map);
    // Random (not necessarily feasible) assignments on both sides: the
    // migration count is a pure schedule diff, independent of feasibility.
    model::Schedule prev(current.num_jobs(), current.num_machines());
    for (model::JobId job = 0; job < current.num_jobs(); ++job) {
      prev.assign(job, static_cast<model::MachineId>(rng.index(
                           static_cast<std::size_t>(current.num_machines()))));
    }
    model::Schedule next(next_instance.num_jobs(),
                         next_instance.num_machines());
    for (model::JobId job = 0; job < next_instance.num_jobs(); ++job) {
      next.assign(job,
                  static_cast<model::MachineId>(rng.index(
                      static_cast<std::size_t>(next_instance.num_machines()))));
    }
    EXPECT_EQ(online::migration_cost(prev, next, map),
              brute_force_migration(prev, next, map));
    current = next_instance;
  }
}

TEST(MigrationCostTest, PureRenumberingIsNotMigration) {
  // One machine fails; every job on the other machines keeps its (renamed)
  // machine. Only the failed machine's job counts as moved.
  const auto instance = model::Instance::from_vectors(
      {1.0, 1.0, 1.0}, {0, 1, 2}, 3);
  model::Schedule prev(3, 3);
  prev.assign(0, 0);
  prev.assign(1, 1);
  prev.assign(2, 2);
  model::Delta delta;
  delta.failed_machines = {0};
  model::DeltaMap map;
  model::apply_delta(instance, delta, &map);
  // No departures, so job ids survive unchanged; machines 1 and 2 are
  // renamed to 0 and 1. Keeping the renamed machine is not migration.
  model::Schedule next(3, 2);
  next.assign(0, 0);  // machine 0 failed: moved wherever it lands
  next.assign(1, 0);  // renamed 1 -> 0: stayed
  next.assign(2, 1);  // renamed 2 -> 1: stayed
  EXPECT_EQ(online::migration_cost(prev, next, map), 1);
}

// --- ScheduleSession -------------------------------------------------------

TEST(ScheduleSessionTest, RepairsChurnWithinTheRegretBound) {
  const auto trace = gen::churn_trace(small_churn(31));
  online::ScheduleSession session(trace.initial, quick_session());
  EXPECT_EQ(session.revision(), 0u);
  EXPECT_TRUE(session.last_result().ok());

  std::uint64_t committed = 0;
  for (const auto& delta : trace.deltas) {
    const api::SolveResult result = session.apply(delta);
    ASSERT_TRUE(result.ok()) << result.error;
    ++committed;
    EXPECT_EQ(session.revision(), committed);
    // The acceptance contract: every committed schedule is within the
    // regret bound of the combined lower bound (hence of any solver).
    EXPECT_LE(session.makespan(),
              (1.0 + session.options().regret_bound) *
                  session.lower_bound() * (1.0 + 1e-9));
    EXPECT_TRUE(model::validate(session.instance(), session.schedule()).ok());
    // Migration fields are filled on every delta result.
    EXPECT_GE(result.moved_jobs, 0);
    EXPECT_GE(result.migration_ratio, 0.0);
    EXPECT_LE(result.migration_ratio, 1.0);
  }
  const auto& stats = session.stats();
  EXPECT_EQ(stats.deltas, trace.deltas.size());
  EXPECT_EQ(stats.noops + stats.memo_hits + stats.repairs +
                stats.region_resolves + stats.fresh_solves,
            trace.deltas.size());
  // Repair must be the common path on gentle churn — that is the point.
  EXPECT_GT(stats.repairs + stats.memo_hits + stats.noops,
            stats.fresh_solves);
}

TEST(ScheduleSessionTest, NoopDeltaDoesNotAdvanceTheRevision) {
  const auto trace = gen::churn_trace(small_churn(41));
  online::ScheduleSession session(trace.initial, quick_session());
  const double makespan = session.makespan();
  const api::SolveResult result = session.apply(model::Delta{});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(api::stat_str(result.stats, "online.path"), "noop");
  EXPECT_EQ(result.moved_jobs, 0);
  EXPECT_EQ(session.revision(), 0u);
  EXPECT_DOUBLE_EQ(session.makespan(), makespan);
  EXPECT_EQ(session.stats().noops, 1u);
}

TEST(ScheduleSessionTest, UndoneChurnHitsTheMemo) {
  const auto trace = gen::churn_trace(small_churn(51));
  online::ScheduleSession session(trace.initial, quick_session());

  model::Delta delta;
  delta.departures = {0, 3};
  model::DeltaMap map;
  model::apply_delta(trace.initial, delta, &map);
  const model::Delta undo =
      model::inverse_delta(trace.initial, delta, map);

  ASSERT_TRUE(session.apply(delta).ok());
  const api::SolveResult back = session.apply(undo);
  ASSERT_TRUE(back.ok());
  // Undoing the churn reproduces the initial instance's exact fingerprint,
  // which the session memoized at open: no solving, no regret.
  EXPECT_EQ(api::stat_str(back.stats, "online.path"), "memo");
  EXPECT_EQ(session.stats().memo_hits, 1u);
  EXPECT_EQ(session.revision(), 2u);
}

TEST(ScheduleSessionTest, InfeasibleDeltaIsRejectedAndStateKept) {
  // Bag 0 holds 2 jobs on 2 machines; failing one machine leaves the bag
  // over-subscribed (2 > 1) — an Infeasible answer, not a commit.
  const auto instance = model::Instance::from_vectors(
      {1.0, 2.0, 3.0}, {0, 0, 1}, 2);
  online::ScheduleSession session(instance, quick_session());
  const double makespan = session.makespan();
  model::Delta fail;
  fail.failed_machines = {1};
  const api::SolveResult result = session.apply(fail);
  EXPECT_EQ(result.status, api::SolveStatus::Infeasible);
  EXPECT_EQ(session.revision(), 0u);
  EXPECT_DOUBLE_EQ(session.makespan(), makespan);
  EXPECT_EQ(session.instance().num_machines(), 2);
  EXPECT_EQ(session.stats().rejected, 1u);
  // The session keeps working after the rejection.
  model::Delta grow;
  grow.machines_added = 1;
  EXPECT_TRUE(session.apply(grow).ok());
}

TEST(ScheduleSessionTest, MachineFailureMigratesTheStrandedJobs) {
  // 12 jobs in bags of 3 on 4 machines: still feasible after one failure
  // (bag size 3 <= 3 machines), unlike a random churn instance whose
  // largest bag may already fill every machine.
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  util::Xoshiro256 rng(5);
  for (int job = 0; job < 12; ++job) {
    sizes.push_back(rng.uniform_real(0.5, 1.5));
    bags.push_back(job % 4);
  }
  const auto instance = model::Instance::from_vectors(sizes, bags, 4);
  online::ScheduleSession session(instance, quick_session());
  int stranded = 0;
  for (model::JobId job = 0; job < instance.num_jobs(); ++job) {
    if (session.schedule().machine_of(job) == 0) ++stranded;
  }
  model::Delta fail;
  fail.failed_machines = {0};
  const api::SolveResult result = session.apply(fail);
  ASSERT_TRUE(result.ok()) << result.error;
  // Every job of the failed machine had to move.
  EXPECT_GE(result.moved_jobs, stranded);
  EXPECT_EQ(session.instance().num_machines(), 3);
}

TEST(ScheduleSessionTest, ResizeReachesTheRegionStage) {
  // Adopted schedule {4, 1} | {1}; the delta grows the 1 next to the 4 into
  // a 3 (makespan 7, lower bound 4). With polishing off and no regret
  // allowed, repair misses the bound, and the region stage re-places just
  // the resized job optimally: onto the other machine, makespan 4.
  const auto instance = model::Instance::without_bags({4.0, 1.0, 1.0}, 2);
  model::Schedule committed(3, 2);
  committed.assign(0, 0);
  committed.assign(1, 0);
  committed.assign(2, 1);
  online::SessionOptions options = quick_session();
  options.regret_bound = 0.0;
  options.repair_moves = 0;
  online::ScheduleSession session(instance, committed, options);

  model::Delta resize;
  resize.resizes = {{1, 3.0}};
  const api::SolveResult result = session.apply(resize);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(api::stat_str(result.stats, "online.path"), "region");
  EXPECT_EQ(session.stats().region_resolves, 1u);
  EXPECT_EQ(session.makespan(), 4.0);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.moved_jobs, 1);
  EXPECT_EQ(session.schedule().machine_of(0), 0);
  EXPECT_EQ(session.schedule().machine_of(1), 1);
  EXPECT_TRUE(model::validate(session.instance(), session.schedule()).ok());
}

// --- Service sessions ------------------------------------------------------

TEST(ServiceSessionTest, OpenDeltaCloseLifecycle) {
  api::SchedulingService service({.num_threads = 2});
  const auto trace = gen::churn_trace(small_churn(71));
  api::SolveOptions options;
  options.seed = 5;
  auto opening = service.open_session(
      api::make_request(trace.initial, options, {"greedy-bags"}));
  ASSERT_GE(opening.session, 1u);
  const api::SolveResult& initial = opening.initial.wait();
  ASSERT_TRUE(initial.ok()) << initial.error;

  auto handle = service.submit(
      api::make_delta_request(opening.session, trace.deltas.front()));
  const api::SolveResult& repaired = handle.wait();
  ASSERT_TRUE(repaired.ok()) << repaired.error;
  EXPECT_GE(repaired.moved_jobs, 0);
  EXPECT_EQ(api::stat_int(repaired.stats, "online.revision"), 1);

  EXPECT_TRUE(service.close_session(opening.session));
  EXPECT_FALSE(service.close_session(opening.session));
  // Deltas after close resolve as errors, they do not hang.
  auto late = service.submit(
      api::make_delta_request(opening.session, trace.deltas.front()));
  EXPECT_EQ(late.wait().status, api::SolveStatus::Error);

  const auto stats = service.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_GE(stats.session_deltas, 1u);
}

TEST(ServiceSessionTest, UnknownSessionResolvesWithError) {
  api::SchedulingService service({.num_threads = 1});
  auto handle = service.submit(api::make_delta_request(404, model::Delta{}));
  const api::SolveResult& result = handle.wait();
  EXPECT_EQ(result.status, api::SolveStatus::Error);
  EXPECT_NE(result.error.find("unknown session"), std::string::npos);
}

TEST(ServiceSessionTest, DeltasSerializeFifoPerSession) {
  api::SchedulingService service({.num_threads = 4});
  const auto trace = gen::churn_trace(small_churn(81));
  api::SolveOptions options;
  options.seed = 5;
  auto opening = service.open_session(
      api::make_request(trace.initial, options, {"greedy-bags"}));
  // Enqueue every delta at once; per-session FIFO must apply them in
  // submit order, so the revisions come back strictly increasing.
  std::vector<api::SolveHandle> handles;
  for (const auto& delta : trace.deltas) {
    handles.push_back(
        service.submit(api::make_delta_request(opening.session, delta)));
  }
  long long revision = 0;
  for (auto& handle : handles) {
    const api::SolveResult& result = handle.wait();
    ASSERT_TRUE(result.ok()) << result.error;
    const long long at = api::stat_int(result.stats, "online.revision");
    EXPECT_EQ(at, revision + 1);
    revision = at;
  }
  service.close_session(opening.session);
  service.wait_idle();
}

// --- Serialization ---------------------------------------------------------

TEST(OnlineSerializeTest, DeltaJsonRoundTrip) {
  model::Delta delta;
  delta.arrivals = {model::JobArrival{0.75, 3}, model::JobArrival{1.5, 9}};
  delta.departures = {2, 5};
  delta.resizes = {model::JobResize{1, 2.25}};
  delta.machines_added = 2;
  delta.failed_machines = {0};
  const model::Delta back = api::delta_from_json(api::to_json(delta));
  ASSERT_EQ(back.arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(back.arrivals[0].size, 0.75);
  EXPECT_EQ(back.arrivals[1].bag, 9);
  EXPECT_EQ(back.departures, delta.departures);
  ASSERT_EQ(back.resizes.size(), 1u);
  EXPECT_EQ(back.resizes[0].job, 1);
  EXPECT_DOUBLE_EQ(back.resizes[0].size, 2.25);
  EXPECT_EQ(back.machines_added, 2);
  EXPECT_EQ(back.failed_machines, delta.failed_machines);
  // An empty object parses as a noop delta.
  EXPECT_TRUE(model::is_noop(api::delta_from_json(util::Json::object())));
}

TEST(OnlineSerializeTest, DeltaRequestJsonRoundTrip) {
  model::Delta delta;
  delta.departures = {1};
  api::DeltaRequest request = api::make_delta_request(17, delta);
  request.priority = 3;
  const api::DeltaRequest back =
      api::delta_request_from_json(api::to_json(request));
  EXPECT_EQ(back.session, 17u);
  EXPECT_EQ(back.delta.departures, delta.departures);
  EXPECT_EQ(back.priority, 3);
}

TEST(OnlineSerializeTest, MigrationFieldsRoundTripOnResults) {
  api::SolveResult result;
  result.status = api::SolveStatus::Feasible;
  result.makespan = 4.0;
  result.moved_jobs = 7;
  result.migration_ratio = 0.25;
  const api::SolveResult back =
      api::solve_result_from_json(api::to_json(result, false));
  EXPECT_EQ(back.moved_jobs, 7);
  EXPECT_DOUBLE_EQ(back.migration_ratio, 0.25);
  // A plain solve result stays marked "not a delta result".
  api::SolveResult plain;
  plain.status = api::SolveStatus::Feasible;
  EXPECT_EQ(api::solve_result_from_json(api::to_json(plain, false)).moved_jobs,
            -1);
}

}  // namespace
}  // namespace bagsched
