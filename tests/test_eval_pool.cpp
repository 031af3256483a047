#include "fuzz/eval_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <tuple>
#include <span>
#include <stdexcept>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "sim/fault.h"
#include "swarm/vasarhelyi.h"

namespace swarmfuzz::fuzz {
namespace {

// ---------------------------------------------------------------------------
// split_eval_threads: the campaign's workers/eval-threads budget split.

TEST(EvalPool, SplitEvalThreadsAutoDividesHardware) {
  EXPECT_EQ(split_eval_threads(1, 0, 8), 8);
  EXPECT_EQ(split_eval_threads(2, 0, 8), 4);
  EXPECT_EQ(split_eval_threads(3, 0, 8), 2);  // floor(8 / 3)
  EXPECT_EQ(split_eval_threads(8, 0, 8), 1);
  EXPECT_EQ(split_eval_threads(16, 0, 8), 1);  // oversubscribed workers
}

TEST(EvalPool, SplitEvalThreadsClampsExplicitRequests) {
  EXPECT_EQ(split_eval_threads(2, 2, 8), 2);   // fits: honoured
  EXPECT_EQ(split_eval_threads(2, 16, 8), 4);  // clamped to hardware / workers
  EXPECT_EQ(split_eval_threads(8, 4, 8), 1);   // no headroom left
  EXPECT_EQ(split_eval_threads(1, 4, 8), 4);
}

TEST(EvalPool, SplitEvalThreadsDegenerateInputsStaySane) {
  EXPECT_EQ(split_eval_threads(0, 0, 0), 1);
  EXPECT_EQ(split_eval_threads(-3, -1, -2), 1);
  EXPECT_EQ(split_eval_threads(1, 1, 1), 1);
  // hardware_concurrency() == 0 ("not computable") must never produce a
  // zero-thread worker, whatever the worker count says.
  EXPECT_EQ(split_eval_threads(4, 0, 0), 1);
  EXPECT_EQ(split_eval_threads(4, 8, 0), 1);
  // Zero workers clamp to one before the division, not after.
  EXPECT_EQ(split_eval_threads(0, 2, 8), 2);
  EXPECT_EQ(split_eval_threads(0, 0, 8), 8);
}

TEST(EvalPool, HardwareThreadsNeverReportsZero) {
  // The standard allows hardware_concurrency() to return 0; every
  // worker-count division in the fuzzing layer relies on this floor.
  EXPECT_GE(hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// split_thread_budget: the three-way workers x eval x sim budget.

TEST(SplitThreadBudget, BothAutoKeepsHistoricalSplit) {
  // Auto-auto = all eval threads, serial ticks (the pre-sim-threads split).
  EXPECT_EQ(split_thread_budget(1, 0, 0, 8).eval_threads, 8);
  EXPECT_EQ(split_thread_budget(1, 0, 0, 8).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(2, 0, 0, 8).eval_threads, 4);
  EXPECT_EQ(split_thread_budget(2, 0, 0, 8).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(16, 0, 0, 8).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(16, 0, 0, 8).sim_threads, 1);
}

TEST(SplitThreadBudget, ExplicitEvalLeavesRemainderToSim) {
  const ThreadBudget b = split_thread_budget(1, 2, 0, 8);
  EXPECT_EQ(b.eval_threads, 2);
  EXPECT_EQ(b.sim_threads, 4);  // 8 / 2 left for intra-tick parallelism
}

TEST(SplitThreadBudget, ExplicitSimLeavesRemainderToEval) {
  const ThreadBudget b = split_thread_budget(1, 0, 2, 8);
  EXPECT_EQ(b.sim_threads, 2);
  EXPECT_EQ(b.eval_threads, 4);
}

TEST(SplitThreadBudget, BothExplicitClampedToWorkerShare) {
  // workers = 2 on 8 cores -> per-worker share of 4; eval = 3 fits, but
  // sim = 5 must clamp so eval x sim stays within the share.
  const ThreadBudget b = split_thread_budget(2, 3, 5, 8);
  EXPECT_EQ(b.eval_threads, 3);
  EXPECT_EQ(b.sim_threads, 1);
}

TEST(SplitThreadBudget, FullyOversubscribedDegenerateClampsToOne) {
  // workers = eval = sim = hardware would be hw^3 threads; every dimension
  // must clamp back to >= 1 and the product must respect the worker share.
  const ThreadBudget b = split_thread_budget(8, 8, 8, 8);
  EXPECT_EQ(b.eval_threads, 1);
  EXPECT_EQ(b.sim_threads, 1);
}

TEST(SplitThreadBudget, DegenerateInputsStaySane) {
  EXPECT_EQ(split_thread_budget(0, 0, 0, 0).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(0, 0, 0, 0).sim_threads, 1);
  EXPECT_EQ(split_thread_budget(-3, -1, -2, -4).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(-3, -1, -2, -4).sim_threads, 1);
  // Unknown hardware concurrency (0) never yields a zero-thread budget.
  EXPECT_EQ(split_thread_budget(4, 8, 8, 0).eval_threads, 1);
  EXPECT_EQ(split_thread_budget(4, 8, 8, 0).sim_threads, 1);
}

// ---------------------------------------------------------------------------
// EvalPool: batch outcomes must match direct serial evaluation bit for bit.

struct PoolFixture {
  PoolFixture() {
    sim_config.dt = 0.05;
    sim_config.gps.rate_hz = 20.0;
    sim::MissionConfig mc;
    mc.num_drones = 5;
    mission = sim::generate_mission(mc, 1005);
    controller = std::make_shared<swarm::VasarhelyiController>();
  }

  sim::SimulationConfig sim_config;
  sim::MissionSpec mission;
  std::shared_ptr<const swarm::VasarhelyiController> controller;
  Seed seed{.target = 0, .victim = 1,
            .direction = attack::SpoofDirection::kRight};
};

// Serial reference for one job: a fresh simulator/system clone, like each
// lane owns.
void expect_matches_serial(const PoolFixture& f,
                           std::span<const EvalPool::BatchContext> contexts,
                           std::span<const EvalPool::Job> jobs,
                           const std::vector<EvalPool::JobResult>& results) {
  ASSERT_EQ(results.size(), jobs.size());
  const sim::Simulator simulator(f.sim_config);
  swarm::FlockingControlSystem system(f.controller, {});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_FALSE(results[i].error) << "job " << i;
    const EvalPool::BatchContext& context = contexts[jobs[i].context];
    const AttackEvalOutcome serial = evaluate_attack(
        *context.mission, simulator, system, context.seed,
        context.spoof_distance, context.prefix, context.guards,
        jobs[i].t_start, jobs[i].duration);
    EXPECT_EQ(results[i].eval.f, serial.eval.f) << "job " << i;
    EXPECT_EQ(results[i].eval.success, serial.eval.success);
    EXPECT_EQ(results[i].eval.crashed_drone, serial.eval.crashed_drone);
    EXPECT_EQ(results[i].eval.end_time, serial.eval.end_time);
    EXPECT_EQ(results[i].eval.drone_clearance, serial.eval.drone_clearance);
    EXPECT_EQ(results[i].steps_executed, serial.steps_executed);
    EXPECT_EQ(results[i].steps_resumed, serial.steps_resumed);
  }
}

TEST(EvalPool, BatchResultsMatchSerialEvaluation) {
  PoolFixture f;
  const EvalPool::BatchContext context{
      .mission = &f.mission, .seed = f.seed, .spoof_distance = 10.0};
  const std::vector<EvalPool::Job> jobs{
      {10.0, 20.0}, {30.0, 15.0}, {5.0, 5.0}, {18.0, 12.0}};

  // One batch mixing two seeds and both spoofing directions, interleaved
  // so neighbouring jobs switch context.
  const std::vector<EvalPool::BatchContext> mixed{
      context,
      {.mission = &f.mission,
       .seed = {.target = 2, .victim = 3,
                .direction = attack::SpoofDirection::kLeft},
       .spoof_distance = 10.0},
      {.mission = &f.mission,
       .seed = {.target = 0, .victim = 1,
                .direction = attack::SpoofDirection::kLeft},
       .spoof_distance = 10.0}};
  const std::vector<EvalPool::Job> mixed_jobs{
      {10.0, 20.0, 1}, {10.0, 20.0, 0}, {30.0, 15.0, 2}, {5.0, 5.0, 1},
      {18.0, 12.0, 0}, {18.0, 12.0, 2}, {30.0, 15.0, 1}};

  // One thread: the caller is the only lane; two and three: lane 0 on the
  // caller plus one and two workers.
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    EvalPool pool(f.sim_config, f.controller, {}, threads);
    EXPECT_EQ(pool.threads(), threads);
    expect_matches_serial(f, {&context, 1}, jobs,
                          pool.evaluate({&context, 1}, jobs));
    expect_matches_serial(f, mixed, mixed_jobs, pool.evaluate(mixed, mixed_jobs));
  }
}

TEST(EvalPool, SingleThreadRunsInlineWithoutWorkers) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 1);
  EXPECT_EQ(pool.threads(), 1);
  const std::vector<EvalPool::Job> jobs{{10.0, 20.0}};
  const EvalPool::BatchContext context{
      .mission = &f.mission, .seed = f.seed, .spoof_distance = 10.0};
  const auto results = pool.evaluate({&context, 1}, jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].error);
  EXPECT_GT(results[0].steps_executed, 0);
}

TEST(EvalPool, EmptyBatchReturnsEmpty) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  const EvalPool::BatchContext context{
      .mission = &f.mission, .seed = f.seed, .spoof_distance = 10.0};
  EXPECT_TRUE(pool.evaluate({&context, 1}, {}).empty());
}

TEST(EvalPool, RejectsJobNamingMissingContext) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  const EvalPool::BatchContext context{
      .mission = &f.mission, .seed = f.seed, .spoof_distance = 10.0};
  const std::vector<EvalPool::Job> jobs{{10.0, 20.0, 0}, {30.0, 15.0, 1}};
  EXPECT_THROW((void)pool.evaluate({&context, 1}, jobs), std::invalid_argument);
  // Nothing ran, and the pool still serves a well-formed batch.
  EXPECT_EQ(pool.evaluate({&context, 1}, std::span(jobs).first(1)).size(), 1u);
}

TEST(EvalPool, CapturesGuardTripsPerJob) {
  // A one-step watchdog trips every simulation; the pool must capture the
  // RunFaultError in each job's slot instead of tearing down a lane.
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  EvalGuards guards;
  guards.watchdog.max_steps = 1;
  const std::vector<EvalPool::Job> jobs{{10.0, 20.0}, {30.0, 15.0}};
  const EvalPool::BatchContext context{.mission = &f.mission,
                                       .seed = f.seed,
                                       .spoof_distance = 10.0,
                                       .guards = &guards};
  const auto results = pool.evaluate({&context, 1}, jobs);
  ASSERT_EQ(results.size(), 2u);
  for (const EvalPool::JobResult& r : results) {
    ASSERT_TRUE(r.error);
    EXPECT_THROW(std::rethrow_exception(r.error), sim::RunFaultError);
  }

  // The pool stays usable after a faulted batch.
  const EvalPool::BatchContext unguarded{
      .mission = &f.mission, .seed = f.seed, .spoof_distance = 10.0};
  const auto ok = pool.evaluate({&unguarded, 1}, jobs);
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_FALSE(ok[0].error);
  EXPECT_FALSE(ok[1].error);
}

// ---------------------------------------------------------------------------
// Objective::evaluate_batches: one pool batch across objectives must commit
// exactly what evaluating the groups serially, one after another, commits.

struct GroupedRun {
  std::vector<std::tuple<int, std::size_t, double>> consumed;  // group, entry, f
  // Per objective: evaluations, memo hits, batches, steps executed/reused.
  std::vector<std::array<std::int64_t, 5>> counters;
};

GroupedRun run_grouped(const PoolFixture& f, EvalPool* pool, int stop_group,
                       std::size_t stop_entry) {
  const sim::Simulator simulator(f.sim_config);
  swarm::FlockingControlSystem system(f.controller, {});
  const double t_mission = simulator.run(f.mission, system).end_time;
  Objective a(f.mission, simulator, system, f.seed, 10.0, t_mission, nullptr,
              nullptr, pool);
  Objective b(f.mission, simulator, system,
              Seed{.target = 2, .victim = 3,
                   .direction = attack::SpoofDirection::kLeft},
              10.0, t_mission, nullptr, nullptr, pool);
  (void)a.evaluate(30.0, 15.0);  // memoised before the call: a replay hit

  // Group 0 repeats a window, group 2 goes back to objective `a` and
  // repeats group 0's windows.
  const std::vector<EvalRequest> first{{10.0, 20.0}, {30.0, 15.0}, {10.0, 20.0}};
  const std::vector<EvalRequest> second{{5.0, 5.0}, {18.0, 12.0}};
  const std::vector<EvalRequest> third{{18.0, 12.0}, {10.0, 20.0}};
  GroupedRun run;
  const auto consumer = [&](int group) -> BatchConsumer {
    return [&run, group, stop_group, stop_entry](std::size_t i,
                                                 const ObjectiveEval& e) {
      run.consumed.emplace_back(group, i, e.f);
      return group != stop_group || i != stop_entry;
    };
  };
  const std::vector<ObjectiveBatch> groups{{&a, first, consumer(0)},
                                           {&b, second, consumer(1)},
                                           {&a, third, consumer(2)}};
  Objective::evaluate_batches(groups);
  for (const Objective* o : {&a, &b}) {
    run.counters.push_back({o->evaluations(), o->memo_hits(), o->eval_batches(),
                            o->sim_steps_executed(), o->prefix_steps_reused()});
  }
  return run;
}

TEST(EvalPool, GroupedBatchesCommitLikeSerialGroups) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 3);
  // Run to the end, then stop at the first entry of the middle group: the
  // pool has already simulated the last group, which must leave no trace.
  for (const int stop_group : {-1, 1}) {
    SCOPED_TRACE(stop_group);
    const GroupedRun serial = run_grouped(f, nullptr, stop_group, 0);
    const GroupedRun pooled = run_grouped(f, &pool, stop_group, 0);
    EXPECT_EQ(pooled.consumed, serial.consumed);
    EXPECT_EQ(pooled.counters, serial.counters);
  }
  const GroupedRun stopped = run_grouped(f, &pool, 1, 0);
  ASSERT_EQ(stopped.consumed.size(), 4u);
  EXPECT_EQ(stopped.counters[0][2], 1);  // group 2 never reached: not counted
  EXPECT_EQ(stopped.counters[1][2], 1);
}

TEST(EvalPool, GroupedBatchesRejectMixedPools) {
  PoolFixture f;
  EvalPool pool(f.sim_config, f.controller, {}, 2);
  const sim::Simulator simulator(f.sim_config);
  swarm::FlockingControlSystem system(f.controller, {});
  Objective pooled(f.mission, simulator, system, f.seed, 10.0, 60.0, nullptr,
                   nullptr, &pool);
  Objective serial(f.mission, simulator, system, f.seed, 10.0, 60.0);
  const std::vector<EvalRequest> requests{{10.0, 20.0}};
  const BatchConsumer accept = [](std::size_t, const ObjectiveEval&) {
    return true;
  };
  const std::vector<ObjectiveBatch> groups{{&pooled, requests, accept},
                                           {&serial, requests, accept}};
  EXPECT_THROW(Objective::evaluate_batches(groups), std::invalid_argument);
  EXPECT_EQ(pooled.evaluations(), 0);
  EXPECT_EQ(serial.evaluations(), 0);
}

// ---------------------------------------------------------------------------
// Golden parallel-vs-serial: a search run with --eval-threads N must be
// bit-identical (deterministic_equal) to the serial run, across both vehicle
// models and with prefix reuse on and off.

FuzzResult run_search(int eval_threads, sim::VehicleType vehicle,
                      bool prefix_reuse, std::uint64_t mission_seed,
                      int budget) {
  FuzzerConfig config;
  config.spoof_distance = 10.0;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  config.sim.vehicle = vehicle;
  config.prefix_reuse = prefix_reuse;
  config.mission_budget = budget;
  config.eval_threads = eval_threads;
  auto fuzzer = make_fuzzer(FuzzerKind::kSwarmFuzz, config);
  sim::MissionConfig mc;
  mc.num_drones = 5;
  return fuzzer->fuzz(sim::generate_mission(mc, mission_seed));
}

void expect_golden(sim::VehicleType vehicle, bool prefix_reuse,
                   std::uint64_t mission_seed, int budget) {
  const FuzzResult serial =
      run_search(1, vehicle, prefix_reuse, mission_seed, budget);
  const FuzzResult parallel =
      run_search(4, vehicle, prefix_reuse, mission_seed, budget);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
  // The batch *shape* of the search is thread-count independent too; only
  // the parallelism differs.
  EXPECT_EQ(serial.eval_batches, parallel.eval_batches);
  EXPECT_GT(parallel.eval_batches, 0);
  EXPECT_EQ(serial.eval_parallelism, 1);
  EXPECT_EQ(parallel.eval_parallelism, 4);
  EXPECT_FALSE(serial.clean_run_failed);
  EXPECT_GT(serial.attempts_tried, 0);
}

TEST(ParallelSearch, GoldenPointMassPrefixReuse) {
  // Seed 1013 is attackable at 10 m: exercises the success/early-stop path.
  expect_golden(sim::VehicleType::kPointMass, true, 1013, 60);
}

TEST(ParallelSearch, GoldenPointMassNoPrefix) {
  expect_golden(sim::VehicleType::kPointMass, false, 1013, 12);
}

TEST(ParallelSearch, GoldenPointMassStallPath) {
  // Seed 1000 resists 10 m spoofing: exercises stall/abandon replay.
  expect_golden(sim::VehicleType::kPointMass, true, 1000, 20);
}

TEST(ParallelSearch, GoldenQuadrotorPrefixReuse) {
  expect_golden(sim::VehicleType::kQuadrotor, true, 1013, 8);
}

TEST(ParallelSearch, GoldenQuadrotorNoPrefix) {
  expect_golden(sim::VehicleType::kQuadrotor, false, 1013, 6);
}

TEST(ParallelSearch, CampaignIndependentOfEvalThreads) {
  // Campaign results must not depend on the eval-thread split either. On a
  // small machine split_eval_threads may clamp the request back to 1; the
  // invariant holds for whatever split is granted.
  CampaignConfig base;
  base.mission.num_drones = 5;
  base.fuzzer.spoof_distance = 10.0;
  base.fuzzer.sim.dt = 0.05;
  base.fuzzer.sim.gps.rate_hz = 20.0;
  base.fuzzer.mission_budget = 10;
  base.num_missions = 3;
  base.num_threads = 1;
  base.base_seed = 1000;

  CampaignConfig serial = base;
  serial.fuzzer.eval_threads = 1;
  CampaignConfig parallel = base;
  parallel.fuzzer.eval_threads = 2;

  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(parallel);
  EXPECT_TRUE(deterministic_equal(a, b));
}

}  // namespace
}  // namespace swarmfuzz::fuzz
