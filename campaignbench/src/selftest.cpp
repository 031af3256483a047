// Self-test: every correctness check must refuse a tampered copy of a real
// result. Runs on fixed inputs that do not depend on the workload seed.
#include "selftest.h"

#include <memory>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "sim/mission.h"

namespace campaignbench {

namespace fuzz = swarmfuzz::fuzz;
namespace sim = swarmfuzz::sim;

void run_self_test(CheckLog& log) {
  fuzz::FuzzerConfig config;
  config.spoof_distance = 10.0;
  config.eval_threads = 1;
  config.sim.sim_threads = 1;
  sim::MissionConfig mission_config;
  mission_config.num_drones = 5;

  // The first mission of a fixed seed range on which SwarmFuzz finds an SPV.
  const auto fuzzer = fuzz::make_fuzzer(fuzz::FuzzerKind::kSwarmFuzz, config);
  sim::MissionSpec mission;
  fuzz::FuzzResult result;
  for (std::uint64_t seed = 1000; seed < 1064 && !result.found; ++seed) {
    mission = sim::generate_mission(mission_config, seed);
    result = fuzzer->fuzz(mission);
  }
  log.expect(result.found, "self-test: no SPV found on the fixed missions");
  if (!result.found) return;

  // The untampered result passes every check.
  const CleanTruth clean = clean_truth_run(mission, config);
  const double tolerance = tick_travel(config);
  log.expect(spv_replay_failure(mission, result, config).empty(),
             "self-test: the genuine SPV does not replay");
  log.expect(vdo_mismatch(result.mission_vdo, clean.vdo, tolerance).empty(),
             "self-test: the genuine mission VDO is refused");

  // A window shifted past the end of the mission spoofs nothing.
  fuzz::FuzzResult shifted = result;
  shifted.plan.start_time = result.clean_mission_time + 1.0;
  log.expect(!spv_replay_failure(mission, shifted, config).empty(),
             "self-test: a shifted SPV window is accepted");

  fuzz::FuzzResult other_victim = result;
  other_victim.victim = (result.victim + 1) % mission.num_drones();
  if (other_victim.victim == result.plan.target) {
    other_victim.victim = (other_victim.victim + 1) % mission.num_drones();
  }
  log.expect(!spv_replay_failure(mission, other_victim, config).empty(),
             "self-test: a different victim is accepted");

  log.expect(!vdo_mismatch(result.mission_vdo + 2.0 * tolerance, clean.vdo, tolerance)
                  .empty(),
             "self-test: a VDO moved beyond tolerance is accepted");

  fuzz::MissionOutcome outcome;
  outcome.mission_index = 0;
  outcome.completed = true;
  outcome.result = result;
  log.expect(fuzz::deterministic_equal(outcome, outcome),
             "self-test: an outcome differs from itself");
  fuzz::MissionOutcome flipped = outcome;
  flipped.result.iterations += 1;
  log.expect(!fuzz::deterministic_equal(outcome, flipped),
             "self-test: a flipped iteration count compares equal");
  flipped = outcome;
  flipped.result.found = !flipped.result.found;
  log.expect(!fuzz::deterministic_equal(outcome, flipped),
             "self-test: a flipped found flag compares equal");
}

}  // namespace campaignbench
