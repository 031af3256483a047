// E_Fuzz end-to-end: determinism across eval-thread counts and prefix
// reuse, corpus persistence/resume, counter plumbing, degenerate inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "sim/fault.h"
#include "swarm/flocking_system.h"

namespace swarmfuzz::fuzz {
namespace {

FuzzerConfig fast_config(double spoof_distance = 10.0) {
  FuzzerConfig config;
  config.spoof_distance = spoof_distance;
  config.sim.dt = 0.05;
  config.sim.gps.rate_hz = 20.0;
  return config;
}

sim::MissionSpec mission_with(std::uint64_t seed, int drones = 5) {
  sim::MissionConfig config;
  config.num_drones = drones;
  return sim::generate_mission(config, seed);
}

std::string fresh_corpus_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_evo_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Evolutionary, KindNameAndFactory) {
  EXPECT_EQ(fuzzer_kind_name(FuzzerKind::kEvolutionary), "E_Fuzz");
  EXPECT_EQ(make_fuzzer(FuzzerKind::kEvolutionary, fast_config())->name(),
            "E_Fuzz");
}

TEST(Evolutionary, BitIdenticalAcrossEvalThreads) {
  // The determinism contract of the whole mode: for a fixed seed, the search
  // outcome AND the persisted corpus are bit-identical for any eval-thread
  // count (batch composition depends only on the RNG stream and corpus
  // state, both advancing in replay = submission order).
  const sim::MissionSpec mission = mission_with(1000);  // robust: full budget
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 24;

  const std::string dir_serial = fresh_corpus_dir("serial");
  const std::string dir_pool = fresh_corpus_dir("pool");
  config.eval_threads = 1;
  config.evolution.corpus_dir = dir_serial;
  const FuzzResult serial =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  config.eval_threads = 4;
  config.evolution.corpus_dir = dir_pool;
  const FuzzResult pooled =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);

  EXPECT_TRUE(deterministic_equal(serial, pooled));
  EXPECT_EQ(serial.iterations, 24);
  const std::string file = "/corpus_" + std::to_string(mission.seed) + ".jsonl";
  EXPECT_EQ(slurp(dir_serial + file), slurp(dir_pool + file));
  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_pool);
}

TEST(Evolutionary, BitIdenticalAcrossPrefixReuse) {
  const sim::MissionSpec mission = mission_with(1002);
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  config.prefix_reuse = true;
  const FuzzResult with_prefix =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  config.prefix_reuse = false;
  const FuzzResult without_prefix =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  EXPECT_TRUE(deterministic_equal(with_prefix, without_prefix));
}

TEST(Evolutionary, PopulatesCorpusCounters) {
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  const FuzzResult result =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission_with(1000));
  EXPECT_GT(result.corpus_size, 0);
  // After minimization each entry covers at least one exclusive bin.
  EXPECT_GE(result.novelty_bins, result.corpus_size);
  EXPECT_GE(result.corpus_admissions, result.corpus_size);
  EXPECT_EQ(result.iterations, 16);
  EXPECT_EQ(result.attempts_tried, 16);
  EXPECT_GT(result.simulations, 0);
}

TEST(Evolutionary, ResumesFromSavedCorpus) {
  const std::string dir = fresh_corpus_dir("resume");
  const sim::MissionSpec mission = mission_with(1000);
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 16;
  config.evolution.corpus_dir = dir;
  const FuzzResult first =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  ASSERT_GT(first.corpus_size, 0);

  const std::string path =
      dir + "/corpus_" + std::to_string(mission.seed) + ".jsonl";
  ASSERT_EQ(static_cast<int>(load_corpus(path).size()), first.corpus_size);

  // A second campaign over the same directory starts from the saved
  // population: its bin coverage can only grow.
  const FuzzResult second =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
  EXPECT_GE(second.novelty_bins, first.novelty_bins);
  EXPECT_EQ(static_cast<int>(load_corpus(path).size()), second.corpus_size);
  std::filesystem::remove_all(dir);
}

TEST(Evolutionary, MarksNoSeedsWithoutObstacles) {
  auto fuzzer = make_fuzzer(FuzzerKind::kEvolutionary, fast_config());
  sim::MissionSpec mission = mission_with(1002);
  mission.obstacles = sim::ObstacleField{};
  const FuzzResult result = fuzzer->fuzz(mission);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.no_seeds);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.corpus_size, 0);
}

TEST(Evolutionary, RespectsMissionBudgetWithOddBatchSize) {
  FuzzerConfig config = fast_config(10.0);
  config.mission_budget = 10;
  config.evolution.batch_size = 4;  // budget is not a multiple of the batch
  const FuzzResult result =
      make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission_with(1000));
  EXPECT_EQ(result.iterations, 10);
}

TEST(Evolutionary, EvalBatchesMatchAcrossEvalThreadsOnMidRoundSuccess) {
  // Each round is one pool batch over all of its (pair, direction) groups,
  // so groups after the one that finds the SPV are simulated speculatively.
  // Only the groups the replay reaches count towards eval_batches, as in the
  // serial run. Mission 1009 succeeds in the third group of round 0, 1038
  // midway through round 2; deterministic_equal does not compare
  // eval_batches, so it is checked on its own.
  for (const std::uint64_t seed : {1009u, 1038u}) {
    SCOPED_TRACE(seed);
    const sim::MissionSpec mission = mission_with(seed);
    FuzzerConfig config = fast_config(10.0);
    config.eval_threads = 1;
    const FuzzResult serial =
        make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
    config.eval_threads = 4;
    const FuzzResult pooled =
        make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission);
    ASSERT_TRUE(serial.found);
    EXPECT_NE(serial.iterations % config.evolution.batch_size, 0);  // mid-round
    EXPECT_TRUE(deterministic_equal(serial, pooled));
    EXPECT_EQ(pooled.eval_batches, serial.eval_batches);
  }
}

// A fuzz() call's result, or the guard trip that aborted it.
struct GuardedOutcome {
  std::optional<FuzzResult> result;
  std::string error;
};

GuardedOutcome fuzz_guarded(const FuzzerConfig& config,
                            const sim::MissionSpec& mission) {
  try {
    return {make_fuzzer(FuzzerKind::kEvolutionary, config)->fuzz(mission), {}};
  } catch (const sim::RunFaultError& e) {
    return {std::nullopt, e.what()};
  }
}

TEST(Evolutionary, CrossGroupGuardTripsMatchAcrossEvalThreads) {
  // Without prefix reuse every evaluation simulates the whole mission, so a
  // sim-step budget a little above the clean run's trips only the windows
  // whose attack delays arrival (the long tails). Round 0 of mission 1073
  // has eight groups. At clean + 32 steps the success in group 7 comes
  // first, and the trip in group 8 is speculative work whose captured
  // error must be discarded. At clean + 24 a job of group 2 trips before any
  // success, and its error must be rethrown at that job's replay position.
  const sim::MissionSpec mission = mission_with(1073);
  FuzzerConfig config = fast_config(10.0);
  config.prefix_reuse = false;
  const std::int64_t clean_steps =
      sim::Simulator(config.sim)
          .run(mission, *swarm::make_vasarhelyi_system())
          .steps_executed;

  config.eval_max_steps = clean_steps + 32;
  config.eval_threads = 1;
  const GuardedOutcome serial = fuzz_guarded(config, mission);
  config.eval_threads = 4;
  const GuardedOutcome pooled = fuzz_guarded(config, mission);
  ASSERT_TRUE(serial.result.has_value()) << serial.error;
  ASSERT_TRUE(pooled.result.has_value()) << pooled.error;
  EXPECT_TRUE(serial.result->found);
  EXPECT_TRUE(deterministic_equal(*serial.result, *pooled.result));
  EXPECT_EQ(pooled.result->eval_batches, serial.result->eval_batches);

  config.eval_max_steps = clean_steps + 24;
  config.eval_threads = 1;
  const GuardedOutcome serial_trip = fuzz_guarded(config, mission);
  config.eval_threads = 4;
  const GuardedOutcome pooled_trip = fuzz_guarded(config, mission);
  EXPECT_FALSE(serial_trip.result.has_value());
  EXPECT_FALSE(pooled_trip.result.has_value());
  EXPECT_NE(serial_trip.error.find("sim-step budget"), std::string::npos)
      << serial_trip.error;
  EXPECT_EQ(pooled_trip.error, serial_trip.error);
}

}  // namespace
}  // namespace swarmfuzz::fuzz
