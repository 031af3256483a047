// Correctness oracles, computed apart from the search path: every check
// re-simulates from t = 0 with a fresh Simulator and controller on one
// thread, with no prefix cache and no memo, and recomputes distances with
// the benchmark's own geometry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "sim/mission.h"
#include "sim/simulator.h"

namespace campaignbench {

// Collects check outcomes; a run is correct when no check failed.
struct CheckLog {
  int passed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
    } else {
      failures.push_back(what);
    }
  }
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

// One fuzzed mission as the oracles need it: the inputs that rebuild the
// mission and the outcome the program reported for it.
struct FuzzedMission {
  swarmfuzz::sim::MissionConfig mission_config;
  std::uint64_t mission_seed = 0;
  swarmfuzz::fuzz::FuzzerConfig fuzzer;
  swarmfuzz::fuzz::FuzzResult result;
};

// Clean run observed through truth states.
struct CleanTruth {
  bool collided = false;
  double vdo = 0.0;              // min over drones and ticks of cylinder clearance
  std::int64_t ticks = 0;        // control ticks simulated
};

// Horizontal clearance of `p` from the nearest cylinder surface.
[[nodiscard]] double cylinder_clearance(const swarmfuzz::sim::Vec3& p,
                                        const swarmfuzz::sim::ObstacleField& field);

// Single-threaded clean run of `mission`, recomputing the mission VDO from
// the truth states a StepObserver sees.
[[nodiscard]] CleanTruth clean_truth_run(const swarmfuzz::sim::MissionSpec& mission,
                                         const swarmfuzz::fuzz::FuzzerConfig& fuzzer);

// Largest distance a drone travels in one control tick.
[[nodiscard]] double tick_travel(const swarmfuzz::fuzz::FuzzerConfig& fuzzer);

// Empty when the reported VDO agrees with the recomputed one within one
// tick of travel; otherwise the reason.
[[nodiscard]] std::string vdo_mismatch(double reported, double recomputed,
                                       double tolerance);

// Empty when replaying `result`'s SPV from t = 0 collides the reported
// victim with an obstacle (and not the spoofed target); otherwise the reason.
[[nodiscard]] std::string spv_replay_failure(
    const swarmfuzz::sim::MissionSpec& mission,
    const swarmfuzz::fuzz::FuzzResult& result,
    const swarmfuzz::fuzz::FuzzerConfig& fuzzer);

// Every oracle on one fuzzed mission: the clean run must not collide, its
// VDO must match, and a reported SPV must replay.
void check_fuzzed_mission(const FuzzedMission& fuzzed, CheckLog& log);

// Brute-force O(N^2) pair scan and speed check over truth states, on every
// `stride`-th control tick.
class PairScanObserver final : public swarmfuzz::sim::StepObserver {
 public:
  PairScanObserver(double collision_distance, int stride)
      : collision_distance_(collision_distance), stride_(stride) {}

  void on_step(double time, const swarmfuzz::sim::WorldSnapshot& snapshot,
               std::span<const swarmfuzz::sim::DroneState> truth) override;

  double min_pair_distance = 1e300;
  double max_speed_seen = 0.0;
  int close_pairs = 0;  // pairs found closer than the collision distance
  int ticks_scanned = 0;

 private:
  double collision_distance_;
  int stride_;
  int tick_ = 0;
};

// Hash of every tick's truth and broadcast state, for bit-identity checks.
class StateHashObserver final : public swarmfuzz::sim::StepObserver {
 public:
  void on_step(double time, const swarmfuzz::sim::WorldSnapshot& snapshot,
               std::span<const swarmfuzz::sim::DroneState> truth) override;
  std::uint64_t hash = 1469598103934665603ULL;
  int ticks = 0;
};

}  // namespace campaignbench
