#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "attack/spoofing.h"
#include "swarm/flocking_system.h"
#include "swarm/vasarhelyi.h"

namespace campaignbench {

namespace sim = swarmfuzz::sim;
namespace fuzz = swarmfuzz::fuzz;
namespace swarm = swarmfuzz::swarm;

namespace {

// Fresh, serial simulator and controller for one replay.
sim::SimulationConfig serial_sim(const fuzz::FuzzerConfig& fuzzer) {
  sim::SimulationConfig config = fuzzer.sim;
  config.sim_threads = 1;
  return config;
}

std::unique_ptr<swarm::FlockingControlSystem> fresh_system(
    const fuzz::FuzzerConfig& fuzzer) {
  return std::make_unique<swarm::FlockingControlSystem>(
      std::make_shared<swarm::VasarhelyiController>(), fuzzer.comm);
}

// Tracks the minimum cylinder clearance over every truth state observed.
class ClearanceObserver final : public sim::StepObserver {
 public:
  explicit ClearanceObserver(const sim::ObstacleField& field) : field_(field) {}
  void on_step(double /*time*/, const sim::WorldSnapshot& /*snapshot*/,
               std::span<const sim::DroneState> truth) override {
    for (const sim::DroneState& s : truth) {
      min_clearance = std::min(min_clearance, cylinder_clearance(s.position, field_));
    }
    ++ticks;
  }
  double min_clearance = INFINITY;
  std::int64_t ticks = 0;

 private:
  const sim::ObstacleField& field_;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

double cylinder_clearance(const sim::Vec3& p, const sim::ObstacleField& field) {
  double best = INFINITY;
  for (const sim::CylinderObstacle& o : field.obstacles()) {
    const double dx = p.x - o.center.x;
    const double dy = p.y - o.center.y;
    best = std::min(best, std::sqrt(dx * dx + dy * dy) - o.radius);
  }
  return best;
}

CleanTruth clean_truth_run(const sim::MissionSpec& mission,
                           const fuzz::FuzzerConfig& fuzzer) {
  const sim::Simulator simulator(serial_sim(fuzzer));
  auto system = fresh_system(fuzzer);
  ClearanceObserver observer(mission.obstacles);
  const sim::RunResult run = simulator.run(mission, *system, nullptr, &observer);
  return CleanTruth{.collided = run.collided,
                    .vdo = observer.min_clearance,
                    .ticks = run.steps_executed};
}

double tick_travel(const fuzz::FuzzerConfig& fuzzer) {
  const double v_max = fuzzer.sim.vehicle == sim::VehicleType::kPointMass
                           ? fuzzer.sim.point_mass.max_speed
                           : fuzzer.sim.quadrotor.max_speed;
  return v_max * fuzzer.sim.dt;
}

std::string vdo_mismatch(double reported, double recomputed, double tolerance) {
  if (std::isfinite(reported) && std::isfinite(recomputed) &&
      std::fabs(reported - recomputed) <= tolerance) {
    return {};
  }
  return "mission VDO " + fmt(reported) + " vs recomputed " + fmt(recomputed) +
         " (tolerance " + fmt(tolerance) + ")";
}

std::string spv_replay_failure(const sim::MissionSpec& mission,
                               const fuzz::FuzzResult& result,
                               const fuzz::FuzzerConfig& fuzzer) {
  const sim::Simulator simulator(serial_sim(fuzzer));
  auto system = fresh_system(fuzzer);
  const swarmfuzz::attack::GpsSpoofer spoofer(result.plan, mission);
  const sim::RunResult replay = simulator.run(mission, *system, &spoofer);
  if (!replay.first_collision) return "SPV replay does not collide";
  const sim::CollisionEvent& hit = *replay.first_collision;
  if (hit.kind != sim::CollisionKind::kDroneObstacle) {
    return "SPV replay collides drone with drone, not with the obstacle";
  }
  if (hit.drone == result.plan.target) return "SPV replay crashes the spoofed target";
  if (hit.drone != result.victim) {
    return "SPV replay crashes drone " + std::to_string(hit.drone) +
           ", reported victim " + std::to_string(result.victim);
  }
  return {};
}

void check_fuzzed_mission(const FuzzedMission& fuzzed, CheckLog& log) {
  const sim::MissionSpec mission =
      sim::generate_mission(fuzzed.mission_config, fuzzed.mission_seed);
  const std::string tag = "mission seed " + std::to_string(fuzzed.mission_seed) + ": ";
  const CleanTruth clean = clean_truth_run(mission, fuzzed.fuzzer);
  log.expect(!clean.collided && !fuzzed.result.clean_run_failed,
             tag + "clean run collides");
  const std::string vdo = vdo_mismatch(fuzzed.result.mission_vdo, clean.vdo,
                                       tick_travel(fuzzed.fuzzer));
  log.expect(vdo.empty(), tag + vdo);
  if (fuzzed.result.found) {
    const std::string spv = spv_replay_failure(mission, fuzzed.result, fuzzed.fuzzer);
    log.expect(spv.empty(), tag + spv);
  }
}

void PairScanObserver::on_step(double /*time*/, const sim::WorldSnapshot& /*snapshot*/,
                               std::span<const sim::DroneState> truth) {
  const int tick = tick_++;
  for (const sim::DroneState& s : truth) {
    max_speed_seen = std::max(max_speed_seen, s.velocity.norm());
  }
  if (tick % stride_ != 0) return;
  ++ticks_scanned;
  const std::size_t n = truth.size();
  const double limit2 = collision_distance_ * collision_distance_;
  double best2 = min_pair_distance * min_pair_distance;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Vec3 p = truth[i].position;
    for (std::size_t j = i + 1; j < n; ++j) {
      const sim::Vec3 d = truth[j].position - p;
      const double d2 = d.x * d.x + d.y * d.y + d.z * d.z;
      if (d2 < best2) best2 = d2;
      if (d2 < limit2) ++close_pairs;
    }
  }
  min_pair_distance = std::sqrt(best2);
}

void StateHashObserver::on_step(double time, const sim::WorldSnapshot& snapshot,
                                std::span<const sim::DroneState> truth) {
  const auto mix = [this](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ULL;
    }
  };
  mix(&time, sizeof time);
  mix(truth.data(), truth.size_bytes());
  mix(snapshot.gps_position.data(), snapshot.gps_position.size() * sizeof(sim::Vec3));
  ++ticks;
}

}  // namespace campaignbench
