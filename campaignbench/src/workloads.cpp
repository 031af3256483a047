#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "fuzz/campaign.h"
#include "fuzz/eval_pool.h"
#include "fuzz/optimizer.h"
#include "fuzz/seeds.h"
#include "fuzz/svg.h"
#include "graph/pagerank.h"
#include "oracles.h"
#include "probes.h"
#include "sim/collision.h"
#include "swarm/comm.h"
#include "swarm/flocking_system.h"
#include "swarm/spatial_grid.h"
#include "swarm/vasarhelyi.h"
#include "trace.h"
#include "util/logging.h"

namespace campaignbench {

namespace fs = std::filesystem;
namespace fuzz = swarmfuzz::fuzz;
namespace sim = swarmfuzz::sim;
namespace swarm = swarmfuzz::swarm;
namespace util = swarmfuzz::util;

namespace {

constexpr int kThreads = 4;  // every workload's thread budget

// --- small helpers ----------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// 0..n-1 in the order a Fisher-Yates shuffle seeded by (seed, round) gives.
std::vector<int> seeded_order(std::uint64_t seed, int round, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i-- > 1;) {
    std::swap(order[i], order[mix_seed(seed, static_cast<std::uint64_t>(round), i) % (i + 1)]);
  }
  return order;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool faulted(const fuzz::MissionOutcome& outcome) {
  // A mission whose every clean re-draw collided is a mission-generation
  // outcome, not a failure of the program; real faults are the others.
  return outcome.fault != sim::FaultKind::kNone &&
         outcome.fault != sim::FaultKind::kCleanRunFailed;
}

// --- per-layer probes -------------------------------------------------------

// Everything the traced run attaches to the program, plus the layer values
// it derives. Absent in the untraced run.
struct Probes {
  Tracer tracer;
  CallAccumulator controller_ticks;   // desired_velocity_all from control ticks
  CallAccumulator controller_probes;  // desired_velocity_all from SVG probes
  CallAccumulator control_compute;    // ControlSystem::compute in direct runs
  std::map<std::string, double> layer;

  [[nodiscard]] std::function<std::shared_ptr<const swarm::SwarmController>()>
  controller_factory() {
    return [this] {
      return std::make_shared<TimedController>(
          std::make_shared<swarm::VasarhelyiController>(), controller_ticks,
          controller_probes);
    };
  }
};

// Times the per-tick calls of the simulator's own layers on the truth and
// broadcast states of a run: the collision check, the recorder, the spatial
// grid build and range-limited communication filtering.
class LayerObserver final : public sim::StepObserver {
 public:
  explicit LayerObserver(const sim::MissionSpec& mission)
      : mission_(mission),
        monitor_(mission.drone_radius),
        recorder_(mission.num_drones(), mission.obstacles, 0.1),
        comm_(swarm::CommConfig{.range = swarm::VasarhelyiParams{}.r0_att,
                                .drop_probability = 0.0}) {}

  void on_step(double time, const sim::WorldSnapshot& snapshot,
               std::span<const sim::DroneState> truth) override {
    if (prev_.empty()) {
      for (const sim::DroneState& s : truth) prev_.push_back(s.position);
    }
    std::int64_t t0 = now_ns();
    (void)monitor_.check(truth, prev_, mission_.obstacles, time);
    std::int64_t t1 = now_ns();
    collision_ns += t1 - t0;
    recorder_.record(time, truth);
    t0 = now_ns();
    recorder_ns += t0 - t1;
    const double range = swarm::VasarhelyiParams{}.r0_att;
    grid_.build(std::span<const sim::Vec3>(snapshot.gps_position), range);
    t1 = now_ns();
    grid_ns += t1 - t0;
    comm_grid_.build(std::span<const sim::Vec3>(snapshot.gps_position), range);
    const swarm::SpatialGrid* grid = comm_grid_.valid() ? &comm_grid_ : nullptr;
    for (int i = 0; i < snapshot.size(); ++i) {
      (void)comm_.filter_into(snapshot, snapshot.id[static_cast<std::size_t>(i)],
                              members_, grid);
    }
    comm_ns += now_ns() - t1;
    for (std::size_t i = 0; i < truth.size(); ++i) prev_[i] = truth[i].position;
  }

  std::int64_t collision_ns = 0;
  std::int64_t recorder_ns = 0;
  std::int64_t grid_ns = 0;
  std::int64_t comm_ns = 0;

 private:
  const sim::MissionSpec& mission_;
  sim::CollisionMonitor monitor_;
  sim::Recorder recorder_;
  swarm::CommModel comm_;
  swarm::SpatialGrid grid_;
  swarm::SpatialGrid comm_grid_;
  std::vector<int> members_;
  std::vector<sim::Vec3> prev_;
};

// --- work accounting --------------------------------------------------------

struct RoundWork {
  double wall_s = 0.0;  // timed section of the round
  std::int64_t missions = 0;
  std::int64_t failed = 0;
  double drone_steps = 0.0;
  // Every round runs the same operations (one campaign, one mission search
  // or one large-swarm mission), keyed alike in every round; the end-to-end
  // metrics take medians over rounds per key.
  struct Op {
    double wall_s = 0.0;
    double missions = 0.0;
    double drone_steps = 0.0;
  };
  std::map<std::int64_t, Op> ops;
  std::map<std::int64_t, double> mission_s;  // wall time by mission key
  std::vector<FuzzedMission> fuzzed;
  // Simulator runs the program made and discarded: clean runs of missions
  // re-drawn because they collided without an attack, keyed by the
  // (base seed, index, attempt) that rebuilds them.
  struct Redraw {
    sim::MissionConfig config;
    std::uint64_t seed;
    fuzz::FuzzerConfig fuzzer;
  };
  std::vector<Redraw> redraws;
  std::map<std::string, double> layer;  // per-round layer values, traced only
};

// Records the operation `key` that took `wall_s`, and every mission and
// drone step accounted into `work` since `before` was copied from it.
void record_op(RoundWork& work, std::int64_t key, double wall_s, const RoundWork::Op& before) {
  work.wall_s += wall_s;
  work.ops[key] = {wall_s, static_cast<double>(work.missions) - before.missions,
                   work.drone_steps - before.drone_steps};
}

RoundWork::Op progress(const RoundWork& work) {
  return {work.wall_s, static_cast<double>(work.missions), work.drone_steps};
}

// Records a campaign outcome's accounting into `work`; with `mission_key`
// >= 0 also the mission's own wall time under that key.
void account_outcome(const fuzz::CampaignConfig& config,
                     const fuzz::MissionOutcome& outcome, RoundWork& work,
                     std::int64_t mission_key) {
  ++work.missions;
  if (faulted(outcome)) {
    ++work.failed;
    return;
  }
  if (mission_key >= 0) work.mission_s[mission_key] = outcome.wall_time_s;
  work.drone_steps += static_cast<double>(config.mission.num_drones) *
                      static_cast<double>(outcome.result.sim_steps_executed);
  if (outcome.fault == sim::FaultKind::kNone) {
    work.fuzzed.push_back(FuzzedMission{config.mission, outcome.mission_seed,
                                        config.fuzzer, outcome.result});
  }
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t seed =
        fuzz::mission_seed(config.base_seed, outcome.mission_index, attempt);
    if (seed == outcome.mission_seed || attempt > config.clean_failure_retries) break;
    work.redraws.push_back({config.mission, seed, config.fuzzer});
  }
}

fuzz::FuzzerConfig serial_fuzzer(double spoof_distance, int eval_threads) {
  fuzz::FuzzerConfig config;
  config.spoof_distance = spoof_distance;
  config.eval_threads = eval_threads;
  config.sim.sim_threads = 1;
  return config;
}

// --- workload interface -----------------------------------------------------

class Workload {
 public:
  explicit Workload(const RunOptions& options) : options_(options) {}
  virtual ~Workload() = default;

  // Everything before the first timed section.
  virtual void setup() = 0;
  // One whole round of the workload's operations; `probes` is null when
  // tracing is off. Appends the round's accounting to `work`.
  virtual void run_round(int round, Probes* probes, RoundWork& work) = 0;
  // Untimed correctness oracles and spot-checks over the measured rounds.
  virtual void check(const std::vector<RoundWork>& rounds, CheckLog& log) = 0;
  // Traced only: direct calls into each layer on sampled missions.
  virtual void replay_layers(const std::vector<RoundWork>& rounds, Probes& probes) {
    (void)rounds;
    (void)probes;
  }
  // Threads that call the controller concurrently within one mission.
  [[nodiscard]] virtual int threads_per_mission() const { return 1; }

 protected:
  RunOptions options_;
};

// Direct calls into the fuzzer's phases on one mission: clean run, seed
// scheduling, SVG construction, PageRank, objective set-up and the gradient
// search of the first scheduled seed. Also times the simulator's per-tick
// layers on the same mission's truth states.
void replay_fuzz_phases(const sim::MissionSpec& mission,
                        const fuzz::FuzzerConfig& config, std::int64_t group,
                        Probes& probes) {
  Tracer& tracer = probes.tracer;
  const auto controller = probes.controller_factory()();
  swarm::FlockingControlSystem system(controller, config.comm);
  TimedControlSystem timed_system(system, probes.control_compute);
  sim::SimulationConfig sim_config = config.sim;
  const sim::Simulator simulator(sim_config);
  const int n = mission.num_drones();

  ScopedSpan root(tracer, "phase.mission", -1, group);
  fuzz::PrefixCache prefix;
  sim::RunHooks hooks;
  hooks.checkpoints = &prefix;
  hooks.checkpoint_period = config.checkpoint_period;
  const std::int64_t clean_start = now_ns();
  const sim::RunResult clean = simulator.run(mission, timed_system, hooks);
  const std::int64_t clean_end = now_ns();
  tracer.add("sim.clean_run", clean_start, clean_end, root.index(), group);
  tracer.add("sim.clean_run.n" + std::to_string(n), clean_start, clean_end);
  if (clean.collided) return;
  std::vector<fuzz::Seed> seeds;
  {
    ScopedSpan span(tracer, "seeds.schedule", root.index(), group);
    seeds = fuzz::schedule_seeds(clean, mission, system, config.spoof_distance,
                                 config.seeds);
  }
  {
    // The snapshot seed scheduling builds its SVGs on: states at the
    // closest inter-drone approach before the obstacle phase ends.
    double phase_end = 0.0;
    for (int i = 0; i < n; ++i) {
      phase_end = std::max(phase_end, clean.recorder.time_of_min_obstacle_distance(i));
    }
    const double t_clo = clean.recorder.closest_time(phase_end);
    const auto states = clean.recorder.sample(clean.recorder.sample_index_at(t_clo));
    sim::WorldSnapshot snapshot;
    snapshot.time = t_clo;
    for (int i = 0; i < n; ++i) {
      snapshot.push_back(sim::DroneObservation{
          .id = i,
          .gps_position = states[static_cast<std::size_t>(i)].position,
          .velocity = states[static_cast<std::size_t>(i)].velocity});
    }
    for (const auto direction :
         {swarmfuzz::attack::SpoofDirection::kRight, swarmfuzz::attack::SpoofDirection::kLeft}) {
      swarmfuzz::graph::Digraph graph = [&] {
        ScopedSpan span(tracer, "svg.build", root.index(), group);
        return fuzz::build_svg(snapshot, mission, system, direction,
                               config.spoof_distance, config.seeds.svg);
      }();
      ScopedSpan span(tracer, "graph.pagerank", root.index(), group);
      (void)swarmfuzz::graph::pagerank(graph, config.seeds.pagerank);
    }
  }
  if (!seeds.empty()) {
    const fuzz::Seed& seed = seeds.front();
    std::unique_ptr<fuzz::EvalPool> pool;
    if (config.eval_threads > 1) {
      pool = std::make_unique<fuzz::EvalPool>(sim_config, controller, config.comm,
                                              config.eval_threads);
    }
    std::unique_ptr<fuzz::Objective> objective;
    {
      ScopedSpan span(tracer, "objective.setup", root.index(), group);
      prefix.set_source(clean.recorder);
      objective = std::make_unique<fuzz::Objective>(
          mission, simulator, system, seed, config.spoof_distance, clean.end_time,
          &prefix, nullptr, pool.get());
    }
    ScopedSpan span(tracer, "optimizer.optimize", root.index(), group);
    TimedObjective timed(*objective, tracer, span.index(), group);
    // The fuzzer's multi-start guesses, anchored on the victim's closest
    // approach to the obstacle.
    const double t_ca = clean.recorder.time_of_min_obstacle_distance(seed.victim);
    const double lead = config.lead_time;
    const double dur = config.initial_duration;
    const std::vector<fuzz::StartPoint> starts{
        {std::max(t_ca - lead, 0.0), dur},
        {std::max(t_ca - 2.0 * lead - dur, 0.0), dur},
        {std::max(t_ca - lead / 2.0, 0.0), dur / 2.0}};
    (void)fuzz::optimize(timed, starts, config.per_seed_budget, config.optimizer);
    probes.layer["objective.memo_hits"] += objective->memo_hits();
    probes.layer["phase.batches"] += static_cast<double>(timed.batches);
    probes.layer["phase.batch_jobs"] += static_cast<double>(timed.batch_jobs);
  }
  LayerObserver layers(mission);
  {
    swarm::FlockingControlSystem capture(std::make_shared<swarm::VasarhelyiController>(),
                                         config.comm);
    (void)simulator.run(mission, capture, nullptr, &layers);
  }
  probes.layer["sim.collision_check_s"] += seconds(layers.collision_ns);
  probes.layer["sim.recorder_record_s"] += seconds(layers.recorder_ns);
  probes.layer["swarm.grid_build_s"] += seconds(layers.grid_ns);
  probes.layer["swarm.comm_filter_s"] += seconds(layers.comm_ns);
  probes.layer["phase.missions"] += 1.0;
}

// Samples up to `count` fuzzed missions of distinct swarm sizes (then any)
// from the first round, and replays their phases.
void replay_sampled_phases(const std::vector<RoundWork>& rounds, Probes& probes,
                           std::size_t count) {
  if (rounds.empty()) return;
  std::vector<const FuzzedMission*> picked;
  std::vector<int> sizes;
  for (const FuzzedMission& m : rounds.front().fuzzed) {
    if (std::find(sizes.begin(), sizes.end(), m.mission_config.num_drones) != sizes.end()) {
      continue;
    }
    sizes.push_back(m.mission_config.num_drones);
    picked.push_back(&m);
  }
  for (const FuzzedMission& m : rounds.front().fuzzed) {
    if (picked.size() >= count) break;
    if (std::find(picked.begin(), picked.end(), &m) == picked.end()) picked.push_back(&m);
  }
  if (picked.size() > count) picked.resize(count);
  std::int64_t group = 1'000'000;
  for (const FuzzedMission* m : picked) {
    replay_fuzz_phases(sim::generate_mission(m->mission_config, m->mission_seed),
                       m->fuzzer, group++, probes);
  }
}

// --- table1_campaign --------------------------------------------------------

class Table1Campaign final : public Workload {
 public:
  using Workload::Workload;

  struct Cell {
    int drones;
    double distance;
  };
  static constexpr Cell kGrid[] = {{5, 5.0}, {5, 10.0}, {10, 5.0},
                                   {10, 10.0}, {15, 5.0}, {15, 10.0}};
  static constexpr int kMissionsPerCell = 8;
  // The Table I mission set is fixed, as the paper's is: every round of every
  // run fuzzes the same 48 missions. Per-mission fuzz cost is heavy-tailed (a
  // search that runs to its budget costs several times one that finds an SPV
  // early), so seed-drawn sets moved missions_per_s between seeds by more
  // than the timing noise. `--seed` orders the cells within each round.
  static constexpr std::uint64_t kBaseSeed = 1000;

  void setup() override {
    dir_ = options_.out_dir + "/" + options_.workload;
    fs::create_directories(dir_);
    sink_ = std::make_unique<fuzz::JsonlTelemetrySink>(dir_ + "/telemetry.jsonl", false);
  }

  fuzz::CampaignConfig cell_config(int round, int cell) const {
    fuzz::CampaignConfig config;
    config.mission.num_drones = kGrid[cell].drones;
    config.fuzzer = serial_fuzzer(kGrid[cell].distance, 1);
    config.num_missions = kMissionsPerCell;
    config.num_threads = kThreads;
    config.base_seed = mix_seed(kBaseSeed, static_cast<std::uint64_t>(cell));
    config.checkpoint_path =
        dir_ + "/checkpoint-" + std::to_string(round) + "-" + std::to_string(cell) + ".jsonl";
    config.resume = false;
    return config;
  }

  void run_round(int round, Probes* probes, RoundWork& work) override {
    const int round_span =
        probes != nullptr ? probes->tracer.begin("round", -1, round) : -1;
    for (const int cell :
         seeded_order(options_.seed, round, static_cast<int>(std::size(kGrid)))) {
      fuzz::CampaignConfig config = cell_config(round, cell);
      std::unique_ptr<TimedTelemetrySink> timed_sink;
      int campaign_span = -1;
      if (probes != nullptr) {
        config.controller_factory = probes->controller_factory();
        campaign_span = probes->tracer.begin("campaign", round_span, round * 100 + cell);
        timed_sink = std::make_unique<TimedTelemetrySink>(*sink_, probes->tracer,
                                                          campaign_span);
        config.telemetry = timed_sink.get();
      } else {
        config.telemetry = sink_.get();
      }
      const RoundWork::Op before = progress(work);
      const std::int64_t start = now_ns();
      const fuzz::CampaignResult result = fuzz::run_campaign(config);
      const double wall = seconds(now_ns() - start);
      if (probes != nullptr) {
        probes->tracer.end(campaign_span);
        work.layer["telemetry.append_s"] += seconds(timed_sink->append_ns.load());
        work.layer["telemetry.bytes"] += static_cast<double>(timed_sink->bytes.load());
      }
      for (const fuzz::MissionOutcome& outcome : result.outcomes) {
        account_outcome(config, outcome, work, cell * 1000 + outcome.mission_index);
      }
      record_op(work, cell, wall, before);
      const auto [first, inserted] = first_results_.try_emplace(cell, result);
      if (!inserted && !fuzz::deterministic_equal(first->second, result)) {
        ++repeat_mismatches_;
      }
    }
    if (probes != nullptr) probes->tracer.end(round_span);
  }

  void check(const std::vector<RoundWork>& rounds, CheckLog& log) override {
    // Every round fuzzes the same missions: the oracles run on the first
    // round, and each repeat must reproduce it.
    if (!rounds.empty()) {
      for (const FuzzedMission& m : rounds.front().fuzzed) check_fuzzed_mission(m, log);
    }
    log.expect(repeat_mismatches_ == 0,
               "table1_campaign: " + std::to_string(repeat_mismatches_) +
                   " repeated campaigns differ from their first run");
  }

  void replay_layers(const std::vector<RoundWork>& rounds, Probes& probes) override {
    replay_sampled_phases(rounds, probes, 3);
  }

 private:
  std::string dir_;
  std::unique_ptr<fuzz::JsonlTelemetrySink> sink_;
  std::map<int, fuzz::CampaignResult> first_results_;  // by cell
  int repeat_mismatches_ = 0;
};

// --- single_mission_search --------------------------------------------------

class SingleMissionSearch final : public Workload {
 public:
  using Workload::Workload;

  static constexpr fuzz::FuzzerKind kKinds[] = {fuzz::FuzzerKind::kSwarmFuzz,
                                                fuzz::FuzzerKind::kEvolutionary};
  // Every round fuzzes the same missions, for the reason given at
  // Table1Campaign::kBaseSeed; `--seed` orders them within each round and
  // picks the one spot-checked at one eval thread.
  static constexpr int kMissions = 10;
  static constexpr std::uint64_t kBaseSeed = 1000;

  fuzz::CampaignConfig config(fuzz::FuzzerKind kind, int eval_threads) const {
    fuzz::CampaignConfig c;
    c.mission.num_drones = 10;
    c.fuzzer = serial_fuzzer(10.0, eval_threads);
    c.kind = kind;
    c.num_missions = kMissions;
    c.num_threads = 1;
    c.base_seed = kBaseSeed;
    return c;
  }

  void setup() override { build_runners(nullptr, runners_); }

  void build_runners(Probes* probes, std::vector<std::unique_ptr<fuzz::MissionRunner>>& out) {
    out.clear();
    for (const fuzz::FuzzerKind kind : kKinds) {
      fuzz::CampaignConfig c = config(kind, kThreads);
      if (probes != nullptr) c.controller_factory = probes->controller_factory();
      out.push_back(std::make_unique<fuzz::MissionRunner>(c, c.fuzzer));
    }
  }

  void run_round(int round, Probes* probes, RoundWork& work) override {
    if (probes != nullptr && traced_runners_.empty()) build_runners(probes, traced_runners_);
    auto& runners = probes != nullptr ? traced_runners_ : runners_;
    for (const int index : seeded_order(options_.seed, round, kMissions)) {
      const RoundWork::Op before = progress(work);
      double mission_wall = 0.0;
      for (std::size_t k = 0; k < runners.size(); ++k) {
        const int span = probes != nullptr
                             ? probes->tracer.begin(k == 0 ? "fuzz.swarmfuzz" : "fuzz.efuzz",
                                                    -1, round * kMissions + index)
                             : -1;
        const std::int64_t start = now_ns();
        const fuzz::MissionOutcome outcome = runners[k]->run(index);
        mission_wall += seconds(now_ns() - start);
        if (probes != nullptr) probes->tracer.end(span);
        account_outcome(config(kKinds[k], kThreads), outcome, work, -1);
        const auto [first, inserted] =
            outcomes_.try_emplace({index, static_cast<int>(k)}, outcome);
        if (!inserted && !fuzz::deterministic_equal(first->second, outcome)) {
          ++repeat_mismatches_;
        }
      }
      record_op(work, index, mission_wall, before);
      // One sample per mission: the mean of the two fuzzers' times on it.
      // E_Fuzz missions run about 3x shorter than SwarmFuzz ones, so a
      // median over single calls would fall in the gap between the two
      // populations.
      work.mission_s[index] = mission_wall / static_cast<double>(runners.size());
    }
  }

  void check(const std::vector<RoundWork>& rounds, CheckLog& log) override {
    // Every round fuzzes the same missions: the oracles run on the first
    // round, and each repeat must reproduce it.
    if (!rounds.empty()) {
      for (const FuzzedMission& m : rounds.front().fuzzed) check_fuzzed_mission(m, log);
    }
    log.expect(repeat_mismatches_ == 0,
               "single_mission_search: " + std::to_string(repeat_mismatches_) +
                   " repeated searches differ from their first run");
    // Spot-check: a seed-chosen mission at one eval thread must match the
    // four-thread results on every deterministic field.
    const int index = static_cast<int>(options_.seed % kMissions);
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      const auto it = outcomes_.find({index, static_cast<int>(k)});
      if (it == outcomes_.end()) continue;
      const fuzz::CampaignConfig serial = config(kKinds[k], 1);
      fuzz::MissionRunner runner(serial, serial.fuzzer);
      const fuzz::MissionOutcome one = runner.run(index);
      log.expect(fuzz::deterministic_equal(one, it->second),
                 std::string(fuzz::fuzzer_kind_name(kKinds[k])) +
                     ": eval 4 and eval 1 results differ on mission " +
                     std::to_string(index));
    }
  }

  void replay_layers(const std::vector<RoundWork>& rounds, Probes& probes) override {
    replay_sampled_phases(rounds, probes, 1);
  }

  [[nodiscard]] int threads_per_mission() const override { return kThreads; }

 private:
  std::vector<std::unique_ptr<fuzz::MissionRunner>> runners_;
  std::vector<std::unique_ptr<fuzz::MissionRunner>> traced_runners_;
  // First outcome of each (mission index, fuzzer).
  std::map<std::pair<int, int>, fuzz::MissionOutcome> outcomes_;
  int repeat_mismatches_ = 0;
};

// --- swarm_1000 -------------------------------------------------------------

class Swarm1000 final : public Workload {
 public:
  using Workload::Workload;

  static constexpr int kDrones = 1000;
  // A 60 s cap (1200 ticks) keeps a round short enough that a run holds
  // about ten of them, so the median over rounds rides out CPU-steal bursts.
  static constexpr double kMissionTime = 60.0;
  static constexpr double kPrefixTime = 20.0;  // untimed oracle pass length, s

  // Spawn box scaled with sqrt(N), as in examples/large_swarm_scaling.
  sim::MissionSpec mission(int round, double max_time = kMissionTime) const {
    sim::MissionConfig config;
    config.num_drones = kDrones;
    config.max_time = max_time;
    config.spawn_range =
        2.2 * config.min_spawn_separation * std::sqrt(static_cast<double>(kDrones));
    return sim::generate_mission(config, mix_seed(options_.seed, 0x1000,
                                                  static_cast<std::uint64_t>(round)));
  }

  static sim::SimulationConfig sim_config(int threads) {
    sim::SimulationConfig config;
    config.sim_threads = threads;
    // Every mission flies to its time cap: the work per mission is fixed.
    config.stop_on_collision = false;
    config.stop_on_arrival = false;
    return config;
  }

  void setup() override {
    next_ = mission(0);
    simulator_ = std::make_unique<sim::Simulator>(sim_config(kThreads));
    system_ = swarm::make_vasarhelyi_system();
  }

  void run_round(int round, Probes* probes, RoundWork& work) override {
    const sim::MissionSpec current = round == 0 ? next_ : mission(round);
    std::unique_ptr<swarm::FlockingControlSystem> traced_system;
    std::unique_ptr<TimedControlSystem> timed;
    sim::ControlSystem* control = system_.get();
    if (probes != nullptr) {
      traced_system = std::make_unique<swarm::FlockingControlSystem>(
          probes->controller_factory()());
      timed = std::make_unique<TimedControlSystem>(*traced_system, probes->control_compute);
      control = timed.get();
    }
    const int span = probes != nullptr ? probes->tracer.begin("sim.run", -1, round) : -1;
    const std::int64_t start = now_ns();
    const sim::RunResult run = simulator_->run(current, *control);
    const double wall = seconds(now_ns() - start);
    if (probes != nullptr) {
      probes->tracer.end(span);
      probes->tracer.add("sim.clean_run.n1000", start, start + static_cast<std::int64_t>(wall * 1e9));
    }
    const RoundWork::Op before = progress(work);
    ++work.missions;
    work.drone_steps += static_cast<double>(kDrones) * static_cast<double>(run.steps_executed);
    record_op(work, 0, wall, before);
    work.mission_s[0] = wall;
  }

  void check(const std::vector<RoundWork>& rounds, CheckLog& log) override {
    (void)rounds;
    const sim::MissionSpec prefix = mission(0, kPrefixTime);
    const double collision_distance = 2.0 * prefix.drone_radius;
    const double max_speed = sim::SimulationConfig{}.point_mass.max_speed;

    // Serial pass: state hash, plus the brute-force pair scan and speed check
    // on every 4th tick.
    struct Fanout final : sim::StepObserver {
      std::vector<sim::StepObserver*> targets;
      void on_step(double t, const sim::WorldSnapshot& s,
                   std::span<const sim::DroneState> truth) override {
        for (auto* o : targets) o->on_step(t, s, truth);
      }
    };
    StateHashObserver serial_hash;
    PairScanObserver scan(collision_distance, 4);
    Fanout fanout;
    fanout.targets = {&serial_hash, &scan};
    auto serial_system = swarm::make_vasarhelyi_system();
    const sim::RunResult serial =
        sim::Simulator(sim_config(1)).run(prefix, *serial_system, nullptr, &fanout);

    StateHashObserver threaded_hash;
    auto threaded_system = swarm::make_vasarhelyi_system();
    const sim::RunResult threaded = sim::Simulator(sim_config(kThreads))
                                        .run(prefix, *threaded_system, nullptr, &threaded_hash);

    log.expect(serial_hash.ticks > 0 && serial_hash.ticks == threaded_hash.ticks &&
                   serial_hash.hash == threaded_hash.hash &&
                   serial.collided == threaded.collided &&
                   serial.steps_executed == threaded.steps_executed,
               "swarm_1000: sim 4 and sim 1 states differ over the mission prefix");
    log.expect(scan.close_pairs == 0 || serial.collided,
               "swarm_1000: pair closer than the collision distance without a "
               "reported collision");
    log.expect(scan.max_speed_seen <= max_speed * (1.0 + 1e-9),
               "swarm_1000: a drone exceeds the vehicle speed limit");
    log.expect(scan.ticks_scanned > 0, "swarm_1000: pair scan saw no tick");
  }

  void replay_layers(const std::vector<RoundWork>& rounds, Probes& probes) override {
    (void)rounds;
    // Per-tick layer calls over the untimed prefix of the first mission.
    const sim::MissionSpec prefix = mission(0, kPrefixTime);
    LayerObserver layers(prefix);
    auto system = swarm::make_vasarhelyi_system();
    (void)sim::Simulator(sim_config(1)).run(prefix, *system, nullptr, &layers);
    probes.layer["sim.collision_check_s"] += seconds(layers.collision_ns);
    probes.layer["sim.recorder_record_s"] += seconds(layers.recorder_ns);
    probes.layer["swarm.grid_build_s"] += seconds(layers.grid_ns);
    probes.layer["swarm.comm_filter_s"] += seconds(layers.comm_ns);
    probes.layer["phase.missions"] += 1.0;
  }

 private:
  sim::MissionSpec next_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<swarm::FlockingControlSystem> system_;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "table1_campaign") return std::make_unique<Table1Campaign>(options);
  if (options.workload == "single_mission_search") {
    return std::make_unique<SingleMissionSearch>(options);
  }
  if (options.workload == "swarm_1000") return std::make_unique<Swarm1000>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// Runs whole rounds until the timed sections add up to `seconds` (or, when
// `rounds` > 0, exactly that many rounds).
std::vector<RoundWork> run_rounds(Workload& workload, double seconds_budget,
                                  int rounds, Probes* probes) {
  std::vector<RoundWork> out;
  double timed = 0.0;
  for (int r = 0; rounds > 0 ? r < rounds : (r == 0 || timed < seconds_budget); ++r) {
    RoundWork work;
    workload.run_round(r, probes, work);
    timed += work.wall_s;
    std::vector<double> mission_s;
    for (const auto& [key, s] : work.mission_s) mission_s.push_back(s);
    std::printf("# round %d wall_s=%.4f missions=%lld mission_p50_s=%.4f\n", r, work.wall_s,
                static_cast<long long>(work.missions), median(mission_s));
    out.push_back(std::move(work));
  }
  return out;
}

struct Totals {
  double wall_s = 0.0;
  std::int64_t missions = 0;
  std::int64_t failed = 0;
  double drone_steps = 0.0;
  std::vector<double> mission_s;
};

Totals totals(const std::vector<RoundWork>& rounds) {
  Totals t;
  for (const RoundWork& r : rounds) {
    t.wall_s += r.wall_s;
    t.missions += r.missions;
    t.failed += r.failed;
    t.drone_steps += r.drone_steps;
    for (const auto& [key, s] : r.mission_s) t.mission_s.push_back(s);
  }
  return t;
}

// A typical round: each operation's median over rounds of its wall time,
// missions and drone steps, summed over operations, and the median over
// missions of each mission's median time. A burst of stolen CPU time on a
// shared host slows the operations it overlaps in one round; the medians
// drop those samples, while a change that slows an operation slows it in
// every round.
struct Typical {
  double wall_s = 0.0;
  double missions = 0.0;
  double drone_steps = 0.0;
  double mission_p50_s = 0.0;
};

Typical typical_round(const std::vector<RoundWork>& rounds) {
  std::map<std::int64_t, std::vector<double>> wall, missions, steps, mission_s;
  for (const RoundWork& r : rounds) {
    for (const auto& [key, op] : r.ops) {
      wall[key].push_back(op.wall_s);
      missions[key].push_back(op.missions);
      steps[key].push_back(op.drone_steps);
    }
    for (const auto& [key, s] : r.mission_s) mission_s[key].push_back(s);
  }
  Typical t;
  for (const auto& [key, w] : wall) {
    t.wall_s += median(w);
    t.missions += median(missions[key]);
    t.drone_steps += median(steps[key]);
  }
  std::vector<double> per_mission;
  for (const auto& [key, s] : mission_s) per_mission.push_back(median(s));
  t.mission_p50_s = median(per_mission);
  return t;
}

// Per-layer values of a traced run.
std::map<std::string, double> layer_values(Workload& workload, const RunOptions& options,
                                           std::vector<RoundWork>& traced,
                                           double untraced_wall_s, double cpu_s,
                                           Probes& probes, CheckLog& log) {
  std::map<std::string, double> v = probes.layer;
  const Totals t = totals(traced);
  const double rounds = static_cast<double>(traced.size());

  // Search counts over the first round only: fixed work for a given seed.
  const RoundWork& first = traced.front();
  double steps = 0, reused = 0, sims = 0, iters = 0, found = 0, batches = 0;
  double admissions = 0, corpus = 0, bins = 0;
  for (const FuzzedMission& m : first.fuzzed) {
    steps += static_cast<double>(m.result.sim_steps_executed);
    reused += static_cast<double>(m.result.prefix_steps_reused);
    sims += m.result.simulations;
    iters += m.result.iterations;
    found += m.result.found ? 1 : 0;
    batches += m.result.eval_batches;
    admissions += m.result.corpus_admissions;
    corpus += m.result.corpus_size;
    bins += m.result.novelty_bins;
  }
  if (options.workload == "swarm_1000") steps = first.drone_steps / 1000.0;
  v["sim.steps_executed"] = steps;
  v["sim.prefix_steps_reused"] = reused;
  v["sim.prefix_reuse_ratio"] = steps + reused > 0 ? reused / (steps + reused) : 0.0;
  v["fuzzer.simulations"] = sims;
  v["fuzzer.iterations"] = iters;
  v["fuzzer.spv_found"] = found;
  v["fuzzer.spv_per_1k_simulations"] = sims > 0 ? 1000.0 * found / sims : 0.0;
  v["eval_pool.batches"] = batches;
  v["corpus.admissions"] = admissions;
  v["corpus.size"] = corpus;
  v["corpus.bins"] = bins;

  for (const int n : {5, 10, 15, 1000}) {
    v["sim.clean_run_s.n" + std::to_string(n)] =
        median(probes.tracer.durations_s("sim.clean_run.n" + std::to_string(n)));
  }
  // Direct runs: their wall time minus the delegated control computation.
  const double direct_run_s =
      probes.tracer.total_s("sim.run") + probes.tracer.total_s("sim.clean_run");
  v["sim.non_control_s"] = direct_run_s - seconds(probes.control_compute.ns());
  const double utilisation = t.wall_s > 0 ? cpu_s / (t.wall_s * kThreads) : 0.0;
  if (options.workload == "swarm_1000") {
    v["tick_pool.cpu_util"] = utilisation;
  } else {
    v["eval_pool.cpu_util"] = utilisation;
  }

  // Controller: every control tick of the traced rounds and of the layer
  // replay. Its share is against the busy time of the measured rounds.
  const double controller_s = seconds(probes.controller_ticks.ns());
  v["swarm.controller_s"] = controller_s / rounds;
  v["swarm.controller_calls"] = static_cast<double>(probes.controller_ticks.calls()) / rounds;
  double busy_s = 0.0;
  for (const double s : t.mission_s) busy_s += s;
  busy_s *= workload.threads_per_mission();
  v["swarm.controller_share"] = busy_s > 0 ? controller_s / busy_s : 0.0;

  v["fuzzer.swarmfuzz_mission_s"] = median(probes.tracer.durations_s("fuzz.swarmfuzz"));
  v["fuzzer.efuzz_mission_s"] = median(probes.tracer.durations_s("fuzz.efuzz"));
  if (options.workload == "table1_campaign") {
    v["fuzzer.swarmfuzz_mission_s"] = median(t.mission_s);
  }

  const double phase_missions = std::max(v["phase.missions"], 1.0);
  v["seeds.schedule_s"] = probes.tracer.total_s("seeds.schedule") / phase_missions;
  v["svg.build_s"] = probes.tracer.total_s("svg.build") / phase_missions;
  v["graph.pagerank_s"] = probes.tracer.total_s("graph.pagerank") / phase_missions;
  v["objective.setup_s"] = probes.tracer.total_s("objective.setup") / phase_missions;
  v["objective.eval_s"] = probes.tracer.total_s("objective.evaluate") / phase_missions;
  v["optimizer.optimize_s"] = probes.tracer.self_s("optimizer.optimize") / phase_missions;
  v["eval_pool.jobs_per_batch"] =
      v["phase.batches"] > 0 ? v["phase.batch_jobs"] / v["phase.batches"] : 0.0;
  for (const char* name : {"sim.collision_check_s", "sim.recorder_record_s",
                           "swarm.grid_build_s", "swarm.comm_filter_s",
                           "objective.memo_hits"}) {
    v[name] /= phase_missions;
  }

  // Tick cross-check: control ticks the controller wrapper saw during the
  // rounds vs the program's committed sim_steps_executed plus the clean runs
  // of missions it re-drew. Equal at one eval thread; the excess at more
  // threads is speculative evaluation that was never committed.
  if (options.workload != "swarm_1000") {
    double committed = 0.0;
    for (const RoundWork& r : traced) {
      for (const FuzzedMission& m : r.fuzzed) {
        committed += static_cast<double>(m.result.sim_steps_executed);
      }
      for (const RoundWork::Redraw& d : r.redraws) {
        committed += static_cast<double>(
            clean_truth_run(sim::generate_mission(d.config, d.seed), d.fuzzer).ticks);
      }
    }
    const double replay_ticks = v["phase.replay_ticks"];
    const double seen = static_cast<double>(probes.controller_ticks.calls()) - replay_ticks;
    const double excess = seen - committed;
    if (options.workload == "single_mission_search") {
      v["eval_pool.uncommitted_ticks"] = excess;
    } else if (options.workload == "table1_campaign") {
      v["trace.tick_crosscheck_delta"] = excess;
      log.expect(excess == 0.0, "trace: controller saw " + std::to_string(seen) +
                                    " ticks, program committed " +
                                    std::to_string(committed));
    }
  }

  double append_s = 0, bytes = 0;
  for (const RoundWork& r : traced) {
    const auto get = [&r](const char* k) {
      const auto it = r.layer.find(k);
      return it == r.layer.end() ? 0.0 : it->second;
    };
    append_s += get("telemetry.append_s");
    bytes += get("telemetry.bytes");
  }
  v["telemetry.append_s"] = append_s / rounds;
  v["telemetry.bytes"] = bytes / rounds;

  v["trace.overhead_pct"] = untraced_wall_s > 0 ? 100.0 * (t.wall_s / untraced_wall_s - 1.0) : 0.0;
  v["trace.spans"] = static_cast<double>(probes.tracer.size());
  return v;
}

}  // namespace

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics{
      {"sim.steps_executed", 0, "ticks"},
      {"sim.prefix_steps_reused", 0, "ticks"},
      {"sim.prefix_reuse_ratio", 0, "ratio"},
      {"sim.clean_run_s.n5", 0, "s"},
      {"sim.clean_run_s.n10", 0, "s"},
      {"sim.clean_run_s.n15", 0, "s"},
      {"sim.clean_run_s.n1000", 0, "s"},
      {"sim.non_control_s", 0, "s"},
      {"sim.collision_check_s", 0, "s"},
      {"sim.recorder_record_s", 0, "s"},
      {"tick_pool.cpu_util", 0, "ratio"},
      {"swarm.controller_s", 0, "s"},
      {"swarm.controller_calls", 0, "count"},
      {"swarm.controller_share", 0, "ratio"},
      {"swarm.grid_build_s", 0, "s"},
      {"swarm.comm_filter_s", 0, "s"},
      {"fuzzer.simulations", 0, "count"},
      {"fuzzer.iterations", 0, "count"},
      {"fuzzer.spv_found", 0, "count"},
      {"fuzzer.spv_per_1k_simulations", 0, "1/1000sims"},
      {"fuzzer.swarmfuzz_mission_s", 0, "s"},
      {"fuzzer.efuzz_mission_s", 0, "s"},
      {"seeds.schedule_s", 0, "s"},
      {"svg.build_s", 0, "s"},
      {"graph.pagerank_s", 0, "s"},
      {"objective.setup_s", 0, "s"},
      {"objective.eval_s", 0, "s"},
      {"objective.memo_hits", 0, "count"},
      {"optimizer.optimize_s", 0, "s"},
      {"eval_pool.batches", 0, "count"},
      {"eval_pool.jobs_per_batch", 0, "count"},
      {"eval_pool.cpu_util", 0, "ratio"},
      {"eval_pool.uncommitted_ticks", 0, "ticks"},
      {"corpus.admissions", 0, "count"},
      {"corpus.size", 0, "count"},
      {"corpus.bins", 0, "count"},
      {"telemetry.append_s", 0, "s"},
      {"telemetry.bytes", 0, "bytes"},
      {"trace.overhead_pct", 0, "%"},
      {"trace.spans", 0, "count"},
      {"trace.tick_crosscheck_delta", 0, "ticks"},
  };
  return metrics;
}

RunReport run_workload(const RunOptions& options, std::int64_t process_start_ns) {
  util::set_log_level(util::LogLevel::kWarn);
  std::unique_ptr<Workload> workload = make_workload(options);
  workload->setup();
  const double setup_s = seconds(now_ns() - process_start_ns);

  RunReport report;
  CheckLog log;
  std::vector<RoundWork> rounds;
  if (!options.trace) {
    rounds = run_rounds(*workload, options.seconds, 0, nullptr);
    const Typical typical = typical_round(rounds);
    report.metrics = {
        {"missions_per_s", typical.missions / typical.wall_s, "missions/s"},
        {"mission_p50_s", typical.mission_p50_s, "s"},
        {"drone_steps_per_s", typical.drone_steps / typical.wall_s, "drone-ticks/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    // Traced pass for half the run length, then the identical rounds
    // untraced: the difference is the tracing overhead.
    Probes probes;
    const double cpu_before = cpu_seconds();
    rounds = run_rounds(*workload, options.seconds / 2.0, 0, &probes);
    const double cpu_s = cpu_seconds() - cpu_before;
    std::vector<RoundWork> plain =
        run_rounds(*workload, 0.0, static_cast<int>(rounds.size()), nullptr);
    std::vector<RoundWork> all = rounds;
    all.insert(all.end(), plain.begin(), plain.end());
    const std::int64_t before_replay = probes.controller_ticks.calls();
    workload->replay_layers(rounds, probes);
    probes.layer["phase.replay_ticks"] =
        static_cast<double>(probes.controller_ticks.calls() - before_replay);
    const std::map<std::string, double> values =
        layer_values(*workload, options, rounds, totals(plain).wall_s, cpu_s, probes, log);
    for (const Metric& m : per_layer_metrics()) {
      const auto it = values.find(m.name);
      report.metrics.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
    }
    fs::create_directories(options.out_dir);
    probes.tracer.write_jsonl(options.out_dir + "/trace-" + options.workload + "-" +
                              std::to_string(options.seed) + ".jsonl");
    // Oracles cover the traced rounds and the untraced repeat alike.
    rounds = std::move(all);
  }
  workload->check(rounds, log);
  // Checkpoints are scratch; traces stay.
  fs::remove_all(options.out_dir + "/" + options.workload);

  const Totals t = totals(rounds);
  report.attempted = t.missions;
  report.failed = t.failed;
  report.failures = log.failures;
  report.checks_passed = log.passed;
  report.correct = log.ok();
  return report;
}

}  // namespace campaignbench
