#include "fuzz/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>

#include "fuzz/eval_pool.h"
#include "fuzz/objective.h"
#include "swarm/vasarhelyi.h"
#include "util/logging.h"

namespace swarmfuzz::fuzz {
namespace {

// Cap on recorded failed attempts per mission (successes are always
// recorded): keeps FuzzResult/telemetry bounded for the random fuzzers at
// large budgets while attempts_tried still counts everything.
constexpr std::size_t kMaxRecordedAttempts = 256;

// Resolves sim_threads = 0 (auto) before anything consumes config.sim: the
// simulator and every EvalPool worker are built from it (and FuzzerBase's
// member order initializes simulator_ before eval_threads_). Auto gives the
// intra-tick pool whatever the eval fan-out leaves of the machine, so
// eval x sim never oversubscribes by default; an explicit request passes
// through untouched (oversubscription is then the caller's choice — results
// are identical regardless).
FuzzerConfig resolve_fuzzer_threads(FuzzerConfig config) {
  if (config.sim.sim_threads <= 0) {
    const int eval =
        config.eval_threads > 0 ? config.eval_threads : hardware_threads();
    config.sim.sim_threads =
        std::max(hardware_threads() / std::max(eval, 1), 1);
  }
  return config;
}

// Shared plumbing: clean run, seed scheduling, bookkeeping.
class FuzzerBase : public Fuzzer {
 public:
  FuzzerBase(FuzzerConfig config,
             std::shared_ptr<const swarm::SwarmController> controller)
      : config_(resolve_fuzzer_threads(std::move(config))),
        controller_(controller != nullptr
                        ? std::move(controller)
                        : std::make_shared<swarm::VasarhelyiController>()),
        system_(controller_, config_.comm),
        simulator_(config_.sim),
        eval_threads_(config_.eval_threads > 0 ? config_.eval_threads
                                               : hardware_threads()) {
    // An explicit eval_threads is honoured as-is (oversubscription is the
    // caller's choice; results are identical regardless); only the 0 = auto
    // case consults the hardware. Campaigns pre-split their budget via
    // split_eval_threads before configuring workers.
    if (eval_threads_ > 1) {
      pool_ = std::make_unique<EvalPool>(config_.sim, controller_, config_.comm,
                                         eval_threads_);
    }
  }

  FuzzResult fuzz(const sim::MissionSpec& mission) final {
    FuzzResult result;
    // Arm the execution guards for this whole fuzz() call: the wall-clock
    // deadline is absolute, so the clean run and every objective evaluation
    // draw from the same budget.
    guards_.watchdog = config_.mission_timeout_s > 0.0
                           ? sim::RunWatchdog::with_timeout(config_.mission_timeout_s)
                           : sim::RunWatchdog{};
    guards_.watchdog.max_steps = config_.eval_max_steps;
    guards_.inject = config_.fault_injection;
    // The clean run doubles as the prefix-recording run: with reuse enabled
    // it emits checkpoints that every subsequent objective evaluation of
    // this mission resumes from (the pre-spoof prefix is seed-independent),
    // at zero extra simulation cost.
    prefix_.clear();
    sim::RunHooks hooks;
    hooks.watchdog = guards_.watchdog;
    hooks.inject_fault = guards_.inject;
    if (config_.prefix_reuse) {
      hooks.checkpoints = &prefix_;
      hooks.checkpoint_period = config_.checkpoint_period;
    }
    const sim::RunResult clean = simulator_.run(mission, system_, hooks);
    if (config_.prefix_reuse) {
      // Checkpoints carry no trajectory samples; resumes rebuild each
      // prefix from the clean run's recorder.
      prefix_.set_source(clean.recorder);
    }
    result.simulations = 1;
    result.sim_steps_executed = clean.steps_executed;
    result.clean_mission_time = clean.end_time;
    result.eval_parallelism = eval_threads_;
    if (clean.collided) {
      // The paper's step (1): missions that fail without any attack are not
      // fuzzed.
      result.clean_run_failed = true;
      return result;
    }
    // Min over finite per-drone VDOs only. A drone that never meets an
    // obstacle reports infinity (and a degenerate sample could surface NaN);
    // letting either win the fold leaks a non-finite value into telemetry,
    // where it serializes as JSON null and parses back as NaN — breaking the
    // bit-exact checkpoint round trip (same_double(inf, NaN) is false). A
    // mission with no finite VDO keeps NaN, which round-trips stably.
    double mission_vdo = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < mission.num_drones(); ++i) {
      const double vdo = clean.recorder.min_obstacle_distance(i);
      if (std::isfinite(vdo) && !(vdo >= mission_vdo)) mission_vdo = vdo;
    }
    result.mission_vdo = mission_vdo;

    run_search(mission, clean, result);
    return result;
  }

 protected:
  // Subclass-specific search; fills result.found/plan/victim/iterations.
  virtual void run_search(const sim::MissionSpec& mission,
                          const sim::RunResult& clean, FuzzResult& result) = 0;

  // Initial (t_s, dt) candidates for a seed, anchored on the victim's
  // clean-run closest approach t_ca: one window ending at the encounter, one
  // well before it (attacks that pre-deviate the trajectory), and one short
  // late window. Multi-start matters because far from the collision basin
  // the objective is nearly flat and gradients carry no signal.
  [[nodiscard]] std::vector<StartPoint> initial_guesses(
      const sim::RunResult& clean, const Seed& seed) const {
    const double t_ca = clean.recorder.time_of_min_obstacle_distance(seed.victim);
    const double lead = config_.lead_time;
    const double dur = config_.initial_duration;
    return {
        StartPoint{std::max(t_ca - lead, 0.0), dur},
        StartPoint{std::max(t_ca - 2.0 * lead - dur, 0.0), dur},
        StartPoint{std::max(t_ca - lead / 2.0, 0.0), dur / 2.0},
    };
  }

  void record_success(FuzzResult& result, const Seed& seed,
                      const OptimizationResult& outcome,
                      const sim::RunResult& clean) const {
    result.found = true;
    result.plan = attack::SpoofingPlan{
        .target = seed.target,
        .direction = seed.direction,
        .start_time = outcome.t_start,
        .duration = outcome.duration,
        .distance = config_.spoof_distance,
    };
    result.victim = outcome.crashed_drone >= 0 ? outcome.crashed_drone : seed.victim;
    result.victim_vdo = clean.recorder.min_obstacle_distance(result.victim);
  }

  FuzzerConfig config_;
  std::shared_ptr<const swarm::SwarmController> controller_;
  swarm::FlockingControlSystem system_;
  sim::Simulator simulator_;
  PrefixCache prefix_;   // clean-run checkpoints of the current mission
  EvalGuards guards_{};  // armed at fuzz() entry, shared by all evaluations
  int eval_threads_ = 1;
  std::unique_ptr<EvalPool> pool_;  // non-null iff eval_threads_ > 1
};

// Runs the gradient search over an ordered seed list (SwarmFuzz / G_Fuzz).
class GradientSearchFuzzer : public FuzzerBase {
 public:
  using FuzzerBase::FuzzerBase;

 protected:
  void search_seeds(const sim::MissionSpec& mission, const sim::RunResult& clean,
                    std::vector<Seed> seeds, FuzzResult& result) {
    for (const Seed& seed : seeds) {
      const int remaining = config_.mission_budget - result.iterations;
      if (remaining <= 0) break;
      Objective objective(mission, simulator_, system_, seed,
                          config_.spoof_distance, clean.end_time,
                          config_.prefix_reuse ? &prefix_ : nullptr, &guards_,
                          pool_.get());
      const std::vector<StartPoint> starts = initial_guesses(clean, seed);
      const OptimizationResult outcome =
          optimize(objective, starts, std::min(remaining, config_.per_seed_budget),
                   config_.optimizer);
      ++result.attempts_tried;
      result.iterations += outcome.iterations;
      result.simulations += objective.evaluations();
      result.sim_steps_executed += objective.sim_steps_executed();
      result.prefix_steps_reused += objective.prefix_steps_reused();
      result.eval_batches += objective.eval_batches();
      result.attempts.push_back(SeedAttempt{seed, outcome});
      if (outcome.success) {
        record_success(result, seed, outcome, clean);
        return;
      }
    }
  }
};

class SwarmFuzzer final : public GradientSearchFuzzer {
 public:
  using GradientSearchFuzzer::GradientSearchFuzzer;
  [[nodiscard]] std::string_view name() const noexcept override { return "SwarmFuzz"; }

 protected:
  void run_search(const sim::MissionSpec& mission, const sim::RunResult& clean,
                  FuzzResult& result) override {
    std::vector<Seed> seeds = schedule_seeds(clean, mission, system_,
                                             config_.spoof_distance, config_.seeds);
    SWARMFUZZ_DEBUG("SwarmFuzz: {} scheduled seeds", seeds.size());
    if (seeds.empty()) {
      SWARMFUZZ_WARN(
          "SwarmFuzz: seed scheduling produced no seeds for mission seed {}; "
          "nothing fuzzed", mission.seed);
      result.no_seeds = true;
      return;
    }
    search_seeds(mission, clean, std::move(seeds), result);
  }
};

// G_Fuzz: gradient search on randomly chosen pairs/directions.
class GradientOnlyFuzzer final : public GradientSearchFuzzer {
 public:
  GradientOnlyFuzzer(FuzzerConfig config,
                     std::shared_ptr<const swarm::SwarmController> controller)
      : GradientSearchFuzzer(std::move(config), std::move(controller)),
        rng_(config_.rng_seed) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "G_Fuzz"; }

 protected:
  void run_search(const sim::MissionSpec& mission, const sim::RunResult& clean,
                  FuzzResult& result) override {
    const int n = mission.num_drones();
    if (n < 2) {
      // A target-victim pair needs two drones; uniform_int(0, n - 2) below
      // would otherwise be called on an empty range.
      SWARMFUZZ_WARN(
          "G_Fuzz: mission seed {} has {} drone(s), no target-victim pair "
          "exists; nothing fuzzed", mission.seed, n);
      result.no_seeds = true;
      return;
    }
    // Same seed count as SwarmFuzz would schedule, but drawn uniformly.
    math::Rng rng = rng_.split(mission.seed);
    std::vector<Seed> seeds;
    for (int k = 0; k < config_.seeds.max_seeds; ++k) {
      const int target = rng.uniform_int(0, n - 1);
      int victim = rng.uniform_int(0, n - 2);
      if (victim >= target) ++victim;
      seeds.push_back(Seed{
          .target = target,
          .victim = victim,
          .direction = rng.bernoulli(0.5) ? attack::SpoofDirection::kRight
                                          : attack::SpoofDirection::kLeft,
          .vdo = clean.recorder.min_obstacle_distance(victim),
          .influence = 0.0,
      });
    }
    search_seeds(mission, clean, std::move(seeds), result);
  }

 private:
  math::Rng rng_;
};

// Random-parameter search shared by R_Fuzz and S_Fuzz: each iteration is one
// simulation with random (t_s, dt); only a collision stops it early.
class RandomSearchFuzzer : public FuzzerBase {
 public:
  RandomSearchFuzzer(FuzzerConfig config,
                     std::shared_ptr<const swarm::SwarmController> controller)
      : FuzzerBase(std::move(config), std::move(controller)), rng_(config_.rng_seed) {}

 protected:
  // Draws and evaluates random parameters for `seed`; true on success.
  bool try_random_params(const sim::MissionSpec& mission, const sim::RunResult& clean,
                         const Seed& seed, math::Rng& rng, FuzzResult& result) {
    Objective objective(mission, simulator_, system_, seed, config_.spoof_distance,
                        clean.end_time, config_.prefix_reuse ? &prefix_ : nullptr,
                        &guards_);
    const double t_s = rng.uniform(0.0, clean.end_time);
    const double dt = rng.uniform(0.0, clean.end_time - t_s);
    const ObjectiveEval eval = objective.evaluate(t_s, dt);
    ++result.iterations;
    ++result.attempts_tried;
    result.simulations += objective.evaluations();
    result.sim_steps_executed += objective.sim_steps_executed();
    result.prefix_steps_reused += objective.prefix_steps_reused();
    const OptimizationResult outcome{.success = eval.success,
                                     .t_start = t_s,
                                     .duration = dt,
                                     .best_f = eval.f,
                                     .crashed_drone = eval.crashed_drone,
                                     .iterations = 1};
    // Failed draws are recorded too (capped) so R_Fuzz/S_Fuzz telemetry and
    // the ablation report see every attempt, not just the winning one;
    // successes always record.
    if (eval.success || result.attempts.size() < kMaxRecordedAttempts) {
      result.attempts.push_back(SeedAttempt{seed, outcome});
    }
    if (eval.success) {
      record_success(result, seed, outcome, clean);
      return true;
    }
    return false;
  }

  math::Rng rng_;
};

// R_Fuzz: random pair, direction and parameters every iteration.
class RandomFuzzer final : public RandomSearchFuzzer {
 public:
  using RandomSearchFuzzer::RandomSearchFuzzer;
  [[nodiscard]] std::string_view name() const noexcept override { return "R_Fuzz"; }

 protected:
  void run_search(const sim::MissionSpec& mission, const sim::RunResult& clean,
                  FuzzResult& result) override {
    const int n = mission.num_drones();
    if (n < 2) {
      // Same degenerate-swarm guard as G_Fuzz: no pair to spoof, and the
      // victim draw below would hit uniform_int's empty-range precondition.
      SWARMFUZZ_WARN(
          "R_Fuzz: mission seed {} has {} drone(s), no target-victim pair "
          "exists; nothing fuzzed", mission.seed, n);
      result.no_seeds = true;
      return;
    }
    math::Rng rng = rng_.split(mission.seed);
    while (result.iterations < config_.mission_budget) {
      const int target = rng.uniform_int(0, n - 1);
      int victim = rng.uniform_int(0, n - 2);
      if (victim >= target) ++victim;
      const Seed seed{
          .target = target,
          .victim = victim,
          .direction = rng.bernoulli(0.5) ? attack::SpoofDirection::kRight
                                          : attack::SpoofDirection::kLeft,
          .vdo = clean.recorder.min_obstacle_distance(victim),
          .influence = 0.0,
      };
      if (try_random_params(mission, clean, seed, rng, result)) return;
    }
  }
};

// S_Fuzz: SVG-scheduled seeds, random parameters (round-robin over seeds).
class SvgOnlyFuzzer final : public RandomSearchFuzzer {
 public:
  using RandomSearchFuzzer::RandomSearchFuzzer;
  [[nodiscard]] std::string_view name() const noexcept override { return "S_Fuzz"; }

 protected:
  void run_search(const sim::MissionSpec& mission, const sim::RunResult& clean,
                  FuzzResult& result) override {
    const std::vector<Seed> seeds = schedule_seeds(
        clean, mission, system_, config_.spoof_distance, config_.seeds);
    if (seeds.empty()) {
      // Without the marker this mission is indistinguishable from a
      // zero-cost success-free run in campaign summaries.
      SWARMFUZZ_WARN(
          "S_Fuzz: seed scheduling produced no seeds for mission seed {}; "
          "nothing fuzzed", mission.seed);
      result.no_seeds = true;
      return;
    }
    math::Rng rng = rng_.split(mission.seed);
    size_t index = 0;
    while (result.iterations < config_.mission_budget) {
      const Seed& seed = seeds[index % seeds.size()];
      ++index;
      if (try_random_params(mission, clean, seed, rng, result)) return;
    }
  }
};

// E_Fuzz: AFL-style persistent evolutionary search (DESIGN.md section 17).
// The corpus is seeded from the SVG schedule (one t_ca-anchored window per
// scheduled seed); each round assembles a fixed-size batch of mutants,
// evaluates it as one speculate-then-replay pool batch, and admits
// candidates whose behavioral signature lights a novelty bin no corpus
// member has lit. Periodic minimization keeps the population at one cheap
// entry per bin. Results are bit-identical for any eval-thread count: batch
// composition depends only on the RNG stream and corpus state, both of
// which advance in replay order (group by group, then submission order).
class EvolutionaryFuzzer final : public FuzzerBase {
 public:
  EvolutionaryFuzzer(FuzzerConfig config,
                     std::shared_ptr<const swarm::SwarmController> controller)
      : FuzzerBase(std::move(config), std::move(controller)),
        rng_(config_.rng_seed) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "E_Fuzz"; }

 protected:
  void run_search(const sim::MissionSpec& mission, const sim::RunResult& clean,
                  FuzzResult& result) override {
    const int n = mission.num_drones();
    const std::vector<Seed> scheduled = schedule_seeds(
        clean, mission, system_, config_.spoof_distance, config_.seeds);
    if (scheduled.empty()) {
      SWARMFUZZ_WARN(
          "E_Fuzz: seed scheduling produced no seeds for mission seed {}; "
          "nothing fuzzed", mission.seed);
      result.no_seeds = true;
      return;
    }

    const EvolutionConfig& evo = config_.evolution;
    Corpus corpus(evo.max_corpus);
    int minimized_at = 0;

    // Per-pair objectives are cached for the whole mission so each pair's
    // memo keeps absorbing repeated windows across rounds; all share the
    // mission's prefix cache, guards, and eval pool.
    std::map<std::tuple<int, int, int>, std::unique_ptr<Objective>> objectives;
    const auto objective_for = [&](const Seed& seed) -> Objective& {
      const std::tuple<int, int, int> key{seed.target, seed.victim,
                                          static_cast<int>(seed.direction)};
      auto it = objectives.find(key);
      if (it == objectives.end()) {
        it = objectives
                 .emplace(key, std::make_unique<Objective>(
                                   mission, simulator_, system_, seed,
                                   config_.spoof_distance, clean.end_time,
                                   config_.prefix_reuse ? &prefix_ : nullptr,
                                   &guards_, pool_.get()))
                 .first;
      }
      return *it->second;
    };

    // Anytime mode: resume this mission's corpus from a previous campaign.
    // Entries for a different swarm size are skipped (the corpus directory
    // may be shared across grid cells).
    const std::string corpus_path =
        evo.corpus_dir.empty()
            ? std::string{}
            : evo.corpus_dir + "/corpus_" + std::to_string(mission.seed) +
                  ".jsonl";
    if (!corpus_path.empty()) {
      for (CorpusEntry& entry : load_corpus(corpus_path)) {
        if (entry.seed.target < 0 || entry.seed.target >= n ||
            entry.seed.victim < 0 || entry.seed.victim >= n ||
            entry.seed.target == entry.seed.victim) {
          continue;
        }
        corpus.admit(std::move(entry));
      }
      if (corpus.size() > 0) {
        SWARMFUZZ_DEBUG("E_Fuzz: resumed {} corpus entries from {}",
                        corpus.size(), corpus_path);
      }
    }

    // Round 0: one t_ca-anchored window per scheduled seed — breadth over
    // pairs first; depth per pair comes from mutation.
    std::vector<MutantCandidate> pending;
    pending.reserve(scheduled.size());
    for (const Seed& seed : scheduled) {
      const std::vector<StartPoint> starts = initial_guesses(clean, seed);
      pending.push_back(MutantCandidate{seed, starts.front().t_start,
                                        starts.front().duration,
                                        MutationOp::kWindowReset});
    }

    math::Rng rng = rng_.split(mission.seed);
    std::size_t pending_next = 0;
    std::size_t parent_cursor = 0;
    std::size_t reseed_cursor = 0;
    bool stop = false;
    while (!stop && result.iterations < config_.mission_budget) {
      // Assemble one batch. Mutation draws happen here, before any
      // evaluation of the batch, so the RNG stream never depends on
      // speculative execution order.
      std::vector<MutantCandidate> batch;
      const int remaining = config_.mission_budget - result.iterations;
      const int batch_size = std::min(std::max(evo.batch_size, 1), remaining);
      while (static_cast<int>(batch.size()) < batch_size) {
        if (pending_next < pending.size()) {
          batch.push_back(pending[pending_next++]);
        } else if (corpus.size() > 0) {
          const auto& entries = corpus.entries();
          const CorpusEntry& parent = entries[parent_cursor++ % entries.size()];
          const CorpusEntry& partner = entries[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(entries.size()) - 1))];
          batch.push_back(mutate(parent, partner, n, clean.end_time, rng,
                                 evo.mutation));
        } else {
          // Unreachable in practice (the first evaluated candidate always
          // lights fresh bins), but guarantees the loop can never starve:
          // fall back to scheduled seeds with uniform windows.
          const Seed& seed = scheduled[reseed_cursor++ % scheduled.size()];
          const double t_s = rng.uniform(0.0, clean.end_time);
          batch.push_back(MutantCandidate{
              seed, t_s, rng.uniform(0.0, clean.end_time - t_s),
              MutationOp::kWindowReset});
        }
        // A victim swap leaves the parent's VDO on the seed; refresh every
        // candidate from the clean run so recorded attempts stay truthful.
        MutantCandidate& c = batch.back();
        c.seed.vdo = clean.recorder.min_obstacle_distance(c.seed.victim);
      }

      // Group by pair/direction in first-appearance order and evaluate the
      // round as one grouped call: every group's mutants share one pool
      // batch, and replay (hence corpus admission) runs group by group.
      struct Group {
        Objective* objective = nullptr;
        std::vector<std::size_t> indices;
        std::vector<EvalRequest> requests;
      };
      std::vector<Group> groups;
      std::map<Objective*, std::size_t> group_of;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Objective& objective = objective_for(batch[i].seed);
        const auto [it, inserted] = group_of.try_emplace(&objective, groups.size());
        if (inserted) groups.push_back({&objective, {}, {}});
        Group& group = groups[it->second];
        double t_s = batch[i].t_start;
        double dur = batch[i].duration;
        objective.project(t_s, dur);
        group.indices.push_back(i);
        group.requests.push_back(EvalRequest{t_s, dur});
      }

      std::vector<ObjectiveBatch> round;
      round.reserve(groups.size());
      for (const Group& group : groups) {
        round.push_back(ObjectiveBatch{
            .objective = group.objective,
            .requests = group.requests,
            .consume = [&](std::size_t j, const ObjectiveEval& eval) {
              const MutantCandidate& candidate = batch[group.indices[j]];
              const EvalRequest& window = group.requests[j];
              ++result.iterations;
              ++result.attempts_tried;
              corpus.admit(CorpusEntry{
                  candidate.seed, window.t_start, window.duration, eval.f,
                  // Cost proxy: the tail simulated under prefix reuse — later
                  // windows are cheaper to re-evaluate, so minimization
                  // prefers them on equal coverage.
                  clean.end_time - window.t_start,
                  novelty_signature(eval, clean.end_time, evo.novelty)});
              const OptimizationResult outcome{.success = eval.success,
                                               .t_start = window.t_start,
                                               .duration = window.duration,
                                               .best_f = eval.f,
                                               .crashed_drone = eval.crashed_drone,
                                               .iterations = 1};
              if (eval.success ||
                  result.attempts.size() < kMaxRecordedAttempts) {
                result.attempts.push_back(SeedAttempt{candidate.seed, outcome});
              }
              if (eval.success) {
                record_success(result, candidate.seed, outcome, clean);
                stop = true;
                return false;
              }
              return result.iterations < config_.mission_budget;
            }});
      }
      Objective::evaluate_batches(round);

      if (corpus.admissions() - minimized_at >= std::max(evo.minimize_period, 1)) {
        corpus.minimize();
        minimized_at = corpus.admissions();
      }
    }

    // The reported (and persisted) corpus is always minimal.
    corpus.minimize();
    for (const auto& [key, objective] : objectives) {
      result.simulations += objective->evaluations();
      result.sim_steps_executed += objective->sim_steps_executed();
      result.prefix_steps_reused += objective->prefix_steps_reused();
      result.eval_batches += objective->eval_batches();
    }
    result.corpus_size = static_cast<int>(corpus.size());
    result.novelty_bins = corpus.bins_lit();
    result.corpus_admissions = corpus.admissions();
    SWARMFUZZ_DEBUG(
        "E_Fuzz: mission seed {}: {} iterations, corpus {} entries / {} bins "
        "({} admissions)", mission.seed, result.iterations, result.corpus_size,
        result.novelty_bins, result.corpus_admissions);
    if (!corpus_path.empty()) save_corpus(corpus, corpus_path);
  }

 private:
  math::Rng rng_;
};

}  // namespace

std::string_view fuzzer_kind_name(FuzzerKind kind) noexcept {
  switch (kind) {
    case FuzzerKind::kSwarmFuzz: return "SwarmFuzz";
    case FuzzerKind::kRandom: return "R_Fuzz";
    case FuzzerKind::kGradientOnly: return "G_Fuzz";
    case FuzzerKind::kSvgOnly: return "S_Fuzz";
    case FuzzerKind::kEvolutionary: return "E_Fuzz";
  }
  return "?";
}

std::unique_ptr<Fuzzer> make_fuzzer(
    FuzzerKind kind, const FuzzerConfig& config,
    std::shared_ptr<const swarm::SwarmController> controller) {
  switch (kind) {
    case FuzzerKind::kSwarmFuzz:
      return std::make_unique<SwarmFuzzer>(config, std::move(controller));
    case FuzzerKind::kRandom:
      return std::make_unique<RandomFuzzer>(config, std::move(controller));
    case FuzzerKind::kGradientOnly:
      return std::make_unique<GradientOnlyFuzzer>(config, std::move(controller));
    case FuzzerKind::kSvgOnly:
      return std::make_unique<SvgOnlyFuzzer>(config, std::move(controller));
    case FuzzerKind::kEvolutionary:
      return std::make_unique<EvolutionaryFuzzer>(config, std::move(controller));
  }
  throw std::invalid_argument("make_fuzzer: unknown kind");
}

}  // namespace swarmfuzz::fuzz
