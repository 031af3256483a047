// The fuzzing objective f(t_s, dt) - paper section IV-C.
//
// Given a seed <T-V, theta> and the spoofing deviation d, f(t_s, dt) is the
// minimum distance between the victim drone and the obstacle over the
// attacked mission, minus the drone's collision radius; a collision occurs
// iff f <= 0. Each evaluation is one full mission simulation — unless the
// prefix cache can supply a mid-mission checkpoint with time <= t_s, in
// which case only the tail from that checkpoint is simulated (the attacked
// run is bit-identical to the clean run until the spoofing window opens, so
// the clean run's checkpoints are valid prefixes for every (t_s, dt)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "attack/spoofing.h"
#include "fuzz/seeds.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "swarm/flocking_system.h"

namespace swarmfuzz::fuzz {

// Execution guards applied to every simulation an Objective runs: the
// per-evaluation watchdog (sim-step budget + wall-clock deadline, both
// raising RunFaultError{kTimeout}) and the deterministic fault-injection
// hook used by the containment tests. Borrowed by the Objective so the
// fuzzer can tighten the deadline between evaluations.
struct EvalGuards {
  sim::RunWatchdog watchdog{};
  sim::FaultInjection inject{};
};

struct ObjectiveEval {
  double f = 0.0;               // victim-obstacle clearance, m (<= 0: crash)
  bool success = false;         // a victim drone hit the obstacle
  int crashed_drone = -1;       // which drone hit the obstacle (on success)
  bool target_caused = false;   // collision involved the target (excluded by
                                // the paper's success metric)
  double end_time = 0.0;
  // Behavioral probe of the attacked run, the raw material of E_Fuzz's
  // novelty signature (fuzz/corpus.h). Deterministic — derived from the
  // recorder of a deterministic simulation — and carried through the memo
  // and EvalPool untouched, so replayed and memo-served evaluations report
  // the identical features.
  std::vector<double> drone_clearance;  // per-drone min obstacle distance, m
  double min_clearance_time = 0.0;      // when the tightest approach happened
  double min_avg_separation = 0.0;      // tightest average swarm packing, m
};

// One candidate of an evaluation batch (raw, pre-projection coordinates —
// evaluate_batch projects exactly like evaluate does).
struct EvalRequest {
  double t_start = 0.0;
  double duration = 0.0;
};

// Receives batch results replayed in submission order: called once per
// entry with the entry's index and its evaluation. Return false to stop —
// later entries are then discarded without touching any observable state,
// exactly as a serial caller that stopped issuing evaluate() calls.
using BatchConsumer = std::function<bool(std::size_t, const ObjectiveEval&)>;

// Abstract objective over (t_s, dt): what the gradient search minimises.
// Split from the simulator-backed Objective so the optimizer can be tested
// (and reused) against synthetic landscapes.
class ObjectiveFunction {
 public:
  virtual ~ObjectiveFunction() = default;
  [[nodiscard]] virtual ObjectiveEval evaluate(double t_start, double duration) = 0;
  // Clamps (t_s, dt) into the feasible region.
  virtual void project(double& t_start, double& duration) const = 0;

  // Evaluates a batch of independent candidates and replays the outcomes
  // through `consume` in submission order. The default is a lazy serial
  // loop (evaluate each entry only when the previous consume returned
  // true), so for any implementation the observable behaviour — results,
  // evaluation counts, memoisation — is that of the equivalent sequence of
  // evaluate() calls; overrides may evaluate speculatively in parallel but
  // must preserve that contract (see Objective::evaluate_batch).
  virtual void evaluate_batch(std::span<const EvalRequest> batch,
                              const BatchConsumer& consume);
};

// Collects the clean run's checkpoints, ordered by capture time. One cache
// per mission: the pre-spoof prefix is seed-independent, so every Objective
// of that mission (any target-victim pair) can resume from it. After the
// clean run finishes, hand its recorder to set_source(): checkpoints store
// only accumulator state, and resume rebuilds each prefix's trajectory
// samples from the source recorder (see sim/recorder.h). Populate from one
// thread (on_checkpoint/set_source/clear are not synchronised); once
// populated, the const lookups (latest_at_or_before/source) are safe to
// call concurrently — EvalPool workers share one cache this way.
class PrefixCache final : public sim::CheckpointSink {
 public:
  void on_checkpoint(sim::SimulationCheckpoint&& checkpoint) override;

  // Latest checkpoint with time <= t (within a small epsilon, matching the
  // simulator's capture cadence); nullptr when none qualifies.
  [[nodiscard]] const sim::SimulationCheckpoint* latest_at_or_before(
      double t) const noexcept;

  // Stores (a copy of) the recorder of the run that produced the collected
  // checkpoints. Must be called before any resume; Objective throws
  // std::logic_error on a cache with checkpoints but no source.
  void set_source(const sim::Recorder& recorder) { source_ = recorder; }
  [[nodiscard]] const sim::Recorder* source() const noexcept {
    return source_ ? &*source_ : nullptr;
  }

  void clear() noexcept {
    checkpoints_.clear();
    source_.reset();
  }
  [[nodiscard]] size_t size() const noexcept { return checkpoints_.size(); }

 private:
  std::vector<sim::SimulationCheckpoint> checkpoints_;  // ascending time
  std::optional<sim::Recorder> source_;
};

class EvalPool;

// Result of one attack simulation, before any Objective bookkeeping.
struct AttackEvalOutcome {
  ObjectiveEval eval{};
  std::int64_t steps_executed = 0;
  std::int64_t steps_resumed = 0;
};

// Runs one attacked mission for the (already projected) spoofing window:
// the stateless core of Objective::evaluate, also executed by EvalPool
// workers against their own simulator/system clones. Mutates only `system`
// (each caller must own its clone); `prefix` is only read. Throws
// sim::RunFaultError on guard trips or numerical divergence and
// std::logic_error on a prefix cache with checkpoints but no source.
[[nodiscard]] AttackEvalOutcome evaluate_attack(
    const sim::MissionSpec& mission, const sim::Simulator& simulator,
    swarm::FlockingControlSystem& system, const Seed& seed,
    double spoof_distance, const PrefixCache* prefix, const EvalGuards* guards,
    double t_start, double duration);

class Objective;

// One group of a grouped evaluation (Objective::evaluate_batches): a batch
// of candidates for one objective and the consumer its outcomes replay
// through. `requests` is borrowed for the duration of the call.
struct ObjectiveBatch {
  Objective* objective = nullptr;
  std::span<const EvalRequest> requests;
  BatchConsumer consume;
};

// Evaluates attacked missions for a fixed seed. Not thread-safe (owns the
// control system it mutates); create one per worker.
class Objective final : public ObjectiveFunction {
 public:
  // `system` must outlive the objective. `t_mission` (timing constraint
  // t_s + dt < t_mission) is taken from the clean run's end time. `prefix`
  // (optional, borrowed) supplies clean-run checkpoints for prefix reuse;
  // results are bit-identical with or without it. `guards` (optional,
  // borrowed) bounds each evaluation's execution; a tripped guard raises
  // sim::RunFaultError from evaluate(). `pool` (optional, borrowed) lets
  // evaluate_batch() fan batches out over worker threads — results stay
  // bit-identical to the serial path (see evaluate_batch).
  Objective(const sim::MissionSpec& mission, const sim::Simulator& simulator,
            swarm::FlockingControlSystem& system, Seed seed, double spoof_distance,
            double t_mission, const PrefixCache* prefix = nullptr,
            const EvalGuards* guards = nullptr, EvalPool* pool = nullptr);

  [[nodiscard]] ObjectiveEval evaluate(double t_start, double duration) override;

  // The one-group case of evaluate_batches().
  void evaluate_batch(std::span<const EvalRequest> batch,
                      const BatchConsumer& consume) override;

  // Evaluates several objectives' batches as one pool batch. Projects every
  // candidate, skips the memoised ones and dedups exact-bit repeats within
  // a group, simulates the rest concurrently (speculatively — including
  // entries and whole groups a serial run would never reach), then replays
  // group by group in the given order and, within a group, in submission
  // order. Only the entries the consumers actually accept commit counters
  // and memo entries, and a group counts towards eval_batches() when the
  // replay reaches it; a consumer returning false ends the whole call.
  // Every objective's evaluations, memo hits, batch and step counters, and
  // memo contents end up exactly as if each group had been evaluated
  // serially in turn; a captured worker exception is rethrown at its
  // entry's replay position. All groups must share one pool (or none).
  // Without a pool, with one thread, or with at most one simulation to run,
  // this is the lazy serial loop.
  static void evaluate_batches(std::span<const ObjectiveBatch> groups);

  // Clamps (t_s, dt) into the feasible region 0 <= t_s, dt_min <= dt,
  // t_s + dt <= t_mission.
  void project(double& t_start, double& duration) const override;

  // Simulations actually run. Memoised repeats of an already-evaluated
  // projected (t_s, dt) are served from the memo and do not count.
  [[nodiscard]] int evaluations() const noexcept { return evaluations_; }
  [[nodiscard]] int memo_hits() const noexcept { return memo_hits_; }

  // Batches submitted through evaluate_batch/evaluate_batches (pooled or
  // not); equal across serial and parallel runs of the same search.
  [[nodiscard]] int eval_batches() const noexcept { return eval_batches_; }

  // Control ticks simulated vs skipped by resuming from prefix checkpoints,
  // summed over all evaluations.
  [[nodiscard]] std::int64_t sim_steps_executed() const noexcept {
    return sim_steps_executed_;
  }
  [[nodiscard]] std::int64_t prefix_steps_reused() const noexcept {
    return prefix_steps_reused_;
  }

  [[nodiscard]] double t_mission() const noexcept { return t_mission_; }
  [[nodiscard]] const Seed& seed() const noexcept { return seed_; }

 private:
  const sim::MissionSpec& mission_;
  const sim::Simulator& simulator_;
  swarm::FlockingControlSystem& system_;
  Seed seed_;
  double spoof_distance_;
  double t_mission_;
  const PrefixCache* prefix_;
  const EvalGuards* guards_;
  EvalPool* pool_;
  int evaluations_ = 0;
  int memo_hits_ = 0;
  int eval_batches_ = 0;
  std::int64_t sim_steps_executed_ = 0;
  std::int64_t prefix_steps_reused_ = 0;
  // Evaluation memo keyed on the exact bits of the *projected* (t_s, dt):
  // the simulation is a pure function of those bits, so a repeat probe
  // (e.g. the optimizer re-evaluating its multi-start winner) costs zero
  // simulations.
  std::map<std::pair<std::uint64_t, std::uint64_t>, ObjectiveEval> memo_;
};

}  // namespace swarmfuzz::fuzz
