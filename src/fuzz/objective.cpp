#include "fuzz/objective.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "fuzz/eval_pool.h"

namespace swarmfuzz::fuzz {

void ObjectiveFunction::evaluate_batch(std::span<const EvalRequest> batch,
                                       const BatchConsumer& consume) {
  // Lazy serial default: an entry is only evaluated once every earlier
  // entry was consumed, so implementations without a pool behave exactly
  // like the pre-batching caller-driven loop (same evaluation counts).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!consume(i, evaluate(batch[i].t_start, batch[i].duration))) {
      return;
    }
  }
}

void PrefixCache::on_checkpoint(sim::SimulationCheckpoint&& checkpoint) {
  if (!checkpoints_.empty() && checkpoint.time <= checkpoints_.back().time) {
    throw std::invalid_argument("PrefixCache: checkpoints must advance in time");
  }
  checkpoints_.push_back(std::move(checkpoint));
}

const sim::SimulationCheckpoint* PrefixCache::latest_at_or_before(
    double t) const noexcept {
  // Checkpoints are captured *before* sensing, so one taken exactly at the
  // spoofing start is still a valid resume point; allow the simulator's
  // cadence epsilon to avoid rejecting t == checkpoint.time by a rounding
  // hair.
  const sim::SimulationCheckpoint* best = nullptr;
  for (const sim::SimulationCheckpoint& cp : checkpoints_) {
    if (cp.time <= t + 1e-9) {
      best = &cp;
    } else {
      break;  // ascending order: later entries are even further past t
    }
  }
  return best;
}

AttackEvalOutcome evaluate_attack(const sim::MissionSpec& mission,
                                  const sim::Simulator& simulator,
                                  swarm::FlockingControlSystem& system,
                                  const Seed& seed, double spoof_distance,
                                  const PrefixCache* prefix,
                                  const EvalGuards* guards, double t_start,
                                  double duration) {
  const attack::SpoofingPlan plan{
      .target = seed.target,
      .direction = seed.direction,
      .start_time = t_start,
      .duration = duration,
      .distance = spoof_distance,
  };
  const attack::GpsSpoofer spoofer(plan, mission);

  // Until t_start the attacked run is bit-identical to the clean run, so a
  // clean-run checkpoint taken at or before t_start is a valid prefix.
  const sim::SimulationCheckpoint* resume =
      prefix != nullptr ? prefix->latest_at_or_before(t_start) : nullptr;
  if (resume != nullptr && prefix->source() == nullptr) {
    throw std::logic_error(
        "Objective: prefix cache has checkpoints but no source recorder; "
        "call PrefixCache::set_source(clean.recorder) after the clean run");
  }
  sim::RunHooks hooks;
  hooks.spoofer = &spoofer;
  if (resume != nullptr) {
    hooks.resume_from = resume;
    hooks.resume_recorder = prefix->source();
  }
  if (guards != nullptr) {
    hooks.watchdog = guards->watchdog;
    hooks.inject_fault = guards->inject;
  }
  const sim::RunResult run = simulator.run(mission, system, hooks);

  AttackEvalOutcome out;
  out.steps_executed = run.steps_executed;
  out.steps_resumed = run.steps_resumed;
  out.eval.end_time = run.end_time;
  out.eval.f =
      run.recorder.min_obstacle_distance(seed.victim) - mission.drone_radius;
  // Behavioral features for the novelty signature: where every drone ended
  // up relative to the obstacle field, when the globally tightest approach
  // happened, and how tightly the swarm packed. Cheap — the recorder already
  // tracked the minima; only the packing term scans one sample (O(n^2)).
  const int n = mission.num_drones();
  out.eval.drone_clearance.resize(static_cast<std::size_t>(n));
  double tightest = std::numeric_limits<double>::infinity();
  out.eval.min_clearance_time = 0.0;
  for (int i = 0; i < n; ++i) {
    const double clearance = run.recorder.min_obstacle_distance(i);
    out.eval.drone_clearance[static_cast<std::size_t>(i)] = clearance;
    if (clearance < tightest) {
      tightest = clearance;
      out.eval.min_clearance_time = run.recorder.time_of_min_obstacle_distance(i);
    }
  }
  if (run.recorder.num_samples() > 0 && n > 1) {
    const double t_clo = run.recorder.closest_time();
    out.eval.min_avg_separation =
        run.recorder.avg_inter_distance(run.recorder.sample_index_at(t_clo));
  }
  // +inf is legitimate (obstacle-free victim path); NaN means the recorder
  // ingested a non-finite sample the sentinel somehow let through — surface
  // it as a fault rather than feeding NaN to the optimizer's comparisons.
  if (std::isnan(out.eval.f)) {
    throw sim::RunFaultError(
        sim::RunFault{.kind = sim::FaultKind::kNumericalDivergence,
                      .time = run.end_time,
                      .drone = seed.victim,
                      .detail = "objective value is NaN"});
  }
  if (run.first_collision) {
    const sim::CollisionEvent& event = *run.first_collision;
    const bool involves_target =
        event.drone == seed.target ||
        (event.kind == sim::CollisionKind::kDroneDrone && event.other == seed.target);
    if (event.kind == sim::CollisionKind::kDroneObstacle && !involves_target) {
      // Success per the paper's metric: a victim drone (any swarm member
      // other than the target) crashed into the on-path obstacle.
      out.eval.success = true;
      out.eval.crashed_drone = event.drone;
      if (event.drone != seed.victim) {
        // Another drone than the scheduled victim crashed; reflect that in f
        // so the optimizer sees the success.
        out.eval.f = std::min(
            out.eval.f,
            run.recorder.min_obstacle_distance(event.drone) - mission.drone_radius);
      }
    } else {
      out.eval.target_caused = involves_target;
    }
  }
  return out;
}

Objective::Objective(const sim::MissionSpec& mission, const sim::Simulator& simulator,
                     swarm::FlockingControlSystem& system, Seed seed,
                     double spoof_distance, double t_mission,
                     const PrefixCache* prefix, const EvalGuards* guards,
                     EvalPool* pool)
    : mission_(mission),
      simulator_(simulator),
      system_(system),
      seed_(seed),
      spoof_distance_(spoof_distance),
      t_mission_(t_mission),
      prefix_(prefix),
      guards_(guards),
      pool_(pool) {
  if (seed.target < 0 || seed.target >= mission.num_drones() || seed.victim < 0 ||
      seed.victim >= mission.num_drones() || seed.target == seed.victim) {
    throw std::invalid_argument("Objective: invalid seed pair");
  }
  if (spoof_distance <= 0.0 || t_mission <= 0.0) {
    throw std::invalid_argument("Objective: non-positive parameter");
  }
}

void Objective::project(double& t_start, double& duration) const {
  const double dt_min = simulator_.config().dt;
  t_start = std::clamp(t_start, 0.0, t_mission_ - dt_min);
  duration = std::clamp(duration, dt_min, t_mission_ - t_start);
}

ObjectiveEval Objective::evaluate(double t_start, double duration) {
  project(t_start, duration);

  const std::pair<std::uint64_t, std::uint64_t> key{
      std::bit_cast<std::uint64_t>(t_start), std::bit_cast<std::uint64_t>(duration)};
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }

  const AttackEvalOutcome out =
      evaluate_attack(mission_, simulator_, system_, seed_, spoof_distance_,
                      prefix_, guards_, t_start, duration);
  ++evaluations_;
  sim_steps_executed_ += out.steps_executed;
  prefix_steps_reused_ += out.steps_resumed;
  memo_.emplace(key, out.eval);
  return out.eval;
}

void Objective::evaluate_batch(std::span<const EvalRequest> batch,
                               const BatchConsumer& consume) {
  // std::cref: the group borrows the consumer instead of copying it.
  const ObjectiveBatch group{
      .objective = this, .requests = batch, .consume = std::cref(consume)};
  evaluate_batches({&group, 1});
}

void Objective::evaluate_batches(std::span<const ObjectiveBatch> groups) {
  for (const ObjectiveBatch& group : groups) {
    if (group.objective == nullptr) {
      throw std::invalid_argument("Objective::evaluate_batches: null objective");
    }
    if (group.objective->pool_ != groups.front().objective->pool_) {
      throw std::invalid_argument(
          "Objective::evaluate_batches: groups must share one eval pool");
    }
  }
  EvalPool* const pool = groups.empty() ? nullptr : groups.front().objective->pool_;
  // Lazy serial loop: an entry is only evaluated once every earlier entry
  // (of this and every earlier group) was consumed.
  const auto run_serially = [&] {
    for (const ObjectiveBatch& group : groups) {
      ++group.objective->eval_batches_;
      for (std::size_t i = 0; i < group.requests.size(); ++i) {
        const EvalRequest& r = group.requests[i];
        if (!group.consume(i, group.objective->evaluate(r.t_start, r.duration))) {
          return;
        }
      }
    }
  };
  if (pool == nullptr || pool->threads() <= 1) {
    run_serially();
    return;
  }

  // Speculative fan-out: stage every group's non-memoised candidates as
  // one pool batch (including entries a serial run might never reach),
  // then replay group by group in submission order and commit — counter
  // increments, memo inserts — only the prefix the consumers accept.
  // Discarded speculative work touches no observable state, so every
  // objective's counters and memo match the serial path bit for bit.
  constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();
  struct Candidate {
    std::pair<std::uint64_t, std::uint64_t> key{};
    std::size_t job = kNoJob;
  };
  std::vector<Candidate> candidates;
  std::vector<EvalPool::BatchContext> contexts;
  std::vector<EvalPool::Job> jobs;
  contexts.reserve(groups.size());
  for (const ObjectiveBatch& group : groups) {
    const Objective& o = *group.objective;
    const std::size_t context = contexts.size();
    contexts.push_back({.mission = &o.mission_,
                        .seed = o.seed_,
                        .spoof_distance = o.spoof_distance_,
                        .prefix = o.prefix_,
                        .guards = o.guards_});
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> queued;
    for (const EvalRequest& r : group.requests) {
      double t_start = r.t_start;
      double duration = r.duration;
      o.project(t_start, duration);
      Candidate& c = candidates.emplace_back();
      c.key = {std::bit_cast<std::uint64_t>(t_start),
               std::bit_cast<std::uint64_t>(duration)};
      if (o.memo_.contains(c.key)) {
        continue;  // replay will serve it as a memo hit
      }
      // Duplicate keys within the group simulate once; during replay the
      // first occurrence commits the memo entry and later ones hit it,
      // exactly as serial evaluation would.
      const auto [it, inserted] = queued.try_emplace(c.key, jobs.size());
      if (inserted) {
        jobs.push_back(
            {.t_start = t_start, .duration = duration, .context = context});
      }
      c.job = it->second;
    }
  }
  if (jobs.size() <= 1) {
    // Nothing to overlap: simulating the lone job inline, in its replay
    // position, also skips it when an earlier consumer stops.
    run_serially();
    return;
  }

  std::vector<EvalPool::JobResult> results = pool->evaluate(contexts, jobs);
  const Candidate* c = candidates.data();
  for (const ObjectiveBatch& group : groups) {
    Objective& o = *group.objective;
    ++o.eval_batches_;
    for (std::size_t i = 0; i < group.requests.size(); ++i, ++c) {
      ObjectiveEval eval;
      if (const auto it = o.memo_.find(c->key); it != o.memo_.end()) {
        ++o.memo_hits_;
        eval = it->second;
      } else {
        EvalPool::JobResult& r = results[c->job];
        if (r.error) {
          // Rethrown at the entry's replay position: everything committed
          // so far matches the serial run, and the exception aborts the
          // search before any counter becomes externally observable.
          std::rethrow_exception(r.error);
        }
        ++o.evaluations_;
        o.sim_steps_executed_ += r.steps_executed;
        o.prefix_steps_reused_ += r.steps_resumed;
        o.memo_.emplace(c->key, r.eval);
        eval = r.eval;
      }
      if (!group.consume(i, eval)) {
        return;
      }
    }
  }
}

}  // namespace swarmfuzz::fuzz
