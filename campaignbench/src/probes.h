// Delegating wrappers around the program's extension points. Each forwards
// every call unchanged to the wrapped object and times it from outside, so
// the traced run measures layers without touching the library.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fuzz/objective.h"
#include "fuzz/telemetry.h"
#include "sim/control.h"
#include "sim/simulator.h"
#include "swarm/controller.h"
#include "trace.h"

namespace campaignbench {

// Times SwarmController::desired_velocity_all: one call per control tick
// under the trivial communication every workload uses.
class TimedController final : public swarmfuzz::swarm::SwarmController {
 public:
  // Calls from a control tick carry the control system's tick context;
  // the SVG construction's counterfactual base evaluation carries none.
  TimedController(std::shared_ptr<const SwarmController> inner,
                  CallAccumulator& ticks, CallAccumulator& probes)
      : inner_(std::move(inner)), ticks_(ticks), probes_(probes) {}

  using SwarmController::desired_velocity;
  using SwarmController::desired_velocity_all;

  [[nodiscard]] swarmfuzz::sim::Vec3 desired_velocity(
      const swarmfuzz::swarm::NeighborView& view,
      const swarmfuzz::sim::MissionSpec& mission) const override {
    return inner_->desired_velocity(view, mission);
  }

  void desired_velocity_all(const swarmfuzz::sim::WorldSnapshot& snapshot,
                            const swarmfuzz::sim::MissionSpec& mission,
                            std::span<swarmfuzz::sim::Vec3> desired,
                            const swarmfuzz::swarm::TickExecutor& exec) const override {
    const std::int64_t start = now_ns();
    inner_->desired_velocity_all(snapshot, mission, desired, exec);
    (exec.context != nullptr ? ticks_ : probes_).add(now_ns() - start);
  }

  [[nodiscard]] double probe_influence_radius(
      const swarmfuzz::sim::WorldSnapshot& snapshot,
      const swarmfuzz::sim::MissionSpec& mission) const override {
    return inner_->probe_influence_radius(snapshot, mission);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  std::shared_ptr<const SwarmController> inner_;
  CallAccumulator& ticks_;
  CallAccumulator& probes_;
};

// Times sim::ControlSystem::compute for direct Simulator::run calls.
class TimedControlSystem final : public swarmfuzz::sim::ControlSystem {
 public:
  TimedControlSystem(swarmfuzz::sim::ControlSystem& inner, CallAccumulator& compute)
      : inner_(inner), compute_(compute) {}

  void reset(const swarmfuzz::sim::MissionSpec& mission, std::uint64_t seed) override {
    inner_.reset(mission, seed);
  }
  void set_tick_pool(swarmfuzz::sim::TickPool* pool) override {
    inner_.set_tick_pool(pool);
  }
  void compute(const swarmfuzz::sim::WorldSnapshot& snapshot,
               const swarmfuzz::sim::MissionSpec& mission,
               std::span<swarmfuzz::sim::Vec3> desired) override {
    const std::int64_t start = now_ns();
    inner_.compute(snapshot, mission, desired);
    compute_.add(now_ns() - start);
  }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_.save_state(out);
  }
  void restore_state(std::span<const std::uint64_t> state) override {
    inner_.restore_state(state);
  }

 private:
  swarmfuzz::sim::ControlSystem& inner_;
  CallAccumulator& compute_;
};

// Times TelemetrySink::record and counts the bytes one JSONL line takes.
class TimedTelemetrySink final : public swarmfuzz::fuzz::TelemetrySink {
 public:
  TimedTelemetrySink(swarmfuzz::fuzz::TelemetrySink& inner, Tracer& tracer,
                     int parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  void record(const swarmfuzz::fuzz::TelemetryRecord& record) override {
    const std::int64_t start = now_ns();
    inner_.record(record);
    const std::int64_t end = now_ns();
    append_ns.fetch_add(end - start, std::memory_order_relaxed);
    bytes.fetch_add(static_cast<std::int64_t>(swarmfuzz::fuzz::to_jsonl(record).size() + 1),
                    std::memory_order_relaxed);
    // The record arrives when its mission ends; its measured wall time
    // places the mission's span.
    const std::int64_t mission_ns =
        static_cast<std::int64_t>(record.wall_time_s * 1e9);
    tracer_.add("mission", start - mission_ns, start, parent_, record.mission_index);
    tracer_.add("telemetry.append", start, end, parent_, record.mission_index);
  }

  // Campaign workers record concurrently.
  std::atomic<std::int64_t> append_ns{0};
  std::atomic<std::int64_t> bytes{0};

 private:
  swarmfuzz::fuzz::TelemetrySink& inner_;
  Tracer& tracer_;
  int parent_;
};

// Times the objective's evaluate/evaluate_batch and counts batch shapes.
class TimedObjective final : public swarmfuzz::fuzz::ObjectiveFunction {
 public:
  TimedObjective(swarmfuzz::fuzz::ObjectiveFunction& inner, Tracer& tracer,
                 int parent, std::int64_t group)
      : inner_(inner), tracer_(tracer), parent_(parent), group_(group) {}

  [[nodiscard]] swarmfuzz::fuzz::ObjectiveEval evaluate(double t_start,
                                                        double duration) override {
    ScopedSpan span(tracer_, "objective.evaluate", parent_, group_);
    return inner_.evaluate(t_start, duration);
  }
  void project(double& t_start, double& duration) const override {
    inner_.project(t_start, duration);
  }
  void evaluate_batch(std::span<const swarmfuzz::fuzz::EvalRequest> batch,
                      const swarmfuzz::fuzz::BatchConsumer& consume) override {
    ScopedSpan span(tracer_, "objective.evaluate", parent_, group_);
    ++batches;
    batch_jobs += static_cast<std::int64_t>(batch.size());
    inner_.evaluate_batch(batch, consume);
  }

  std::int64_t batches = 0;
  std::int64_t batch_jobs = 0;

 private:
  swarmfuzz::fuzz::ObjectiveFunction& inner_;
  Tracer& tracer_;
  int parent_;
  std::int64_t group_;
};

}  // namespace campaignbench
