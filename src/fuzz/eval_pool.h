// Deterministic parallel evaluation engine for the fuzzing search.
//
// The searches submit their independent simulations as batches: the
// gradient search its multi-start candidates and each iteration's FD
// stencil, E_Fuzz a whole round of mutants across (target, victim,
// direction) groups. Every job names the BatchContext (mission, seed,
// spoofing distance, prefix cache, guards) it runs against, so one batch
// may mix seeds. The pool has `threads` lanes: `threads - 1` persistent
// workers plus the calling thread as lane 0, which drains the same claim
// cursor instead of sleeping until the workers are done (with one thread
// the caller runs every job and no worker exists). Each lane owns its own
// Simulator + FlockingControlSystem clone (the only mutable per-run state),
// and all lanes resume from the same read-only PrefixCache, so a batch's
// simulations are bit-identical to the serial runs they replace.
// Determinism is then the *caller's* contract: Objective replays pool
// outcomes in submission order and commits (memo, counters) only the
// prefix a serial run would have consumed (see objective.h).
//
// This is the find-then-batch shape CGF engines use to saturate cores
// (AFL's fork-server/persistent modes): prefix reuse makes each evaluation
// cheap, the pool makes independent evaluations concurrent.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/objective.h"

namespace swarmfuzz::fuzz {

// std::thread::hardware_concurrency() with the zero case handled: the
// standard allows it to return 0 when the core count is "not computable",
// and every worker/eval-thread split that divides by it must see >= 1 or
// it would compute zero workers. All thread-count sizing in the fuzzing
// layer goes through this helper instead of the raw call.
[[nodiscard]] int hardware_threads() noexcept;

// Per-worker eval-thread budget when `workers` campaign workers share
// `hardware` cores: `requested <= 0` is auto (hardware / workers, floored),
// explicit requests are clamped so workers * eval_threads <= hardware.
// Always returns >= 1, for any input (zero/negative workers or hardware —
// the unknown-concurrency degenerate cases — are clamped up to 1 first).
[[nodiscard]] int split_eval_threads(int workers, int requested,
                                     int hardware) noexcept;

// Three-way thread budget for one campaign worker: eval threads (parallel
// candidate evaluation, EvalPool) times sim threads (intra-tick parallelism,
// TickPool) per eval thread.
struct ThreadBudget {
  int eval_threads = 1;
  int sim_threads = 1;
};

// Splits `hardware` cores across `workers` campaign processes into an
// eval x sim budget per worker. `<= 0` requests are auto. Explicit requests
// are satisfied first (clamped so the worker's total stays within its
// hardware share); the remaining dimension takes what is left of the
// per-worker share. Both-auto keeps the historical behaviour: all eval
// threads, serial ticks — intra-simulation parallelism never silently
// steals cores from batch parallelism, which saturates the machine with
// less synchronization. Every field is >= 1 for any input, so the fully
// oversubscribed degenerate request (workers = eval = sim = hardware)
// clamps to {1, 1} instead of exploding the thread count.
[[nodiscard]] ThreadBudget split_thread_budget(int workers, int requested_eval,
                                               int requested_sim,
                                               int hardware) noexcept;

class EvalPool {
 public:
  // One (already projected) candidate of a batch, run against
  // `contexts[context]` of its evaluate() call.
  struct Job {
    double t_start = 0.0;
    double duration = 0.0;
    std::size_t context = 0;
  };

  // Outcome of one job: either an evaluation plus its step accounting, or
  // the exception the simulation raised (watchdog trip, sentinel, ...).
  struct JobResult {
    ObjectiveEval eval{};
    std::int64_t steps_executed = 0;
    std::int64_t steps_resumed = 0;
    std::exception_ptr error;
  };

  // What the jobs naming it share. All pointers are borrowed and must
  // outlive the evaluate() call; `prefix` is only ever read (concurrent
  // lookups are safe — see PrefixCache).
  struct BatchContext {
    const sim::MissionSpec* mission = nullptr;
    Seed seed{};
    double spoof_distance = 0.0;
    const PrefixCache* prefix = nullptr;
    const EvalGuards* guards = nullptr;
  };

  // `threads` lanes (clamped to >= 1): spawns `threads - 1` persistent
  // workers; the caller of evaluate() is lane 0.
  EvalPool(const sim::SimulationConfig& sim,
           std::shared_ptr<const swarm::SwarmController> controller,
           const swarm::CommConfig& comm, int threads);
  ~EvalPool();

  EvalPool(const EvalPool&) = delete;
  EvalPool& operator=(const EvalPool&) = delete;

  // Lanes, i.e. eval threads: the workers plus the calling thread.
  [[nodiscard]] int threads() const noexcept { return threads_; }

  // Evaluates every job on all lanes and returns the outcomes in job order.
  // Blocking; one batch in flight at a time per pool. Exceptions are
  // captured per job, never thrown from here; a job naming a context
  // outside `contexts` is rejected (std::invalid_argument) before any runs.
  [[nodiscard]] std::vector<JobResult> evaluate(
      std::span<const BatchContext> contexts, std::span<const Job> jobs);

 private:
  // One lane's simulation state; everything the jobs share (mission,
  // prefix cache, guards) is read-only.
  struct Lane {
    Lane(const sim::SimulationConfig& sim,
         std::shared_ptr<const swarm::SwarmController> controller,
         const swarm::CommConfig& comm)
        : simulator(sim), system(std::move(controller), comm) {}
    const sim::Simulator simulator;
    swarm::FlockingControlSystem system;
  };

  void worker_loop();
  // Claims jobs of the published batch until the cursor runs out.
  void drain(Lane& lane, std::span<const BatchContext> contexts,
             std::span<const Job> jobs, JobResult* results) noexcept;

  sim::SimulationConfig sim_config_;
  std::shared_ptr<const swarm::SwarmController> controller_;
  swarm::CommConfig comm_;
  int threads_ = 1;
  Lane caller_lane_;  // lane 0: used by the thread that calls evaluate()

  // Batch handoff: evaluate() publishes the batch under the mutex and bumps
  // `generation_`, then drains the cursor itself; workers claim job indices
  // via the atomic cursor, write disjoint results_ slots, and the last
  // decrement of `remaining_` (under the mutex) releases the waiting caller
  // — so results_ reads are ordered after every worker's writes.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::span<const BatchContext> contexts_;
  std::span<const Job> jobs_;
  JobResult* results_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace swarmfuzz::fuzz
