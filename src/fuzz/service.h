// Sharded multi-process campaign service.
//
// Roles (one binary, three subcommands — see cli/commands.h):
//
//   serve   Coordinator. Builds the campaign configuration, carves its
//           missions into durable work leases (lease.h), and writes the
//           service manifest into a shared directory. Stateless afterwards:
//           the directory *is* the coordination medium, so the coordinator
//           can exit (or die) without affecting running workers.
//   shard   Worker process. Loads the manifest, rebuilds the configuration,
//           verifies its campaign_config_hash, then repeatedly claims
//           leases and runs their missions through the standard supervisor
//           (MissionRunner — the same clean-redraw/fault-retry/quarantine
//           ladder run_campaign uses), streaming one CRC-framed
//           TelemetryRecord per completed mission to the lease's shard
//           file. A heartbeat thread renews the lease at ttl/3; a renewal
//           that discovers the lease was reclaimed fences the worker off
//           the range (it abandons the lease without marking it done).
//   merge   Loads every shard stream and produces the CampaignResult
//           (shard_merge.h), bit-identical to a single-process run.
//
// Crash safety end to end: mission results live only in per-lease shard
// files (append + flush per record, CRC framed, torn tails healed), claim
// files only say who may *run* — so SIGKILL at any point either loses an
// in-flight mission (its lease expires, a reclaimer reruns exactly that
// mission deterministically) or nothing at all. The merge dedups the one
// overlap case (a record landing after its lease was reclaimed) keep-first
// after checking the copies agree.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/lease.h"
#include "fuzz/shard_merge.h"

namespace swarmfuzz::fuzz {

// The coordinator's durable handoff to shard workers: everything needed to
// rebuild the campaign configuration in another process, plus the lease
// geometry. `campaign_args` holds resolved `--flag=value` strings (the CLI
// layer renders and re-parses them); `config_hash` is the
// campaign_config_hash of the configuration they rebuild, which workers
// recompute and verify so a drifted binary or edited manifest is rejected
// instead of silently fuzzing a different campaign.
struct ServiceManifest {
  int schema_version = 1;
  std::string config_hash;
  int num_missions = 0;
  int num_leases = 0;
  std::int64_t lease_ttl_ms = 30000;
  std::vector<std::string> campaign_args;
};

[[nodiscard]] std::string to_jsonl(const ServiceManifest& manifest);
[[nodiscard]] ServiceManifest service_manifest_from_json(std::string_view line);

[[nodiscard]] std::string manifest_path(const std::string& dir);
// Atomic write (write-temp-then-rename); creates `dir` if missing.
void write_manifest(const std::string& dir, const ServiceManifest& manifest);
// Throws std::runtime_error when the manifest is missing or malformed.
[[nodiscard]] ServiceManifest load_manifest(const std::string& dir);

// True when every *active* lease (base carve + recarve ledger, minus
// retired) is done — the condition under which merge_shards covers every
// mission index.
[[nodiscard]] bool service_complete(const std::string& dir, int num_missions,
                                    int num_leases);

// How often anything waiting on the service directory rescans it: the
// wait_for_service default, and the longest idle wait of a shard worker
// that found nothing to claim.
inline constexpr std::int64_t kServicePollMs = 200;

// Polls (every `poll_ms`) until the service completes or `timeout_ms`
// elapses; returns whether completion was reached. timeout_ms <= 0 waits
// forever.
[[nodiscard]] bool wait_for_service(const std::string& dir, int num_missions,
                                    int num_leases, std::int64_t timeout_ms,
                                    std::int64_t poll_ms = kServicePollMs);

// --- Chaos harness ---------------------------------------------------------
//
// Deterministic failure injection for the service layer, the distributed
// sibling of the campaign's --fault-inject (campaign.h). A plan is a comma-
// separated list of `<mode>@<mission_index>[xN]`:
//
//   kill@i        SIGKILL the worker right before mission i's shard record
//                 is appended (the outcome is computed, then lost — the
//                 classic mid-range crash).
//   torn-write@i  append only a prefix of mission i's record (no newline),
//                 then SIGKILL: the torn-tail crash signature heal_torn_tail
//                 recovers from.
//   hang@i        stall forever before running mission i while the
//                 heartbeat keeps renewing — the true straggler only the
//                 coordinator's re-carve rescues.
//   eio@i[xN]     fail mission i's shard append with EIO N times (default
//                 1) before letting it through: proves the retry layer
//                 absorbs transient faults. Injected inside the retried
//                 operation, so budgets and counters account for it.
//
// The process-fatal modes (kill, torn-write) take effect once per plan
// entry; on restart the replayed shard file carries no trace of them.
struct ChaosAction {
  enum class Kind { kKill, kHang, kTornWrite, kEio };
  Kind kind = Kind::kKill;
  int mission_index = -1;
  int count = 1;  // xN: eio failures to inject; ignored by other modes
};

struct ChaosPlan {
  std::vector<ChaosAction> actions;
  [[nodiscard]] bool empty() const noexcept { return actions.empty(); }
};

// Parses the grammar above; empty spec -> empty plan. Throws
// std::invalid_argument on malformed specs.
[[nodiscard]] ChaosPlan parse_chaos_plan(std::string_view spec);

struct ShardWorkerConfig {
  // Campaign to shard. The single-process observer fields (checkpoint_path,
  // telemetry, on_progress, max_new_missions) are ignored: durability is
  // the shard files', and quarantine rides per lease (shard-<k>.quarantine).
  CampaignConfig campaign;
  std::string dir;                  // service directory (must exist)
  int num_leases = 0;               // must match the manifest's carve
  std::int64_t lease_ttl_ms = 30000;
  std::string owner;                // unique worker identity
  // Injectable time and waiting, for deterministic tests. Defaults: system
  // clock; real sleep.
  LeaseStore::Clock clock;
  std::function<void(std::int64_t)> sleep_ms;
  // Chaos harness (see above). `chaos_kill` overrides the process-fatal
  // action (default: raise(SIGKILL)) so in-process tests can observe the
  // on-disk state a real SIGKILL would leave; `chaos_hang_wait(ms)` is one
  // bounded wait of the hang loop, returning true to release the hang
  // (default: real sleep, never releases).
  ChaosPlan chaos;
  std::function<void()> chaos_kill;
  std::function<bool(std::int64_t)> chaos_hang_wait;
};

struct ShardWorkerStats {
  int leases_claimed = 0;    // leases this worker won (incl. reclaims)
  int leases_abandoned = 0;  // leases fenced off mid-range (reclaimed away)
  int missions_run = 0;      // missions executed by this worker
  int missions_resumed = 0;  // missions satisfied by existing shard records
  int io_aborts = 0;         // leases abandoned on exhausted/permanent I/O
};

// Runs one shard worker to completion: claims leases (reclaiming expired
// ones), resumes each from its shard file, runs the missing missions, and
// marks leases done. Returns when every active lease of the service is done
// (the lease table is reloaded between leases, so re-carves by a running
// coordinator are picked up). Mission outcomes depend only on (config,
// base_seed, index), so any number of workers — on any schedule, with any
// crash/reclaim/re-carve history — produce shard streams that merge
// bit-identical to a single-process run.
ShardWorkerStats run_shard_worker(const ShardWorkerConfig& config);

// Heartbeat: renews a claim every ttl/3 on a dedicated thread until
// destroyed. fenced() trips — and the worker must abandon the lease — when:
//   - a renewal finds the claim under another owner (reclaimed/fenced),
//   - renewal fails with a *permanent* I/O error (e.g. EROFS): no retry
//     cadence fixes a read-only filesystem, and spinning on one starves
//     the machine, or
//   - transient renewal failures persist past the claim's own TTL: the
//     claim has lapsed on disk, so a reclaimer may already own the range.
// Transient failures inside the TTL back off exponentially (capped at the
// renewal period) rather than tight-looping.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(LeaseStore& store, int lease_id);
  ~LeaseHeartbeat();

  LeaseHeartbeat(const LeaseHeartbeat&) = delete;
  LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  [[nodiscard]] bool fenced() const noexcept { return fenced_.load(); }

 private:
  void loop();

  LeaseStore& store_;
  int lease_id_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::atomic<bool> fenced_{false};
};

// --- Graceful partial merge: holes and resume ------------------------------

// Machine-readable manifest of the mission ranges a partial merge could not
// cover, written as `holes.json` next to the shard files so a later
// `resume-holes` (or an external scheduler) can finish the campaign.
struct HolesManifest {
  int schema_version = 1;
  std::string config_hash;  // must match the service manifest's
  int num_missions = 0;
  std::vector<MissionHole> holes;
};

[[nodiscard]] std::string to_jsonl(const HolesManifest& manifest);
[[nodiscard]] HolesManifest holes_manifest_from_json(std::string_view line);

[[nodiscard]] std::string holes_path(const std::string& dir);
// Atomic write (write-temp-then-rename).
void write_holes(const std::string& dir, const HolesManifest& manifest);
// Throws std::runtime_error when missing or malformed.
[[nodiscard]] HolesManifest load_holes(const std::string& dir);

// Turns holes back into claimable leases: every active lease overlapping a
// hole is retired (marker + ledger entry + claim fence — the standard
// re-carve protocol) and replaced by sub-leases covering exactly its hole
// intersections; hole ranges inside no active lease (a retired lease's
// recorded prefix whose shard file was later lost) become parentless ledger
// entries. Leases that already cover exactly one hole and are not done are
// left alone, so re-running with the same holes.json is idempotent.
// Returns the number of new leases created; throws when the manifest hashes
// disagree.
int resume_holes(const std::string& dir, const ServiceManifest& manifest,
                 const HolesManifest& holes);

}  // namespace swarmfuzz::fuzz
