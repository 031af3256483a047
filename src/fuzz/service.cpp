#include "fuzz/service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "util/json.h"
#include "util/logging.h"
#include "util/record_log.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

// The one record of a single-record file (manifest, holes). `missing_hint`
// is the operator remedy appended when there is none.
template <typename Parse>
auto load_single(const std::string& path, Parse parse, const char* missing_hint) {
  auto records = util::record_log::load(path, parse);
  if (records.size() != 1) {
    throw std::runtime_error("service: expected one record in " + path +
                             missing_hint);
  }
  return records.front();
}

}  // namespace

std::string to_jsonl(const ServiceManifest& manifest) {
  util::JsonWriter json;
  json.begin_object();
  json.key("v");
  json.value(manifest.schema_version);
  json.key("config_hash");
  json.value(manifest.config_hash);
  json.key("missions");
  json.value(manifest.num_missions);
  json.key("leases");
  json.value(manifest.num_leases);
  json.key("ttl_ms");
  json.value(std::to_string(manifest.lease_ttl_ms));
  json.key("args");
  json.begin_array();
  for (const std::string& arg : manifest.campaign_args) json.value(arg);
  json.end_array();
  json.end_object();
  return util::record_log::frame(json.str());
}

ServiceManifest service_manifest_from_json(std::string_view line) {
  util::record_log::check_frame(line);
  const util::JsonValue root = util::parse_json(line);
  ServiceManifest manifest;
  manifest.schema_version = root.at("v").as_int();
  if (manifest.schema_version != 1) {
    throw std::invalid_argument("service: unsupported manifest version " +
                                std::to_string(manifest.schema_version));
  }
  manifest.config_hash = root.at("config_hash").as_string();
  manifest.num_missions = root.at("missions").as_int();
  manifest.num_leases = root.at("leases").as_int();
  manifest.lease_ttl_ms = std::stoll(root.at("ttl_ms").as_string());
  const util::JsonValue& args = root.at("args");
  for (std::size_t i = 0; i < args.size(); ++i) {
    manifest.campaign_args.push_back(args.at(i).as_string());
  }
  return manifest;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

void write_manifest(const std::string& dir, const ServiceManifest& manifest) {
  std::filesystem::create_directories(dir);
  util::record_log::write_file_atomic(manifest_path(dir), to_jsonl(manifest) + "\n");
}

ServiceManifest load_manifest(const std::string& dir) {
  return load_single(manifest_path(dir), service_manifest_from_json,
                     " (run `swarmfuzz serve` first)");
}

bool service_complete(const std::string& dir, int num_missions,
                      int num_leases) {
  const LeaseTable table = load_lease_table(dir, num_missions, num_leases);
  for (const LeaseRange& lease : table.active) {
    std::error_code ec;
    if (!std::filesystem::exists(
            dir + "/lease-" + std::to_string(lease.lease_id) + ".done", ec)) {
      return false;
    }
  }
  return true;
}

bool wait_for_service(const std::string& dir, int num_missions, int num_leases,
                      std::int64_t timeout_ms, std::int64_t poll_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!service_complete(dir, num_missions, num_leases)) {
    if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<std::int64_t>(poll_ms, 1)));
  }
  return true;
}

ChaosPlan parse_chaos_plan(std::string_view spec) {
  ChaosPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item{spec.substr(
        start, (comma == std::string_view::npos ? spec.size() : comma) - start)};
    start = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto fail = [&item](const std::string& why) {
      return std::invalid_argument("parse_chaos_plan: " + why + " in '" + item +
                                   "'");
    };
    const std::size_t at = item.find('@');
    if (at == std::string::npos) throw fail("missing '@<mission-index>'");
    const std::string mode = item.substr(0, at);
    ChaosAction action;
    if (mode == "kill") {
      action.kind = ChaosAction::Kind::kKill;
    } else if (mode == "hang") {
      action.kind = ChaosAction::Kind::kHang;
    } else if (mode == "torn-write") {
      action.kind = ChaosAction::Kind::kTornWrite;
    } else if (mode == "eio") {
      action.kind = ChaosAction::Kind::kEio;
    } else {
      throw fail("unknown chaos mode '" + mode +
                 "' (kill|hang|torn-write|eio)");
    }
    try {
      std::string rest = item.substr(at + 1);
      if (const std::size_t x = rest.find('x'); x != std::string::npos) {
        action.count = std::stoi(rest.substr(x + 1));
        rest.resize(x);
      }
      action.mission_index = std::stoi(rest);
    } catch (const std::invalid_argument&) {
      throw fail("malformed number");
    } catch (const std::out_of_range&) {
      throw fail("number out of range");
    }
    if (action.mission_index < 0 || action.count < 1) {
      throw fail("negative index or non-positive count");
    }
    plan.actions.push_back(action);
  }
  return plan;
}

LeaseHeartbeat::LeaseHeartbeat(LeaseStore& store, int lease_id)
    : store_(store), lease_id_(lease_id) {
  thread_ = std::thread([this] { loop(); });
}

LeaseHeartbeat::~LeaseHeartbeat() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void LeaseHeartbeat::loop() {
  const std::int64_t period_ms = std::max<std::int64_t>(store_.ttl_ms() / 3, 1);
  // Backoff for failed renewals starts well under the period (so a hiccup
  // costs little freshness) and doubles up to the period (so a dying disk
  // is probed no faster than a healthy one is renewed).
  const std::int64_t backoff_floor_ms =
      std::max<std::int64_t>(store_.ttl_ms() / 24, 1);
  std::int64_t backoff_ms = 0;  // 0: healthy, wait a full period
  std::int64_t last_success_ms = store_.now_ms();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const std::int64_t wait_ms =
        backoff_ms > 0 ? std::min(backoff_ms, period_ms) : period_ms;
    if (wake_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                       [this] { return stop_; })) {
      break;
    }
    try {
      if (!store_.renew(lease_id_)) {
        SWARMFUZZ_WARN("shard [{}]: lease {} was reclaimed; abandoning",
                       store_.owner(), lease_id_);
        fenced_.store(true);
        break;
      }
      last_success_ms = store_.now_ms();
      backoff_ms = 0;
    } catch (const util::IoError& e) {
      if (!util::is_transient_errno(e.code())) {
        // A read-only filesystem (EROFS, EACCES...) will not heal on any
        // retry cadence; treat it like fencing so the worker abandons the
        // lease instead of spinning against the mount.
        SWARMFUZZ_ERROR(
            "shard [{}]: lease {} renewal failed permanently ({}); abandoning",
            store_.owner(), lease_id_, e.what());
        fenced_.store(true);
        break;
      }
      if (store_.now_ms() - last_success_ms >= store_.ttl_ms()) {
        // Our claim has lapsed on disk while renewals kept failing: a
        // reclaimer may legitimately own the range now, so continuing to
        // record would race it. Same abandon path as observed fencing.
        SWARMFUZZ_ERROR(
            "shard [{}]: lease {} renewals failed past the TTL; abandoning",
            store_.owner(), lease_id_);
        fenced_.store(true);
        break;
      }
      backoff_ms = backoff_ms > 0 ? std::min(backoff_ms * 2, period_ms)
                                  : backoff_floor_ms;
      SWARMFUZZ_WARN(
          "shard [{}]: lease {} renewal failed transiently ({}); retrying in "
          "{} ms",
          store_.owner(), lease_id_, e.what(), backoff_ms);
    } catch (const std::exception& e) {
      // Unclassified failure: treat as transient but stay bounded by the
      // TTL check above on the next failures.
      backoff_ms = backoff_ms > 0 ? std::min(backoff_ms * 2, period_ms)
                                  : backoff_floor_ms;
      SWARMFUZZ_ERROR("shard [{}]: lease {} renewal failed: {}",
                      store_.owner(), lease_id_, e.what());
    }
  }
}

namespace {

// Mutable per-process chaos state: which plan entries have fired, and how
// many EIO injections each mission still owes.
struct ChaosState {
  explicit ChaosState(const ChaosPlan& plan) {
    for (const ChaosAction& action : plan.actions) {
      if (action.kind == ChaosAction::Kind::kEio) {
        eio_remaining[action.mission_index] += action.count;
      } else {
        pending.push_back(action);
      }
    }
  }

  // Pops the first un-fired process-fatal/hang action for `index`.
  [[nodiscard]] const ChaosAction* take(ChaosAction::Kind kind, int index) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].kind == kind && pending[i].mission_index == index) {
        taken = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        return &taken;
      }
    }
    return nullptr;
  }

  std::vector<ChaosAction> pending;
  std::map<int, int> eio_remaining;
  ChaosAction taken;
};

}  // namespace

ShardWorkerStats run_shard_worker(const ShardWorkerConfig& config) {
  if (config.owner.empty()) {
    throw std::invalid_argument("run_shard_worker: owner must not be empty");
  }
  LeaseStore store(config.dir, config.lease_ttl_ms, config.owner, config.clock);
  std::function<void(std::int64_t)> sleep_ms = config.sleep_ms;
  if (!sleep_ms) {
    sleep_ms = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  std::function<void()> chaos_kill = config.chaos_kill;
  if (!chaos_kill) {
    chaos_kill = [] { std::raise(SIGKILL); };
  }
  std::function<bool(std::int64_t)> chaos_hang_wait = config.chaos_hang_wait;
  if (!chaos_hang_wait) {
    chaos_hang_wait = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return false;
    };
  }
  ChaosState chaos(config.chaos);

  // Shard processes do not split the hardware the way in-process campaign
  // workers do: each process is its own "worker", so auto eval threads
  // resolve to the whole machine. eval_threads never changes outcomes.
  const FuzzerConfig worker_fuzzer = worker_fuzzer_config(config.campaign, 1);

  ShardWorkerStats stats;
  MissionRunner runner(config.campaign, worker_fuzzer);

  const auto run_lease = [&](const LeaseRange& lease) {
    const std::string shard_path = shard_telemetry_path(config.dir, lease.lease_id);
    // The shard file is the lease's sub-range checkpoint: heal a previous
    // owner's torn tail, then skip every mission it already recorded. The
    // records are validated exactly like a resume checkpoint — a foreign
    // file must fail loudly, not seed a merged report.
    util::record_log::heal_torn_tail(shard_path);
    std::set<int> recorded;
    for (const TelemetryRecord& record : load_telemetry(shard_path)) {
      validate_checkpoint_record(record, config.campaign);
      if (record.mission_index < lease.begin || record.mission_index >= lease.end) {
        throw std::runtime_error(
            "shard: record for mission " + std::to_string(record.mission_index) +
            " outside lease " + std::to_string(lease.lease_id) + " range in " +
            shard_path);
      }
      recorded.insert(record.mission_index);
    }
    QuarantineLog quarantine(shard_path + ".quarantine", config.campaign);

    LeaseHeartbeat heartbeat(store, lease.lease_id);
    for (int index = lease.begin; index < lease.end; ++index) {
      if (heartbeat.fenced()) {
        ++stats.leases_abandoned;
        return;
      }
      if (recorded.count(index) != 0) {
        ++stats.missions_resumed;
        continue;
      }
      if (chaos.take(ChaosAction::Kind::kHang, index) != nullptr) {
        // The straggler the coordinator exists for: the mission loop stalls
        // while the heartbeat keeps the claim fresh. Only a re-carve (which
        // fences us) — or the injected release in tests — gets us out.
        SWARMFUZZ_WARN("shard [{}]: chaos hang before mission {}",
                       config.owner, index);
        while (!heartbeat.fenced()) {
          if (chaos_hang_wait(50)) break;
        }
        if (heartbeat.fenced()) {
          ++stats.leases_abandoned;
          return;
        }
      }
      const MissionOutcome outcome = runner.run(index);
      if (heartbeat.fenced()) {
        // Reclaimed mid-mission: the successor will rerun this index and
        // record the identical outcome; dropping ours avoids racing its
        // appends on the shard file.
        ++stats.leases_abandoned;
        return;
      }
      const std::string line =
          to_jsonl(to_record(config.campaign, outcome, lease.lease_id));
      if (chaos.take(ChaosAction::Kind::kKill, index) != nullptr) {
        SWARMFUZZ_WARN("shard [{}]: chaos kill before recording mission {}",
                       config.owner, index);
        chaos_kill();
        return;  // unreachable with the default raise(SIGKILL)
      }
      if (chaos.take(ChaosAction::Kind::kTornWrite, index) != nullptr) {
        // Append a prefix of the record without its newline, then die: the
        // torn-tail crash signature a successor's heal_torn_tail removes.
        SWARMFUZZ_WARN("shard [{}]: chaos torn write on mission {}",
                       config.owner, index);
        if (std::FILE* file = std::fopen(shard_path.c_str(), "ab");
            file != nullptr) {
          std::fwrite(line.data(), 1, line.size() / 2, file);
          std::fflush(file);
          std::fclose(file);
        }
        chaos_kill();
        return;
      }
      util::io_retrier().run("shard_append", [&] {
        if (const auto it = chaos.eio_remaining.find(index);
            it != chaos.eio_remaining.end() && it->second > 0) {
          --it->second;
          throw util::IoError("chaos: injected EIO on shard append for mission " +
                                  std::to_string(index),
                              EIO);
        }
        util::record_log::append(shard_path, line);
      });
      ++stats.missions_run;
      quarantine.record(outcome);
    }
    if (heartbeat.fenced()) {
      ++stats.leases_abandoned;
      return;
    }
    store.mark_done(lease.lease_id);
    SWARMFUZZ_INFO("shard [{}]: lease {} done (missions {}..{})", config.owner,
                   lease.lease_id, lease.begin, lease.end - 1);
  };

  // Claim until every active lease of the service is done. The lease table
  // is reloaded every scan so a coordinator's re-carves (retired parents,
  // fresh sub-leases) are picked up promptly. When nothing is claimable but
  // leases remain (validly held by live peers, or retired-but-unhealed),
  // wait at most one service poll and rescan: done markers appear, claims
  // expire, or the coordinator finishes the re-carve.
  while (true) {
    const LeaseTable table = load_lease_table(
        config.dir, config.campaign.num_missions, config.num_leases);
    bool all_done = true;
    bool claimed_any = false;
    for (const LeaseRange& lease : table.active) {
      if (store.is_done(lease.lease_id)) continue;
      all_done = false;
      if (store.is_retired(lease.lease_id)) continue;  // awaiting ledger heal
      if (!store.try_claim(lease.lease_id)) continue;
      claimed_any = true;
      ++stats.leases_claimed;
      try {
        run_lease(lease);
      } catch (const util::IoError& e) {
        // Transport gave up (retries exhausted or permanent): abandon the
        // lease — its claim expires on schedule and any worker (including
        // this one, next scan) resumes from the shard file's prefix.
        SWARMFUZZ_ERROR("shard [{}]: lease {} abandoned on I/O failure: {}",
                        config.owner, lease.lease_id, e.what());
        ++stats.io_aborts;
        ++stats.leases_abandoned;
      }
      // Reload the table after each lease so a mid-scan re-carve cannot
      // leave this worker iterating a stale carve.
      break;
    }
    if (all_done) break;
    if (!claimed_any) {
      sleep_ms(std::clamp<std::int64_t>(config.lease_ttl_ms / 4, 1,
                                        kServicePollMs));
    }
  }
  return stats;
}

std::string to_jsonl(const HolesManifest& manifest) {
  util::JsonWriter json;
  json.begin_object();
  json.key("v");
  json.value(manifest.schema_version);
  json.key("config_hash");
  json.value(manifest.config_hash);
  json.key("missions");
  json.value(manifest.num_missions);
  json.key("holes");
  json.begin_array();
  for (const MissionHole& hole : manifest.holes) {
    json.begin_object();
    json.key("begin");
    json.value(hole.begin);
    json.key("end");
    json.value(hole.end);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return util::record_log::frame(json.str());
}

HolesManifest holes_manifest_from_json(std::string_view line) {
  util::record_log::check_frame(line);
  const util::JsonValue root = util::parse_json(line);
  HolesManifest manifest;
  manifest.schema_version = root.at("v").as_int();
  if (manifest.schema_version != 1) {
    throw std::invalid_argument("service: unsupported holes version " +
                                std::to_string(manifest.schema_version));
  }
  manifest.config_hash = root.at("config_hash").as_string();
  manifest.num_missions = root.at("missions").as_int();
  const util::JsonValue& holes = root.at("holes");
  for (std::size_t i = 0; i < holes.size(); ++i) {
    manifest.holes.push_back(MissionHole{.begin = holes.at(i).at("begin").as_int(),
                                         .end = holes.at(i).at("end").as_int()});
  }
  return manifest;
}

std::string holes_path(const std::string& dir) { return dir + "/holes.json"; }

void write_holes(const std::string& dir, const HolesManifest& manifest) {
  util::record_log::write_file_atomic(holes_path(dir), to_jsonl(manifest) + "\n");
}

HolesManifest load_holes(const std::string& dir) {
  return load_single(holes_path(dir), holes_manifest_from_json,
                     " (run `swarmfuzz merge --allow-partial` first)");
}

namespace {

// The pieces of [lease.begin, lease.end) that fall inside any hole.
std::vector<MissionHole> hole_overlap(const LeaseRange& lease,
                                      const std::vector<MissionHole>& holes) {
  std::vector<MissionHole> overlap;
  for (const MissionHole& hole : holes) {
    const int begin = std::max(lease.begin, hole.begin);
    const int end = std::min(lease.end, hole.end);
    if (begin < end) overlap.push_back(MissionHole{.begin = begin, .end = end});
  }
  return overlap;
}

}  // namespace

int resume_holes(const std::string& dir, const ServiceManifest& manifest,
                 const HolesManifest& holes) {
  if (holes.config_hash != manifest.config_hash) {
    throw std::runtime_error(
        "resume-holes: holes.json is for config " + holes.config_hash +
        " but the service manifest says " + manifest.config_hash);
  }
  if (holes.num_missions != manifest.num_missions) {
    throw std::runtime_error("resume-holes: mission count mismatch");
  }
  LeaseTable table =
      load_lease_table(dir, manifest.num_missions, manifest.num_leases);
  LeaseStore store(dir, manifest.lease_ttl_ms, "resume-holes");
  int next_id = table.next_lease_id;
  int created = 0;
  std::vector<MissionHole> uncovered = holes.holes;

  for (const LeaseRange& lease : table.active) {
    const std::vector<MissionHole> overlap = hole_overlap(lease, holes.holes);
    if (overlap.empty()) continue;
    // Every overlapped range is covered one way or the other below.
    for (const MissionHole& piece : overlap) {
      for (MissionHole& hole : uncovered) {
        if (piece.begin >= hole.begin && piece.end <= hole.end) {
          // Mark covered by splitting; fully-covered holes become empty.
          if (piece.begin == hole.begin) {
            hole.begin = piece.end;
          } else if (piece.end == hole.end) {
            hole.end = piece.begin;
          } else {
            uncovered.push_back(MissionHole{.begin = piece.end, .end = hole.end});
            hole.end = piece.begin;
          }
          break;
        }
      }
    }
    // Idempotency: a not-done lease that covers exactly one hole *is* that
    // hole's recovery lease already (a previous resume-holes created it, or
    // the base carve happens to line up) — leave it for workers to claim.
    if (!store.is_done(lease.lease_id) && overlap.size() == 1 &&
        overlap.front().begin == lease.begin &&
        overlap.front().end == lease.end) {
      continue;
    }
    // Retire the lease via the standard re-carve protocol and cover its
    // hole pieces with fresh sub-leases. Done-but-holey leases (shard file
    // lost after the marker was written) are retired too: their remaining
    // records still merge, and the subs restore the missing coverage.
    if (!store.is_retired(lease.lease_id)) {
      (void)util::record_log::create_exclusive(
          recarved_marker_path(dir, lease.lease_id), "");
    }
    RecarveRecord record;
    record.parent = lease.lease_id;
    for (const MissionHole& piece : overlap) {
      record.subs.push_back(
          LeaseRange{.lease_id = next_id++, .begin = piece.begin, .end = piece.end});
    }
    util::record_log::append(recarve_ledger_path(dir), to_jsonl(record));
    store.fence_claim(lease.lease_id);
    created += static_cast<int>(record.subs.size());
    SWARMFUZZ_INFO("resume-holes: retired lease {} for {} hole range(s)",
                   lease.lease_id, static_cast<int>(record.subs.size()));
  }

  // Residue: hole ranges no active lease covers (a retired lease's recorded
  // prefix whose records were later lost). Parentless ledger entry.
  RecarveRecord orphan;
  orphan.parent = -1;
  for (const MissionHole& hole : uncovered) {
    if (hole.begin < hole.end) {
      orphan.subs.push_back(
          LeaseRange{.lease_id = next_id++, .begin = hole.begin, .end = hole.end});
    }
  }
  if (!orphan.subs.empty()) {
    util::record_log::append(recarve_ledger_path(dir), to_jsonl(orphan));
    created += static_cast<int>(orphan.subs.size());
    SWARMFUZZ_INFO("resume-holes: {} orphaned hole range(s) re-leased",
                   static_cast<int>(orphan.subs.size()));
  }
  return created;
}

}  // namespace swarmfuzz::fuzz
