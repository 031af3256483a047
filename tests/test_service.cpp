// Sharded campaign service tests (DESIGN.md section 13): manifest round
// trips, shard workers claiming and resuming leases, kill-mid-range
// reclamation, and the headline invariant — the merged report of any worker
// schedule is bit-identical (deterministic_equal) to a single-process run.
#include "fuzz/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/shard_merge.h"
#include "fuzz/telemetry.h"
#include "sim/simulator.h"
#include "util/record_log.h"
#include "util/retry.h"

namespace swarmfuzz::fuzz {
namespace {

std::string service_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_svc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

CampaignConfig small_campaign(int missions = 6) {
  CampaignConfig config;
  config.num_missions = missions;
  config.mission.num_drones = 5;
  config.fuzzer.spoof_distance = 10.0;
  config.fuzzer.sim.dt = 0.05;
  config.fuzzer.sim.gps.rate_hz = 20.0;
  config.fuzzer.mission_budget = 12;  // keep tests fast
  config.num_threads = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Manifest.

TEST(ServiceManifest, RoundTripsThroughJsonl) {
  ServiceManifest manifest;
  manifest.config_hash = "0123456789abcdef";
  manifest.num_missions = 60;
  manifest.num_leases = 8;
  manifest.lease_ttl_ms = 9007199254740993;  // above the 53-bit double bound
  manifest.campaign_args = {"--missions=60", "--seed=1000", "--drones=5"};
  const ServiceManifest parsed = service_manifest_from_json(to_jsonl(manifest));
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.config_hash, manifest.config_hash);
  EXPECT_EQ(parsed.num_missions, 60);
  EXPECT_EQ(parsed.num_leases, 8);
  EXPECT_EQ(parsed.lease_ttl_ms, manifest.lease_ttl_ms);
  EXPECT_EQ(parsed.campaign_args, manifest.campaign_args);
}

TEST(ServiceManifest, CrcFramingRejectsTampering) {
  ServiceManifest manifest;
  manifest.config_hash = "0123456789abcdef";
  manifest.num_missions = 10;
  manifest.num_leases = 2;
  std::string line = to_jsonl(manifest);
  const auto pos = line.find("\"missions\":10");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 11] = '2';  // 10 -> 20: an edited manifest must be rejected
  EXPECT_THROW((void)service_manifest_from_json(line), std::invalid_argument);
}

TEST(ServiceManifest, WriteLoadRoundTripsThroughDirectory) {
  const std::string dir = service_dir("manifest");
  ServiceManifest manifest;
  manifest.config_hash = "feedfacecafebeef";
  manifest.num_missions = 12;
  manifest.num_leases = 3;
  manifest.campaign_args = {"--missions=12"};
  write_manifest(dir, manifest);
  const ServiceManifest loaded = load_manifest(dir);
  EXPECT_EQ(loaded.config_hash, manifest.config_hash);
  EXPECT_EQ(loaded.num_missions, 12);
  EXPECT_EQ(loaded.num_leases, 3);
  EXPECT_EQ(loaded.campaign_args, manifest.campaign_args);
}

TEST(ServiceManifest, LoadWithoutServeFailsWithHint) {
  const std::string dir = service_dir("no_manifest");
  try {
    (void)load_manifest(dir);
    FAIL() << "missing manifest did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("swarmfuzz serve"), std::string::npos);
  }
}

TEST(ServiceLeases, DoneMarkersGateCompletion) {
  const std::string dir = service_dir("done_markers");
  EXPECT_FALSE(service_complete(dir, 8, 2));
  EXPECT_FALSE(wait_for_service(dir, 8, 2, /*timeout_ms=*/50, /*poll_ms=*/5));
  LeaseStore store(dir, 1000, "alice");
  store.mark_done(0);
  EXPECT_FALSE(service_complete(dir, 8, 2));
  store.mark_done(1);
  EXPECT_TRUE(service_complete(dir, 8, 2));
  EXPECT_TRUE(wait_for_service(dir, 8, 2, /*timeout_ms=*/50, /*poll_ms=*/5));
}

// ---------------------------------------------------------------------------
// Shard workers.

TEST(ShardWorker, SingleWorkerCompletesServiceAndMergesBitIdentical) {
  const std::string dir = service_dir("single_worker");
  const CampaignConfig campaign = small_campaign();

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 3;
  worker.lease_ttl_ms = 1000;
  worker.owner = "solo";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(stats.leases_claimed, 3);
  EXPECT_EQ(stats.leases_abandoned, 0);
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.missions_resumed, 0);
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 3));

  // Each shard stream is stamped with its lease id and covers its range.
  const auto leases = carve_leases(campaign.num_missions, 3);
  for (const LeaseRange& lease : leases) {
    const auto records = load_telemetry(shard_telemetry_path(dir, lease.lease_id));
    ASSERT_EQ(records.size(), static_cast<std::size_t>(lease.size()));
    for (const TelemetryRecord& record : records) {
      EXPECT_EQ(record.shard, lease.lease_id);
      EXPECT_GE(record.mission_index, lease.begin);
      EXPECT_LT(record.mission_index, lease.end);
    }
  }

  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.shard_files, 3);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ShardWorker, MergeRefusesPartialServiceUnlessAsked) {
  const std::string dir = service_dir("partial_merge");
  const CampaignConfig campaign = small_campaign();

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "solo";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  (void)run_shard_worker(worker);

  // Losing a whole shard stream must fail the merge loudly, not shrink the
  // campaign; --allow-partial is the explicit override.
  std::filesystem::remove(shard_telemetry_path(dir, 1));
  EXPECT_THROW((void)merge_shards(campaign, dir), std::runtime_error);
  ShardMergeStats stats;
  const CampaignResult partial =
      merge_shards(campaign, dir, /*allow_partial=*/true, &stats);
  EXPECT_EQ(stats.shard_files, 1);
  EXPECT_LT(partial.num_completed(), campaign.num_missions);
}

TEST(ShardWorker, ReclaimResumesKilledWorkersPartialShard) {
  // Reference service: one lease over the whole campaign, run to completion
  // so we can replay a prefix of its shard stream as the "killed" worker's
  // surviving records.
  const CampaignConfig campaign = small_campaign();
  const std::string ref_dir = service_dir("reclaim_ref");
  std::int64_t ref_now = 0;
  ShardWorkerConfig ref;
  ref.campaign = campaign;
  ref.dir = ref_dir;
  ref.num_leases = 1;
  ref.owner = "ref";
  ref.clock = [&ref_now] { return ref_now; };
  ref.sleep_ms = [&ref_now](std::int64_t ms) { ref_now += ms; };
  (void)run_shard_worker(ref);
  const auto ref_records = load_telemetry(shard_telemetry_path(ref_dir, 0));
  ASSERT_EQ(ref_records.size(), static_cast<std::size_t>(campaign.num_missions));

  // The crash scene: a victim claimed the lease, recorded two missions, was
  // SIGKILLed mid-write of the third (torn tail), and never renewed.
  const std::string dir = service_dir("reclaim");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));
  const std::string shard_path = shard_telemetry_path(dir, 0);
  util::record_log::append(shard_path, to_jsonl(ref_records[0]));
  util::record_log::append(shard_path, to_jsonl(ref_records[1]));
  {
    std::FILE* file = std::fopen(shard_path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const char torn[] = "{\"v\":1,\"mission\":2,\"fu";  // no newline: torn
    std::fwrite(torn, 1, sizeof torn - 1, file);
    std::fclose(file);
  }

  now = 2000;  // the victim's claim lapsed long ago
  ShardWorkerConfig rescuer;
  rescuer.campaign = campaign;
  rescuer.dir = dir;
  rescuer.num_leases = 1;
  rescuer.lease_ttl_ms = 1000;
  rescuer.owner = "rescuer";
  rescuer.clock = [&now] { return now; };
  rescuer.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(rescuer);

  // The rescuer reclaimed the lease, healed the torn tail, kept the two
  // durable records, and ran exactly the missing missions.
  EXPECT_EQ(stats.leases_claimed, 1);
  EXPECT_EQ(stats.missions_resumed, 2);
  EXPECT_EQ(stats.missions_run, campaign.num_missions - 2);
  EXPECT_EQ(stats.leases_abandoned, 0);
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 1));

  // No mission lost, none duplicated, and the merged report is bit-identical
  // to a single-process campaign.
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ShardWorker, WaitsOutLiveClaimThenReclaimsExpired) {
  const std::string dir = service_dir("live_claim");
  const CampaignConfig campaign = small_campaign();

  // Another (live, then dead) worker holds lease 0; our worker must respect
  // the claim while it is valid, make progress elsewhere, and only take the
  // lease over once the TTL lapses.
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  LeaseStore blocker(dir, 1000, "blocker", clock);
  ASSERT_TRUE(blocker.try_claim(0));

  int sleeps = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.lease_ttl_ms = 1000;
  worker.owner = "worker";
  worker.clock = clock;
  worker.sleep_ms = [&now, &sleeps](std::int64_t ms) {
    now += ms;
    ++sleeps;
  };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_GE(sleeps, 1);  // it did wait on the blocker's valid claim
  EXPECT_EQ(stats.leases_claimed, 2);
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 2));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

TEST(ShardWorker, IdleWaitsAreBoundedByTheServicePoll) {
  const std::string dir = service_dir("idle_poll");
  const CampaignConfig campaign = small_campaign(2);

  // A live peer holds the only lease under the default TTL. Idle waits must
  // stay within one service poll, and the worker must return on the scan
  // right after the peer's done marker appears.
  std::int64_t now = 0;
  const auto clock = [&now] { return now; };
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.owner = "idle";
  worker.clock = clock;
  LeaseStore peer(dir, worker.lease_ttl_ms, "peer", clock);
  ASSERT_TRUE(peer.try_claim(0));

  std::vector<std::int64_t> sleeps;
  worker.sleep_ms = [&](std::int64_t ms) {
    sleeps.push_back(ms);
    now += ms;
    if (sleeps.size() == 3) peer.mark_done(0);
  };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(sleeps.size(), 3u);
  for (const std::int64_t ms : sleeps) {
    EXPECT_GE(ms, 1);
    EXPECT_LE(ms, kServicePollMs);
  }
  EXPECT_EQ(stats.leases_claimed, 0);
  EXPECT_EQ(stats.missions_run, 0);
}

TEST(ShardWorker, QuarantineIsDedupedAcrossReclaim) {
  CampaignConfig campaign = small_campaign();
  campaign.fault_injections = parse_fault_plan("nan@1");
  campaign.max_fault_retries = 0;  // mission 1 is terminally faulted

  const std::string dir = service_dir("quarantine_dedup");
  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.owner = "first";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  (void)run_shard_worker(worker);

  const std::string shard_path = shard_telemetry_path(dir, 0);
  const std::string quarantine_path = shard_path + ".quarantine";
  ASSERT_EQ(load_quarantine(quarantine_path).size(), 1u);

  // Reclaim scenario where the quarantine append survived but the shard
  // record for the faulted mission did not: drop every record past mission 0
  // and clear the claim/done state, as if the worker died right after
  // quarantining. The successor re-runs mission 1 (it faults again,
  // deterministically) but must not append a second quarantine record.
  const auto records = load_telemetry(shard_path);
  ASSERT_GE(records.size(), 2u);
  std::filesystem::remove(shard_path);
  util::record_log::append(shard_path, to_jsonl(records[0]));
  std::filesystem::remove(dir + "/lease-0.claim");
  std::filesystem::remove(dir + "/lease-0.done");

  worker.owner = "second";
  const ShardWorkerStats stats = run_shard_worker(worker);
  EXPECT_EQ(stats.missions_resumed, 1);
  EXPECT_EQ(stats.missions_run, campaign.num_missions - 1);
  EXPECT_EQ(load_quarantine(quarantine_path).size(), 1u);
}

TEST(ShardWorker, ThreeConcurrentWorkersMergeBitIdenticalPointMass) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("three_pointmass");

  std::vector<ShardWorkerStats> stats(3);
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      ShardWorkerConfig worker;
      worker.campaign = campaign;
      worker.dir = dir;
      worker.num_leases = 3;
      worker.lease_ttl_ms = 5000;  // generous: nothing should expire
      worker.owner = "worker-" + std::to_string(i);
      stats[i] = run_shard_worker(worker);
    });
  }
  for (std::thread& worker : workers) worker.join();

  int total_run = 0;
  for (const ShardWorkerStats& s : stats) total_run += s.missions_run;
  EXPECT_EQ(total_run, campaign.num_missions);  // no duplicated work
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 3));

  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

// ---------------------------------------------------------------------------
// Chaos harness.

TEST(ChaosPlan, ParsesTheGrammar) {
  EXPECT_TRUE(parse_chaos_plan("").empty());
  const ChaosPlan plan = parse_chaos_plan("kill@3,hang@1,torn-write@2,eio@4x3");
  ASSERT_EQ(plan.actions.size(), 4u);
  EXPECT_EQ(plan.actions[0].kind, ChaosAction::Kind::kKill);
  EXPECT_EQ(plan.actions[0].mission_index, 3);
  EXPECT_EQ(plan.actions[1].kind, ChaosAction::Kind::kHang);
  EXPECT_EQ(plan.actions[2].kind, ChaosAction::Kind::kTornWrite);
  EXPECT_EQ(plan.actions[3].kind, ChaosAction::Kind::kEio);
  EXPECT_EQ(plan.actions[3].mission_index, 4);
  EXPECT_EQ(plan.actions[3].count, 3);
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_chaos_plan("kill"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("explode@1"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("kill@x"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("eio@1x0"), std::invalid_argument);
  EXPECT_THROW((void)parse_chaos_plan("kill@-2"), std::invalid_argument);
}

TEST(ChaosShardWorker, InjectedEioIsAbsorbedByTheRetryLayer) {
  util::io_retrier().reset();
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_eio");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "eio";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("eio@1x2");
  const ShardWorkerStats stats = run_shard_worker(worker);

  // Two injected failures, zero lost work: the shard append retried through.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.io_aborts, 0);
  EXPECT_GE(util::io_retrier().counters().retries, 2);
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
  util::io_retrier().reset();
}

TEST(ChaosShardWorker, KillBeforeRecordLosesOnlyTheInFlightMission) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_kill");

  std::int64_t now = 0;
  int kills = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "mortal";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("kill@1");
  // In-process stand-in for SIGKILL: count it and let run_lease's abandon
  // path model the restart (the worker rescans and re-claims its own lease,
  // exactly like a fresh process would).
  worker.chaos_kill = [&kills] { ++kills; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(kills, 1);
  // Mission 1 was computed, killed before its record, then re-run once.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_EQ(stats.missions_resumed, 1);  // mission 0's record survived
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ChaosShardWorker, TornWriteIsHealedOnResume) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_torn");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "torn";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("torn-write@1");
  worker.chaos_kill = [] {};  // die in place, resume in the same process
  const ShardWorkerStats stats = run_shard_worker(worker);

  // The fragment was healed away; the mission re-ran and recorded whole.
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

TEST(ChaosShardWorker, HangReleasesWhenTheWaitHookSaysSo) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_hang_release");

  std::int64_t now = 0;
  int waits = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.owner = "hanger";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  worker.chaos = parse_chaos_plan("hang@0");
  worker.chaos_hang_wait = [&waits](std::int64_t) { return ++waits >= 3; };
  const ShardWorkerStats stats = run_shard_worker(worker);

  EXPECT_EQ(waits, 3);  // hung for three bounded waits, then released
  EXPECT_EQ(stats.missions_run, campaign.num_missions);
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

TEST(ChaosShardWorker, HungWorkerIsFencedOffAndRecoversTheLease) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("chaos_hang_fence");

  // Real clock and a short TTL: the heartbeat thread must discover the
  // fence on its own renewal schedule while the mission loop hangs.
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 1;
  worker.lease_ttl_ms = 150;
  worker.owner = "hung";
  worker.chaos = parse_chaos_plan("hang@0");
  worker.chaos_hang_wait = [](std::int64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return false;  // never self-release: only the fence gets us out
  };

  ShardWorkerStats stats;
  std::thread runner([&] { stats = run_shard_worker(worker); });
  // Fence the hung worker the way a coordinator would.
  LeaseStore coordinator(dir, 150, "coordinator");
  while (!std::filesystem::exists(coordinator.claim_path(0))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (void)coordinator.fence_claim(0);
  runner.join();

  // The worker abandoned the hang, re-claimed the lease (its chaos entry
  // already spent) and finished the campaign.
  EXPECT_GE(stats.leases_abandoned, 1);
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 1));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

// ---------------------------------------------------------------------------
// Heartbeat failure handling (transient vs permanent renewal errors).

TEST(LeaseHeartbeatErrors, TransientRenewalFailuresAreRetriedNotFatal) {
  const std::string dir = service_dir("hb_transient");
  LeaseStore store(dir, /*ttl_ms=*/200, "flaky");
  ASSERT_TRUE(store.try_claim(0));
  std::atomic<int> failures{2};
  store.set_append_hook_for_test([&failures] {
    if (failures.fetch_sub(1) > 0) throw util::IoError("blip", EIO);
  });
  {
    LeaseHeartbeat heartbeat(store, 0);
    // Two transient failures fit comfortably inside the TTL; the heartbeat
    // must back off and recover, never fencing itself.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    while (failures.load() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LE(failures.load(), 0);
    EXPECT_FALSE(heartbeat.fenced());
  }
  EXPECT_TRUE(store.holds(0));  // a successful renewal landed after the blips
}

TEST(LeaseHeartbeatErrors, PermanentRenewalFailureFencesImmediately) {
  const std::string dir = service_dir("hb_permanent");
  LeaseStore store(dir, /*ttl_ms=*/150, "rofs");
  ASSERT_TRUE(store.try_claim(0));
  // A read-only filesystem never heals: the heartbeat must abandon at the
  // first renewal instead of spinning on retries.
  store.set_append_hook_for_test(
      [] { throw util::IoError("read-only", EROFS); });
  LeaseHeartbeat heartbeat(store, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (!heartbeat.fenced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(heartbeat.fenced());
}

TEST(LeaseHeartbeatErrors, TransientFailuresPastTheTtlFence) {
  const std::string dir = service_dir("hb_lapsed");
  LeaseStore store(dir, /*ttl_ms=*/120, "unlucky");
  ASSERT_TRUE(store.try_claim(0));
  // Every renewal fails "transiently": once the claim has lapsed on disk a
  // reclaimer may own the range, so the heartbeat must fence rather than
  // keep retrying into a contested lease.
  store.set_append_hook_for_test([] { throw util::IoError("still down", EIO); });
  LeaseHeartbeat heartbeat(store, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
  while (!heartbeat.fenced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(heartbeat.fenced());
}

// ---------------------------------------------------------------------------
// Holes: machine-readable partial merges and resume.

TEST(HolesManifest, RoundTripsThroughJsonl) {
  HolesManifest manifest;
  manifest.config_hash = "0123456789abcdef";
  manifest.num_missions = 20;
  manifest.holes = {MissionHole{.begin = 3, .end = 7},
                    MissionHole{.begin = 12, .end = 13}};
  const HolesManifest parsed = holes_manifest_from_json(to_jsonl(manifest));
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.config_hash, manifest.config_hash);
  EXPECT_EQ(parsed.num_missions, 20);
  ASSERT_EQ(parsed.holes.size(), 2u);
  EXPECT_EQ(parsed.holes[0].begin, 3);
  EXPECT_EQ(parsed.holes[0].end, 7);
  EXPECT_EQ(parsed.holes[1].begin, 12);
}

TEST(HolesManifest, MissingMissionRangesFindsMaximalRuns) {
  CampaignResult result;
  result.outcomes.resize(8);
  for (int i = 0; i < 8; ++i) result.outcomes[i].mission_index = i;
  for (const int i : {0, 3, 4, 7}) result.outcomes[i].completed = true;
  const auto holes = missing_mission_ranges(result);
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0].begin, 1);
  EXPECT_EQ(holes[0].end, 3);
  EXPECT_EQ(holes[1].begin, 5);
  EXPECT_EQ(holes[1].end, 7);
  for (auto& outcome : result.outcomes) outcome.completed = true;
  EXPECT_TRUE(missing_mission_ranges(result).empty());
}

TEST(ResumeHoles, TurnsALostShardBackIntoLeasesAndCompletes) {
  const CampaignConfig campaign = small_campaign();
  const std::string dir = service_dir("resume_holes");

  std::int64_t now = 0;
  ShardWorkerConfig worker;
  worker.campaign = campaign;
  worker.dir = dir;
  worker.num_leases = 2;
  worker.owner = "first";
  worker.clock = [&now] { return now; };
  worker.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  (void)run_shard_worker(worker);

  // Disaster: lease 1's shard stream is lost *after* its done marker.
  std::filesystem::remove(shard_telemetry_path(dir, 1));
  const CampaignResult partial =
      merge_shards(campaign, dir, /*allow_partial=*/true);
  const auto holes = missing_mission_ranges(partial);
  ASSERT_EQ(holes.size(), 1u);  // lease 1's range [3,6)

  ServiceManifest manifest;
  manifest.config_hash = campaign_config_hash(campaign);
  manifest.num_missions = campaign.num_missions;
  manifest.num_leases = 2;
  manifest.lease_ttl_ms = 1000;
  HolesManifest holes_manifest;
  holes_manifest.config_hash = manifest.config_hash;
  holes_manifest.num_missions = campaign.num_missions;
  holes_manifest.holes = holes;

  // The done-but-holey lease is retired and its hole re-leased...
  EXPECT_EQ(resume_holes(dir, manifest, holes_manifest), 1);
  // ...idempotently: the recovery lease already covers the hole exactly.
  EXPECT_EQ(resume_holes(dir, manifest, holes_manifest), 0);

  worker.owner = "second";
  const ShardWorkerStats stats = run_shard_worker(worker);
  EXPECT_EQ(stats.missions_run, 3);  // exactly the hole, nothing else
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 2));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

TEST(ResumeHoles, OrphanedHolesGetParentlessLeases) {
  const std::string dir = service_dir("resume_orphan");
  // Lease 0 = [0,3) was re-carved down to a sub covering only [2,3): the
  // records for [0,2) were in its shard file, which is now lost. No active
  // lease covers [0,2) — the parentless ledger form must.
  RecarveRecord record;
  record.parent = 0;
  record.subs = {LeaseRange{.lease_id = 2, .begin = 2, .end = 3}};
  util::record_log::append(recarve_ledger_path(dir), to_jsonl(record));

  ServiceManifest manifest;
  manifest.config_hash = "cafe";
  manifest.num_missions = 6;
  manifest.num_leases = 2;
  HolesManifest holes;
  holes.config_hash = "cafe";
  holes.num_missions = 6;
  holes.holes = {MissionHole{.begin = 0, .end = 2}};

  EXPECT_EQ(resume_holes(dir, manifest, holes), 1);
  const LeaseTable table = load_lease_table(dir, 6, 2);
  ASSERT_EQ(table.active.size(), 3u);  // lease 1, sub 2, recovery lease 3
  EXPECT_EQ(table.active.back().lease_id, 3);
  EXPECT_EQ(table.active.back().begin, 0);
  EXPECT_EQ(table.active.back().end, 2);
}

TEST(ResumeHoles, RejectsMismatchedConfigHash) {
  const std::string dir = service_dir("resume_mismatch");
  ServiceManifest manifest;
  manifest.config_hash = "aaaa";
  manifest.num_missions = 6;
  manifest.num_leases = 2;
  HolesManifest holes;
  holes.config_hash = "bbbb";  // from a different campaign
  holes.num_missions = 6;
  holes.holes = {MissionHole{.begin = 0, .end = 1}};
  EXPECT_THROW((void)resume_holes(dir, manifest, holes), std::runtime_error);
}

TEST(ShardWorker, ThreeConcurrentWorkersMergeBitIdenticalQuadrotor) {
  CampaignConfig campaign = small_campaign(4);
  campaign.fuzzer.sim.vehicle = sim::VehicleType::kQuadrotor;
  campaign.fuzzer.mission_budget = 6;  // quadrotor steps cost more
  const std::string dir = service_dir("three_quadrotor");

  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      ShardWorkerConfig worker;
      worker.campaign = campaign;
      worker.dir = dir;
      worker.num_leases = 2;
      worker.lease_ttl_ms = 5000;
      worker.owner = "quad-" + std::to_string(i);
      (void)run_shard_worker(worker);
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 2));
  EXPECT_TRUE(deterministic_equal(merge_shards(campaign, dir),
                                  run_campaign(campaign)));
}

}  // namespace
}  // namespace swarmfuzz::fuzz
