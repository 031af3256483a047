// Adaptive coordinator tests (DESIGN.md section 16): health probing, the
// straggler classifiers (expired claim, stale heartbeat, progress stall,
// peer-rate percentile), the crash-safe re-carve protocol with its heal
// path, and the end-to-end guarantee — a hung straggler is fenced, its tail
// re-carved, and the finished service still merges bit-identical to a
// single-process campaign. Everything runs on an injected clock.
#include "fuzz/coordinator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "fuzz/service.h"
#include "fuzz/shard_merge.h"
#include "fuzz/telemetry.h"
#include "util/record_log.h"

namespace swarmfuzz::fuzz {
namespace {

std::string service_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path{::testing::TempDir()} / ("swarmfuzz_coord_" + name);
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

// A minimal shard record for `index`, good enough for recorded_prefix (which
// only reads mission indices, never validates against a campaign).
void append_stub_record(const std::string& dir, int lease_id, int index) {
  TelemetryRecord record;
  record.mission_index = index;
  record.fuzzer = "swarmfuzz";
  record.shard = lease_id;
  util::record_log::append(shard_telemetry_path(dir, lease_id), to_jsonl(record));
}

CoordinatorConfig coordinator_config(const std::string& dir,
                                     std::int64_t* now,
                                     std::int64_t ttl_ms = 1000,
                                     std::int64_t poll_ms = 100) {
  CoordinatorConfig config;
  config.dir = dir;
  config.num_missions = 6;
  config.num_leases = 2;  // lease 0 = [0,3), lease 1 = [3,6)
  config.lease_ttl_ms = ttl_ms;
  config.poll_ms = poll_ms;
  config.clock = [now] { return *now; };
  config.sleep_ms = [now](std::int64_t ms) { *now += ms; };
  return config;
}

// ---------------------------------------------------------------------------
// Health probes and the --wait timeout report.

TEST(RecordedPrefix, CountsContiguousFromBegin) {
  const std::string dir = service_dir("prefix");
  const LeaseRange lease{.lease_id = 0, .begin = 2, .end = 7};
  EXPECT_EQ(recorded_prefix(dir, lease), 0);  // no shard file at all
  append_stub_record(dir, 0, 2);
  append_stub_record(dir, 0, 3);
  append_stub_record(dir, 0, 5);  // gap at 4: 5 is not part of the prefix
  EXPECT_EQ(recorded_prefix(dir, lease), 2);
  append_stub_record(dir, 0, 4);  // gap filled, prefix now runs through 5
  EXPECT_EQ(recorded_prefix(dir, lease), 4);
}

TEST(ProbeLeaseHealth, ReportsClaimExpiryAndHeartbeatAge) {
  const std::string dir = service_dir("probe");
  std::int64_t now = 0;
  LeaseStore owner(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(owner.try_claim(0));  // expires at 1000
  owner.mark_done(1);
  const LeaseTable table = load_lease_table(dir, 6, 2);

  auto health = probe_lease_health(dir, table, 1000, /*now_ms=*/400);
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0].claimed);
  EXPECT_FALSE(health[0].expired);
  EXPECT_EQ(health[0].owner, "victim");
  EXPECT_EQ(health[0].last_renew_age_ms, 400);
  EXPECT_TRUE(health[1].done);
  EXPECT_EQ(health[1].recorded, 3);  // done implies fully recorded

  health = probe_lease_health(dir, table, 1000, /*now_ms=*/1500);
  EXPECT_TRUE(health[0].expired);
  EXPECT_EQ(health[0].last_renew_age_ms, 1500);
}

TEST(DescribeIncompleteLeases, NamesOwnerAndHeartbeatAge) {
  const std::string dir = service_dir("describe");
  std::int64_t now = 0;
  LeaseStore owner(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(owner.try_claim(0));
  const LeaseTable table = load_lease_table(dir, 6, 2);
  const std::string report =
      describe_incomplete_leases(probe_lease_health(dir, table, 1000, 1500));
  EXPECT_NE(report.find("lease 0"), std::string::npos);
  EXPECT_NE(report.find("victim"), std::string::npos);
  EXPECT_NE(report.find("expired"), std::string::npos);
  EXPECT_NE(report.find("1.5s ago"), std::string::npos);
  EXPECT_NE(report.find("unclaimed"), std::string::npos);  // lease 1

  // All done -> nothing to report.
  owner.mark_done(0);
  owner.mark_done(1);
  EXPECT_TRUE(
      describe_incomplete_leases(probe_lease_health(dir, table, 1000, 1500))
          .empty());
}

// ---------------------------------------------------------------------------
// Tick classification and the re-carve protocol.

TEST(CoordinatorTick, LeavesUnclaimedAndHealthyLeasesAlone) {
  const std::string dir = service_dir("healthy");
  std::int64_t now = 0;
  Coordinator coordinator(coordinator_config(dir, &now));
  LeaseStore worker(dir, 1000, "worker", [&now] { return now; });
  ASSERT_TRUE(worker.try_claim(0));
  for (int i = 0; i < 5; ++i) {
    const CoordinatorTickResult result = coordinator.tick();
    EXPECT_TRUE(result.recarved.empty());
    EXPECT_FALSE(result.complete);
    now += 100;
    ASSERT_TRUE(worker.renew(0));
  }
  EXPECT_EQ(coordinator.stats().recarves, 0);
}

TEST(CoordinatorTick, RecarvesExpiredClaimImmediately) {
  const std::string dir = service_dir("expired");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));
  append_stub_record(dir, 0, 0);  // one mission recorded before death
  now = 1500;                     // claim lapsed: the worker is dead

  Coordinator coordinator(coordinator_config(dir, &now));
  const CoordinatorTickResult result = coordinator.tick();
  ASSERT_EQ(result.recarved.size(), 1u);
  EXPECT_EQ(result.recarved[0], 0);
  EXPECT_EQ(coordinator.stats().recarves, 1);
  EXPECT_EQ(coordinator.stats().subleases, 2);

  // The unfinished tail [1,3) is covered by fresh sub-leases; the recorded
  // prefix [0,1) is not — its record already merges from shard-0.jsonl.
  const LeaseTable table = load_lease_table(dir, 6, 2);
  ASSERT_EQ(table.retired.size(), 1u);
  EXPECT_EQ(table.retired[0].lease_id, 0);
  ASSERT_EQ(table.active.size(), 3u);  // lease 1 plus two subs
  EXPECT_EQ(table.active[1].lease_id, 2);
  EXPECT_EQ(table.active[1].begin, 1);
  EXPECT_EQ(table.active[2].end, 3);
  EXPECT_TRUE(std::filesystem::exists(recarved_marker_path(dir, 0)));
}

TEST(CoordinatorTick, RecarvesStaleHeartbeatBeforeExpiry) {
  const std::string dir = service_dir("stale");
  std::int64_t now = 0;
  // Long TTL: a SIGSTOPped worker's claim stays valid for a long time, but
  // its heartbeat age crosses stale_heartbeat_periods x (ttl/3) well before
  // expiry, so the coordinator acts early.
  LeaseStore victim(dir, 30000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));
  now = 26000;  // not expired (30000), but age 26000 > 2.5 * 10000

  Coordinator coordinator(coordinator_config(dir, &now, /*ttl_ms=*/30000));
  const CoordinatorTickResult result = coordinator.tick();
  ASSERT_EQ(result.recarved.size(), 1u);
  // The revived victim is fenced: its late renewal must fail.
  EXPECT_FALSE(victim.renew(0));
}

TEST(CoordinatorTick, RecarvesProgressStallAgainstOwnPace) {
  const std::string dir = service_dir("stall");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));

  Coordinator coordinator(coordinator_config(dir, &now));
  // Establish a pace of one mission per 100 ms poll...
  (void)coordinator.tick();
  now += 100;
  ASSERT_TRUE(victim.renew(0));
  append_stub_record(dir, 0, 0);
  (void)coordinator.tick();
  now += 100;
  ASSERT_TRUE(victim.renew(0));
  append_stub_record(dir, 0, 1);
  (void)coordinator.tick();
  // ...then hang: the heartbeat stays fresh, progress stops. The stall
  // floor is max(stall_factor x 100 ms/mission, min_observations x poll) =
  // 500 ms of no progress.
  bool recarved = false;
  for (int i = 0; i < 8 && !recarved; ++i) {
    now += 100;
    if (!recarved) ASSERT_TRUE(victim.renew(0));
    recarved = !coordinator.tick().recarved.empty();
  }
  EXPECT_TRUE(recarved);
  EXPECT_FALSE(victim.renew(0));  // fenced
  // Only the unfinished tail [2,3) was re-carved (tail 1 -> one sub-lease).
  const LeaseTable table = load_lease_table(dir, 6, 2);
  ASSERT_EQ(table.active.size(), 2u);
  EXPECT_EQ(table.active[1].lease_id, 2);
  EXPECT_EQ(table.active[1].begin, 2);
  EXPECT_EQ(table.active[1].end, 3);
}

TEST(CoordinatorTick, HealsMarkerWithoutLedgerEntry) {
  const std::string dir = service_dir("heal");
  // A coordinator that died between marker and ledger entry: lease 0 is
  // unclaimable but its range is uncovered.
  std::fclose(std::fopen(recarved_marker_path(dir, 0).c_str(), "wbx"));
  std::int64_t now = 0;
  Coordinator coordinator(coordinator_config(dir, &now));
  const CoordinatorTickResult result = coordinator.tick();
  ASSERT_EQ(result.recarved.size(), 1u);
  EXPECT_EQ(coordinator.stats().heals, 1);
  const LeaseTable table = load_lease_table(dir, 6, 2);
  ASSERT_EQ(table.retired.size(), 1u);
  ASSERT_EQ(table.active.size(), 3u);  // coverage restored
  EXPECT_EQ(table.active[1].begin, 0);
  EXPECT_EQ(table.active[2].end, 3);
  // The heal is idempotent: the next tick has nothing left to repair.
  EXPECT_TRUE(coordinator.tick().recarved.empty());
  EXPECT_EQ(coordinator.stats().heals, 1);
}

TEST(CoordinatorTick, MinRecarveMissionsGuardsTinyTails) {
  const std::string dir = service_dir("tiny_tail");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));
  append_stub_record(dir, 0, 0);
  append_stub_record(dir, 0, 1);  // tail is a single mission
  now = 1500;                     // even though the claim expired...

  CoordinatorConfig config = coordinator_config(dir, &now);
  config.min_recarve_missions = 2;  // ...a 1-mission tail is not worth it
  Coordinator coordinator(config);
  EXPECT_TRUE(coordinator.tick().recarved.empty());
  EXPECT_EQ(coordinator.stats().recarves, 0);
}

TEST(CoordinatorRun, TimesOutOnAStuckService) {
  const std::string dir = service_dir("timeout");
  std::int64_t now = 0;
  Coordinator coordinator(coordinator_config(dir, &now));
  // Nothing claims the leases and nothing completes them: run() must give
  // up at the timeout instead of spinning forever.
  EXPECT_FALSE(coordinator.run(/*timeout_ms=*/500));
  EXPECT_GE(coordinator.stats().polls, 5);
}

// ---------------------------------------------------------------------------
// End to end: a hung straggler is classified, fenced and re-carved, and the
// finished service still merges bit-identical to a single-process run.

TEST(CoordinatorEndToEnd, HungStragglerIsRescuedAndMergeIsBitIdentical) {
  const CampaignConfig campaign = small_campaign();

  // Reference shard records (and the golden result) from clean runs.
  const std::string ref_dir = service_dir("e2e_ref");
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

  // The crash scene: a victim claimed lease 0 = [0,3), recorded missions 0
  // and 1 at a steady pace, then hung with a live heartbeat — the failure
  // passive TTL reclamation can never recover from.
  const std::string dir = service_dir("e2e");
  std::int64_t now = 0;
  LeaseStore victim(dir, 1000, "victim", [&now] { return now; });
  ASSERT_TRUE(victim.try_claim(0));

  Coordinator coordinator(coordinator_config(dir, &now));
  (void)coordinator.tick();
  for (int mission = 0; mission < 2; ++mission) {
    now += 100;
    ASSERT_TRUE(victim.renew(0));
    util::record_log::append(shard_telemetry_path(dir, 0), to_jsonl(ref_records[mission]));
    (void)coordinator.tick();
  }
  int ticks = 0;
  while (coordinator.stats().recarves == 0 && ticks++ < 20) {
    now += 100;
    (void)victim.renew(0);  // the hung worker's heartbeat stays alive
    (void)coordinator.tick();
  }
  ASSERT_EQ(coordinator.stats().recarves, 1);
  EXPECT_FALSE(victim.renew(0));  // fenced: its in-flight result is dropped

  // A healthy worker now finishes the service: lease 1 plus the sub-lease
  // covering the straggler's tail. The retired lease 0 is never reclaimed.
  ShardWorkerConfig finisher;
  finisher.campaign = campaign;
  finisher.dir = dir;
  finisher.num_leases = 2;
  finisher.lease_ttl_ms = 1000;
  finisher.owner = "finisher";
  finisher.clock = [&now] { return now; };
  finisher.sleep_ms = [&now](std::int64_t ms) { now += ms; };
  const ShardWorkerStats stats = run_shard_worker(finisher);
  EXPECT_EQ(stats.leases_claimed, 2);
  EXPECT_EQ(stats.missions_run, 4);  // missions 2..5; 0 and 1 are durable
  EXPECT_TRUE(service_complete(dir, campaign.num_missions, 2));
  EXPECT_TRUE(coordinator.tick().complete);

  ShardMergeStats merge_stats;
  const CampaignResult merged =
      merge_shards(campaign, dir, /*allow_partial=*/false, &merge_stats);
  EXPECT_EQ(merge_stats.records, campaign.num_missions);
  EXPECT_EQ(merge_stats.duplicates, 0);
  EXPECT_TRUE(deterministic_equal(merged, run_campaign(campaign)));
}

}  // namespace
}  // namespace swarmfuzz::fuzz
