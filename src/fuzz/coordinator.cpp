#include "fuzz/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "fuzz/telemetry.h"
#include "util/logging.h"
#include "util/record_log.h"

namespace swarmfuzz::fuzz {
namespace {

double median_of(std::vector<double> values) {
  if (values.empty()) return -1.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return 0.5 * (lower + upper);
}

}  // namespace

int recorded_prefix(const std::string& dir, const LeaseRange& lease) {
  std::set<int> indices;
  try {
    for (const TelemetryRecord& record :
         load_telemetry(shard_telemetry_path(dir, lease.lease_id))) {
      indices.insert(record.mission_index);
    }
  } catch (const std::exception&) {
    // A corrupt shard file is the worker's problem to surface; for health
    // probing it simply means no resumable prefix.
    return 0;
  }
  int n = 0;
  while (n < lease.size() && indices.count(lease.begin + n) != 0) ++n;
  return n;
}

std::vector<LeaseHealth> probe_lease_health(const std::string& dir,
                                            const LeaseTable& table,
                                            std::int64_t ttl_ms,
                                            std::int64_t now_ms) {
  LeaseStore store(dir, ttl_ms, "health-probe", [now_ms] { return now_ms; });
  std::vector<LeaseHealth> health;
  health.reserve(table.active.size());
  for (const LeaseRange& lease : table.active) {
    LeaseHealth h;
    h.range = lease;
    h.done = store.is_done(lease.lease_id);
    h.retired = store.is_retired(lease.lease_id);
    h.recorded = h.done ? lease.size() : recorded_prefix(dir, lease);
    const LeaseClaimRecord claim = store.peek_claim(lease.lease_id);
    if (claim.lease_id >= 0) {
      h.claimed = true;
      h.owner = claim.owner;
      h.expired = claim.expires_at_ms <= now_ms;
      h.last_renew_age_ms = now_ms - (claim.expires_at_ms - ttl_ms);
    }
    health.push_back(std::move(h));
  }
  return health;
}

std::string describe_incomplete_leases(const std::vector<LeaseHealth>& health) {
  std::string report;
  char line[256];
  for (const LeaseHealth& h : health) {
    if (h.done) continue;
    std::string state;
    if (h.retired) {
      state = "retired (awaiting sub-lease heal)";
    } else if (!h.claimed) {
      state = "unclaimed";
    } else {
      const double age_s =
          static_cast<double>(h.last_renew_age_ms) / 1000.0;
      std::snprintf(line, sizeof line, "%s claim of '%s' (last heartbeat %.1fs ago)",
                    h.expired ? "expired" : "live", h.owner.c_str(), age_s);
      state = line;
    }
    std::snprintf(line, sizeof line,
                  "  lease %-3d missions %d..%d: %d/%d recorded, %s\n",
                  h.range.lease_id, h.range.begin, h.range.end - 1, h.recorded,
                  h.range.size(), state.c_str());
    report += line;
  }
  return report;
}

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      store_(config_.dir, config_.lease_ttl_ms, "coordinator", config_.clock),
      sleep_ms_(config_.sleep_ms) {
  if (!sleep_ms_) {
    sleep_ms_ = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
}

bool Coordinator::recarve(const LeaseRange& lease, const char* reason) {
  const int id = lease.lease_id;
  if (!store_.is_retired(id)) {
    // Marker first (exclusive create — single winner among coordinators):
    // once it exists the lease can never be claimed again, so a crash
    // before the ledger entry lands only delays coverage until heal.
    if (!util::record_log::create_exclusive(
            recarved_marker_path(config_.dir, id), "")) {
      return false;
    }
  }
  // Probe the prefix *after* the marker: the straggler may still append
  // while unfenced, and any record past this point merely becomes a merge
  // duplicate of a sub-lease owner's identical outcome.
  const int recorded = recorded_prefix(config_.dir, lease);
  const int tail_begin = lease.begin + recorded;
  const int tail = lease.end - tail_begin;
  RecarveRecord record;
  record.parent = id;
  if (tail > 0) {
    LeaseTable table =
        load_lease_table(config_.dir, config_.num_missions, config_.num_leases);
    int next_id = table.next_lease_id;
    const int pieces = std::clamp(config_.recarve_pieces, 1, tail);
    const int base = tail / pieces;
    const int extra = tail % pieces;
    int begin = tail_begin;
    for (int p = 0; p < pieces; ++p) {
      const int size = base + (p < extra ? 1 : 0);
      record.subs.push_back(
          LeaseRange{.lease_id = next_id++, .begin = begin, .end = begin + size});
      begin += size;
    }
  }
  util::record_log::append(recarve_ledger_path(config_.dir), to_jsonl(record));
  store_.fence_claim(id);
  ++stats_.recarves;
  stats_.subleases += static_cast<int>(record.subs.size());
  observations_.erase(id);
  SWARMFUZZ_WARN(
      "coordinator: re-carved lease {} ({}): missions {}..{} -> {} sub-leases",
      id, reason, tail_begin, lease.end - 1,
      static_cast<int>(record.subs.size()));
  return true;
}

CoordinatorTickResult Coordinator::tick() {
  ++stats_.polls;
  const std::int64_t now = store_.now_ms();
  const LeaseTable table =
      load_lease_table(config_.dir, config_.num_missions, config_.num_leases);
  CoordinatorTickResult result;
  result.health =
      probe_lease_health(config_.dir, table, config_.lease_ttl_ms, now);

  // Pass 1: observation upkeep and rate estimation.
  for (LeaseHealth& h : result.health) {
    const int id = h.range.lease_id;
    if (h.done) {
      const auto it = observations_.find(id);
      if (it != observations_.end()) {
        // Keep the finished lease's throughput as a peer baseline: the last
        // straggler standing must still be comparable to *something* after
        // every healthy lease has completed.
        const std::int64_t elapsed = now - it->second.first_ms;
        const int completed = h.range.size() - it->second.first_recorded;
        if (elapsed > 0 && completed > 0) {
          finished_rates_.push_back(1000.0 * completed /
                                    static_cast<double>(elapsed));
        }
        observations_.erase(it);
      }
      continue;
    }
    if (h.retired) continue;  // healed in pass 2
    Observation& obs = observations_[id];
    if (obs.polls == 0 || obs.owner != h.owner || h.recorded < obs.recorded) {
      obs = Observation{.owner = h.owner,
                        .first_recorded = h.recorded,
                        .recorded = h.recorded,
                        .first_ms = now,
                        .last_progress_ms = now};
    }
    if (h.recorded > obs.recorded) obs.last_progress_ms = now;
    obs.recorded = h.recorded;
    ++obs.polls;
    const std::int64_t elapsed = now - obs.first_ms;
    if (obs.polls >= 2 && elapsed > 0) {
      h.rate_per_s =
          1000.0 * (obs.recorded - obs.first_recorded) / static_cast<double>(elapsed);
    }
  }

  // Pass 2: classify and re-carve.
  const std::int64_t renew_period =
      std::max<std::int64_t>(config_.lease_ttl_ms / 3, 1);
  bool complete = true;
  for (const LeaseHealth& h : result.health) {
    if (h.done) continue;
    complete = false;
    const int id = h.range.lease_id;
    if (h.retired) {
      // Half-finished re-carve (marker landed, ledger entry did not):
      // finish it, otherwise the lease is unclaimable *and* uncovered.
      if (recarve(h.range, "healing interrupted re-carve")) {
        ++stats_.heals;
        result.recarved.push_back(id);
      }
      continue;
    }
    if (!h.claimed) continue;  // idle workers will claim it
    const int tail = h.range.size() - h.recorded;
    if (tail < std::max(config_.min_recarve_missions, 1) && tail > 0) continue;

    const char* reason = nullptr;
    if (h.expired) {
      reason = "expired claim";
    } else if (static_cast<double>(h.last_renew_age_ms) >
               config_.stale_heartbeat_periods *
                   static_cast<double>(renew_period)) {
      reason = "stale heartbeat";
    } else {
      const auto it = observations_.find(id);
      if (it != observations_.end()) {
        Observation& obs = it->second;
        // Hung worker: heartbeat is live but progress stalled well past the
        // lease's own observed per-mission pace.
        const int completed = obs.recorded - obs.first_recorded;
        if (completed > 0) {
          const double ms_per_mission =
              static_cast<double>(obs.last_progress_ms - obs.first_ms) /
              completed;
          const double floor_ms = std::max(
              ms_per_mission * config_.stall_factor,
              static_cast<double>(config_.min_observations * config_.poll_ms));
          if (static_cast<double>(now - obs.last_progress_ms) > floor_ms) {
            reason = "progress stall";
          }
        }
        // Slow worker: rate below the straggler fraction of the median peer
        // rate for min_observations consecutive polls.
        if (reason == nullptr && obs.polls >= config_.min_observations) {
          std::vector<double> peers = finished_rates_;
          for (const LeaseHealth& other : result.health) {
            if (other.range.lease_id != id && other.rate_per_s > 0.0) {
              peers.push_back(other.rate_per_s);
            }
          }
          const double peer_median = median_of(std::move(peers));
          const double rate = std::max(h.rate_per_s, 0.0);
          if (peer_median > 0.0 &&
              rate < config_.straggler_rate_fraction * peer_median) {
            ++obs.slow_polls;
          } else {
            obs.slow_polls = 0;
          }
          if (obs.slow_polls >= config_.min_observations) {
            reason = "rate below peer median";
          }
        }
      }
    }
    if (reason != nullptr && recarve(h.range, reason)) {
      result.recarved.push_back(id);
    }
  }
  result.complete = complete && result.recarved.empty();
  return result;
}

bool Coordinator::run(std::int64_t timeout_ms) {
  std::int64_t waited_ms = 0;
  while (true) {
    const CoordinatorTickResult result = tick();
    if (result.complete) return true;
    if (timeout_ms > 0 && waited_ms >= timeout_ms) return false;
    sleep_ms_(config_.poll_ms);
    waited_ms += config_.poll_ms;
  }
}

}  // namespace swarmfuzz::fuzz
