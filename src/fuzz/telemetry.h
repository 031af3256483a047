// Campaign telemetry: one machine-readable record per completed mission.
//
// Records serve two purposes:
//   1. Observability — a campaign is no longer a black box; every mission
//      outcome (seed, fuzzer, status, fault, iterations, simulations,
//      wall-clock) streams to a JSONL sink as it completes.
//   2. Durability — when `CampaignConfig.checkpoint_path` is set the same
//      records double as a crash-safe checkpoint (util/record_log.h), and a
//      killed campaign resumes by replaying the file and running only the
//      missing mission indices.
//
// Serialization is exact: doubles are written with %.17g (see
// JsonWriter::value_exact) so a record parsed back reconstructs the
// original FuzzResult bit-for-bit. The only non-deterministic field is
// wall_time_s, which is measured, not computed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.h"
#include "sim/fault.h"

namespace swarmfuzz::fuzz {

// One completed mission, as persisted to a telemetry/checkpoint stream.
struct TelemetryRecord {
  int schema_version = 1;
  int mission_index = -1;         // index within the campaign [0, num_missions)
  std::string fuzzer;             // fuzzer_kind_name() of the campaign's kind
  std::uint64_t mission_seed = 0; // final (possibly retried) mission seed
  double wall_time_s = 0.0;       // wall-clock spent on this mission
  // Shard (lease) id the record came from, for sharded campaigns; -1 for
  // single-process runs. Written only when >= 0, so single-process records
  // stay byte-identical with pre-shard-schema files.
  int shard = -1;
  FuzzResult result;              // full outcome, including seed attempts
  // Fault containment (DESIGN.md section 11). kNone: the mission fuzzed
  // normally. Any other kind: the supervisor exhausted its fault retries and
  // recorded the mission as faulted (result is then default-constructed,
  // except kCleanRunFailed which keeps the clean-run accounting). Written
  // only when != kNone, so fault-free records are byte-identical with
  // pre-fault-schema files; on parse, records without the field derive
  // kCleanRunFailed from result.clean_run_failed.
  sim::FaultKind fault = sim::FaultKind::kNone;
  std::string fault_detail;       // human-readable cause (empty when kNone)
  int fault_attempts = 0;         // fault retries consumed on this mission
};

// One CRC-framed JSONL line (no trailing newline). Doubles round-trip
// exactly.
[[nodiscard]] std::string to_jsonl(const TelemetryRecord& record);

// Parses one JSONL line. Lines without a crc member (written before framing
// existed) are accepted; a present-but-mismatching crc throws. Throws
// std::invalid_argument on malformed input.
[[nodiscard]] TelemetryRecord telemetry_record_from_json(std::string_view line);

// A mission the campaign supervisor gave up on: every fault retry faulted
// again. Quarantine records carry enough to reproduce the failure offline
// (`swarmfuzz campaign --missions 1 ...` with the recorded seed/fuzzer).
struct QuarantineRecord {
  int mission_index = -1;
  std::string fuzzer;
  std::uint64_t mission_seed = 0;  // seed of the final faulted attempt
  std::string config_hash;         // campaign_config_hash() of the campaign
  sim::FaultKind fault = sim::FaultKind::kNone;
  std::string detail;
  int attempts = 0;                // attempts made (initial + retries)
};

// CRC-framed JSONL line for a quarantine record (no trailing newline).
[[nodiscard]] std::string to_jsonl(const QuarantineRecord& record);
[[nodiscard]] QuarantineRecord quarantine_record_from_json(std::string_view line);

// Loads every record from a quarantine JSONL file; same torn-tail tolerance
// as load_telemetry. A missing file yields an empty vector.
[[nodiscard]] std::vector<QuarantineRecord> load_quarantine(const std::string& path);

// Receives completed-mission records; implementations must be thread-safe
// (campaign workers call record() concurrently).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void record(const TelemetryRecord& record) = 0;
};

// Thread-safe JSONL file sink: every record() is one checked append
// (util::record_log::append), so a crash loses at most the line being
// written and a failed write throws util::IoError instead of vanishing.
class JsonlTelemetrySink final : public TelemetrySink {
 public:
  // Creates `path`; `append` keeps existing records (resume) after healing
  // a torn tail, otherwise the file is truncated. Throws util::IoError on
  // failure.
  explicit JsonlTelemetrySink(const std::string& path, bool append = true);

  void record(const TelemetryRecord& record) override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
};

// Loads every record from a JSONL file under the util::record_log policy:
// a torn final line is skipped with a warning, a corrupt complete line
// (including a CRC mismatch) throws std::runtime_error. A missing file
// yields an empty vector.
[[nodiscard]] std::vector<TelemetryRecord> load_telemetry(const std::string& path);

}  // namespace swarmfuzz::fuzz
