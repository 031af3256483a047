// The benchmark's four workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace campaignbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch files: checkpoints, service dirs, traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // correctness checks that did not hold
  int checks_passed = 0;
};

// Per-layer metrics of the traced run, in the order they are printed.
[[nodiscard]] const std::vector<Metric>& per_layer_metrics();

// Runs one workload; `process_start_ns` (now_ns() at process start) anchors
// setup_s. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunReport run_workload(const RunOptions& options,
                                     std::int64_t process_start_ns);

}  // namespace campaignbench
