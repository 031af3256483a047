// campaignbench: end-to-end campaign benchmark for swarmfuzz.
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--commit ID] [--spawn-ns NS]
//   campaignbench --self-test
//
// Prints a run header, one `metric` line per reported metric, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check fails, 2 on a usage or build error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "selftest.h"
#include "trace.h"
#include "workloads.h"

namespace {

// Anchors setup_s at process start (static initialisation runs before main).
const std::int64_t kProcessStart = campaignbench::now_ns();

int usage(const char* message) {
  std::fprintf(stderr, "campaignbench: %s\n", message);
  std::fprintf(stderr,
               "usage: campaignbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--commit ID]\n       campaignbench --self-test\n");
  return 2;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace campaignbench;
  RunOptions options;
  options.out_dir = ".bench_out";
  std::string commit = "unknown";
  std::int64_t process_start = kProcessStart;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(arg));
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--out") {
        options.out_dir = value();
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--spawn-ns") {
        // CLOCK_MONOTONIC time at which the launcher spawned this process,
        // so setup_s also covers exec and dynamic loading.
        const long long spawn = std::stoll(value());
        const long long now_abs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      Clock::now().time_since_epoch())
                                      .count();
        process_start = std::min<long long>(now_ns() - (now_abs - spawn), kProcessStart);

      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        return usage(("unknown argument " + std::string(arg)).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }

  const std::string build_type = CAMPAIGNBENCH_BUILD_TYPE;
  std::printf("# campaignbench nproc=%u build=%s commit=%s\n",
              std::thread::hardware_concurrency(), build_type.c_str(), commit.c_str());
  if (build_type != "Release") {
    std::fprintf(stderr, "campaignbench: refusing to measure a %s build\n",
                 build_type.c_str());
    return 2;
  }

  if (self_test) {
    CheckLog log;
    run_self_test(log);
    for (const std::string& f : log.failures) std::printf("FAIL %s\n", f.c_str());
    std::printf("self-test: %d checks passed, %zu failed\n", log.passed,
                log.failures.size());
    return log.ok() ? 0 : 1;
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  RunReport report;
  try {
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    std::fflush(stdout);
    report = run_workload(options, process_start);
    // The self-test rides along on every run: its checks count like the
    // workload's own.
    CheckLog self;
    run_self_test(self);
    report.checks_passed += self.passed;
    report.failures.insert(report.failures.end(), self.failures.begin(),
                           self.failures.end());
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.failures.push_back("metric " + m.name + " is not finite");
  }
  report.correct = report.failures.empty();

  for (const std::string& f : report.failures) std::printf("FAIL %s\n", f.c_str());
  std::printf("# checks passed=%d failed=%zu attempted=%lld failed_ops=%lld\n",
              report.checks_passed, report.failures.size(),
              static_cast<long long>(report.attempted), static_cast<long long>(report.failed));
  for (const Metric& m : report.metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
