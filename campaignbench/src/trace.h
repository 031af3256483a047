// Span recording and per-thread accumulators for the traced benchmark run.
//
// The traced run wraps every call into a measured layer in a span (name,
// start, end, parent, group), keeps the spans in memory and writes them out
// when the benchmark ends. A layer's self time is its spans' duration minus
// the part of each span's interval that its child spans cover. Calls too
// frequent to record one span each (one controller call per control tick)
// are summed into per-thread accumulators instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace campaignbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the process-wide epoch (first call to now_ns()).
[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] inline double seconds(std::int64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-9;
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          // index of the causing span, -1 for roots
  std::int64_t group = -1;  // spans of one mission share a group id
};

class Tracer {
 public:
  // Opens a span and returns its index.
  int begin(const std::string& name, int parent = -1, std::int64_t group = -1);
  void end(int span);
  // Records an already finished interval.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t group = -1);

  [[nodiscard]] std::size_t size() const;

  // Summed duration and summed self time of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  // Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;

  // Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1,
             std::int64_t group = -1)
      : tracer_(tracer), index_(tracer.begin(name, parent, group)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// Call count and busy time of one hot call site, accumulated per thread so
// concurrent callers never share a cache line. Slots live as long as the
// accumulator, so totals stay readable after the calling threads exit.
class CallAccumulator {
 public:
  CallAccumulator();
  void add(std::int64_t ns) noexcept {
    Slot& s = slot();
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t calls() const;
  [[nodiscard]] std::int64_t ns() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };
  Slot& slot();

  const std::uint64_t id_;  // never reused, so stale thread caches never hit
  mutable std::mutex mutex_;
  std::deque<Slot> slots_;
};

}  // namespace campaignbench
