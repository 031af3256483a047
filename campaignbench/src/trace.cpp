#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace campaignbench {

std::int64_t now_ns() noexcept {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

int Tracer::begin(const std::string& name, int parent, std::int64_t group) {
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanRecord{name, start, start, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

int Tracer::add(const std::string& name, std::int64_t start_ns,
                std::int64_t end_ns, int parent, std::int64_t group) {
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanRecord{name, start_ns, end_ns, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(seconds(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::self_s(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to the span: children
    // running on several threads at once may overlap each other.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    total += (s.end_ns - s.start_ns) - covered;
  }
  return seconds(total);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"group\":%lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.group));
  }
  std::fclose(file);
}

namespace {
std::atomic<std::uint64_t> next_accumulator_id{0};
}  // namespace

CallAccumulator::CallAccumulator() : id_(next_accumulator_id.fetch_add(1)) {}

CallAccumulator::Slot& CallAccumulator::slot() {
  thread_local std::map<std::uint64_t, Slot*> cache;
  thread_local std::uint64_t last_id = ~0ULL;
  thread_local Slot* last_slot = nullptr;
  if (last_id == id_) return *last_slot;
  Slot*& cached = cache[id_];
  if (cached == nullptr) {
    std::lock_guard lock(mutex_);
    cached = &slots_.emplace_back();
  }
  last_id = id_;
  last_slot = cached;
  return *cached;
}

std::int64_t CallAccumulator::calls() const {
  std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.calls.load(std::memory_order_relaxed);
  return total;
}

std::int64_t CallAccumulator::ns() const {
  std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.ns.load(std::memory_order_relaxed);
  return total;
}

}  // namespace campaignbench
