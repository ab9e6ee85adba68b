#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;
};

// Buffers outlive their threads: FaaS workers exit before the spans are
// collected.
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& GlobalRegistry() {
  static Registry registry;
  return registry;
}

struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  std::uint32_t thread = 0;
  std::uint64_t current = 0;

  ThreadBuffer& Buffer() {
    if (!buffer) {
      buffer = std::make_shared<ThreadBuffer>();
      thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
      std::scoped_lock lock(GlobalRegistry().mu);
      GlobalRegistry().buffers.push_back(buffer);
    }
    return *buffer;
  }
};

thread_local ThreadState t_state;

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t CurrentSpan() { return t_state.current; }

Span::Span(const char* name) : Span(name, t_state.current) {}

Span::Span(const char* name, std::uint64_t parent) {
  if (!Tracing()) return;
  live_ = true;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent;
  record_.name = name;
  saved_current_ = t_state.current;
  t_state.current = record_.id;
  record_.start_ns = NowNs();
}

namespace {

void Push(SpanRecord record) {
  ThreadBuffer& buffer = t_state.Buffer();
  record.thread = t_state.thread;
  std::scoped_lock lock(buffer.mu);
  buffer.spans.push_back(record);
}

}  // namespace

Span::~Span() {
  if (!live_) return;
  record_.end_ns = NowNs();
  t_state.current = saved_current_;
  Push(record_);
}

void RecordSpan(const char* name, std::uint64_t parent, std::int64_t start_ns,
                std::int64_t end_ns) {
  if (!Tracing()) return;
  SpanRecord record;
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent = parent;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  Push(record);
}

std::vector<SpanRecord> TakeSpans() {
  std::vector<SpanRecord> all;
  std::scoped_lock lock(GlobalRegistry().mu);
  for (auto& buffer : GlobalRegistry().buffers) {
    std::scoped_lock buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& span : spans) origin = std::min(origin, span.start_ns);
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (const auto& span : spans) {
    const std::string layer(LayerOf(span.name));
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"bytes\":%llu}}",
                 first ? "" : ",\n", span.name, layer.c_str(), span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.bytes));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

std::string_view LayerOf(std::string_view name) {
  const auto dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  SpanSummary summary;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const auto& span : spans) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    if (span.parent == 0) {
      ++summary.units;
      summary.unit_ns += duration;
      continue;
    }
    // Union of the direct children's intervals, clipped to this span.
    covered.clear();
    if (auto it = children.find(span.id); it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const std::string name(span.name);
    const std::string layer(LayerOf(name));
    ++summary.layer_calls[layer];
    summary.layer_self_ns[layer] += duration - static_cast<double>(covered_ns);
    summary.durations_ns[name].Add(duration);
    if (span.bytes > 0) {
      summary.ns_per_byte[name].Add(duration / static_cast<double>(span.bytes));
    }
  }
  return summary;
}

}  // namespace perfbench
