#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <utility>

namespace glider::obs {
namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{[] {
    const char* env = std::getenv("GLIDER_TRACE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }()};
  return enabled;
}

thread_local TraceContext t_context;

std::uint64_t ProcessSalt() {
  static const std::uint64_t salt = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  return salt;
}

std::uint32_t LocalThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

std::chrono::steady_clock::time_point ProcessStart() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return t_context; }

// Declared in metrics_registry.h (histogram bucket exemplars); lives here
// because the current-trace thread-local does.
std::uint64_t ExemplarTraceId() { return t_context.trace_id; }

std::uint64_t NewTraceId() {
  static std::atomic<std::uint64_t> next{1};
  return (ProcessSalt() & 0xffffffff00000000ull) | next.fetch_add(1);
}

std::uint64_t NewSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return (ProcessSalt() << 32) ^ next.fetch_add(1);
}

std::uint64_t TraceNowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ProcessStart())
          .count());
}

TraceContextScope::TraceContextScope(TraceContext ctx) : prev_(t_context) {
  t_context = ctx;
}

TraceContextScope::~TraceContextScope() { t_context = prev_; }

// ---- recorder ---------------------------------------------------------------

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Record(SpanRecord record) {
  if (spans_.With([&](auto& ring) { return ring.Push(std::move(record)); })) {
    // Cumulative registry counter (never reset by Clear): surfaces
    // flight-recorder loss in `glider_cli stats` and /metrics, where a
    // silently truncated dump would otherwise read as a complete trace.
    static Counter& dropped =
        MetricsRegistry::Global().GetCounter("trace.dropped_spans");
    dropped.Increment();
  }
}

std::vector<SpanRecord> TraceRecorder::Snapshot(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  spans_.ForEach([&](const auto& ring) {
    ring.ForEach([&](const SpanRecord& s) {
      if (trace_id == 0 || s.trace_id == trace_id) out.push_back(s);
    });
  });
  return out;
}

void TraceRecorder::Clear() { spans_.Clear(); }

namespace {

// One span as a Chrome trace-event "X" object.
void AppendSpanJson(std::string& out, const SpanRecord& s) {
  out += "{\"name\":\"";
  for (char c : s.name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
                ",\"dur\":%" PRIu64 ",\"pid\":1,\"tid\":%u,"
                "\"args\":{\"trace_id\":\"%" PRIx64 "\",\"span_id\":\"%" PRIx64
                "\",\"parent_span_id\":\"%" PRIx64 "\"}}",
                s.category, s.start_us, s.dur_us, s.tid, s.trace_id, s.span_id,
                s.parent_span_id);
  out += buf;
}

}  // namespace

std::string TraceRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : Snapshot()) {
    if (!first) out.push_back(',');
    first = false;
    AppendSpanJson(out, s);
  }
  out += "]}";
  return out;
}

// ---- slow traces ------------------------------------------------------------

SlowTraceStore& SlowTraceStore::Global() {
  static SlowTraceStore* store = new SlowTraceStore();
  return *store;
}

void SlowTraceStore::SetOptions(Options options) {
  std::scoped_lock lock(mu_);
  options_ = options;
}

SlowTraceStore::Options SlowTraceStore::options() const {
  std::scoped_lock lock(mu_);
  return options_;
}

void SlowTraceStore::OnRootSpanEnd(SpanRecord root,
                                   const TraceRecorder* recorder) {
  SlowTrace slow;
  {
    std::scoped_lock lock(mu_);
    auto& slot = by_name_[root.name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    // The threshold uses the p99 of *prior* samples: an op is judged
    // against its history, not against a distribution it is itself part of.
    const std::uint64_t p99 = slot->Count() == 0 ? 0 : slot->Percentile(99);
    slot->Record(root.dur_us);
    slow.threshold_us = options_.min_threshold_us;
    if (p99 != 0) {
      const double adaptive = options_.multiplier * static_cast<double>(p99);
      if (adaptive > static_cast<double>(slow.threshold_us)) {
        slow.threshold_us = static_cast<std::uint64_t>(adaptive);
      }
    }
    if (root.dur_us <= slow.threshold_us) return;
  }
  // The copy walks the recorder's slots, so it runs outside mu_: other
  // roots are judged meanwhile.
  if (recorder != nullptr) {
    for (SpanRecord& s : recorder->Snapshot(root.trace_id)) {
      if (s.span_id != root.span_id) slow.spans.push_back(std::move(s));
    }
  }
  slow.root = std::move(root);
  std::scoped_lock lock(mu_);
  ring_.push_back(std::move(slow));
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

void SlowTraceStore::Flag(SpanRecord root, std::uint64_t threshold_us) {
  std::scoped_lock lock(mu_);
  SlowTrace slow;
  slow.threshold_us = threshold_us;
  slow.root = std::move(root);
  ring_.push_back(std::move(slow));
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

std::vector<SlowTraceStore::SlowTrace> SlowTraceStore::Snapshot() const {
  std::scoped_lock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::size_t SlowTraceStore::size() const {
  std::scoped_lock lock(mu_);
  return ring_.size();
}

void SlowTraceStore::Clear() {
  std::scoped_lock lock(mu_);
  ring_.clear();
  by_name_.clear();
}

std::string SlowTraceStore::ToJson() const {
  const std::vector<SlowTrace> traces = Snapshot();
  std::string out = "{\"slowTraces\":[";
  char buf[128];
  bool first = true;
  for (const SlowTrace& t : traces) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    for (char c : t.root.name) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    std::snprintf(buf, sizeof(buf),
                  "\",\"trace_id\":\"%" PRIx64 "\",\"dur_us\":%" PRIu64
                  ",\"threshold_us\":%" PRIu64 ",\"spans\":[",
                  t.root.trace_id, t.root.dur_us, t.threshold_us);
    out += buf;
    AppendSpanJson(out, t.root);
    for (const SpanRecord& s : t.spans) {
      out.push_back(',');
      AppendSpanJson(out, s);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

// ---- spans ------------------------------------------------------------------

void RecordSpan(const char* category, std::string name, TraceContext parent,
                std::uint64_t span_id, std::uint64_t start_us,
                std::uint64_t end_us) {
  if (!Enabled() || parent.trace_id == 0) return;
  SpanRecord record;
  record.name = std::move(name);
  record.category = category;
  record.trace_id = parent.trace_id;
  record.span_id = span_id;
  record.parent_span_id = parent.span_id;
  record.start_us = start_us;
  record.dur_us = end_us > start_us ? end_us - start_us : 0;
  record.tid = LocalThreadId();
  TraceRecorder::Global().Record(std::move(record));
}

void RecordRootSpan(const char* category, std::string name,
                    std::uint64_t trace_id, std::uint64_t span_id,
                    std::uint64_t start_us, std::uint64_t end_us) {
  if (!Enabled() || trace_id == 0) return;
  SpanRecord record;
  record.name = std::move(name);
  record.category = category;
  record.trace_id = trace_id;
  record.span_id = span_id;
  record.parent_span_id = 0;
  record.start_us = start_us;
  record.dur_us = end_us > start_us ? end_us - start_us : 0;
  record.tid = LocalThreadId();
  // Same order as Span::End for roots: record first so a slow-trace tree
  // copy sees the complete trace, then let the store judge it.
  TraceRecorder::Global().Record(record);
  SlowTraceStore::Global().OnRootSpanEnd(std::move(record));
}

Span::Span(const char* category, std::string name)
    : Span(category, std::move(name), /*root=*/false) {}

Span Span::Root(const char* category, std::string name) {
  return Span(category, std::move(name), /*root=*/true);
}

Span::Span(const char* category, std::string name, bool root) {
  if (!Enabled()) return;
  prev_ = t_context;
  if (root) {
    trace_id_ = NewTraceId();
    parent_span_id_ = 0;
  } else {
    if (prev_.trace_id == 0) return;  // no active trace: stay inert
    trace_id_ = prev_.trace_id;
    parent_span_id_ = prev_.span_id;
  }
  active_ = true;
  category_ = category;
  name_ = std::move(name);
  span_id_ = NewSpanId();
  start_us_ = TraceNowMicros();
  t_context = TraceContext{trace_id_, span_id_};
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  SpanRecord record;
  record.name = std::move(name_);
  record.category = category_;
  record.trace_id = trace_id_;
  record.span_id = span_id_;
  record.parent_span_id = parent_span_id_;
  record.start_us = start_us_;
  const std::uint64_t now = TraceNowMicros();
  record.dur_us = now > start_us_ ? now - start_us_ : 0;
  record.tid = LocalThreadId();
  t_context = prev_;
  if (record.parent_span_id == 0) {
    // Root span closing: record it first so the slow-trace tree copy (if
    // any) sees the complete trace, then let the store judge it.
    TraceRecorder::Global().Record(record);
    SlowTraceStore::Global().OnRootSpanEnd(std::move(record));
    return;
  }
  TraceRecorder::Global().Record(std::move(record));
}

}  // namespace glider::obs
