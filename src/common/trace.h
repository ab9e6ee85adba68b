// End-to-end tracing (DESIGN.md "Observability").
//
// A trace is a tree of spans identified by (trace_id, span_id,
// parent_span_id). The context {trace_id, current span} lives in a
// thread-local and is propagated (a) down the call stack by Span RAII
// scopes, (b) across the RPC wire in the frame header (net::Message
// trace_id/span_id), and (c) across thread hops (network worker -> action
// thread) by capturing CurrentTraceContext() and re-installing it with a
// TraceContextScope.
//
// The TraceRecorder keeps completed spans in per-thread slots (PerThread,
// common/per_thread.h: recording never contends across threads, and an
// exited thread's slot is recycled by the next thread to record). Each slot
// is a flight recorder of its newest kSpansPerSlot spans. Spans export as
// Chrome trace-event JSON ("traceEvents" with "X" complete events) loadable
// in Perfetto / chrome://tracing.
//
// Everything is disabled by default: when !Enabled() (one relaxed atomic
// load), spans are inert and nothing allocates. Set GLIDER_TRACE=1 or call
// SetEnabled(true) to turn the layer on.
// Tail-based slow-trace retention (SlowTraceStore): full tracing keeps
// every span of every request, which is too expensive to leave on in
// production. The store watches only *root* spans as they close; when one
// exceeds an adaptive per-op threshold — max(min_threshold, multiplier x
// the op's live p99, computed from a private per-root-name histogram) —
// the whole span tree is copied out of the TraceRecorder into a bounded
// ring, dumpable via kSlowTraceDump / `glider_cli slow-traces`. The p99 an
// op is judged against excludes the op itself, so the very first samples
// are judged against min_threshold alone.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/per_thread.h"

namespace glider::obs {

// Master switch for tracing + latency histograms (reads GLIDER_TRACE once
// at startup; programmatic SetEnabled overrides).
bool Enabled();
void SetEnabled(bool enabled);

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no active trace
  std::uint64_t span_id = 0;   // innermost open span (parent for children)
};

TraceContext CurrentTraceContext();

// Unique-enough ids: a per-process random salt in the high bits plus a
// monotone counter, so ids from different daemons don't collide in one
// merged trace.
std::uint64_t NewTraceId();
std::uint64_t NewSpanId();

// Microseconds on the steady clock since process start (the trace
// timebase; Chrome's "ts" field).
std::uint64_t TraceNowMicros();

// Installs `ctx` as the thread's current context; restores the previous
// one on destruction. Used at thread-hop boundaries and on the RPC server
// side (context decoded from the frame header).
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

struct SpanRecord {
  std::string name;
  const char* category = "";
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

class TraceRecorder {
 public:
  // Spans retained per slot (about 400 KiB); beyond it the oldest are
  // overwritten. Slots follow the peak number of threads recording at
  // once, so the store is bounded by that peak times this, whatever the
  // trace volume or thread churn.
  static constexpr std::size_t kSpansPerSlot = 4096;

  static TraceRecorder& Global();

  // Appends to the calling thread's slot; each overwritten span counts in
  // the cumulative `trace.dropped_spans` counter.
  void Record(SpanRecord record);

  // Retained spans across slots, each slot's oldest first; only trace
  // `trace_id`'s spans when it is non-zero.
  std::vector<SpanRecord> Snapshot(std::uint64_t trace_id = 0) const;
  void Clear();

  // Chrome trace-event JSON: {"traceEvents":[...]}. Span/trace ids are
  // attached as args so cross-process linkage survives the export.
  std::string ToChromeJson() const;

 private:
  TraceRecorder() = default;

  PerThread<Ring<SpanRecord, kSpansPerSlot>> spans_;
};

class SlowTraceStore {
 public:
  struct Options {
    // Spans faster than this are never slow, whatever the p99 says.
    std::uint64_t min_threshold_us = 1000;
    // threshold = max(min_threshold_us, multiplier * live p99 of this op).
    double multiplier = 3.0;
    // Retained slow traces; oldest evicted first.
    std::size_t capacity = 64;
  };

  struct SlowTrace {
    SpanRecord root;
    std::uint64_t threshold_us = 0;  // the threshold the root exceeded
    std::vector<SpanRecord> spans;   // the rest of the tree (root excluded)
  };

  // The store fed by Span::End in this process (kSlowTraceDump's source).
  static SlowTraceStore& Global();

  SlowTraceStore() = default;
  explicit SlowTraceStore(Options options) : options_(options) {}

  void SetOptions(Options options);
  Options options() const;

  // Judges one closed root span: records its duration into the per-name
  // histogram and, if it exceeded the adaptive threshold, copies its span
  // tree from `recorder` (pass nullptr to retain the root alone — tests
  // feed synthetic records with no recorder backing).
  void OnRootSpanEnd(SpanRecord root,
                     const TraceRecorder* recorder = &TraceRecorder::Global());

  // Retains `root` unconditionally, bypassing the adaptive judgement — the
  // entry point for out-of-band flaggers (the active server's slot-stall
  // watchdog). `threshold_us` is reported as the bound that was exceeded.
  void Flag(SpanRecord root, std::uint64_t threshold_us);

  std::vector<SlowTrace> Snapshot() const;
  std::size_t size() const;
  // Drops retained traces AND the per-op duration histograms.
  void Clear();

  // {"slowTraces":[{"name":...,"trace_id":"<hex>","dur_us":...,
  //   "threshold_us":...,"spans":[<chrome X events>]}]}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  Options options_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> by_name_;
  std::deque<SlowTrace> ring_;
};

// Records a span assembled manually (async paths where no RAII scope can
// live, e.g. the RPC client measuring send->response across threads).
void RecordSpan(const char* category, std::string name, TraceContext parent,
                std::uint64_t span_id, std::uint64_t start_us,
                std::uint64_t end_us);

// Records a manually-assembled ROOT span and feeds it to the slow-trace
// store for tail sampling — what Span::End does for RAII roots, for paths
// that must backdate the start (the open-loop loadgen charges a request's
// span from its *scheduled* arrival, before any code ran).
void RecordRootSpan(const char* category, std::string name,
                    std::uint64_t trace_id, std::uint64_t span_id,
                    std::uint64_t start_us, std::uint64_t end_us);

// RAII span: when tracing is enabled AND a trace is active (trace_id != 0),
// opens a child span of the current context, installs itself as the current
// context, and records itself on End()/destruction. Root() starts a fresh
// trace instead (FaaS invocation entry points).
class Span {
 public:
  Span(const char* category, std::string name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  static Span Root(const char* category, std::string name);

  void End();
  bool active() const { return active_; }
  std::uint64_t span_id() const { return span_id_; }
  std::uint64_t trace_id() const { return trace_id_; }

 private:
  Span(const char* category, std::string name, bool root);

  bool active_ = false;
  const char* category_ = "";
  std::string name_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  std::uint64_t start_us_ = 0;
  TraceContext prev_;
};

}  // namespace glider::obs
