// Spans the benchmark records around its own calls into each layer.
//
// A span is named "<layer>.<call>" (the layer is everything before the
// last dot). Each measured unit opens a root span named "unit"; the calls
// it makes nest under it, across threads when the parent id is passed
// explicitly. Completed spans go into per-thread buffers and are collected
// once, after the traced phase. Recording is off unless SetTracing(true).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";     // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;  // payload moved by the call, when it moves data
  std::uint32_t thread = 0;
};

void SetTracing(bool on);
bool Tracing();
std::int64_t NowNs();

// Times one call. Inert (no clock reads) while tracing is off.
class Span {
 public:
  // Child of the calling thread's innermost open span.
  explicit Span(const char* name);
  // Child of `parent` (a span opened on another thread).
  Span(const char* name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }
  void set_bytes(std::uint64_t bytes) { record_.bytes = bytes; }

 private:
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
  bool live_ = false;
};

// The calling thread's innermost open span id (0 when none).
std::uint64_t CurrentSpan();

// Records a span whose start was taken before it could be opened, such as
// a FaaS worker's spawn, timed from the stage call to the worker body.
void RecordSpan(const char* name, std::uint64_t parent, std::int64_t start_ns,
                std::int64_t end_ns);

// Moves every recorded span out of the per-thread buffers.
std::vector<SpanRecord> TakeSpans();

// Writes spans as Chrome trace-event JSON (loadable in Perfetto).
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

// Span name up to its last dot: "glider.action.open" -> "glider.action".
std::string_view LayerOf(std::string_view name);

// Per-name and per-layer totals over a set of spans.
struct SpanSummary {
  std::size_t units = 0;   // root spans
  double unit_ns = 0;      // summed root durations
  std::map<std::string, glider::SampleStats> durations_ns;  // by span name
  std::map<std::string, glider::SampleStats> ns_per_byte;   // by span name
  std::map<std::string, std::size_t> layer_calls;
  std::map<std::string, double> layer_self_ns;
};

// Self time of a span is its duration minus the part of its interval that
// its direct children cover (overlapping children count once).
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
