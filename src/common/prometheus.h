// Text renderers for a MetricsSnapshot, used at the tool edge: JSON for
// `glider_cli stats` and the bench snapshots (SnapshotJson, below), and
// the Prometheus text exposition, so any glider process can be scraped by
// off-the-shelf tooling. Two Prometheus formats:
//
//   * kClassic04 — the classic text format (version 0.0.4). No exemplars:
//     the 0.0.4 parser rejects the ` # {...}` suffix, so classic output
//     must stay exemplar-free or the whole scrape fails.
//   * kOpenMetrics — OpenMetrics 1.0. Histogram bucket lines carry
//     exemplars (` # {trace_id="..."} value`), counter families drop the
//     `_total` suffix from HELP/TYPE (samples keep it), and the body ends
//     with `# EOF`. Served when the scraper's Accept header asks for
//     `application/openmetrics-text` (see net/http_metrics.cc).
//
// Mapping (both formats):
//   Counter            -> glider_<name>_total        (TYPE counter)
//   Gauge              -> glider_<name>              (TYPE gauge)
//   LatencyHistogram   -> glider_<name>_bucket{le="..."} cumulative series
//                         over the log2 bucket upper bounds, plus an
//                         {le="+Inf"} series, glider_<name>_sum and
//                         glider_<name>_count        (TYPE histogram)
//
// Registry names use dots ("rpc.latency.Get"); Prometheus metric names
// allow only [a-zA-Z_:][a-zA-Z0-9_:]*, so every invalid character becomes
// '_' and a leading digit gets a '_' prefix. Empty log2 buckets are elided
// (they add no information to a cumulative series) except the final +Inf.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"

namespace glider::obs {

// "rpc.latency.Get" -> "rpc_latency_Get"; never empty (falls back to "_").
std::string PrometheusSanitize(const std::string& name);

// Escapes a label VALUE per the 0.0.4 text format: backslash, double quote
// and newline become \\, \" and \n (everything else passes through).
std::string PrometheusEscapeLabelValue(const std::string& value);

// Labels attached to every exported series ({role="active",...}); values
// are escaped, names sanitized.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

enum class PrometheusFormat {
  kClassic04,    // text/plain; version=0.0.4 — never emits exemplars
  kOpenMetrics,  // application/openmetrics-text — exemplars + "# EOF"
};

// The Content-Type header value for `format`.
const char* PrometheusContentType(PrometheusFormat format);

// Renders one snapshot. Ends with a trailing newline as the format
// requires (OpenMetrics output ends with "# EOF\n").
//
// Histogram consistency: the cumulative le series, the +Inf bucket and
// _count all derive from the same total — max(count, sum of bucket counts)
// — so a snapshot torn across relaxed per-bucket loads still satisfies
// "+Inf == _count >= every finite le bucket".
std::string PrometheusText(const MetricsSnapshot& snapshot,
                           const PrometheusLabels& labels = {},
                           PrometheusFormat format =
                               PrometheusFormat::kClassic04);

// Convenience: snapshot + render.
std::string PrometheusText(const MetricsRegistry& registry,
                           const PrometheusLabels& labels = {},
                           PrometheusFormat format =
                               PrometheusFormat::kClassic04);

// JSON object with the same families: {"counters":{name:value,...},
// "gauges":{...},"histograms":{name:{count,sum,mean,min,max,p50,p95,p99}}}.
std::string SnapshotJson(const MetricsSnapshot& snapshot);

}  // namespace glider::obs
