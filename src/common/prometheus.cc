#include "common/prometheus.h"

#include <cinttypes>
#include <cstdio>

namespace glider::obs {

namespace {

bool ValidStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool ValidRest(char c) { return ValidStart(c) || (c >= '0' && c <= '9'); }

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

// Appends `"name":` with quotes and backslashes escaped.
void AppendJsonKey(std::string& out, const std::string& name) {
  out.push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\":";
}

// Renders `labels` as a brace block, optionally appending `extra` (the
// histogram `le` label, already escaped) last. Empty when there is nothing
// to render.
std::string LabelBlock(const PrometheusLabels& labels,
                       const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += PrometheusSanitize(name) + "=\"" + PrometheusEscapeLabelValue(value) +
           "\"";
  }
  if (!extra.empty()) {
    if (!first) out.push_back(',');
    out += extra;
  }
  out.push_back('}');
  return out;
}

// "# HELP" body: the original registry name, with newlines and backslashes
// escaped per the exposition format.
std::string HelpText(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 24);
  out += "Glider metric '";
  for (char c : name) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  out += "'.";
  return out;
}

// OpenMetrics exemplar suffix for a bucket sample line:
// ` # {trace_id="<hex>"} <value>`. Trace ids render like the trace JSON
// (%PRIx64, no zero padding) so they grep/resolve against kTraceDump.
// Only legal in the OpenMetrics format — the classic 0.0.4 parser errors
// on the suffix, so the classic renderer never calls this.
std::string ExemplarSuffix(std::uint64_t trace_id, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " # {trace_id=\"%" PRIx64 "\"} %" PRIu64,
                trace_id, value);
  return buf;
}

}  // namespace

const char* PrometheusContentType(PrometheusFormat format) {
  return format == PrometheusFormat::kOpenMetrics
             ? "application/openmetrics-text; version=1.0.0; charset=utf-8"
             : "text/plain; version=0.0.4; charset=utf-8";
}

std::string PrometheusSanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(ValidRest(c) ? c : '_');
  }
  if (out.empty() || !ValidStart(out.front())) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PrometheusEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snapshot,
                           const PrometheusLabels& labels,
                           PrometheusFormat format) {
  const bool openmetrics = format == PrometheusFormat::kOpenMetrics;
  const std::string label_block = LabelBlock(labels);
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = "glider_" + PrometheusSanitize(name);
    const std::string metric = family + "_total";
    // OpenMetrics names the counter family without the _total suffix; the
    // classic format documents the sample name itself.
    const std::string& meta = openmetrics ? family : metric;
    out += "# HELP " + meta + " " + HelpText(name) + "\n";
    out += "# TYPE " + meta + " counter\n";
    out += metric + label_block + " ";
    AppendU64(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = "glider_" + PrometheusSanitize(name);
    out += "# HELP " + metric + " " + HelpText(name) + "\n";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + label_block + " ";
    AppendI64(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string metric = "glider_" + PrometheusSanitize(name);
    out += "# HELP " + metric + " " + HelpText(name) + "\n";
    out += "# TYPE " + metric + " histogram\n";
    // The snapshot's count and per-bucket counts are sampled with relaxed
    // loads, so under concurrent recording they can disagree. Every series
    // derives from one reconciled total: +Inf == _count >= any finite le.
    std::uint64_t bucket_total = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      bucket_total += hist.buckets[i];
    }
    const std::uint64_t total = std::max(hist.count, bucket_total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;  // elide empty log2 buckets
      // The overflow bucket has no finite upper bound of its own; its
      // events are only visible in the +Inf series below.
      if (i >= LatencyHistogram::kNumBuckets - 1) break;
      cumulative += hist.buckets[i];
      std::string le = "le=\"";
      AppendU64(le, LatencyHistogram::BucketUpperBound(i));
      le.push_back('"');
      out += metric + "_bucket" + LabelBlock(labels, le) + " ";
      AppendU64(out, cumulative);
      if (openmetrics && hist.exemplar_trace[i] != 0) {
        out += ExemplarSuffix(hist.exemplar_trace[i], hist.exemplar_value[i]);
      }
      out.push_back('\n');
    }
    out += metric + "_bucket" + LabelBlock(labels, "le=\"+Inf\"") + " ";
    AppendU64(out, total);
    {
      // The +Inf line carries the overflow bucket's exemplar when present.
      constexpr std::size_t last = LatencyHistogram::kNumBuckets - 1;
      if (openmetrics && hist.exemplar_trace[last] != 0) {
        out += ExemplarSuffix(hist.exemplar_trace[last],
                              hist.exemplar_value[last]);
      }
    }
    out.push_back('\n');
    out += metric + "_sum" + label_block + " ";
    AppendU64(out, hist.sum);
    out.push_back('\n');
    out += metric + "_count" + label_block + " ";
    AppendU64(out, total);
    out.push_back('\n');
  }
  if (openmetrics) out += "# EOF\n";
  return out;
}

std::string PrometheusText(const MetricsRegistry& registry,
                           const PrometheusLabels& labels,
                           PrometheusFormat format) {
  return PrometheusText(registry.Snapshot(), labels, format);
}

std::string SnapshotJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  const char* sep = "";
  for (const auto& [name, value] : snapshot.counters) {
    out += sep;
    sep = ",";
    AppendJsonKey(out, name);
    AppendU64(out, value);
  }
  out += "},\"gauges\":{";
  sep = "";
  for (const auto& [name, value] : snapshot.gauges) {
    out += sep;
    sep = ",";
    AppendJsonKey(out, name);
    AppendI64(out, value);
  }
  out += "},\"histograms\":{";
  sep = "";
  char buf[160];
  for (const auto& [name, h] : snapshot.histograms) {
    out += sep;
    sep = ",";
    AppendJsonKey(out, name);
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"mean\":%.3f,\"min\":%" PRIu64 ",\"max\":%" PRIu64
                  ",\"p50\":%" PRIu64 ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64
                  "}",
                  h.count, h.sum, h.Mean(), h.min, h.max, h.Percentile(50),
                  h.Percentile(95), h.Percentile(99));
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace glider::obs
