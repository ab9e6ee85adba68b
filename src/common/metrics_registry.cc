#include "common/metrics_registry.h"

#include <algorithm>

#include "common/metrics.h"

namespace glider::obs {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void MetricsRegistry::MirrorLinkCounters(const Metrics& metrics) {
  static constexpr const char* kClassNames[kNumLinkClasses] = {
      "faas", "internal", "rdma", "control"};
  for (std::size_t i = 0; i < kNumLinkClasses; ++i) {
    const auto link = static_cast<LinkClass>(i);
    const std::string prefix = std::string("link.") + kClassNames[i];
    GetGauge(prefix + ".bytes_sent")
        .Set(static_cast<std::int64_t>(metrics.BytesSent(link)));
    GetGauge(prefix + ".bytes_received")
        .Set(static_cast<std::int64_t>(metrics.BytesReceived(link)));
    GetGauge(prefix + ".operations")
        .Set(static_cast<std::int64_t>(metrics.Operations(link)));
  }
  GetGauge("store.accesses")
      .Set(static_cast<std::int64_t>(metrics.StorageAccesses()));
  GetGauge("store.stored_bytes").Set(metrics.StoredBytes());
  GetGauge("store.peak_stored_bytes").Set(metrics.PeakStoredBytes());
}

void MetricsRegistry::ResetAll() {
  std::scoped_lock lock(mu_);
  // Bump first: a sampler snapshot taken right after the reset carries the
  // new generation even if its values race with late in-flight updates.
  generation_.fetch_add(1, std::memory_order_relaxed);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.exemplar_trace[i] = exemplar_trace_[i].load(std::memory_order_relaxed);
    snap.exemplar_value[i] = exemplar_value_[i].load(std::memory_order_relaxed);
  }
  snap.count = Count();
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  return snap;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    buckets[i] += other.buckets[i];
    // Keep the first non-empty exemplar so a cluster merge is stable under
    // server ordering; any surviving exemplar names a real trace.
    if (exemplar_trace[i] == 0 && other.exemplar_trace[i] != 0) {
      exemplar_trace[i] = other.exemplar_trace[i];
      exemplar_value[i] = other.exemplar_value[i];
    }
  }
  count += other.count;
  sum += other.sum;
  if (other.count != 0) {
    min = count == other.count ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
  }
}

std::uint64_t HistogramSnapshot::Percentile(double p) const {
  // Empty histograms report 0 for every percentile — never NaN or a stale
  // bucket bound (the other exporters rely on this; see observability
  // regression tests).
  if (count == 0) return 0;
  if (!(p >= 0.0)) p = 0.0;
  if (p > 100.0) p = 100.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      std::uint64_t bound = LatencyHistogram::BucketUpperBound(i);
      // Clamp to the observed extremes when they are known (delta windows
      // report min = 0 = unknown; see DeltaSince).
      if (min != 0 && bound < min) bound = min;
      if (max != 0 && bound > max) bound = max;
      return bound;
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& prev) const {
  HistogramSnapshot delta;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    delta.buckets[i] =
        buckets[i] >= prev.buckets[i] ? buckets[i] - prev.buckets[i] : 0;
    delta.count += delta.buckets[i];
    if (delta.buckets[i] != 0) {
      // The current exemplar is the most recent hit, so it belongs to the
      // window whenever the bucket grew.
      delta.exemplar_trace[i] = exemplar_trace[i];
      delta.exemplar_value[i] = exemplar_value[i];
    }
  }
  delta.sum = sum >= prev.sum ? sum - prev.sum : 0;
  delta.min = 0;    // unknown for the window
  delta.max = max;  // cumulative max: a conservative upper bound
  return delta;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

const std::uint64_t* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const std::int64_t* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

template <typename V, typename Add>
void MergeNamed(std::vector<std::pair<std::string, V>>& ours,
                const std::vector<std::pair<std::string, V>>& theirs,
                Add add) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < ours.size(); ++i) index.emplace(ours[i].first, i);
  for (const auto& [name, value] : theirs) {
    auto [it, inserted] = index.try_emplace(name, ours.size());
    if (inserted) {
      ours.emplace_back(name, value);
    } else {
      add(ours[it->second].second, value);
    }
  }
}

}  // namespace

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  auto sum = [](auto& a, const auto& b) { a += b; };
  MergeNamed(counters, other.counters, sum);
  MergeNamed(gauges, other.gauges, sum);
  MergeNamed(histograms, other.histograms,
             [](HistogramSnapshot& a, const HistogramSnapshot& b) {
               a.Merge(b);
             });
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::scoped_lock lock(mu_);
  MetricsSnapshot snap;
  snap.generation = generation_.load(std::memory_order_relaxed);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

}  // namespace glider::obs
