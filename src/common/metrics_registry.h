// Generalized metrics registry: named counters, gauges, and concurrent
// log-bucketed latency histograms (p50/p95/p99), exported as JSON by the
// stats verb and the bench harness (BENCH_<name>.json).
//
// The fixed link-class `Metrics` registry (common/metrics.h) remains the
// paper-indicator hot path; `MirrorLinkCounters` republishes its counters
// into this registry at snapshot time so one export surface covers both.
//
// Hot-path cost: a Counter/Gauge/Histogram handle is resolved by name once
// (mutex-protected map insert) and then updated with relaxed atomics only.
// Handles stay valid for the registry's lifetime (node-based storage).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace glider {

class Metrics;

namespace obs {

// The calling thread's current trace id (0 when no trace is active).
// Declared here so LatencyHistogram::Record can capture bucket exemplars;
// defined in trace.cc to avoid a circular include with trace.h.
std::uint64_t ExemplarTraceId();

class Counter {
 public:
  void Add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Concurrent histogram over non-negative integer values (microseconds by
// convention) with logarithmic buckets: bucket 0 holds value 0, bucket i>=1
// holds [2^(i-1), 2^i - 1]. Updates are relaxed atomics; percentile queries
// are nearest-rank over a snapshot of the bucket counts and report the
// bucket's upper bound (a conservative estimate within 2x of the true
// value, which is plenty for p50/p95/p99 trend tracking).
class LatencyHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;

  static std::size_t BucketIndex(std::uint64_t value) {
    if (value == 0) return 0;
    // bit_width(v) = floor(log2(v)) + 1; bucket i covers [2^(i-1), 2^i - 1].
    const std::size_t idx = static_cast<std::size_t>(std::bit_width(value));
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
  }
  // Inclusive upper bound of a bucket (the value reported by percentiles).
  static std::uint64_t BucketUpperBound(std::size_t index) {
    if (index == 0) return 0;
    if (index >= kNumBuckets - 1) return ~0ull;
    return (1ull << index) - 1;
  }

  void Record(std::uint64_t value) {
    const std::size_t idx = BucketIndex(value);
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    UpdateMin(value);
    UpdateMax(value);
    // Exemplar: remember the most recent traced (trace_id, value) pair per
    // bucket so a p99 bucket links to a concrete trace. Last-writer-wins
    // relaxed stores: a torn (trace, value) pair across two concurrent
    // records still names a real trace that landed in this bucket.
    const std::uint64_t trace_id = ExemplarTraceId();
    if (trace_id != 0) {
      exemplar_trace_[idx].store(trace_id, std::memory_order_relaxed);
      exemplar_value_[idx].store(value, std::memory_order_relaxed);
    }
  }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
      const std::uint64_t t =
          other.exemplar_trace_[i].load(std::memory_order_relaxed);
      if (t != 0) {
        exemplar_trace_[i].store(t, std::memory_order_relaxed);
        exemplar_value_[i].store(
            other.exemplar_value_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    if (other.Count() != 0) {
      UpdateMin(other.Min());
      UpdateMax(other.Max());
    }
  }

  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const std::uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }
  std::uint64_t Min() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == ~0ull ? 0 : v;
  }
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  // Nearest-rank percentile (p in [0, 100]) over the current bucket counts.
  // An empty histogram reports 0 for every percentile (never NaN or a
  // stale bound); out-of-range p clamps into [0, 100].
  std::uint64_t Percentile(double p) const {
    const std::uint64_t total = Count();
    if (total == 0) return 0;
    if (!(p >= 0.0)) p = 0.0;
    if (p > 100.0) p = 100.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(total) + 0.5);
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen >= rank) {
        // Clamp to the observed extremes so single-bucket distributions
        // report exact values.
        const std::uint64_t bound = BucketUpperBound(i);
        return std::min(std::max(bound, Min()), Max());
      }
    }
    return Max();
  }

  std::uint64_t BucketCount(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  std::uint64_t ExemplarTrace(std::size_t index) const {
    return exemplar_trace_[index].load(std::memory_order_relaxed);
  }
  std::uint64_t ExemplarValue(std::size_t index) const {
    return exemplar_value_[index].load(std::memory_order_relaxed);
  }

  // Consistent-enough copy of the bucket counts and aggregates (individual
  // loads are relaxed; concurrent Records may straddle the copy, which is
  // fine for trend sampling).
  struct HistogramSnapshot Snapshot() const;

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    for (auto& e : exemplar_trace_) e.store(0, std::memory_order_relaxed);
    for (auto& e : exemplar_value_) e.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMin(std::uint64_t value) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(std::uint64_t value) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> exemplar_trace_{};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> exemplar_value_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

// Point-in-time copy of one histogram: the log2 bucket counts plus the
// aggregates. Value type — snapshots travel across the wire (kNodeSnapshot),
// merge across servers (ClusterMonitor) and subtract across time
// (TimeSeriesSampler windows).
struct HistogramSnapshot {
  std::array<std::uint64_t, LatencyHistogram::kNumBuckets> buckets{};
  // Per-bucket exemplar: the most recent traced (trace_id, value) that
  // landed in the bucket; trace_id 0 means no exemplar.
  std::array<std::uint64_t, LatencyHistogram::kNumBuckets> exemplar_trace{};
  std::array<std::uint64_t, LatencyHistogram::kNumBuckets> exemplar_value{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  // Bucket-wise sum (cluster-wide merge; same semantics as
  // LatencyHistogram::Merge).
  void Merge(const HistogramSnapshot& other);

  // Nearest-rank percentile over the snapshot buckets, clamped to
  // [min, max] when those are known (min <= max and count > 0).
  std::uint64_t Percentile(double p) const;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Windowed view: what was recorded after `prev` was taken. Negative
  // deltas (a reset between the two snapshots) clamp to zero. min is
  // unknown for the window (reported as 0); max keeps the cumulative max
  // as a conservative bound.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& prev) const;
};

// Full registry copy: every counter, gauge and histogram by name, plus the
// registry generation at capture time (see MetricsRegistry::generation()).
// Taken under the registry mutex, so it is never torn by ResetAll().
struct MetricsSnapshot {
  std::uint64_t generation = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  const std::uint64_t* FindCounter(const std::string& name) const;
  const std::int64_t* FindGauge(const std::string& name) const;

  // Adds another process's snapshot by name: counters and gauges sum,
  // histograms merge bucket-wise. Names new to this snapshot append in
  // first-seen order.
  void Merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Handles are created on first use and stay valid for the registry's
  // lifetime; resolve once and cache at instrumentation sites.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  // Republishes the fixed link-class Metrics counters as gauges
  // ("link.faas.bytes_sent", ... — see DESIGN.md "Observability") so one
  // snapshot covers the paper indicators too.
  void MirrorLinkCounters(const Metrics& metrics);

  // Copies every instrument under the registry mutex. Because ResetAll()
  // zeroes under the same mutex, a snapshot observes either all-pre-reset
  // or all-post-reset values, never a mix; a generation mismatch between
  // two snapshots tells delta consumers (the sampler) that a reset
  // happened in between and the earlier baseline is void.
  MetricsSnapshot Snapshot() const;

  // Bumped by every ResetAll(). Relaxed read; pair with Snapshot() (which
  // captures it consistently) rather than reading it standalone.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  // Zeroes every registered instrument (bench runs measure deltas) and
  // advances the generation. Snapshot/reset ordering: both take `mu_`, so
  // a concurrent TimeSeriesSampler never sees a half-reset registry — it
  // sees the generation change and re-baselines instead of emitting
  // negative rates.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> generation_{0};
  // node-based maps: references returned by Get* are never invalidated.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace obs
}  // namespace glider
