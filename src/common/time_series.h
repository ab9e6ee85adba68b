// Per-process time-series sampling (DESIGN.md "Cluster observability").
//
// The MetricsRegistry holds cumulative counters and histograms; this layer
// turns them into *series*: a background thread snapshots the registry at a
// fixed cadence, subtracts the previous snapshot, and pushes the windowed
// results into fixed-size ring buffers —
//
//   <counter>.rate       delta / dt                    (per second)
//   <gauge>              the sampled value
//   <hist>.rate          count delta / dt              (events per second)
//   <hist>.p50 / .p99    nearest-rank percentile of the *window's* records
//
// so a scraper (kNodeSnapshot, glider_top) sees rates and rolling percentiles
// instead of since-boot aggregates. Rings are bounded (default: 120 samples
// = 2 minutes at the 1 s default cadence); old samples fall off the back.
//
// Reset interaction: MetricsRegistry::ResetAll() bumps the registry
// generation under the registry mutex, and Snapshot() captures values and
// generation atomically with respect to it. When the sampler sees the
// generation change between two snapshots it discards the stale baseline
// (no rate points that tick, `rebaselines()` incremented) instead of
// emitting negative or bogus rates. Benches that Reset() mid-run therefore
// coexist with a live sampler; see the regression test in
// tests/cluster_obs_test.cc.
//
// Nothing here touches a request hot path: the only writers are the sampler
// thread itself and whoever calls SampleOnce().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"

namespace glider::obs {

// Fixed-capacity ring of timestamped samples. Not thread-safe on its own;
// the sampler serializes access.
class TimeSeries {
 public:
  struct Sample {
    std::uint64_t t_us = 0;  // TraceNowMicros timebase
    double value = 0;
  };

  explicit TimeSeries(std::size_t capacity) : capacity_(capacity) {}

  void Push(Sample sample) {
    if (capacity_ == 0) return;
    if (samples_.size() < capacity_) {
      samples_.push_back(sample);
    } else {
      samples_[head_] = sample;
      head_ = (head_ + 1) % capacity_;
    }
  }

  std::size_t size() const { return samples_.size(); }
  std::size_t capacity() const { return capacity_; }

  // Oldest -> newest.
  std::vector<Sample> Samples() const {
    std::vector<Sample> out;
    out.reserve(samples_.size());
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      out.push_back(samples_[(head_ + i) % samples_.size()]);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::vector<Sample> samples_;
};

// One named series, as exported by kNodeSnapshot.
struct SeriesData {
  std::string name;
  std::vector<TimeSeries::Sample> samples;
};

class TimeSeriesSampler {
 public:
  struct Options {
    std::chrono::milliseconds interval{1000};
    std::size_t ring_capacity = 120;
  };

  // The process-wide sampler (the one kNodeSnapshot exports). Servers share
  // one registry per process, so they share one sampler too.
  static TimeSeriesSampler& Global();

  explicit TimeSeriesSampler(MetricsRegistry& registry = MetricsRegistry::Global())
      : registry_(registry) {}
  ~TimeSeriesSampler() { Stop(); }
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Starts the background thread. Error if already running.
  Status Start(Options options);
  // Stops and joins the thread. Idempotent. Retained series stay dumpable.
  void Stop();
  bool running() const;

  // Takes one sample at `t_us` on the caller's thread (the background loop
  // calls this with the current trace clock; tests call it with synthetic
  // timestamps to make rates deterministic). The first call after
  // construction or a registry reset only records the baseline.
  void SampleOnce(std::uint64_t t_us, std::size_t ring_capacity = 120);

  // All rings, oldest sample first. Names are stable across calls.
  std::vector<SeriesData> Snapshot() const;

  std::chrono::milliseconds interval() const;
  // Number of times a registry generation change voided the baseline.
  std::uint64_t rebaselines() const;
  // Drops every ring and the baseline (tests).
  void Clear();

 private:
  void RunLoop(Options options);
  TimeSeries& Ring(const std::string& name, std::size_t capacity);

  MetricsRegistry& registry_;

  mutable std::mutex mu_;
  std::map<std::string, TimeSeries> series_;
  MetricsSnapshot baseline_;
  std::uint64_t baseline_t_us_ = 0;
  bool has_baseline_ = false;
  std::uint64_t rebaselines_ = 0;
  std::chrono::milliseconds interval_{0};

  mutable std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stopping_ = false;
  bool running_ = false;
};

}  // namespace glider::obs
