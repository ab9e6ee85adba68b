// Per-node load index + per-slot hotspot detection (DESIGN.md "Cluster
// health plane") — the signals the future rebalancer (ROADMAP item 1)
// consumes to decide where work should live.
//
// The load index is a weighted blend of windowed rates computed from the
// global MetricsRegistry (the weights are constants in load.cc):
//
//   load = kWeightQueue    * (pool pending + active.queue_depth)
//        + kWeightCpu      * (sum of slot cpu_us deltas / window) [~busy cores]
//        + kWeightP99Ms    * (windowed p99 over rpc.server.* histograms, ms)
//        + kWeightPoolMiss * (buffer-pool miss fraction in the window)
//
// A slot is a hotspot when its share of the node's windowed slot CPU
// exceeds hotspot_multiple times the fair share (1/num_slots), provided
// the node did meaningful work in the window at all (idle nodes have no
// hotspots, whatever the ratios say).
//
// Update() re-derives everything from a registry snapshot at most once per
// min_window (callers can invoke it from every kHeartbeat/kNodeSnapshot
// handler without re-paying the snapshot) and publishes the results back
// into the registry — gauges "load_index" (milli-scaled: 1000 = 1.0,
// gauges are integers), "hotspot_slots", and per-slot "active.slot<i>.hot"
// flags — so /metrics, kNodeSnapshot and glider_top all see them.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "common/metrics_registry.h"

namespace glider::obs {

class LoadTracker {
 public:
  struct Options {
    // Hotspot: slot share > hotspot_multiple / num_slots of windowed CPU.
    double hotspot_multiple = 4.0;
    // Updates inside this window return the cached snapshot.
    std::uint64_t min_window_us = 200 * 1000;
    // Record kHotspot transitions in the global EventJournal.
    bool journal_hotspots = true;
  };

  struct LoadSnapshot {
    double load_index = 0.0;
    double queue_depth = 0.0;      // pool pending + active queue gauge
    double cpu_utilization = 0.0;  // busy cores over the window
    double p99_ms = 0.0;           // merged rpc.server.* windowed p99
    double pool_miss_fraction = 0.0;
    std::vector<std::uint32_t> hotspots;  // slot indices currently hot
    std::uint64_t window_us = 0;          // 0 = first call, rates unknown
  };

  // The process tracker published to /metrics and kHeartbeat replies.
  static LoadTracker& Global();

  LoadTracker() = default;
  explicit LoadTracker(Options options) : options_(options) {}

  // Recomputes from the global registry when min_window has elapsed (else
  // returns the cached value) and republishes the gauges.
  LoadSnapshot Update();

  // Cached value; never touches the registry.
  LoadSnapshot Current() const;

 private:
  LoadSnapshot ComputeLocked(std::uint64_t now_us);

  mutable std::mutex mu_;
  Options options_;
  LoadSnapshot current_;
  MetricsSnapshot prev_;
  bool has_prev_ = false;
  std::uint64_t prev_t_us_ = 0;
  std::uint64_t prev_pool_hits_ = 0;
  std::uint64_t prev_pool_misses_ = 0;
  std::set<std::uint32_t> hot_;  // slots journaled hot (for transitions)
};

}  // namespace glider::obs
