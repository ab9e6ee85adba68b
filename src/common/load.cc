#include "common/load.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/event_journal.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace glider::obs {

namespace {

// Load-index weights: per queued task, per busy core, per millisecond of
// server-side RPC p99, and per unit buffer-pool miss fraction.
constexpr double kWeightQueue = 1.0;
constexpr double kWeightCpu = 4.0;
constexpr double kWeightP99Ms = 0.25;
constexpr double kWeightPoolMiss = 2.0;
// No hotspots unless the node's slots burned at least this fraction of one
// core over the window (filters idle-noise ratios).
constexpr double kHotspotMinUtilization = 0.05;

// Parses "active.slot<i>.cpu_us" -> slot index; -1 for everything else.
int SlotCpuIndex(const std::string& name) {
  constexpr const char* kPrefix = "active.slot";
  constexpr const char* kSuffix = ".cpu_us";
  if (name.rfind(kPrefix, 0) != 0) return -1;
  const std::size_t prefix_len = std::char_traits<char>::length(kPrefix);
  const std::size_t suffix_len = std::char_traits<char>::length(kSuffix);
  if (name.size() <= prefix_len + suffix_len) return -1;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return -1;
  }
  int idx = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    idx = idx * 10 + (c - '0');
  }
  return idx;
}

}  // namespace

LoadTracker& LoadTracker::Global() {
  static LoadTracker* tracker = new LoadTracker();
  return *tracker;
}

LoadTracker::LoadSnapshot LoadTracker::Current() const {
  std::scoped_lock lock(mu_);
  return current_;
}

LoadTracker::LoadSnapshot LoadTracker::Update() {
  const std::uint64_t now = TraceNowMicros();
  std::scoped_lock lock(mu_);
  if (has_prev_ && now - prev_t_us_ < options_.min_window_us) {
    return current_;
  }
  current_ = ComputeLocked(now);
  return current_;
}

LoadTracker::LoadSnapshot LoadTracker::ComputeLocked(std::uint64_t now_us) {
  auto& registry = MetricsRegistry::Global();
  MetricsSnapshot snap = registry.Snapshot();

  LoadSnapshot out;
  // Instantaneous inputs need no window.
  out.queue_depth = static_cast<double>(ThreadPool::TotalPending());
  if (const std::int64_t* qd = snap.FindGauge("active.queue_depth")) {
    out.queue_depth += static_cast<double>(std::max<std::int64_t>(*qd, 0));
  }

  // A reset between snapshots voids the baseline; re-arm and report the
  // instantaneous components only.
  const bool window_valid =
      has_prev_ && snap.generation == prev_.generation && now_us > prev_t_us_;
  if (window_valid) {
    out.window_us = now_us - prev_t_us_;

    // Busy cores: summed slot cpu_us deltas over the window. Track the
    // per-slot deltas too for the hotspot shares.
    std::vector<std::pair<std::uint32_t, double>> slot_cpu;
    double total_cpu = 0.0;
    for (const auto& [name, value] : snap.counters) {
      const int slot = SlotCpuIndex(name);
      if (slot < 0) continue;
      const std::uint64_t* prev = prev_.FindCounter(name);
      const std::uint64_t before = prev != nullptr ? *prev : 0;
      const double delta =
          value > before ? static_cast<double>(value - before) : 0.0;
      slot_cpu.emplace_back(static_cast<std::uint32_t>(slot), delta);
      total_cpu += delta;
    }
    out.cpu_utilization = total_cpu / static_cast<double>(out.window_us);

    // Merged windowed p99 across every server-side RPC histogram.
    HistogramSnapshot rpc;
    for (const auto& [name, hist] : snap.histograms) {
      if (name.rfind("rpc.server.", 0) != 0) continue;
      const HistogramSnapshot* prev = prev_.FindHistogram(name);
      rpc.Merge(prev != nullptr ? hist.DeltaSince(*prev) : hist);
    }
    if (rpc.count > 0) {
      out.p99_ms = static_cast<double>(rpc.Percentile(99.0)) / 1000.0;
    }

    // Buffer-pool pressure: miss fraction among window acquires.
    const std::uint64_t hits = data_plane::PoolHits();
    const std::uint64_t misses = data_plane::PoolMisses();
    const std::uint64_t dh = hits > prev_pool_hits_ ? hits - prev_pool_hits_ : 0;
    const std::uint64_t dm =
        misses > prev_pool_misses_ ? misses - prev_pool_misses_ : 0;
    if (dh + dm > 0) {
      out.pool_miss_fraction =
          static_cast<double>(dm) / static_cast<double>(dh + dm);
    }
    prev_pool_hits_ = hits;
    prev_pool_misses_ = misses;

    // Hotspots: slot share of the windowed CPU vs the fair share.
    if (!slot_cpu.empty() && total_cpu > 0.0 &&
        out.cpu_utilization >= kHotspotMinUtilization) {
      const double fair = 1.0 / static_cast<double>(slot_cpu.size());
      const double threshold = options_.hotspot_multiple * fair;
      for (const auto& [slot, cpu] : slot_cpu) {
        const double share = cpu / total_cpu;
        if (share > threshold && share > fair) {
          out.hotspots.push_back(slot);
        }
      }
      std::sort(out.hotspots.begin(), out.hotspots.end());
    }
  } else {
    prev_pool_hits_ = data_plane::PoolHits();
    prev_pool_misses_ = data_plane::PoolMisses();
  }

  out.load_index = kWeightQueue * out.queue_depth +
                   kWeightCpu * out.cpu_utilization +
                   kWeightP99Ms * out.p99_ms +
                   kWeightPoolMiss * out.pool_miss_fraction;

  // Journal newly-hot slots (and forget cooled ones) before republishing.
  if (options_.journal_hotspots && out.window_us != 0) {
    std::set<std::uint32_t> now_hot(out.hotspots.begin(), out.hotspots.end());
    for (const std::uint32_t slot : now_hot) {
      if (hot_.insert(slot).second) {
        JournalEvent(EventType::kHotspot, "slot" + std::to_string(slot),
                     "cpu share over " +
                         std::to_string(options_.hotspot_multiple) + "x mean",
                     static_cast<std::int64_t>(out.load_index * 1000.0));
      }
    }
    for (auto it = hot_.begin(); it != hot_.end();) {
      if (now_hot.count(*it) == 0) {
        registry.GetGauge("active.slot" + std::to_string(*it) + ".hot").Set(0);
        it = hot_.erase(it);
      } else {
        ++it;
      }
    }
  }

  registry.GetGauge("load_index")
      .Set(static_cast<std::int64_t>(out.load_index * 1000.0));
  registry.GetGauge("hotspot_slots")
      .Set(static_cast<std::int64_t>(out.hotspots.size()));
  for (const std::uint32_t slot : out.hotspots) {
    registry.GetGauge("active.slot" + std::to_string(slot) + ".hot").Set(1);
  }

  prev_ = std::move(snap);
  has_prev_ = true;
  prev_t_us_ = now_us;
  return out;
}

}  // namespace glider::obs
