// HealthMonitor: the active half of the cluster health plane (DESIGN.md
// "Cluster health plane").
//
// One background thread per participating node: it discovers the cluster
// through the metadata server (kListServers), sends the lightweight
// kHeartbeat probe to every server each tick, and feeds the replies into a
// phi-accrual HealthDetector. Results are published two ways:
//
//   * per-peer "health.phi.<address>" gauges (milli-scaled) in the global
//     MetricsRegistry — Prometheus exports them as glider_health_phi_*;
//   * the process HealthBoard, served to any client via kHealthDump
//     (`glider_cli health`).
//
// ClusterMonitor-driven pollers (glider_top) get heartbeats for free from
// their kNodeSnapshot loop; the HealthMonitor exists so that *servers* watch
// each other even when nobody is polling — the daemon runs one when
// --health-ms is set.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/health.h"
#include "common/trace_assemble.h"
#include "net/transport.h"

namespace glider {

class HealthMonitor {
 public:
  struct Options {
    // Heartbeat tick. The detector adapts to whatever cadence this is.
    std::chrono::milliseconds interval{500};
    obs::HealthDetector::Options detector;
    // Re-run discovery every N ticks; heartbeats in between go to the
    // last-known server set (a dead metadata server degrades discovery,
    // never the heartbeats themselves).
    std::uint32_t discover_every = 4;
    // Publish "health.phi.<address>" and "clock.offset_us.<address>"
    // gauges into the global registry.
    bool publish_metrics = true;
    // Publish the per-tick board to HealthBoard::Global() (kHealthDump).
    bool publish_board = true;
  };

  // `transport` must outlive the monitor. (Two overloads rather than a
  // defaulted Options argument: a nested aggregate's member initializers
  // are not usable in default arguments inside the enclosing class.)
  HealthMonitor(net::Transport* transport, std::string metadata_address);
  HealthMonitor(net::Transport* transport, std::string metadata_address,
                Options options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Starts the background loop (kAlreadyExists if running).
  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // One synchronous discovery + heartbeat round. The background loop calls
  // this; tests and one-shot CLI verbs call it directly without Start().
  void TickOnce();

  obs::HealthDetector& detector() { return detector_; }

  // Per-peer clock-offset estimators fed by the heartbeat loop (each tick
  // is one RTT-midpoint sample; DESIGN.md §11). Exposed for tests.
  const std::map<std::string, obs::ClockOffsetEstimator>& clock_offsets()
      const {
    return clock_;
  }

 private:
  Result<std::shared_ptr<net::Connection>> Conn(const std::string& address);
  void Publish();

  net::Transport* transport_;
  const std::string metadata_address_;
  const Options options_;
  obs::HealthDetector detector_;

  std::map<std::string, std::shared_ptr<net::Connection>> conns_;
  std::map<std::string, obs::ClockOffsetEstimator> clock_;
  std::vector<std::string> targets_;  // metadata + last discovery, deduped
  std::uint32_t ticks_until_discover_ = 0;

  std::atomic<bool> running_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace glider
