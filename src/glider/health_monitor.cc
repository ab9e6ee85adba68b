#include "glider/health_monitor.h"

#include <algorithm>
#include <utility>

#include "common/metrics_registry.h"
#include "net/rpc_client.h"
#include "net/rpc_obs.h"
#include "nodekernel/protocol.h"

namespace glider {

HealthMonitor::HealthMonitor(net::Transport* transport,
                             std::string metadata_address)
    : HealthMonitor(transport, std::move(metadata_address), Options{}) {}

HealthMonitor::HealthMonitor(net::Transport* transport,
                             std::string metadata_address, Options options)
    : transport_(transport), metadata_address_(std::move(metadata_address)),
      options_(options), detector_(options.detector) {}

HealthMonitor::~HealthMonitor() { Stop(); }

Result<std::shared_ptr<net::Connection>> HealthMonitor::Conn(
    const std::string& address) {
  auto it = conns_.find(address);
  if (it != conns_.end()) return it->second;
  GLIDER_ASSIGN_OR_RETURN(auto conn, transport_->Connect(address, nullptr));
  conns_[address] = conn;
  return conn;
}

void HealthMonitor::TickOnce() {
  // Refresh the target set on the first tick and every discover_every
  // after; a failed discovery keeps heartbeating the last-known set.
  if (ticks_until_discover_ == 0 || targets_.empty()) {
    ticks_until_discover_ = std::max<std::uint32_t>(options_.discover_every, 1);
    auto conn = Conn(metadata_address_);
    if (conn.ok()) {
      auto resp = net::Call<nk::ListServersResponse>(
          **conn, nk::kListServers, net::EmptyRequest{});
      if (resp.ok()) {
        std::vector<std::string> targets;
        targets.push_back(metadata_address_);
        for (const auto& server : resp.value().servers) {
          if (std::find(targets.begin(), targets.end(), server.address) ==
              targets.end()) {
            targets.push_back(server.address);
          }
        }
        targets_ = std::move(targets);
      } else {
        conns_.erase(metadata_address_);
        if (targets_.empty()) targets_.push_back(metadata_address_);
      }
    } else if (targets_.empty()) {
      targets_.push_back(metadata_address_);
    }
  }
  --ticks_until_discover_;

  for (const std::string& address : targets_) {
    auto conn = Conn(address);
    if (!conn.ok()) continue;  // detector's phi keeps rising on its own
    obs::ClockSample clock_sample;
    clock_sample.send_us = obs::TraceNowMicros();
    auto resp = net::Call<net::HeartbeatResponse>(**conn, net::kHeartbeat,
                                                  net::EmptyRequest{});
    clock_sample.recv_us = obs::TraceNowMicros();
    if (!resp.ok()) {
      conns_.erase(address);  // reconnect on the next tick
      continue;
    }
    // Every heartbeat doubles as an RTT-midpoint clock sample: the reply
    // already carries the peer's TraceNowMicros, so offset tracking is
    // free and converges as min-RTT ticks accumulate.
    clock_sample.remote_us = resp.value().server_time_us;
    clock_[address].AddSample(clock_sample);
    detector_.Heartbeat(address);
    detector_.ReportLoad(address, resp.value().load_index,
                         static_cast<std::int64_t>(resp.value().hotspot_slots));
  }
  Publish();
}

void HealthMonitor::Publish() {
  auto peers = detector_.Snapshot();
  if (options_.publish_metrics) {
    auto& registry = obs::MetricsRegistry::Global();
    for (const auto& peer : peers) {
      registry.GetGauge("health.phi." + peer.address)
          .Set(static_cast<std::int64_t>(peer.phi * 1000.0));
    }
    for (const auto& [address, estimator] : clock_) {
      if (!estimator.has_estimate()) continue;
      registry.GetGauge("clock.offset_us." + address)
          .Set(estimator.offset_us());
    }
  }
  if (options_.publish_board) {
    obs::HealthBoard::Global().Publish(std::move(peers));
  }
}

Status HealthMonitor::Start() {
  if (running_.exchange(true)) {
    return Status::AlreadyExists("health monitor already running");
  }
  {
    std::scoped_lock lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] {
    while (true) {
      TickOnce();
      std::unique_lock lock(stop_mu_);
      if (stop_cv_.wait_for(lock, options_.interval,
                            [this] { return stop_; })) {
        return;
      }
    }
  });
  return Status::Ok();
}

void HealthMonitor::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::scoped_lock lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (options_.publish_board) obs::HealthBoard::Global().SetRunning(false);
}

}  // namespace glider
