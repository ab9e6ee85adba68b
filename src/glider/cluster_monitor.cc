#include "glider/cluster_monitor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/trace_assemble.h"
#include "net/rpc_client.h"

namespace glider {

ClusterMonitor::ClusterMonitor(net::Transport* transport,
                               std::string metadata_address,
                               std::shared_ptr<net::LinkModel> link,
                               obs::HealthDetector::Options health_options)
    : transport_(transport), metadata_address_(std::move(metadata_address)),
      link_(std::move(link)), health_(health_options) {}

Result<std::shared_ptr<net::Connection>> ClusterMonitor::Conn(
    const std::string& address) {
  auto it = conns_.find(address);
  if (it != conns_.end()) return it->second;
  GLIDER_ASSIGN_OR_RETURN(auto conn, transport_->Connect(address, link_));
  conns_[address] = conn;
  return conn;
}

Result<nk::ListServersResponse> ClusterMonitor::Discover() {
  auto conn = Conn(metadata_address_);
  if (!conn.ok()) {
    conns_.erase(metadata_address_);
    return conn.status();
  }
  auto resp = net::Call<nk::ListServersResponse>(
      **conn, nk::kListServers, net::EmptyRequest{});
  if (!resp.ok()) conns_.erase(metadata_address_);
  return resp;
}

Result<std::map<std::string, ClusterMonitor::ClockOffset>>
ClusterMonitor::AlignClocks(int samples_per_server) {
  if (samples_per_server < 1) samples_per_server = 1;
  auto discovered = Discover();
  if (discovered.ok()) {
    last_discovered_ = std::move(discovered).value().servers;
    has_discovered_ = true;
  } else if (!has_discovered_) {
    return discovered.status();
  }

  std::vector<std::string> addresses{metadata_address_};
  for (const auto& server : last_discovered_) {
    if (std::find(addresses.begin(), addresses.end(), server.address) ==
        addresses.end()) {
      addresses.push_back(server.address);
    }
  }

  std::map<std::string, ClockOffset> offsets;
  auto& registry = obs::MetricsRegistry::Global();
  for (const std::string& address : addresses) {
    auto conn = Conn(address);
    if (!conn.ok()) continue;
    obs::ClockOffsetEstimator estimator;
    bool failed = false;
    for (int i = 0; i < samples_per_server; ++i) {
      obs::ClockSample sample;
      sample.send_us = obs::TraceNowMicros();
      auto resp = net::Call<net::HeartbeatResponse>(**conn, net::kHeartbeat,
                                                    net::EmptyRequest{});
      sample.recv_us = obs::TraceNowMicros();
      if (!resp.ok()) {
        conns_.erase(address);  // reconnect on the next use
        failed = true;
        break;
      }
      sample.remote_us = resp.value().server_time_us;
      estimator.AddSample(sample);
    }
    if (failed || !estimator.has_estimate()) continue;
    ClockOffset offset;
    offset.offset_us = estimator.offset_us();
    offset.min_rtt_us = estimator.min_rtt_us();
    offset.samples = estimator.samples();
    registry.GetGauge("clock.offset_us." + address).Set(offset.offset_us);
    offsets[address] = offset;
  }
  if (offsets.empty()) {
    return Status::Unavailable("no server answered clock sampling");
  }
  return offsets;
}

Result<std::string> ClusterMonitor::FetchTraceJson(const std::string& address,
                                                   bool clear_after) {
  GLIDER_ASSIGN_OR_RETURN(auto conn, Conn(address));
  auto result = net::Call<Buffer>(*conn, net::kTraceDump,
                                  net::DumpRequest{clear_after});
  if (!result.ok()) {
    conns_.erase(address);
    return result.status();
  }
  return result->ToString();
}

Result<ClusterMonitor::ClusterSample> ClusterMonitor::Poll(bool clear_after) {
  ClusterSample sample;
  auto discovered = Discover();
  if (discovered.ok()) {
    last_discovered_ = std::move(discovered).value().servers;
    has_discovered_ = true;
  } else {
    // Metadata down: degrade to the cached server list instead of blinding
    // the whole round. The metadata row itself is polled below and shows
    // up unreachable (its detector state says suspect/dead).
    if (!has_discovered_) return discovered.status();
    sample.stale_discovery = true;
  }

  // The metadata server first (it has no registry entry of its own), then
  // every registered server. Every address is polled, so each row gets its
  // heartbeat; the merge below takes one snapshot per process.
  std::vector<std::pair<nk::ListServersResponse::Entry, bool>> targets;
  {
    nk::ListServersResponse::Entry meta;
    meta.address = metadata_address_;
    targets.emplace_back(std::move(meta), true);
  }
  for (const auto& server : last_discovered_) {
    targets.emplace_back(server, false);
  }
  std::set<std::uint64_t> merged_processes;
  for (auto& [entry, is_meta] : targets) {
    ServerSample s;
    s.server = std::move(entry);
    s.is_metadata = is_meta;
    auto conn = Conn(s.server.address);
    if (!conn.ok()) {
      s.status = conn.status();
    } else {
      auto snapshot = net::Call<net::NodeSnapshot>(
          **conn, net::kNodeSnapshot, net::DumpRequest{clear_after});
      if (!snapshot.ok()) {
        conns_.erase(s.server.address);  // reconnect on the next poll
        s.status = snapshot.status();
      } else {
        s.snapshot = std::move(snapshot).value();
        // A successful snapshot is a heartbeat; its load gauges (milli
        // scaled, published by the server's LoadTracker) ride along.
        health_.Heartbeat(s.server.address);
        const obs::MetricsSnapshot& metrics = s.snapshot.metrics;
        if (const std::int64_t* li = metrics.FindGauge("load_index")) {
          s.load_index = static_cast<double>(*li) / 1000.0;
        }
        if (const std::int64_t* hs = metrics.FindGauge("hotspot_slots")) {
          s.hotspot_slots = *hs;
        }
        health_.ReportLoad(s.server.address, s.load_index, s.hotspot_slots);
        // A process answering under a second address was merged already
        // (with `clear_after`, this later snapshot also comes back empty).
        if (merged_processes.insert(s.snapshot.process_id).second) {
          sample.merged.Merge(s.snapshot);
        }
      }
    }
    s.health = health_.State(s.server.address);
    s.phi = health_.Phi(s.server.address);
    sample.servers.push_back(std::move(s));
  }
  return sample;
}

}  // namespace glider
