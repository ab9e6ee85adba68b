#include "glider/cluster_monitor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/metrics_registry.h"
#include "net/rpc_client.h"

namespace glider {

ClusterMonitor::ClusterMonitor(net::Transport* transport,
                               std::string metadata_address,
                               std::shared_ptr<net::LinkModel> link,
                               obs::HealthDetector::Options health_options)
    : transport_(transport), metadata_address_(std::move(metadata_address)),
      link_(std::move(link)), health_(health_options) {}

ClusterMonitor::~ClusterMonitor() { Stop(); }

template <typename Resp, typename Req>
Result<Resp> ClusterMonitor::Call(const std::string& address,
                                  std::uint16_t opcode, const Req& request,
                                  obs::ClockSample* timing) {
  auto it = conns_.find(address);
  if (it == conns_.end()) {
    GLIDER_ASSIGN_OR_RETURN(auto conn, transport_->Connect(address, link_));
    it = conns_.emplace(address, std::move(conn)).first;
  }
  if (timing != nullptr) timing->send_us = obs::TraceNowMicros();
  auto resp = net::Call<Resp>(*it->second, opcode, request);
  if (timing != nullptr) timing->recv_us = obs::TraceNowMicros();
  if (!resp.ok()) conns_.erase(it);  // reconnect on the next use
  return resp;
}

Result<std::vector<ClusterMonitor::ServerSample>> ClusterMonitor::Discover(
    bool* stale) {
  auto listed = Call<nk::ListServersResponse>(
      metadata_address_, nk::kListServers, net::EmptyRequest{});
  *stale = !listed.ok();
  if (listed.ok()) {
    last_discovered_ = std::move(listed).value().servers;
    has_discovered_ = true;
  } else if (!has_discovered_) {
    return listed.status();
  }
  // With metadata down the cached list stands in. The metadata row stays,
  // so the round still probes it and it shows up unreachable (its detector
  // state says suspect/dead).
  std::vector<ServerSample> rows(1);
  rows[0].server.address = metadata_address_;
  rows[0].is_metadata = true;
  for (const auto& server : last_discovered_) {
    rows.emplace_back().server = server;
  }
  return rows;
}

template <typename Probe>
Result<ClusterMonitor::ClusterSample> ClusterMonitor::Round(Probe probe) {
  ClusterSample sample;
  GLIDER_ASSIGN_OR_RETURN(sample.servers, Discover(&sample.stale_discovery));
  // An address listed twice (a server restarted on it registers again)
  // beats once a round, or the detector would see a near-zero interval.
  std::set<std::string> beaten;
  for (ServerSample& s : sample.servers) {
    const std::string& address = s.server.address;
    s.status = probe(s);
    if (s.status.ok() && beaten.insert(address).second) {
      health_.Heartbeat(address);
      health_.ReportLoad(address, s.load_index, s.hotspot_slots);
    }
    s.health = health_.State(address);
    s.phi = health_.Phi(address);
  }
  return sample;
}

Status ClusterMonitor::Beat(ServerSample& row) {
  const std::string& address = row.server.address;
  obs::ClockSample clock;
  GLIDER_ASSIGN_OR_RETURN(
      auto beat, Call<net::HeartbeatResponse>(address, net::kHeartbeat,
                                              net::EmptyRequest{}, &clock));
  row.load_index = beat.load_index;
  row.hotspot_slots = beat.hotspot_slots;
  clock.remote_us = beat.server_time_us;
  obs::ClockOffsetEstimator& estimator = clocks_[address];
  estimator.AddSample(clock);
  obs::MetricsRegistry::Global()
      .GetGauge("clock.offset_us." + address)
      .Set(estimator.offset_us());
  return Status::Ok();
}

Result<std::map<std::string, ClusterMonitor::ClockOffset>>
ClusterMonitor::AlignClocks(int samples_per_server) {
  std::scoped_lock lock(mu_);
  bool stale = false;
  GLIDER_ASSIGN_OR_RETURN(auto rows, Discover(&stale));
  std::set<std::string> failed, seen;
  std::erase_if(rows, [&seen](const ServerSample& row) {
    return !seen.insert(row.server.address).second;  // sample once a pass
  });
  clocks_.clear();  // the estimates below rest on this call's samples only
  for (int pass = 0; pass < std::max(samples_per_server, 1); ++pass) {
    for (ServerSample& row : rows) {
      const std::string& address = row.server.address;
      if (!failed.contains(address) && !Beat(row).ok()) failed.insert(address);
    }
  }
  std::map<std::string, ClockOffset> offsets;
  for (const auto& [address, estimator] : clocks_) {
    if (failed.contains(address)) continue;
    offsets[address] = {estimator.offset_us(), estimator.min_rtt_us(),
                        estimator.samples()};
  }
  if (offsets.empty()) {
    return Status::Unavailable("no server answered clock sampling");
  }
  return offsets;
}

Result<std::string> ClusterMonitor::FetchTraceJson(const std::string& address,
                                                   bool clear_after) {
  std::scoped_lock lock(mu_);
  GLIDER_ASSIGN_OR_RETURN(
      auto json, Call<Buffer>(address, net::kTraceDump,
                              net::DumpRequest{clear_after}));
  return json.ToString();
}

Result<ClusterMonitor::ClusterSample> ClusterMonitor::Poll(bool clear_after) {
  std::scoped_lock lock(mu_);
  const auto snapshot = [&](ServerSample& s) -> Status {
    GLIDER_ASSIGN_OR_RETURN(
        s.snapshot,
        Call<net::NodeSnapshot>(s.server.address, net::kNodeSnapshot,
                                net::DumpRequest{clear_after}));
    // The load gauges (milli scaled, published by the server's
    // LoadTracker) ride along with the snapshot.
    const obs::MetricsSnapshot& metrics = s.snapshot.metrics;
    if (const std::int64_t* li = metrics.FindGauge("load_index")) {
      s.load_index = static_cast<double>(*li) / 1000.0;
    }
    if (const std::int64_t* hs = metrics.FindGauge("hotspot_slots")) {
      s.hotspot_slots = *hs;
    }
    return Status::Ok();
  };
  GLIDER_ASSIGN_OR_RETURN(ClusterSample sample, Round(snapshot));
  // A process answering under a second address was merged already (with
  // `clear_after`, its later snapshot also comes back empty).
  std::set<std::uint64_t> merged_processes;
  for (const ServerSample& s : sample.servers) {
    if (!s.status.ok()) continue;
    if (merged_processes.insert(s.snapshot.process_id).second) {
      sample.merged.Merge(s.snapshot);
    }
  }
  return sample;
}

Result<ClusterMonitor::ClusterSample> ClusterMonitor::Heartbeat() {
  std::scoped_lock lock(mu_);
  return Round([this](ServerSample& s) { return Beat(s); });
}

void ClusterMonitor::Publish() {
  auto peers = health_.Snapshot();
  auto& registry = obs::MetricsRegistry::Global();
  for (const auto& peer : peers) {
    registry.GetGauge("health.phi." + peer.address)
        .Set(static_cast<std::int64_t>(peer.phi * 1000.0));
  }
  obs::HealthBoard::Global().Publish(std::move(peers));
}

Status ClusterMonitor::Start(std::chrono::milliseconds interval) {
  std::scoped_lock lock(mu_);
  if (loop_.joinable()) {
    return Status::AlreadyExists("cluster monitor already running");
  }
  stop_ = false;
  loop_ = std::thread([this, interval] {
    for (;;) {
      // Before the first discovery a round fails; the next one retries.
      (void)Heartbeat();
      Publish();
      std::unique_lock idle(mu_);
      if (stop_cv_.wait_for(idle, interval, [this] { return stop_; })) return;
    }
  });
  return Status::Ok();
}

void ClusterMonitor::Stop() {
  std::thread loop;
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
    loop = std::move(loop_);
  }
  if (!loop.joinable()) return;
  stop_cv_.notify_all();
  loop.join();
  obs::HealthBoard::Global().SetRunning(false);
}

}  // namespace glider
