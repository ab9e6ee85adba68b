// ClusterMonitor: the client side of the cluster observability plane
// (DESIGN.md "Cluster observability").
//
// Given one metadata address it discovers every registered server via
// kListServers, polls each (plus the metadata server itself) with the
// typed kNodeSnapshot stub, and merges one snapshot per process into one
// cluster-wide NodeSnapshot: counters, gauges and ledger cells sum, log2
// histograms merge bucket-wise — percentiles over the merged buckets are
// exact cluster percentiles, not averages of per-server percentiles.
//
// glider_top and `glider_cli cluster-stats|ledger|health` are thin views
// over Poll(); the monitor keeps cached connections so a 1-second poll
// loop costs one RPC per server per tick.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/health.h"
#include "net/rpc_obs.h"
#include "net/transport.h"
#include "nodekernel/protocol.h"

namespace glider {

class ClusterMonitor {
 public:
  // One polled server. `status` is per-server: a dead server marks its
  // entry unavailable without failing the whole poll.
  struct ServerSample {
    nk::ListServersResponse::Entry server;
    bool is_metadata = false;
    Status status = Status::Ok();
    net::NodeSnapshot snapshot;  // valid when status.ok()
    // Failure-detector view of this address (fed by every poll: a
    // successful snapshot is a heartbeat). Unreachable servers keep their
    // detector row, so glider_top can show suspect/dead instead of a bare
    // error.
    obs::PeerState health = obs::PeerState::kUnknown;
    double phi = 0.0;
    // From the snapshot gauges when present (milli-scaled "load_index" /
    // "hotspot_slots" published by the server's LoadTracker).
    double load_index = 0.0;
    std::int64_t hotspot_slots = -1;  // -1 = not reported
  };

  struct ClusterSample {
    std::vector<ServerSample> servers;
    // One snapshot per reachable process, merged. Servers that share a
    // process (MiniCluster, a daemon listed under two addresses) share its
    // registry and ledger, so they count once.
    net::NodeSnapshot merged;
    // True when this round used the cached server list because the
    // metadata server did not answer Discover().
    bool stale_discovery = false;
  };

  // `transport` must outlive the monitor; `link` (nullable) shapes the
  // monitoring connections (control-class traffic). `health_options`
  // tunes the embedded failure detector.
  ClusterMonitor(net::Transport* transport, std::string metadata_address,
                 std::shared_ptr<net::LinkModel> link = nullptr,
                 obs::HealthDetector::Options health_options = {});

  // Re-reads the server list from the metadata server. Called implicitly
  // by Poll(); exposed so tools can list without polling.
  Result<nk::ListServersResponse> Discover();

  // Per-server clock offset estimated by RTT-midpoint sampling over
  // kHeartbeat's server_time_us (DESIGN.md §11): offset is (server clock -
  // this process's TraceNowMicros clock), min-RTT filtered so the residual
  // error is bounded by min_rtt / 2. Per-node trace timebases are steady
  // clocks since *process start*, so offsets are large (whole boot-time
  // deltas) and alignment is mandatory before merging dumps.
  struct ClockOffset {
    std::int64_t offset_us = 0;
    std::uint64_t min_rtt_us = 0;  // error bound = min_rtt_us / 2
    int samples = 0;
  };

  // Samples every discovered server (plus the metadata server) N times and
  // publishes "clock.offset_us.<addr>" gauges into the global registry.
  // Servers that fail mid-sampling are omitted from the result; fails only
  // when no server answered at all.
  Result<std::map<std::string, ClockOffset>> AlignClocks(
      int samples_per_server = 8);

  // One server's kTraceDump JSON (clear_after requests clear-after-dump).
  Result<std::string> FetchTraceJson(const std::string& address,
                                     bool clear_after = false);

  // One poll across the cluster: discover + kNodeSnapshot everyone.
  // `clear_after` asks every server to clear its ledger and sketches once
  // its snapshot is taken. A dead metadata server degrades to the cached
  // server list (stale_discovery) with the metadata row marked unreachable
  // — one dead server, even that one, never blinds the whole sample. Fails
  // only before the first successful discovery, when there is no cached
  // list to fall back to.
  Result<ClusterSample> Poll(bool clear_after = false);

  // The monitor's failure detector, fed one heartbeat per reachable server
  // per Poll(). Exposed so tools can render the board or tune thresholds.
  obs::HealthDetector& health() { return health_; }

 private:
  Result<std::shared_ptr<net::Connection>> Conn(const std::string& address);

  net::Transport* transport_;
  std::string metadata_address_;
  std::shared_ptr<net::LinkModel> link_;
  std::map<std::string, std::shared_ptr<net::Connection>> conns_;
  obs::HealthDetector health_;
  // Last successful Discover() result, the fallback when metadata dies.
  std::vector<nk::ListServersResponse::Entry> last_discovered_;
  bool has_discovered_ = false;
};

}  // namespace glider
