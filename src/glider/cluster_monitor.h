// ClusterMonitor: the one cluster watcher (DESIGN.md "Cluster
// observability", "Cluster health plane").
//
// Given one metadata address it discovers every registered server via
// kListServers and probes each (plus the metadata server itself) once per
// round, feeding one phi-accrual HealthDetector. A round probes with one of
// two opcodes:
//
//   * Poll(): kNodeSnapshot, merging one snapshot per process into one
//     cluster-wide NodeSnapshot: counters, gauges and ledger cells sum,
//     log2 histograms merge bucket-wise — percentiles over the merged
//     buckets are exact cluster percentiles, not averages of per-server
//     percentiles.
//   * Heartbeat(): the lightweight kHeartbeat, whose reply is also one
//     RTT-midpoint clock sample for its address (DESIGN.md §11).
//
// glider_top and `glider_cli cluster-stats|ledger` are thin views over
// Poll(), `glider_cli health` over Heartbeat() and glider_trace over
// AlignClocks(). Start() runs heartbeat rounds on a background thread and
// publishes their verdicts — what glider_daemon --health-ms runs. The
// monitor keeps cached connections, so a round costs one discovery RPC plus
// one RPC per server.
#pragma once

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
#include "net/rpc_obs.h"
#include "net/transport.h"
#include "nodekernel/protocol.h"

namespace glider {

class ClusterMonitor {
 public:
  // One probed server. `status` is per-server: a dead server marks its
  // entry unavailable without failing the whole round.
  struct ServerSample {
    nk::ListServersResponse::Entry server;
    bool is_metadata = false;
    Status status = Status::Ok();
    net::NodeSnapshot snapshot;  // Poll() rows only, valid when status.ok()
    // Failure-detector view of this address (fed by every answered probe).
    // Unreachable servers keep their detector row, so glider_top can show
    // suspect/dead instead of a bare error.
    obs::PeerState health = obs::PeerState::kUnknown;
    double phi = 0.0;
    // The server's load report: the heartbeat reply's, or the milli-scaled
    // "load_index" / "hotspot_slots" snapshot gauges when present.
    double load_index = 0.0;
    std::int64_t hotspot_slots = -1;  // -1 = not reported
  };

  struct ClusterSample {
    std::vector<ServerSample> servers;
    // Poll() only: one snapshot per reachable process, merged. Servers
    // that share a process (MiniCluster, a daemon listed under two
    // addresses) share its registry and ledger, so they count once.
    net::NodeSnapshot merged;
    // True when this round used the cached server list because the
    // metadata server did not answer its discovery.
    bool stale_discovery = false;
  };

  // `transport` must outlive the monitor; `link` (nullable) shapes the
  // monitoring connections (control-class traffic). `health_options`
  // tunes the embedded failure detector.
  ClusterMonitor(net::Transport* transport, std::string metadata_address,
                 std::shared_ptr<net::LinkModel> link = nullptr,
                 obs::HealthDetector::Options health_options = {});
  ~ClusterMonitor();

  ClusterMonitor(const ClusterMonitor&) = delete;
  ClusterMonitor& operator=(const ClusterMonitor&) = delete;

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

  // Discovers once, then makes N heartbeat passes over every server (plus
  // the metadata server), each a fresh clock sample; every sample updates
  // the "clock.offset_us.<addr>" gauge in the global registry. Servers
  // that fail mid-sampling are omitted from the result; fails only when no
  // server answered at all.
  Result<std::map<std::string, ClockOffset>> AlignClocks(
      int samples_per_server = 8);

  // One server's kTraceDump JSON (clear_after requests clear-after-dump).
  Result<std::string> FetchTraceJson(const std::string& address,
                                     bool clear_after = false);

  // One round with kNodeSnapshot. `clear_after` asks every server to clear
  // its ledger and sketches once its snapshot is taken. A dead metadata
  // server degrades to the cached server list (stale_discovery) with the
  // metadata row marked unreachable — one dead server, even that one,
  // never blinds the whole sample. Fails only before the first successful
  // discovery, when there is no cached list to fall back to.
  Result<ClusterSample> Poll(bool clear_after = false);

  // One round with kHeartbeat: the rows carry status, health and the load
  // report, but no snapshot. Discovery degrades as in Poll().
  Result<ClusterSample> Heartbeat();

  // Runs a heartbeat round every `interval` on a background thread and
  // publishes after each: "health.phi.<address>" gauges (milli-scaled,
  // Prometheus glider_health_phi_*) and the process HealthBoard served by
  // kHealthDump. kAlreadyExists if running. Rounds of any kind serialise,
  // so a started monitor may also be polled.
  Status Start(std::chrono::milliseconds interval);
  // Joins the background thread and marks the HealthBoard not running.
  void Stop();

  // The monitor's failure detector, fed one heartbeat per answering
  // address per round. Exposed so tools can render the board or tune
  // thresholds.
  obs::HealthDetector& health() { return health_; }

 private:
  // Discovery with a fallback to the cached server list (*stale = true).
  // Returns one row per address to probe: the metadata server first (it
  // has no registry entry of its own), then every registered server.
  Result<std::vector<ServerSample>> Discover(bool* stale);
  // One round: discovery, then `probe` on every row, feeding the detector.
  template <typename Probe>
  Result<ClusterSample> Round(Probe probe);
  // One kHeartbeat to `row`'s address, filling its load report. The reply
  // is also a sample for the address's clock estimator and its
  // "clock.offset_us.<addr>" gauge.
  Status Beat(ServerSample& row);
  // One RPC over the cached connection to `address`, dropped on failure so
  // the next use reconnects. `timing`, when set, brackets the call itself.
  template <typename Resp, typename Req>
  Result<Resp> Call(const std::string& address, std::uint16_t opcode,
                    const Req& request, obs::ClockSample* timing = nullptr);
  void Publish();

  net::Transport* const transport_;
  const std::string metadata_address_;
  const std::shared_ptr<net::LinkModel> link_;
  obs::HealthDetector health_;

  // Serialises rounds and guards every member below.
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<net::Connection>> conns_;
  std::map<std::string, obs::ClockOffsetEstimator> clocks_;
  // Last successful discovery, the fallback when metadata dies.
  std::vector<nk::ListServersResponse::Entry> last_discovered_;
  bool has_discovered_ = false;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread loop_;
};

}  // namespace glider
