// MiniCluster: spins up a complete Glider deployment in one process —
// metadata server, DRAM data servers, active servers — over the in-process
// transport (shaped links) or real TCP. Used by integration tests, examples
// and the bench harness.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "glider/active_server.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "nodekernel/client/store_client.h"
#include "nodekernel/metadata_server.h"
#include "nodekernel/storage_server.h"

namespace glider::testing {

struct ClusterOptions {
  bool use_tcp = false;
  std::size_t net_workers = 8;

  // Namespace partitions (paper §4.1 fn. 4): number of metadata servers.
  // Storage and active servers register round-robin across partitions;
  // clients route by the first path component.
  std::size_t metadata_servers = 1;

  std::size_t data_servers = 1;
  std::uint32_t blocks_per_server = 512;
  std::uint64_t block_size = nk::kDefaultBlockSize;

  std::size_t active_servers = 1;
  std::uint32_t slots_per_server = 16;
  std::size_t channel_capacity = 8;

  // Slot-stall watchdog knobs, forwarded to ActiveServer::Options (see
  // there for semantics; stall_multiple = 0 disables).
  std::chrono::milliseconds interleave_quantum{50};
  double stall_multiple = 8.0;
  std::chrono::milliseconds watchdog_interval{10};

  // Per-worker FaaS link shaping (0 bps = unshaped).
  std::uint64_t faas_bandwidth_bps = 0;
  std::chrono::microseconds faas_latency{0};

  // Storage-internal link of active servers (actions -> data servers).
  std::uint64_t internal_bandwidth_bps = 0;
  LinkClass internal_link_class = LinkClass::kInternal;

  // Client streaming parameters.
  std::size_t chunk_size = 256 * 1024;
  std::size_t inflight_window = 4;
  std::size_t write_batch_chunks = 1;  // >1: doorbell-batch action writes

  // Nonzero starts the process-wide TimeSeriesSampler at this cadence (and
  // enables tracing so histograms populate); the cluster stops it on
  // teardown. Drives kSeriesDump / glider_top against a MiniCluster.
  std::chrono::milliseconds sample_interval{0};

  // Nonzero starts the process-wide SamplingProfiler at this rate (and
  // enables tracing so dispatch sites install attribution tags); the
  // cluster stops it on teardown. Drives kProfileDump / glider_cli profile
  // against a MiniCluster.
  int profile_hz = 0;

  std::shared_ptr<core::ActionRegistry> registry;  // default: Global()
};

class MiniCluster {
 public:
  static Result<std::unique_ptr<MiniCluster>> Start(ClusterOptions options);

  ~MiniCluster();
  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  // A client shaped as one FaaS worker: its own bandwidth-limited link.
  Result<std::unique_ptr<nk::StoreClient>> NewFaasClient();
  // An unshaped client attributed to the internal link (tests, drivers).
  Result<std::unique_ptr<nk::StoreClient>> NewInternalClient();

  const std::shared_ptr<Metrics>& metrics() const { return metrics_; }
  const std::string& metadata_address() const {
    return metadata_addresses_.front();
  }
  const std::vector<std::string>& metadata_addresses() const {
    return metadata_addresses_;
  }
  net::Transport& transport() { return *transport_; }
  const ClusterOptions& options() const { return options_; }

  nk::MetadataServer& metadata(std::size_t i = 0) { return *metadata_[i]; }
  std::size_t num_metadata() const { return metadata_.size(); }
  core::ActiveServer& active(std::size_t i = 0) { return *active_[i]; }
  nk::StorageServer& data(std::size_t i = 0) { return *data_[i]; }
  std::size_t num_active() const { return active_.size(); }

  // Sum of self-reported action state across active servers.
  std::uint64_t ActionStateBytes() const;

  // Adds one more storage server of an arbitrary class to the running
  // cluster (elastic join of a storage space; also used to build tiered
  // deployments together with MetadataServer::SetClassFallback).
  Result<nk::StorageServer*> AddStorageServer(nk::StorageClassId storage_class,
                                              std::uint32_t num_blocks,
                                              std::uint64_t block_size);

  // Failure-injection hooks for the health plane tests.
  //
  // KillActive/KillData hard-stop server `i` mid-flight (the listener
  // drops, in-flight calls fail kUnavailable, new connects kNotFound) and
  // remove it from the cluster's vectors — the closest a single process
  // gets to kill -9. The metadata registration is intentionally left
  // dangling, exactly like a real crashed node's.
  Status KillActive(std::size_t i);
  Status KillData(std::size_t i);

  // Simulated partition of `address` (inproc transport only): calls fail
  // while the server keeps running; heals when lifted. kUnimplemented over
  // TCP.
  Status SetPartitioned(const std::string& address, bool partitioned);

 private:
  explicit MiniCluster(ClusterOptions options)
      : options_(std::move(options)) {}

  Status Boot();

  ClusterOptions options_;
  bool started_sampler_ = false;
  bool started_profiler_ = false;
  std::shared_ptr<Metrics> metrics_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::shared_ptr<nk::MetadataServer>> metadata_;
  std::vector<std::unique_ptr<net::Listener>> metadata_listeners_;
  std::vector<std::string> metadata_addresses_;
  std::vector<std::shared_ptr<nk::StorageServer>> data_;
  std::vector<std::shared_ptr<core::ActiveServer>> active_;
};

}  // namespace glider::testing
