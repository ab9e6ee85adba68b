#include "testing/cluster.h"

#include "common/profiler.h"
#include "common/time_series.h"
#include "common/trace.h"

namespace glider::testing {

Result<std::unique_ptr<MiniCluster>> MiniCluster::Start(
    ClusterOptions options) {
  if (!options.registry) {
    // Default to the process-wide registry: actions registered with
    // GLIDER_REGISTER_ACTION are "deployed" everywhere.
    options.registry = std::shared_ptr<core::ActionRegistry>(
        &core::ActionRegistry::Global(), [](core::ActionRegistry*) {});
  }
  auto cluster = std::unique_ptr<MiniCluster>(new MiniCluster(options));
  GLIDER_RETURN_IF_ERROR(cluster->Boot());
  return cluster;
}

Status MiniCluster::Boot() {
  if (options_.sample_interval.count() > 0) {
    obs::SetEnabled(true);
    obs::TimeSeriesSampler::Options sopts;
    sopts.interval = options_.sample_interval;
    GLIDER_RETURN_IF_ERROR(obs::TimeSeriesSampler::Global().Start(sopts));
    started_sampler_ = true;
  }
  if (options_.profile_hz > 0) {
    obs::SetEnabled(true);
    obs::SamplingProfiler::Options popts;
    popts.hz = options_.profile_hz;
    GLIDER_RETURN_IF_ERROR(obs::SamplingProfiler::Global().Start(popts));
    started_profiler_ = true;
  }
  metrics_ = std::make_shared<Metrics>();
  if (options_.use_tcp) {
    transport_ = std::make_unique<net::TcpTransport>(options_.net_workers);
  } else {
    transport_ = std::make_unique<net::InProcTransport>(options_.net_workers);
  }

  const std::size_t partitions = std::max<std::size_t>(1, options_.metadata_servers);
  for (std::size_t p = 0; p < partitions; ++p) {
    auto server = std::make_shared<nk::MetadataServer>(
        transport_.get(), metrics_, static_cast<std::uint32_t>(p));
    GLIDER_ASSIGN_OR_RETURN(auto listener, transport_->Listen("", server));
    metadata_addresses_.push_back(listener->address());
    metadata_.push_back(std::move(server));
    metadata_listeners_.push_back(std::move(listener));
  }

  for (std::size_t i = 0; i < options_.data_servers; ++i) {
    nk::StorageServer::Options sopts;
    sopts.storage_class = nk::kDefaultClass;
    sopts.num_blocks = options_.blocks_per_server;
    sopts.block_size = options_.block_size;
    auto server = std::make_shared<nk::StorageServer>(sopts, metrics_);
    GLIDER_RETURN_IF_ERROR(server->Start(
        *transport_, metadata_addresses_[i % metadata_addresses_.size()]));
    data_.push_back(std::move(server));
  }

  for (std::size_t i = 0; i < options_.active_servers; ++i) {
    core::ActiveServer::Options aopts;
    aopts.num_slots = options_.slots_per_server;
    aopts.channel_capacity = options_.channel_capacity;
    aopts.internal_link_class = options_.internal_link_class;
    aopts.internal_link_bps = options_.internal_bandwidth_bps;
    aopts.interleave_quantum = options_.interleave_quantum;
    aopts.stall_multiple = options_.stall_multiple;
    aopts.watchdog_interval = options_.watchdog_interval;
    auto server = std::make_shared<core::ActiveServer>(
        aopts, options_.registry, metrics_);
    GLIDER_RETURN_IF_ERROR(server->Start(
        *transport_, metadata_addresses_[i % metadata_addresses_.size()]));
    active_.push_back(std::move(server));
  }
  return Status::Ok();
}

MiniCluster::~MiniCluster() {
  // Stop the sampler/profiler first so neither races the servers' teardown.
  if (started_sampler_) obs::TimeSeriesSampler::Global().Stop();
  if (started_profiler_) obs::SamplingProfiler::Global().Stop();
  // The transport listeners hold shared_ptrs back to their services, so a
  // server is never destroyed by dropping our reference alone — each must
  // be stopped explicitly. Actives first: joining their method threads may
  // issue final store RPCs, so the data and metadata tiers must still be up.
  for (auto& server : active_) server->Stop();
  active_.clear();
  for (auto& server : data_) server->Stop();
  data_.clear();
  metadata_listeners_.clear();
}

Result<std::unique_ptr<nk::StoreClient>> MiniCluster::NewFaasClient() {
  nk::StoreClient::Options copts;
  copts.transport = transport_.get();
  copts.metadata_address = metadata_addresses_.front();
  copts.metadata_partitions = metadata_addresses_;
  copts.data_link = std::make_shared<net::LinkModel>(
      LinkClass::kFaas, options_.faas_bandwidth_bps, options_.faas_latency,
      metrics_);
  copts.chunk_size = options_.chunk_size;
  copts.inflight_window = options_.inflight_window;
  copts.write_batch_chunks = options_.write_batch_chunks;
  return nk::StoreClient::Connect(std::move(copts));
}

Result<std::unique_ptr<nk::StoreClient>> MiniCluster::NewInternalClient() {
  nk::StoreClient::Options copts;
  copts.transport = transport_.get();
  copts.metadata_address = metadata_addresses_.front();
  copts.metadata_partitions = metadata_addresses_;
  copts.data_link = net::LinkModel::Unshaped(LinkClass::kInternal, metrics_);
  copts.chunk_size = options_.chunk_size;
  copts.inflight_window = options_.inflight_window;
  copts.write_batch_chunks = options_.write_batch_chunks;
  return nk::StoreClient::Connect(std::move(copts));
}

Result<nk::StorageServer*> MiniCluster::AddStorageServer(
    nk::StorageClassId storage_class, std::uint32_t num_blocks,
    std::uint64_t block_size) {
  nk::StorageServer::Options sopts;
  sopts.storage_class = storage_class;
  sopts.num_blocks = num_blocks;
  sopts.block_size = block_size;
  auto server = std::make_shared<nk::StorageServer>(sopts, metrics_);
  GLIDER_RETURN_IF_ERROR(server->Start(*transport_, metadata_addresses_.front()));
  data_.push_back(server);
  return server.get();
}

Status MiniCluster::KillActive(std::size_t i) {
  if (i >= active_.size()) return Status::OutOfRange("no such active server");
  active_[i]->Stop();
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  return Status::Ok();
}

Status MiniCluster::KillData(std::size_t i) {
  if (i >= data_.size()) return Status::OutOfRange("no such data server");
  data_[i]->Stop();
  data_.erase(data_.begin() + static_cast<std::ptrdiff_t>(i));
  return Status::Ok();
}

Status MiniCluster::SetPartitioned(const std::string& address,
                                   bool partitioned) {
  auto* inproc = dynamic_cast<net::InProcTransport*>(transport_.get());
  if (inproc == nullptr) {
    return Status::Unimplemented("partitions require the inproc transport");
  }
  return inproc->SetPartitioned(address, partitioned);
}

std::uint64_t MiniCluster::ActionStateBytes() const {
  std::uint64_t total = 0;
  for (const auto& server : active_) total += server->UsedBytes();
  return total;
}

}  // namespace glider::testing
