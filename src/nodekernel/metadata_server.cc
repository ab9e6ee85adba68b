#include "nodekernel/metadata_server.h"

#include <utility>

#include "common/attribution.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "net/link_model.h"
#include "net/rpc_client.h"

namespace glider::nk {

MetadataServer::MetadataServer(net::Transport* transport,
                               std::shared_ptr<Metrics> metrics,
                               std::uint32_t partition)
    : net::ServiceRouter("metadata", metrics.get()),
      transport_(transport), metrics_(std::move(metrics)),
      tree_((static_cast<NodeId>(partition) << 56) + 1) {
  Route<RegisterServerRequest>(
      kRegisterServer, "RegisterServer",
      [this](const RegisterServerRequest& req) { return DoRegisterServer(req); });
  Route<CreateNodeRequest>(
      kCreateNode, "CreateNode",
      [this](const CreateNodeRequest& req) { return DoCreateNode(req); });
  Route<PathRequest>(kLookup, "Lookup",
                     [this](const PathRequest& req) { return DoLookup(req); });
  Route<PathRequest>(kDelete, "Delete",
                     [this](const PathRequest& req) { return DoDelete(req); });
  Route<GetBlockRequest>(
      kGetBlock, "GetBlock",
      [this](const GetBlockRequest& req) { return DoGetBlock(req); });
  Route<SetSizeRequest>(
      kSetSize, "SetSize",
      [this](const SetSizeRequest& req) { return DoSetSize(req); });
  Route<PathRequest>(kList, "List",
                     [this](const PathRequest& req) { return DoList(req); });
  Route<net::EmptyRequest>(
      kListServers, "ListServers",
      [this](const net::EmptyRequest&) { return DoListServers(); });
}

MetadataServer::~MetadataServer() = default;

NodeInfo MetadataServer::ToInfo(const NodeRecord& record) const {
  NodeInfo info;
  info.id = record.id;
  info.type = record.type;
  info.size = record.size;
  info.block_size = blocks_.BlockSizeOf(record.storage_class);
  info.storage_class = record.storage_class;
  info.action_type = record.action_type;
  info.interleave = record.interleave;
  if (record.type == NodeType::kAction && !record.blocks.empty()) {
    info.slot = record.blocks.front();
  }
  return info;
}

Result<RegisterServerResponse> MetadataServer::DoRegisterServer(
    const RegisterServerRequest& req) {
  std::unique_lock lock(mu_);
  RegisterServerResponse resp;
  resp.server_id = blocks_.RegisterServer(req.storage_class, req.address,
                                          req.num_blocks, req.block_size);
  GLIDER_LOG(kInfo, "metadata")
      << "registered server " << resp.server_id << " class "
      << req.storage_class << " at " << req.address << " ("
      << req.num_blocks << " blocks)";
  return resp;
}

Result<NodeInfoResponse> MetadataServer::DoCreateNode(
    const CreateNodeRequest& req) {
  std::unique_lock lock(mu_);

  // Action nodes always live in the active class and get their single slot
  // now; other nodes get blocks lazily as data is attached.
  const StorageClassId effective_class =
      req.type == NodeType::kAction ? kActiveClass : req.storage_class;
  if (req.type != NodeType::kAction && req.storage_class == kActiveClass) {
    return Status::InvalidArgument(
        "only action nodes may use the active class");
  }
  if (req.type == NodeType::kAction && req.action_type.empty()) {
    return Status::InvalidArgument("action node needs an action type");
  }

  BlockLoc slot;
  if (req.type == NodeType::kAction) {
    GLIDER_ASSIGN_OR_RETURN(slot, blocks_.Allocate(kActiveClass));
  }

  auto created = tree_.Create(req.path, req.type);
  if (!created.ok()) {
    if (req.type == NodeType::kAction) {
      (void)blocks_.Free(slot);  // roll back the slot
    }
    return created.status();
  }
  NodeRecord* record = created.value();
  record->storage_class = effective_class;
  record->action_type = req.action_type;
  record->interleave = req.interleave;
  if (req.type == NodeType::kAction) {
    record->blocks.push_back(slot);
  }
  id_index_[record->id] = record;

  NodeInfoResponse resp;
  resp.info = ToInfo(*record);
  return resp;
}

Result<NodeInfoResponse> MetadataServer::DoLookup(const PathRequest& req) {
  const bool observed = obs::Enabled();
  obs::Span span("meta", "meta.lookup");
  const std::uint64_t start_us = observed ? obs::TraceNowMicros() : 0;
  // Hot-key attribution: every looked-up path feeds the bounded-memory
  // heavy-hitter sketch carried by the node snapshot.
  if (observed) obs::KeySketch().Offer(req.path);
  NodeInfoResponse resp;
  {
    std::shared_lock lock(mu_);
    GLIDER_ASSIGN_OR_RETURN(auto* record, tree_.Lookup(req.path));
    resp.info = ToInfo(*record);
  }
  if (observed) {
    static obs::LatencyHistogram& hist =
        obs::MetricsRegistry::Global().GetHistogram("meta.lookup_us");
    hist.Record(obs::TraceNowMicros() - start_us);
  }
  return resp;
}

Result<NodeInfoResponse> MetadataServer::DoDelete(const PathRequest& req) {
  NodeRecord removed;
  NodeInfo info;
  {
    std::unique_lock lock(mu_);
    GLIDER_ASSIGN_OR_RETURN(auto* record, tree_.Lookup(req.path));
    info = ToInfo(*record);
    GLIDER_ASSIGN_OR_RETURN(removed, tree_.Remove(req.path));
    id_index_.erase(removed.id);
    for (const auto& loc : removed.blocks) {
      (void)blocks_.Free(loc);
    }
  }
  // Tell storage servers to drop the freed data (ephemeral data is gone the
  // moment its node is). Done outside the lock; best-effort.
  if (removed.type != NodeType::kAction) {
    ResetBlocks(removed.blocks);
  }
  NodeInfoResponse resp;
  resp.info = info;
  return resp;
}

Result<GetBlockResponse> MetadataServer::DoGetBlock(
    const GetBlockRequest& req) {
  // Fast path, shared: the block already exists. This is every read and
  // every re-open of an already-written file (stream opens hit it on each
  // chunk pipeline refill), so it must not serialize behind writers.
  {
    std::shared_lock lock(mu_);
    auto idx = id_index_.find(req.node_id);
    if (idx == id_index_.end()) {
      return Status::NotFound("node id " + std::to_string(req.node_id));
    }
    const NodeRecord* record = idx->second;
    if (!HoldsData(record->type)) {
      return Status::WrongNodeType("node holds no data blocks");
    }
    if (req.block_index < record->blocks.size()) {
      GetBlockResponse resp;
      resp.loc = record->blocks[req.block_index];
      return resp;
    }
    if (!req.allocate) {
      return Status::OutOfRange("block index past end of node");
    }
  }
  // Allocation path, exclusive. Re-check everything: another writer may
  // have allocated the block (or deleted the node) between the locks.
  std::unique_lock lock(mu_);
  auto idx = id_index_.find(req.node_id);
  if (idx == id_index_.end()) {
    return Status::NotFound("node id " + std::to_string(req.node_id));
  }
  NodeRecord* record = idx->second;
  if (!HoldsData(record->type)) {
    return Status::WrongNodeType("node holds no data blocks");
  }
  if (req.block_index < record->blocks.size()) {
    GetBlockResponse resp;
    resp.loc = record->blocks[req.block_index];
    return resp;
  }
  if (req.block_index != record->blocks.size()) {
    return Status::InvalidArgument("blocks must be allocated in order");
  }
  GLIDER_ASSIGN_OR_RETURN(auto loc, blocks_.Allocate(record->storage_class));
  record->blocks.push_back(loc);
  GetBlockResponse resp;
  resp.loc = loc;
  return resp;
}

Result<Buffer> MetadataServer::DoSetSize(const SetSizeRequest& req) {
  std::unique_lock lock(mu_);
  auto it = id_index_.find(req.node_id);
  if (it == id_index_.end()) {
    return Status::NotFound("node id " + std::to_string(req.node_id));
  }
  // Sizes only grow: concurrent writers each report their final extent.
  it->second->size = std::max(it->second->size, req.size);
  return Buffer{};
}

Result<ListResponse> MetadataServer::DoList(const PathRequest& req) {
  std::shared_lock lock(mu_);
  GLIDER_ASSIGN_OR_RETURN(auto entries, tree_.List(req.path));
  ListResponse resp;
  resp.entries.reserve(entries.size());
  for (auto& [name, type] : entries) {
    resp.entries.push_back({std::move(name), type});
  }
  return resp;
}

Result<ListServersResponse> MetadataServer::DoListServers() {
  std::shared_lock lock(mu_);
  ListServersResponse resp;
  for (const auto* entry : blocks_.ListServers()) {
    ListServersResponse::Entry e;
    e.id = entry->id;
    e.address = entry->address;
    e.storage_class = entry->storage_class;
    e.num_blocks = entry->total_blocks;
    e.used_blocks = entry->total_blocks -
                    static_cast<std::uint32_t>(entry->free_blocks.size());
    resp.servers.push_back(std::move(e));
  }
  return resp;
}

void MetadataServer::ResetBlocks(const std::vector<BlockLoc>& blocks) {
  if (transport_ == nullptr) return;
  static obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("meta.reset_failures");
  for (const auto& loc : blocks) {
    std::shared_ptr<net::Connection> conn;
    {
      std::scoped_lock lock(conns_mu_);
      auto it = server_conns_.find(loc.address);
      if (it != server_conns_.end()) {
        conn = it->second;
      }
    }
    if (!conn) {
      auto connected = transport_->Connect(
          loc.address,
          net::LinkModel::Unshaped(LinkClass::kControl, metrics_));
      if (!connected.ok()) {
        failures.Increment();
        GLIDER_LOG(kWarn, "metadata")
            << "cannot reach " << loc.address << " for block reset";
        continue;
      }
      conn = std::move(connected).value();
      std::scoped_lock lock(conns_mu_);
      server_conns_[loc.address] = conn;
    }
    ResetBlockRequest req;
    req.block = loc.block;
    const Status result = net::CallVoid(*conn, kResetBlock, req);
    if (!result.ok()) {
      failures.Increment();
      GLIDER_LOG(kWarn, "metadata")
          << "block reset failed for " << loc.address << " block "
          << loc.block << ": " << result.ToString();
    }
  }
}

void MetadataServer::SetClassFallback(StorageClassId storage_class,
                                      StorageClassId fallback) {
  std::unique_lock lock(mu_);
  blocks_.SetFallback(storage_class, fallback);
}

std::size_t MetadataServer::NodeCount() const {
  std::shared_lock lock(mu_);
  return tree_.NodeCount();
}

std::uint32_t MetadataServer::FreeBlocks(StorageClassId storage_class) const {
  std::shared_lock lock(mu_);
  return blocks_.FreeBlockCount(storage_class);
}

}  // namespace glider::nk
