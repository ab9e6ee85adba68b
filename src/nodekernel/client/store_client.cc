#include "nodekernel/client/store_client.h"

#include "nodekernel/client/file_streams.h"

namespace glider::nk {

Result<std::unique_ptr<StoreClient>> StoreClient::Connect(Options options) {
  if (options.transport == nullptr) {
    return Status::InvalidArgument("StoreClient needs a transport");
  }
  // A zero chunk size never advances a stream write, and a zero window
  // leaves a stream read with no operation in flight to wait on.
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("StoreClient chunk_size must be at least 1");
  }
  if (options.inflight_window == 0) {
    return Status::InvalidArgument(
        "StoreClient inflight_window must be at least 1");
  }
  if (!options.control_link) {
    options.control_link = net::LinkModel::Unshaped(
        LinkClass::kControl,
        options.data_link ? options.data_link->metrics() : nullptr);
  }
  auto client = std::unique_ptr<StoreClient>(new StoreClient(options));
  std::vector<std::string> addresses = options.metadata_partitions;
  if (addresses.empty()) addresses.push_back(options.metadata_address);
  for (const auto& address : addresses) {
    GLIDER_ASSIGN_OR_RETURN(
        auto conn, options.transport->Connect(address, options.control_link));
    client->meta_conns_.push_back(std::move(conn));
  }
  return client;
}

std::size_t StoreClient::PartitionOf(const std::string& path) const {
  if (meta_conns_.size() <= 1) return 0;
  // Route by the first path component so a subtree stays on one partition.
  std::size_t start = path.find_first_not_of('/');
  if (start == std::string::npos) return 0;
  std::size_t end = path.find('/', start);
  if (end == std::string::npos) end = path.size();
  const std::string_view component(path.data() + start, end - start);
  return std::hash<std::string_view>{}(component) % meta_conns_.size();
}

Result<NodeInfo> StoreClient::CreateNode(const std::string& path,
                                         NodeType type,
                                         StorageClassId storage_class) {
  CreateNodeRequest req;
  req.path = path;
  req.type = type;
  req.storage_class = storage_class;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp,
      MetaCall<NodeInfoResponse>(PartitionOf(path), kCreateNode, req));
  return resp.info;
}

Result<NodeInfo> StoreClient::CreateActionNode(const std::string& path,
                                               const std::string& action_type,
                                               bool interleave) {
  CreateNodeRequest req;
  req.path = path;
  req.type = NodeType::kAction;
  req.storage_class = kActiveClass;
  req.action_type = action_type;
  req.interleave = interleave;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp,
      MetaCall<NodeInfoResponse>(PartitionOf(path), kCreateNode, req));
  return resp.info;
}

Result<NodeInfo> StoreClient::Lookup(const std::string& path) {
  GLIDER_ASSIGN_OR_RETURN(auto resp,
                          MetaCall<NodeInfoResponse>(PartitionOf(path), kLookup,
                                                     PathRequest{path}));
  return resp.info;
}

Result<NodeInfo> StoreClient::Delete(const std::string& path) {
  GLIDER_ASSIGN_OR_RETURN(auto resp,
                          MetaCall<NodeInfoResponse>(PartitionOf(path), kDelete,
                                                     PathRequest{path}));
  return resp.info;
}

Result<ListResponse> StoreClient::List(const std::string& path) {
  return MetaCall<ListResponse>(PartitionOf(path), kList, PathRequest{path});
}

Status StoreClient::PutValue(const std::string& path, ByteSpan value) {
  auto created = CreateNode(path, NodeType::kKeyValue);
  if (!created.ok() && created.status().code() != StatusCode::kAlreadyExists) {
    return created.status();
  }
  GLIDER_ASSIGN_OR_RETURN(auto writer, FileWriter::Open(*this, path));
  GLIDER_RETURN_IF_ERROR(writer->Write(value));
  return writer->Close();
}

Result<Buffer> StoreClient::GetValue(const std::string& path) {
  GLIDER_ASSIGN_OR_RETURN(auto reader, FileReader::Open(*this, path));
  Buffer out;
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(auto chunk, reader->ReadChunk());
    if (chunk.empty()) break;
    out.Append(chunk.span());
  }
  return out;
}

Result<BlockLoc> StoreClient::GetBlock(NodeId node, std::uint32_t index,
                                       bool allocate) {
  GetBlockRequest req;
  req.node_id = node;
  req.block_index = index;
  req.allocate = allocate;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp, MetaCall<GetBlockResponse>(PartitionOfId(node), kGetBlock, req));
  return resp.loc;
}

Status StoreClient::SetSize(NodeId node, std::uint64_t size) {
  SetSizeRequest req;
  req.node_id = node;
  req.size = size;
  return MetaCallVoid(PartitionOfId(node), kSetSize, req);
}

Result<std::shared_ptr<net::Connection>> StoreClient::ConnectTo(
    const std::string& address) {
  {
    std::scoped_lock lock(conns_mu_);
    auto it = data_conns_.find(address);
    if (it != data_conns_.end()) return it->second;
  }
  GLIDER_ASSIGN_OR_RETURN(
      auto conn, options_.transport->Connect(address, options_.data_link));
  std::scoped_lock lock(conns_mu_);
  auto [it, inserted] = data_conns_.emplace(address, std::move(conn));
  return it->second;
}

void StoreClient::CountAccessIfFaas() const {
  if (options_.data_link &&
      options_.data_link->link_class() == LinkClass::kFaas &&
      options_.data_link->metrics()) {
    options_.data_link->metrics()->RecordStorageAccess();
  }
}

}  // namespace glider::nk
