// StoreClient: the application-facing handle to one Glider/NodeKernel
// namespace (paper §6.1, Table 1). Creates, looks up and deletes nodes via
// the metadata server and hands out direct connections to storage servers
// for data operations.
//
// All data connections of one client share the client's LinkModel — this is
// how a FaaS worker's limited bandwidth applies to everything it does.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/link_model.h"
#include "net/rpc_client.h"
#include "net/transport.h"
#include "nodekernel/protocol.h"

namespace glider::nk {

class StoreClient {
 public:
  struct Options {
    net::Transport* transport = nullptr;
    std::string metadata_address;
    // Optional namespace partitioning (paper §4.1 fn. 4: "metadata servers
    // may distribute their work by partitioning the namespaces"): when
    // non-empty, requests route to partitions_[hash(first path component)]
    // and `metadata_address` is ignored. Every partition owns the nodes,
    // blocks and storage servers registered with it.
    std::vector<std::string> metadata_partitions;
    // Shapes all data-plane traffic of this client. May be nullptr
    // (unshaped, unattributed) for tests.
    std::shared_ptr<net::LinkModel> data_link;
    // Metadata traffic; defaults to an unshaped control link sharing the
    // data link's metrics registry.
    std::shared_ptr<net::LinkModel> control_link;
    std::size_t chunk_size = 256 * 1024;  // stream operation size
    std::size_t inflight_window = 4;      // async stream ops kept in flight
    // Chunks per action-stream write frame (one kStreamWrite RPC). 1: every
    // chunk ships as soon as it is full, so interactive flows never wait on
    // a partly filled frame. Raise for small-chunk bulk streams. The last
    // frame, partly filled or not yet shipped, rides ActionWriter::Close's
    // kStreamClose instead.
    std::size_t write_batch_chunks = 1;
  };

  static Result<std::unique_ptr<StoreClient>> Connect(Options options);

  // --- namespace operations (metadata server) ---
  Result<NodeInfo> CreateNode(const std::string& path, NodeType type,
                              StorageClassId storage_class = kDefaultClass);
  // Creates an action node: allocates its slot in the active class and
  // returns the slot location. The action *object* is instantiated by the
  // glider::ActionNode proxy (two-step, client-driven, like Crail).
  Result<NodeInfo> CreateActionNode(const std::string& path,
                                    const std::string& action_type,
                                    bool interleave);
  Result<NodeInfo> Lookup(const std::string& path);
  Result<NodeInfo> Delete(const std::string& path);
  Result<ListResponse> List(const std::string& path);

  // --- KeyValue convenience ---
  // Writes `value` as the node's full contents, creating the node if needed.
  Status PutValue(const std::string& path, ByteSpan value);
  Result<Buffer> GetValue(const std::string& path);

  // --- block plumbing (used by streams and the glider client) ---
  // Node ids are partition-qualified: the top 8 bits carry the partition
  // the node lives on, so block ops route without re-hashing paths.
  Result<BlockLoc> GetBlock(NodeId node, std::uint32_t index, bool allocate);
  Status SetSize(NodeId node, std::uint64_t size);
  // Cached, shared data connection to a storage server address.
  Result<std::shared_ptr<net::Connection>> ConnectTo(const std::string& address);

  const Options& options() const { return options_; }
  // Counts a logical storage access (stream open) when this client sits on
  // the compute<->storage link — the paper's accesses metric.
  void CountAccessIfFaas() const;

 private:
  explicit StoreClient(Options options) : options_(std::move(options)) {}

  // Partition index responsible for `path` / for node `id`.
  std::size_t PartitionOf(const std::string& path) const;
  static std::size_t PartitionOfId(NodeId id) { return id >> 56; }

  // Typed metadata RPC to one partition's server.
  template <typename Resp, typename Req>
  Result<Resp> MetaCall(std::size_t partition, std::uint16_t opcode,
                        const Req& req) {
    if (partition >= meta_conns_.size()) {
      return Status::InvalidArgument("node id from unknown metadata partition");
    }
    return net::Call<Resp>(*meta_conns_[partition], opcode, req);
  }
  template <typename Req>
  Status MetaCallVoid(std::size_t partition, std::uint16_t opcode,
                      const Req& req) {
    return MetaCall<Buffer>(partition, opcode, req).status();
  }

  Options options_;
  std::vector<std::shared_ptr<net::Connection>> meta_conns_;  // per partition
  std::mutex conns_mu_;
  std::map<std::string, std::shared_ptr<net::Connection>> data_conns_;
};

}  // namespace glider::nk
