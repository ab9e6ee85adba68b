// Client proxy for action nodes (paper §6.1, Table 1 "Action Node").
//
// Mirrors the paper's four primitives: create (instantiate the action
// object), delete (remove the object), and getInput/OutputStream. Creation
// is two-step and client-driven like every NodeKernel data operation: the
// metadata server allocates the node and its slot, then the client
// instantiates the object directly on the active server.
#pragma once

#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "glider/protocol.h"
#include "nodekernel/client/store_client.h"

namespace glider::core {

class ActionWriter;
class ActionReader;

class ActionNode {
 public:
  // Creates the action node in the namespace and instantiates an object of
  // the registered definition `action_type` in its slot. `config` is handed
  // to onCreate. Returns once onCreate completed.
  static Result<ActionNode> Create(nk::StoreClient& client,
                                   const std::string& path,
                                   const std::string& action_type,
                                   bool interleave = false,
                                   ByteSpan config = {});

  // Binds to an existing action node.
  static Result<ActionNode> Lookup(nk::StoreClient& client,
                                   const std::string& path);

  // Removes the action object (runs onDelete) but keeps the node — the
  // paper's ActionNode.delete(): allows re-creating to clear state.
  Status DeleteObject();

  // Full removal: object finalization plus namespace delete.
  static Status Delete(nk::StoreClient& client, const std::string& path);

  // Opens an I/O stream; triggers one onWrite / onRead execution.
  Result<std::unique_ptr<ActionWriter>> OpenWriter();
  Result<std::unique_ptr<ActionReader>> OpenReader();

  // Self-reported state size (storage-utilization metric).
  Result<std::uint64_t> StateBytes();

  const nk::NodeInfo& info() const { return info_; }
  const std::string& path() const { return path_; }

 private:
  ActionNode(nk::StoreClient& client, std::string path, nk::NodeInfo info,
             std::shared_ptr<net::Connection> conn)
      : client_(&client), path_(std::move(path)), info_(std::move(info)),
        conn_(std::move(conn)) {}

  nk::StoreClient* client_;
  std::string path_;
  nk::NodeInfo info_;
  std::shared_ptr<net::Connection> conn_;  // to the hosting active server
};

// Streams data into an action (drives one onWrite). Keeps a window of
// write operations in flight; Close() returns once the action method has
// finished consuming the stream.
class ActionWriter {
 public:
  ActionWriter(nk::StoreClient& client, std::shared_ptr<net::Connection> conn,
               std::uint64_t stream_id)
      : client_(&client), conn_(std::move(conn)), stream_id_(stream_id) {}
  ~ActionWriter() { (void)Close(); }
  ActionWriter(const ActionWriter&) = delete;
  ActionWriter& operator=(const ActionWriter&) = delete;

  Status Write(ByteSpan data);
  Status Write(std::string_view text) { return Write(AsBytes(text)); }

  // Flushes, sends the final close operation and waits until the action
  // method completed. Idempotent.
  Status Close();

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status SendChunk(ByteSpan chunk);
  // Ships the frame in progress (if any) as one kStreamWrite RPC and counts
  // it as a single in-flight unit.
  Status FlushFrame();
  Status DrainInflight(bool all);

  nk::StoreClient* client_;
  std::shared_ptr<net::Connection> conn_;
  std::uint64_t stream_id_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t bytes_written_ = 0;
  Buffer pending_;
  // Chunks are serialized straight into this frame in progress;
  // FlushFrame ships it.
  std::optional<BinaryWriter> frame_;
  std::size_t frame_count_ = 0;
  std::deque<std::future<Result<net::Message>>> inflight_;
  Status deferred_error_;
  bool closed_ = false;
};

// Streams data out of an action (drives one onRead). Pipelines read
// operations; the server serves them in sequence order.
class ActionReader {
 public:
  ActionReader(nk::StoreClient& client, std::shared_ptr<net::Connection> conn,
               std::uint64_t stream_id)
      : client_(&client), conn_(std::move(conn)), stream_id_(stream_id) {}
  ~ActionReader() { (void)Close(); }
  ActionReader(const ActionReader&) = delete;
  ActionReader& operator=(const ActionReader&) = delete;

  // Next chunk in stream order; empty at end of stream.
  Result<Buffer> ReadChunk();

  // Releases the stream (lets the action method finish if still producing).
  Status Close();

 private:
  void IssueReads();

  nk::StoreClient* client_;
  std::shared_ptr<net::Connection> conn_;
  std::uint64_t stream_id_;
  std::uint64_t next_seq_ = 0;
  std::deque<std::future<Result<net::Message>>> inflight_;
  bool eof_ = false;
  bool closed_ = false;
};

}  // namespace glider::core
