// Wire protocol of the metadata and storage servers.
//
// Each request/response body is a small struct with Encode()/Decode(); the
// opcode ranges are:
//   1..19   metadata server
//   20..29  storage server (data blocks)
//   30..49  active server (see glider/protocol.h)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "nodekernel/types.h"

namespace glider::nk {

enum Opcode : std::uint16_t {
  // Metadata server.
  kRegisterServer = 1,
  kCreateNode = 2,
  kLookup = 3,
  kDelete = 4,
  kGetBlock = 5,
  kSetSize = 6,
  kList = 7,
  kListServers = 8,

  // Storage server.
  kWriteBlock = 20,
  kReadBlock = 21,
  kResetBlock = 22,
};

// ---- shared encodings -------------------------------------------------------

inline void PutBlockLoc(BinaryWriter& w, const BlockLoc& loc) {
  w.PutU32(loc.server);
  w.PutU32(loc.block);
  w.PutString(loc.address);
}

inline Result<BlockLoc> GetBlockLoc(BinaryReader& r) {
  BlockLoc loc;
  GLIDER_ASSIGN_OR_RETURN(loc.server, r.U32());
  GLIDER_ASSIGN_OR_RETURN(loc.block, r.U32());
  GLIDER_ASSIGN_OR_RETURN(loc.address, r.String());
  return loc;
}

inline void PutNodeInfo(BinaryWriter& w, const NodeInfo& info) {
  w.PutU64(info.id);
  w.PutU8(static_cast<std::uint8_t>(info.type));
  w.PutU64(info.size);
  w.PutU64(info.block_size);
  w.PutU32(info.storage_class);
  w.PutString(info.action_type);
  w.PutBool(info.interleave);
  PutBlockLoc(w, info.slot);
}

inline Result<NodeInfo> GetNodeInfo(BinaryReader& r) {
  NodeInfo info;
  GLIDER_ASSIGN_OR_RETURN(info.id, r.U64());
  GLIDER_ASSIGN_OR_RETURN(auto type_raw, r.U8());
  info.type = static_cast<NodeType>(type_raw);
  GLIDER_ASSIGN_OR_RETURN(info.size, r.U64());
  GLIDER_ASSIGN_OR_RETURN(info.block_size, r.U64());
  GLIDER_ASSIGN_OR_RETURN(info.storage_class, r.U32());
  GLIDER_ASSIGN_OR_RETURN(info.action_type, r.String());
  GLIDER_ASSIGN_OR_RETURN(info.interleave, r.Bool());
  GLIDER_ASSIGN_OR_RETURN(info.slot, GetBlockLoc(r));
  return info;
}

// ---- metadata requests ------------------------------------------------------

struct RegisterServerRequest {
  StorageClassId storage_class = kDefaultClass;
  std::string address;
  std::uint32_t num_blocks = 0;
  std::uint64_t block_size = kDefaultBlockSize;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(storage_class);
    w.PutString(address);
    w.PutU32(num_blocks);
    w.PutU64(block_size);
    return std::move(w).Finish();
  }
  static Result<RegisterServerRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    RegisterServerRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.storage_class, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.address, r.String());
    GLIDER_ASSIGN_OR_RETURN(req.num_blocks, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.block_size, r.U64());
    return req;
  }
};

struct RegisterServerResponse {
  ServerId server_id = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(server_id);
    return std::move(w).Finish();
  }
  static Result<RegisterServerResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    RegisterServerResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.server_id, r.U32());
    return resp;
  }
};

struct CreateNodeRequest {
  std::string path;
  NodeType type = NodeType::kFile;
  StorageClassId storage_class = kDefaultClass;
  // Action-only: registered definition name, interleaving flag, creation
  // config delivered to Action::onCreate.
  std::string action_type;
  bool interleave = false;
  Buffer config;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutString(path);
    w.PutU8(static_cast<std::uint8_t>(type));
    w.PutU32(storage_class);
    w.PutString(action_type);
    w.PutBool(interleave);
    w.PutBytes(config.span());
    return std::move(w).Finish();
  }
  static Result<CreateNodeRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    CreateNodeRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.path, r.String());
    GLIDER_ASSIGN_OR_RETURN(auto type_raw, r.U8());
    req.type = static_cast<NodeType>(type_raw);
    GLIDER_ASSIGN_OR_RETURN(req.storage_class, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.action_type, r.String());
    GLIDER_ASSIGN_OR_RETURN(req.interleave, r.Bool());
    GLIDER_ASSIGN_OR_RETURN(auto config, r.Bytes());
    req.config = Buffer(config.data(), config.size());
    return req;
  }
};

// Response to kCreateNode, kLookup and kDelete: the node's info.
struct NodeInfoResponse {
  NodeInfo info;

  Buffer Encode() const {
    BinaryWriter w;
    PutNodeInfo(w, info);
    return std::move(w).Finish();
  }
  static Result<NodeInfoResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    NodeInfoResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.info, GetNodeInfo(r));
    return resp;
  }
};

struct PathRequest {  // kLookup, kDelete, kList
  std::string path;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutString(path);
    return std::move(w).Finish();
  }
  static Result<PathRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    PathRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.path, r.String());
    return req;
  }
};

struct GetBlockRequest {
  NodeId node_id = 0;
  std::uint32_t block_index = 0;  // index within the node's block chain
  bool allocate = false;          // extend the chain if needed (writers)

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(node_id);
    w.PutU32(block_index);
    w.PutBool(allocate);
    return std::move(w).Finish();
  }
  static Result<GetBlockRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    GetBlockRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.node_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.block_index, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.allocate, r.Bool());
    return req;
  }
};

struct GetBlockResponse {
  BlockLoc loc;

  Buffer Encode() const {
    BinaryWriter w;
    PutBlockLoc(w, loc);
    return std::move(w).Finish();
  }
  static Result<GetBlockResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    GetBlockResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.loc, GetBlockLoc(r));
    return resp;
  }
};

struct SetSizeRequest {
  NodeId node_id = 0;
  std::uint64_t size = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(node_id);
    w.PutU64(size);
    return std::move(w).Finish();
  }
  static Result<SetSizeRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    SetSizeRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.node_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.size, r.U64());
    return req;
  }
};

struct ListResponse {
  struct Entry {
    std::string name;
    NodeType type = NodeType::kFile;
  };
  std::vector<Entry> entries;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w.PutString(e.name);
      w.PutU8(static_cast<std::uint8_t>(e.type));
    }
    return std::move(w).Finish();
  }
  static Result<ListResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    ListResponse resp;
    GLIDER_ASSIGN_OR_RETURN(auto n, r.U32());
    resp.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      GLIDER_ASSIGN_OR_RETURN(e.name, r.String());
      GLIDER_ASSIGN_OR_RETURN(auto type_raw, r.U8());
      e.type = static_cast<NodeType>(type_raw);
      resp.entries.push_back(std::move(e));
    }
    return resp;
  }
};

// Response to kListServers: every server registered with the metadata
// server, so monitoring tools (ClusterMonitor, glider_top) can discover
// the whole cluster from the one address they are given. The metadata
// server itself is not in the list (it has no RegisterServer entry); the
// caller already knows its address.
struct ListServersResponse {
  struct Entry {
    ServerId id = 0;
    std::string address;
    StorageClassId storage_class = kDefaultClass;
    std::uint32_t num_blocks = 0;   // 0 for active servers
    std::uint32_t used_blocks = 0;  // blocks currently allocated
  };
  std::vector<Entry> servers;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(static_cast<std::uint32_t>(servers.size()));
    for (const auto& s : servers) {
      w.PutU32(s.id);
      w.PutString(s.address);
      w.PutU32(s.storage_class);
      w.PutU32(s.num_blocks);
      w.PutU32(s.used_blocks);
    }
    return std::move(w).Finish();
  }
  static Result<ListServersResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    ListServersResponse resp;
    GLIDER_ASSIGN_OR_RETURN(auto n, r.U32());
    resp.servers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      GLIDER_ASSIGN_OR_RETURN(e.id, r.U32());
      GLIDER_ASSIGN_OR_RETURN(e.address, r.String());
      GLIDER_ASSIGN_OR_RETURN(e.storage_class, r.U32());
      GLIDER_ASSIGN_OR_RETURN(e.num_blocks, r.U32());
      GLIDER_ASSIGN_OR_RETURN(e.used_blocks, r.U32());
      resp.servers.push_back(std::move(e));
    }
    return resp;
  }
};

// ---- storage server requests ------------------------------------------------

struct WriteBlockRequest {
  std::uint32_t block = 0;
  std::uint32_t offset = 0;
  Buffer data;

  std::size_t WireBytes() const { return 4 + 4 + 4 + data.size(); }

  void Put(BinaryWriter& w) const {
    w.PutU32(block);
    w.PutU32(offset);
    w.PutBytes(data.span());
  }
  Buffer Encode() const {
    BinaryWriter w(WireBytes());
    Put(w);
    return std::move(w).Finish();
  }
  // Hot-path encode: chunk-sized payload storage drawn from `pool` and
  // recycled once the request frame is off the wire.
  Buffer Encode(BufferPool& pool) const {
    BinaryWriter w(pool, WireBytes());
    Put(w);
    return std::move(w).Finish();
  }
  static Result<WriteBlockRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    WriteBlockRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.block, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.offset, r.U32());
    GLIDER_ASSIGN_OR_RETURN(auto data, r.Bytes());
    req.data = Buffer(data.data(), data.size());
    return req;
  }
  // Zero-copy decode: `data` becomes a slice of the request payload.
  static Result<WriteBlockRequest> Decode(const Buffer& b) {
    BinaryReader r(b.span());
    WriteBlockRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.block, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.offset, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.data, GetBytesSlice(r, b));
    return req;
  }
};

struct ReadBlockRequest {
  std::uint32_t block = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(block);
    w.PutU32(offset);
    w.PutU32(length);
    return std::move(w).Finish();
  }
  static Result<ReadBlockRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    ReadBlockRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.block, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.offset, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.length, r.U32());
    return req;
  }
};

struct ResetBlockRequest {
  std::uint32_t block = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(block);
    return std::move(w).Finish();
  }
  static Result<ResetBlockRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    ResetBlockRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.block, r.U32());
    return req;
  }
};

}  // namespace glider::nk
