// Wire protocol of the active storage server (opcodes 30..49).
//
// Stream data operations carry a sequence number: network workers may pick
// up two operations of one stream concurrently, and the per-stream channel
// releases them in sequence order so the byte stream stays ordered (the
// paper's "each method execution is assigned an id and sequence number",
// §5).
#pragma once

#include <cstdint>
#include <string>

#include "common/serde.h"
#include "nodekernel/types.h"

namespace glider::core {

enum Opcode : std::uint16_t {
  kActionCreate = 30,
  kActionDelete = 31,
  kStreamOpen = 32,
  kStreamWrite = 33,
  kStreamRead = 34,
  kStreamClose = 35,
  kActionStat = 36,
};

enum class StreamMode : std::uint8_t { kRead = 0, kWrite = 1 };

struct ActionCreateRequest {
  std::uint32_t slot = 0;
  std::string action_type;
  bool interleave = false;
  Buffer config;  // opaque creation parameters, delivered to onCreate

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(slot);
    w.PutString(action_type);
    w.PutBool(interleave);
    w.PutBytes(config.span());
    return std::move(w).Finish();
  }
  static Result<ActionCreateRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    ActionCreateRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.slot, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.action_type, r.String());
    GLIDER_ASSIGN_OR_RETURN(req.interleave, r.Bool());
    GLIDER_ASSIGN_OR_RETURN(auto config, r.Bytes());
    req.config = Buffer(config.data(), config.size());
    return req;
  }
  static Result<ActionCreateRequest> Decode(const Buffer& b) {
    BinaryReader r(b.span());
    ActionCreateRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.slot, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.action_type, r.String());
    GLIDER_ASSIGN_OR_RETURN(req.interleave, r.Bool());
    GLIDER_ASSIGN_OR_RETURN(req.config, GetBytesSlice(r, b));
    return req;
  }
};

struct SlotRequest {  // kActionDelete, kActionStat
  std::uint32_t slot = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(slot);
    return std::move(w).Finish();
  }
  static Result<SlotRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    SlotRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.slot, r.U32());
    return req;
  }
};

struct StreamOpenRequest {
  std::uint32_t slot = 0;
  StreamMode mode = StreamMode::kRead;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(slot);
    w.PutU8(static_cast<std::uint8_t>(mode));
    return std::move(w).Finish();
  }
  static Result<StreamOpenRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    StreamOpenRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.slot, r.U32());
    GLIDER_ASSIGN_OR_RETURN(auto mode_raw, r.U8());
    req.mode = static_cast<StreamMode>(mode_raw);
    return req;
  }
};

struct StreamOpenResponse {
  std::uint64_t stream_id = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(stream_id);
    return std::move(w).Finish();
  }
  static Result<StreamOpenResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    StreamOpenResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.stream_id, r.U64());
    return resp;
  }
};

// One stream write: N >= 1 contiguous stream operations (first_seq ..
// first_seq + chunks.size() - 1) in one frame, admitted to the stream
// channel under one lock with at most one wakeup and acknowledged once the
// LAST chunk is admitted. StoreClient::Options::write_batch_chunks sets N.
// The chunk count is implicit: decoders read length-prefixed chunks until
// the payload ends, so encoders stream chunks straight into the frame
// without backpatching a count, and a one-chunk frame is u64 stream_id,
// u64 seq, u32 length, bytes.
struct StreamWriteRequest {
  std::uint64_t stream_id = 0;
  std::uint64_t first_seq = 0;
  std::vector<Buffer> chunks;

  std::size_t WireBytes() const {
    std::size_t total = 8 + 8;
    for (const auto& c : chunks) total += 4 + c.size();
    return total;
  }

  Buffer Encode() const {
    BinaryWriter w(WireBytes());
    w.PutU64(stream_id);
    w.PutU64(first_seq);
    for (const auto& c : chunks) w.PutBytes(c.span());
    return std::move(w).Finish();
  }
  // Zero-copy decode: every chunk becomes a slice of the request payload,
  // riding the stream channel to the action without further copies.
  static Result<StreamWriteRequest> Decode(const Buffer& b) {
    BinaryReader r(b.span());
    StreamWriteRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.stream_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.first_seq, r.U64());
    do {
      GLIDER_ASSIGN_OR_RETURN(auto chunk, GetBytesSlice(r, b));
      req.chunks.push_back(std::move(chunk));
    } while (!r.AtEnd());
    return req;
  }
  static Result<StreamWriteRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    StreamWriteRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.stream_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.first_seq, r.U64());
    do {
      GLIDER_ASSIGN_OR_RETURN(auto chunk, r.Bytes());
      req.chunks.emplace_back(chunk.data(), chunk.size());
    } while (!r.AtEnd());
    return req;
  }
};

struct StreamReadRequest {
  std::uint64_t stream_id = 0;
  std::uint64_t seq = 0;  // readers pipeline requests; served in order

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(stream_id);
    w.PutU64(seq);
    return std::move(w).Finish();
  }
  static Result<StreamReadRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    StreamReadRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.stream_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.seq, r.U64());
    return req;
  }
};

// A write stream's close carries the stream's last 0..N chunks in the write
// frame's layout: u64 stream_id, u64 seq (that of the first tail chunk),
// then a u32 length and the bytes of each chunk. The chunks take seq ..
// seq + N - 1 and the end-of-stream takes seq + N. With no chunk it is the
// 16-byte close a reader sends.
struct StreamCloseRequest {
  std::uint64_t stream_id = 0;
  std::uint64_t seq = 0;
  std::vector<Buffer> chunks;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(stream_id);
    w.PutU64(seq);
    for (const auto& c : chunks) w.PutBytes(c.span());
    return std::move(w).Finish();
  }
  // Zero-copy decode, as for StreamWriteRequest.
  static Result<StreamCloseRequest> Decode(const Buffer& b) {
    BinaryReader r(b.span());
    StreamCloseRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.stream_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.seq, r.U64());
    while (!r.AtEnd()) {
      GLIDER_ASSIGN_OR_RETURN(auto chunk, GetBytesSlice(r, b));
      req.chunks.push_back(std::move(chunk));
    }
    return req;
  }
  static Result<StreamCloseRequest> Decode(ByteSpan b) {
    BinaryReader r(b);
    StreamCloseRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.stream_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(req.seq, r.U64());
    while (!r.AtEnd()) {
      GLIDER_ASSIGN_OR_RETURN(auto chunk, r.Bytes());
      req.chunks.emplace_back(chunk.data(), chunk.size());
    }
    return req;
  }
};

struct ActionStatResponse {
  std::uint64_t state_bytes = 0;

  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(state_bytes);
    return std::move(w).Finish();
  }
  static Result<ActionStatResponse> Decode(ByteSpan b) {
    BinaryReader r(b);
    ActionStatResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.state_bytes, r.U64());
    return resp;
  }
};

}  // namespace glider::core
