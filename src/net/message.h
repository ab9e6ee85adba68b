// Wire message: the unit of every RPC in the system.
//
// Frame layout (little-endian):
//   u16 opcode | u16 status | u64 request_id | u64 trace_id | u64 span_id |
//   u64 principal | u32 payload_len | payload
//
// Requests carry status=0; responses echo the request id and report the
// outcome in `status`. Payload encoding is per-opcode (see the *Protocol*
// headers of each server).
//
// trace_id/span_id carry the caller's trace context across the wire
// (DESIGN.md "Observability"): span_id is the client-side RPC span, which
// the server installs as the parent of its handler span. Both are 0 when no
// trace is active.
//
// `principal` is the caller's tenant/workload id (DESIGN.md "Resource
// attribution"): stamped from the client's PrincipalScope, installed by the
// server for the handler's duration so downstream work is charged to the
// right tenant. 0 = unattributed.
//
// The frame header itself carries no magic or version — instead every TCP
// connection opens with an 8-byte preamble ("GLDR" + u32 wire version,
// sent by both sides before any frame) so a mixed-version peer fails fast
// with a clear mismatch error instead of misreading payload_len at the
// wrong offset and misframing. Bump kWireVersion whenever the header
// layout or an opcode's meaning changes (v2: the header grew from 32 to 40
// bytes when `principal` was added; v3: the management opcodes moved from
// 990-998 to 56-62; v4: a stream write frame carries 1..N chunks and the
// batch write opcode 37 is retired).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/status.h"

namespace glider::net {

inline constexpr std::size_t kFrameHeaderSize = 2 + 2 + 8 + 8 + 8 + 8 + 4;

// Connection preamble: 4 magic bytes + u32 wire version (little-endian),
// exchanged once per TCP connection before the first frame in either
// direction. v4 = the 40-byte header with the `principal` field, the
// management opcodes at 56-62, and multi-chunk stream write frames.
inline constexpr std::size_t kWirePreambleSize = 8;
inline constexpr std::uint8_t kWireMagic[4] = {'G', 'L', 'D', 'R'};
inline constexpr std::uint32_t kWireVersion = 4;

inline void EncodeWirePreamble(std::uint8_t (&out)[kWirePreambleSize]) {
  for (int i = 0; i < 4; ++i) out[i] = kWireMagic[i];
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<std::uint8_t>(kWireVersion >> (8 * i));
  }
}

inline Status CheckWirePreamble(const std::uint8_t* preamble) {
  for (int i = 0; i < 4; ++i) {
    if (preamble[i] != kWireMagic[i]) {
      return Status::InvalidArgument(
          "not a glider frame stream (bad preamble magic)");
    }
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(preamble[4 + i]) << (8 * i);
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "wire protocol version mismatch: peer speaks v" +
        std::to_string(version) + ", this node speaks v" +
        std::to_string(kWireVersion));
  }
  return Status::Ok();
}

struct Message {
  std::uint16_t opcode = 0;
  StatusCode status = StatusCode::kOk;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;   // 0 = untraced
  std::uint64_t span_id = 0;    // caller's RPC span (server-side parent)
  std::uint64_t principal = 0;  // tenant/workload id; 0 = unattributed
  Buffer payload;

  std::size_t WireSize() const { return kFrameHeaderSize + payload.size(); }

  // Serializes the full frame (header + payload) into one buffer. NOT used
  // on the transport hot path — TCP emits the header from a stack array and
  // gathers the payload with writev (see EncodeHeader) — but kept for tests
  // and tools that want a self-contained frame.
  Buffer Encode() const {
    BinaryWriter w(WireSize());
    w.PutU16(opcode);
    w.PutU16(static_cast<std::uint16_t>(status));
    w.PutU64(request_id);
    w.PutU64(trace_id);
    w.PutU64(span_id);
    w.PutU64(principal);
    w.PutBytes(payload.span());
    return std::move(w).Finish();
  }

  // Serializes just the 40-byte frame header (including the payload length)
  // into `out`, for scatter-gather emission alongside the payload.
  void EncodeHeader(std::uint8_t (&out)[kFrameHeaderSize]) const {
    auto put16 = [](std::uint8_t* p, std::uint16_t v) {
      p[0] = static_cast<std::uint8_t>(v);
      p[1] = static_cast<std::uint8_t>(v >> 8);
    };
    auto put32 = [](std::uint8_t* p, std::uint32_t v) {
      for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    auto put64 = [](std::uint8_t* p, std::uint64_t v) {
      for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    put16(out, opcode);
    put16(out + 2, static_cast<std::uint16_t>(status));
    put64(out + 4, request_id);
    put64(out + 12, trace_id);
    put64(out + 20, span_id);
    put64(out + 28, principal);
    put32(out + 36, static_cast<std::uint32_t>(payload.size()));
  }

  // Decodes from a borrowed view; the payload is copied out of the frame.
  static Result<Message> Decode(ByteSpan frame) {
    BinaryReader r(frame);
    Message m;
    GLIDER_ASSIGN_OR_RETURN(m.opcode, r.U16());
    GLIDER_ASSIGN_OR_RETURN(auto status_raw, r.U16());
    m.status = static_cast<StatusCode>(status_raw);
    GLIDER_ASSIGN_OR_RETURN(m.request_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.trace_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.span_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.principal, r.U64());
    GLIDER_ASSIGN_OR_RETURN(auto payload, r.Bytes());
    m.payload = Buffer(payload.data(), payload.size());
    return m;
  }

  // Adopts an owned frame: the payload becomes a zero-copy slice sharing
  // the frame's storage. The hot receive path for whole-frame buffers.
  static Result<Message> Decode(Buffer frame) {
    BinaryReader r(frame.span());
    Message m;
    GLIDER_ASSIGN_OR_RETURN(m.opcode, r.U16());
    GLIDER_ASSIGN_OR_RETURN(auto status_raw, r.U16());
    m.status = static_cast<StatusCode>(status_raw);
    GLIDER_ASSIGN_OR_RETURN(m.request_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.trace_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.span_id, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.principal, r.U64());
    GLIDER_ASSIGN_OR_RETURN(m.payload, GetBytesSlice(r, frame));
    return m;
  }
};

// Helpers for building responses.
inline Message OkResponse(const Message& req, Buffer payload = {}) {
  Message m;
  m.opcode = req.opcode;
  m.status = StatusCode::kOk;
  m.request_id = req.request_id;
  m.trace_id = req.trace_id;
  m.span_id = req.span_id;
  m.principal = req.principal;
  m.payload = std::move(payload);
  return m;
}

inline Message ErrorResponse(const Message& req, const Status& status) {
  Message m;
  m.opcode = req.opcode;
  m.status = status.code();
  m.request_id = req.request_id;
  m.trace_id = req.trace_id;
  m.span_id = req.span_id;
  m.principal = req.principal;
  m.payload = Buffer::FromString(status.message());
  return m;
}

// The request of opcodes that take no arguments (kListServers, kHeartbeat,
// kHealthDump).
struct EmptyRequest {
  Buffer Encode() const { return {}; }
  static Result<EmptyRequest> Decode(ByteSpan) { return EmptyRequest{}; }
};

// Converts a response message into Result<Buffer> (payload on success).
inline Result<Buffer> ToResult(Message response) {
  if (response.status == StatusCode::kOk) {
    return std::move(response.payload);
  }
  return Status(response.status, response.payload.ToString());
}

}  // namespace glider::net
