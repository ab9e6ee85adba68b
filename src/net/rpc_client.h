// Typed client stubs, the caller-side half of the service layer
// (service_router.h): Call<Resp>(conn, opcode, req) encodes the request,
// performs the synchronous RPC, and decodes the response, so call sites in
// StoreClient/ActionNode/the FaaS invoker carry no per-call encode/decode
// boilerplate. Hot pipelined paths (file_streams.cc block I/O, ActionWriter
// chunking) stay on the raw async Connection::Call by design — they batch
// futures and reuse pooled encoders.
#pragma once

#include <type_traits>
#include <utility>

#include "net/transport.h"

namespace glider::net {

namespace detail {

template <typename Req>
Buffer EncodeRequest(const Req& req) {
  if constexpr (std::is_same_v<std::decay_t<Req>, Buffer>) {
    return req;
  } else {
    return req.Encode();
  }
}

template <typename Resp>
Result<Resp> DecodeResponse(Buffer payload) {
  if constexpr (std::is_same_v<Resp, Buffer>) {
    return payload;
  } else if constexpr (requires { Resp::Decode(payload); }) {
    return Resp::Decode(payload);  // zero-copy overload
  } else {
    return Resp::Decode(payload.span());
  }
}

}  // namespace detail

// One synchronous typed RPC: encode `req`, send, decode the response as
// Resp. Resp = Buffer returns the raw payload; response types with a
// zero-copy Decode(const Buffer&) overload keep their payload fields as
// slices of the response frame.
template <typename Resp, typename Req>
Result<Resp> Call(Connection& conn, std::uint16_t opcode, const Req& req) {
  GLIDER_ASSIGN_OR_RETURN(auto payload,
                          conn.CallSync(opcode, detail::EncodeRequest(req)));
  return detail::DecodeResponse<Resp>(std::move(payload));
}

// Typed RPC whose response carries no payload worth decoding.
template <typename Req>
Status CallVoid(Connection& conn, std::uint16_t opcode, const Req& req) {
  return conn.CallSync(opcode, detail::EncodeRequest(req)).status();
}

}  // namespace glider::net
