// Typed RPC service layer: ServiceRouter maps opcodes to typed handlers so
// no server hand-rolls the Handle -> switch -> Decode -> handle -> Encode
// loop (DESIGN.md "Service layer & locking model").
//
// A server derives from ServiceRouter and registers its opcodes once at
// construction:
//
//   Route<LookupRequest>(kLookup, "Lookup",
//       [this](const LookupRequest& req) { return DoLookup(req); });
//
// The router owns the shared request plumbing:
//   * the management routes (rpc_obs.h: node snapshot, trace and profile
//     dumps, heartbeat, health board, event journal), registered by the
//     base in the same table as every service opcode,
//   * request decoding — preferring a zero-copy Decode(const Buffer&)
//     overload when the request type provides one,
//   * response encoding — handlers return Result<Resp> for any Resp with
//     Encode(), or Result<Buffer> for raw/zero-copy payloads,
//   * uniform error wrapping: decode failures carry the registered opcode
//     name; handler Status values travel back as error responses,
//   * opcode-name registration, so logs and error messages never show bare
//     opcode numbers.
//
// Handlers that complete asynchronously (the active server parks stream
// reads until an action produces data) register with RouteDeferred and
// receive the decoded request plus the raw Message/Responder pair.
//
// Dispatch is lock-free: the opcode table is written only during
// construction, before the service is listed on a transport.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "net/rpc_obs.h"
#include "net/transport.h"

namespace glider::net {

namespace detail {

// Decodes a request, preferring the zero-copy Decode(const Buffer&)
// overload (payload fields become slices of the frame) over the copying
// Decode(ByteSpan) one.
template <typename Req>
Result<Req> DecodeRequest(const Message& request) {
  if constexpr (requires { Req::Decode(request.payload); }) {
    return Req::Decode(request.payload);
  } else {
    return Req::Decode(request.payload.span());
  }
}

// Encodes a response struct; Buffer results pass through untouched so
// handlers can return zero-copy payload slices.
template <typename Resp>
Buffer EncodePayload(Resp&& resp) {
  if constexpr (std::is_same_v<std::decay_t<Resp>, Buffer>) {
    return std::forward<Resp>(resp);
  } else {
    return resp.Encode();
  }
}

}  // namespace detail

class ServiceRouter : public Service {
 public:
  // `service_name` labels unroutable-opcode errors and logs. `metrics`
  // (nullable) contributes the link-class counters to the node snapshot.
  explicit ServiceRouter(std::string service_name,
                         const Metrics* metrics = nullptr);

  void Handle(Message request, Responder responder) final;

  // Registered name of an opcode ("Lookup"), or nullptr when unrouted.
  const char* OpName(std::uint16_t opcode) const;
  const std::string& service_name() const { return service_name_; }

 protected:
  // Synchronous handler: Result<Resp> fn(const Req&). The router decodes,
  // invokes, encodes, and answers — including the error path.
  template <typename Req, typename Fn>
  void Route(std::uint16_t opcode, const char* op_name, Fn handler) {
    RegisterRaw(opcode, op_name,
                [op_name, handler = std::move(handler)](
                    Message request, Responder responder) {
                  auto req = detail::DecodeRequest<Req>(request);
                  if (!req.ok()) {
                    responder.SendError(request,
                                        DecodeError(op_name, req.status()));
                    return;
                  }
                  auto result = handler(*req);
                  if (!result.ok()) {
                    responder.SendError(request, result.status());
                    return;
                  }
                  responder.SendOk(
                      request, detail::EncodePayload(std::move(result).value()));
                });
  }

  // Deferred handler: void fn(Req, Message, Responder). The handler owns
  // the responder and may fulfil it later, from any thread.
  template <typename Req, typename Fn>
  void RouteDeferred(std::uint16_t opcode, const char* op_name, Fn handler) {
    RegisterRaw(opcode, op_name,
                [op_name, handler = std::move(handler)](
                    Message request, Responder responder) {
                  auto req = detail::DecodeRequest<Req>(request);
                  if (!req.ok()) {
                    responder.SendError(request,
                                        DecodeError(op_name, req.status()));
                    return;
                  }
                  handler(std::move(req).value(), std::move(request),
                          std::move(responder));
                });
  }

  // Late metrics wiring for servers that build their Metrics after the
  // base-class constructor ran.
  void set_metrics(const Metrics* metrics) { metrics_ = metrics; }

 private:
  using RawHandler = std::function<void(Message, Responder)>;

  static Status DecodeError(const char* op_name, const Status& status);
  void RegisterRaw(std::uint16_t opcode, const char* op_name, RawHandler fn);
  void RouteManagementOps();

  // Every opcode lives below 64: the service protocols at 1-54, the
  // management ops at 56-62.
  static constexpr std::size_t kMaxOpcodes = 64;
  struct Entry {
    const char* name = nullptr;
    RawHandler fn;
  };

  std::string service_name_;
  const Metrics* metrics_;
  std::array<Entry, kMaxOpcodes> entries_{};
};

}  // namespace glider::net
