// TCP transport: real sockets on localhost (or any host), a reader thread
// per connection, and a network worker pool per listener. Used by
// integration tests and examples to demonstrate the system runs over a real
// network stack; the shaped in-process transport is used for the benches
// (see DESIGN.md §2).
//
// Wire format: each direction opens with the 8-byte preamble ("GLDR" +
// wire version — mixed-version peers fail fast instead of misframing),
// then a stream of frames: the fixed-size frame header (opcode, status,
// request id, trace context, principal, payload length — see
// net::kFrameHeaderSize in net/message.h) followed by the payload bytes;
// no separate outer length prefix.
//
// Both directions batch (DESIGN.md "Hot-path batching & wakeup"): a
// per-connection send coalescer gathers small frames into one sendmsg
// (large payloads ride along as their own zero-copy iovecs) and the receive
// side decodes every frame a single recv buffered, handing the server's
// worker pool a whole batch per doorbell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/link_model.h"
#include "net/transport.h"

namespace glider::net {

class TcpTransport : public Transport {
 public:
  // num_workers: handler threads per listener.
  explicit TcpTransport(std::size_t num_workers = 8);
  ~TcpTransport() override;

  // preferred_address: "host:port"; empty or port 0 picks a free port on
  // 127.0.0.1. The returned listener's address() reports the bound endpoint.
  Result<std::unique_ptr<Listener>> Listen(
      std::string preferred_address, std::shared_ptr<Service> service) override;

  Result<std::shared_ptr<Connection>> Connect(
      const std::string& address, std::shared_ptr<LinkModel> link) override;

 private:
  const std::size_t num_workers_;
};

}  // namespace glider::net
