// Unit tests of the network plane: message framing, both transports,
// deferred responders, link shaping, metric attribution, and the typed
// service router / client stub.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <thread>

#include "common/serde.h"
#include "common/stopwatch.h"
#include "net/inproc_transport.h"
#include "net/rpc_client.h"
#include "net/service_router.h"
#include "net/tcp_transport.h"

namespace glider::net {
namespace {

// ---- Message framing --------------------------------------------------------

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message m;
  m.opcode = 7;
  m.status = StatusCode::kNotFound;
  m.request_id = 0xCAFEBABE12345678ull;
  m.payload = Buffer::FromString("payload-bytes");

  auto decoded = Message::Decode(m.Encode().span());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->opcode, 7);
  EXPECT_EQ(decoded->status, StatusCode::kNotFound);
  EXPECT_EQ(decoded->request_id, m.request_id);
  EXPECT_EQ(decoded->payload, m.payload);
}

TEST(MessageTest, DecodeRejectsTruncatedFrame) {
  Message m;
  m.payload = Buffer::FromString("0123456789");
  Buffer frame = m.Encode();
  auto decoded = Message::Decode(ByteSpan(frame.data(), frame.size() - 4));
  EXPECT_FALSE(decoded.ok());
}

TEST(MessageTest, ErrorResponseCarriesStatus) {
  Message req;
  req.opcode = 3;
  req.request_id = 55;
  const Message resp = ErrorResponse(req, Status::Timeout("slow"));
  EXPECT_EQ(resp.request_id, 55u);
  auto result = ToResult(resp);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(result.status().message(), "slow");
}

// ---- Transports (parameterized) ---------------------------------------------

// Echo service: returns the payload; opcode 99 responds from a detached
// thread after a delay (deferred responder); opcode 98 never responds
// (dropped responder).
class EchoService : public Service {
 public:
  void Handle(Message request, Responder responder) override {
    if (request.opcode == 99) {
      std::thread([request, responder]() mutable {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        responder.SendOk(request, Buffer::FromString("deferred"));
      }).detach();
      return;
    }
    if (request.opcode == 98) {
      return;  // drop: transport must fail the call, not hang it
    }
    ++calls;
    responder.SendOk(request, std::move(request.payload));
  }
  std::atomic<int> calls{0};
};

class TransportTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      transport_ = std::make_unique<TcpTransport>(4);
    } else {
      transport_ = std::make_unique<InProcTransport>(4);
    }
    service_ = std::make_shared<EchoService>();
    auto listener = transport_->Listen("", service_);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).value();
  }

  std::unique_ptr<Transport> transport_;
  std::shared_ptr<EchoService> service_;
  std::unique_ptr<Listener> listener_;
};

TEST_P(TransportTest, EchoRoundTrip) {
  auto conn = transport_->Connect(listener_->address(), nullptr);
  ASSERT_TRUE(conn.ok());
  auto result = (*conn)->CallSync(1, Buffer::FromString("ping"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToString(), "ping");
}

TEST_P(TransportTest, ManyPipelinedCallsComplete) {
  auto conn = transport_->Connect(listener_->address(), nullptr);
  ASSERT_TRUE(conn.ok());
  std::vector<std::future<Result<Message>>> futures;
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.opcode = 1;
    m.payload = Buffer::FromString(std::to_string(i));
    futures.push_back((*conn)->Call(std::move(m)));
  }
  for (int i = 0; i < 200; ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->payload.ToString(), std::to_string(i));
  }
  EXPECT_EQ(service_->calls.load(), 200);
}

TEST_P(TransportTest, DeferredResponderWorks) {
  auto conn = transport_->Connect(listener_->address(), nullptr);
  ASSERT_TRUE(conn.ok());
  auto result = (*conn)->CallSync(99, Buffer{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "deferred");
}

TEST_P(TransportTest, ConcurrentClients) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto conn = transport_->Connect(listener_->address(), nullptr);
      ASSERT_TRUE(conn.ok());
      for (int i = 0; i < 50; ++i) {
        auto result = (*conn)->CallSync(1, Buffer::FromString("x"));
        ASSERT_TRUE(result.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(service_->calls.load(), kClients * 50);
}

TEST_P(TransportTest, ConnectToUnknownAddressFails) {
  auto conn = transport_->Connect(GetParam() ? "127.0.0.1:1" : "inproc://nope",
                                  nullptr);
  if (conn.ok()) {
    // TCP may connect-refuse on Call instead of Connect on some systems.
    auto result = (*conn)->CallSync(1, Buffer{});
    EXPECT_FALSE(result.ok());
  } else {
    EXPECT_FALSE(conn.ok());
  }
}

TEST_P(TransportTest, LargePayloadRoundTrip) {
  auto conn = transport_->Connect(listener_->address(), nullptr);
  ASSERT_TRUE(conn.ok());
  Buffer big(4 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big.data()[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto result = (*conn)->CallSync(1, Buffer(big.data(), big.size()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, big);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

// Dropped responders must fail the call (in-process transport guarantees
// this; TCP clients would see it as a connection-level timeout in a real
// deployment, so the guarantee is inproc-only).
TEST(InProcTransportTest, DroppedResponderFailsCall) {
  InProcTransport transport(2);
  auto service = std::make_shared<EchoService>();
  auto listener = transport.Listen("", service);
  ASSERT_TRUE(listener.ok());
  auto conn = transport.Connect((*listener)->address(), nullptr);
  ASSERT_TRUE(conn.ok());
  auto result = (*conn)->CallSync(98, Buffer{});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(InProcTransportTest, AddressCollisionRejected) {
  InProcTransport transport(1);
  auto service = std::make_shared<EchoService>();
  auto l1 = transport.Listen("inproc://same", service);
  ASSERT_TRUE(l1.ok());
  auto l2 = transport.Listen("inproc://same", service);
  EXPECT_EQ(l2.status().code(), StatusCode::kAlreadyExists);
  // Address is reusable after the listener goes away.
  l1->reset();
  auto l3 = transport.Listen("inproc://same", service);
  EXPECT_TRUE(l3.ok());
}

// ---- TCP batching: torn frames, zero-copy bypass ---------------------------

// Serializes a frame the way the transport's send side does: 40-byte header
// followed by the raw payload bytes.
std::vector<std::uint8_t> WireFrame(std::uint16_t opcode,
                                    std::uint64_t request_id,
                                    const std::string& payload) {
  Message m;
  m.opcode = opcode;
  m.request_id = request_id;
  m.payload = Buffer::FromString(payload);
  std::uint8_t header[kFrameHeaderSize];
  m.EncodeHeader(header);
  std::vector<std::uint8_t> out(header, header + kFrameHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// Raw client socket speaking the frame protocol directly, so tests control
// exactly how bytes land on the server's recv boundary. Performs the wire
// preamble exchange on connect (unless told not to, for handshake tests).
class RawClient {
 public:
  explicit RawClient(const std::string& address, bool send_preamble = true) {
    const auto colon = address.rfind(':');
    const std::string host = address.substr(0, colon);
    const int port = std::atoi(address.c_str() + colon + 1);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (connected_ && send_preamble) {
      std::uint8_t preamble[kWirePreambleSize];
      EncodeWirePreamble(preamble);
      SendBytes(preamble, sizeof(preamble));
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void SendBytes(const std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd_, data + off, size - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Reads one response frame (responses may arrive coalesced or in any
  // completion order; the caller matches by request id). The server's own
  // preamble is consumed and checked before the first frame.
  void ReadResponse(std::uint64_t& request_id, std::string& payload) {
    if (!server_preamble_read_) {
      std::uint8_t preamble[kWirePreambleSize];
      ASSERT_NO_FATAL_FAILURE(ReadExactly(preamble, sizeof(preamble)));
      ASSERT_TRUE(CheckWirePreamble(preamble).ok());
      server_preamble_read_ = true;
    }
    std::uint8_t header[kFrameHeaderSize];
    ASSERT_NO_FATAL_FAILURE(ReadExactly(header, sizeof(header)));
    request_id = 0;
    for (int i = 0; i < 8; ++i) {
      request_id |= static_cast<std::uint64_t>(header[4 + i]) << (8 * i);
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(header[kFrameHeaderSize - 4 + i])
             << (8 * i);
    }
    payload.resize(len);
    if (len > 0) {
      ASSERT_NO_FATAL_FAILURE(
          ReadExactly(reinterpret_cast<std::uint8_t*>(payload.data()), len));
    }
  }

  // Blocking read of up to `size` bytes; returns recv's result (0 = the
  // server closed the connection).
  ssize_t ReadRaw(std::uint8_t* data, std::size_t size) {
    for (;;) {
      const ssize_t n = ::recv(fd_, data, size, 0);
      if (n < 0 && errno == EINTR) continue;
      return n;
    }
  }

 private:
  void ReadExactly(std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::recv(fd_, data + off, size - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  bool connected_ = false;
  bool server_preamble_read_ = false;
};

class TcpBatchingTest : public ::testing::Test {
 protected:
  void StartServer() {
    transport_ = std::make_unique<TcpTransport>(4);
    service_ = std::make_shared<EchoService>();
    auto listener = transport_->Listen("", service_);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).value();
  }

  std::unique_ptr<TcpTransport> transport_;
  std::shared_ptr<EchoService> service_;
  std::unique_ptr<Listener> listener_;
};

// A batch of frames dribbled onto the wire in 7-byte writes lands torn
// across every recv boundary the decoder has: each partial must be
// reassembled and every frame answered.
TEST_F(TcpBatchingTest, TornFramesAcrossRecvBoundaries) {
  StartServer();
  RawClient client(listener_->address());
  ASSERT_TRUE(client.connected());

  std::map<std::uint64_t, std::string> expected;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const std::string payload = "torn-payload-" + std::to_string(id);
    expected[id] = payload;
    const auto frame = WireFrame(/*opcode=*/1, id, payload);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - off);
    ASSERT_NO_FATAL_FAILURE(client.SendBytes(wire.data() + off, n));
    // Yield so the server's reader observes many short recvs, not one big
    // buffered one.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::map<std::uint64_t, std::string> got;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t id = 0;
    std::string payload;
    ASSERT_NO_FATAL_FAILURE(client.ReadResponse(id, payload));
    got[id] = payload;
  }
  EXPECT_EQ(got, expected);
}

// One send carrying many whole frames: the decode loop must drain them all
// from the buffered recv (the server dispatches them as one doorbell batch).
TEST_F(TcpBatchingTest, ManyFramesInOneSendAllAnswered) {
  StartServer();
  RawClient client(listener_->address());
  ASSERT_TRUE(client.connected());

  std::vector<std::uint8_t> wire;
  constexpr int kFrames = 40;
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    const auto frame = WireFrame(1, id, "x" + std::to_string(id));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_NO_FATAL_FAILURE(client.SendBytes(wire.data(), wire.size()));
  std::map<std::uint64_t, std::string> got;
  for (int i = 0; i < kFrames; ++i) {
    std::uint64_t id = 0;
    std::string payload;
    ASSERT_NO_FATAL_FAILURE(client.ReadResponse(id, payload));
    got[id] = payload;
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    EXPECT_EQ(got[id], "x" + std::to_string(id));
  }
}

// Corked burst interleaving small frames with payloads above the 16 KiB
// inline-copy threshold: the large ones ride the same flush as their own
// zero-copy iovecs and every byte must survive the gather.
TEST_F(TcpBatchingTest, InterleavedLargeZeroCopyFrames) {
  StartServer();
  auto conn = transport_->Connect(listener_->address(), nullptr);
  ASSERT_TRUE(conn.ok());

  std::vector<Buffer> payloads;
  for (int i = 0; i < 8; ++i) {
    const std::size_t size = (i % 2 == 0) ? 64 : 128 * 1024;
    Buffer b(size);
    for (std::size_t j = 0; j < size; ++j) {
      b.data()[j] = static_cast<std::uint8_t>(i * 31 + j * 7);
    }
    payloads.push_back(std::move(b));
  }
  std::vector<std::future<Result<Message>>> futures;
  (*conn)->Cork();
  for (const Buffer& p : payloads) {
    Message m;
    m.opcode = 1;
    m.payload = p;
    futures.push_back((*conn)->Call(std::move(m)));
  }
  (*conn)->Uncork();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->payload, payloads[i]) << "frame " << i;
  }
}

// ---- Wire preamble (version handshake) --------------------------------------

// A peer that never sends the 8-byte preamble (e.g. an old node whose
// frames used the 32-byte header) is rejected at connection setup: the
// server closes the socket instead of misreading payload_len at the wrong
// offset and hanging on a garbage frame length.
TEST_F(TcpBatchingTest, PeerWithoutPreambleIsRejected) {
  StartServer();
  RawClient client(listener_->address(), /*send_preamble=*/false);
  ASSERT_TRUE(client.connected());
  // Looks like the start of an old-format frame, not a preamble.
  const auto frame = WireFrame(/*opcode=*/1, /*request_id=*/1, "stale");
  ASSERT_NO_FATAL_FAILURE(client.SendBytes(frame.data(), frame.size()));
  // The server sends its own preamble, then detects the mismatch and
  // closes; drain until EOF instead of ever seeing a response frame.
  std::uint8_t buf[256];
  ssize_t n;
  while ((n = client.ReadRaw(buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0);  // clean close, no frames
}

// A future wire version is refused with a version-mismatch error rather
// than being misframed.
TEST_F(TcpBatchingTest, PeerWithFutureVersionIsRejected) {
  StartServer();
  RawClient client(listener_->address(), /*send_preamble=*/false);
  ASSERT_TRUE(client.connected());
  std::uint8_t preamble[kWirePreambleSize];
  EncodeWirePreamble(preamble);
  preamble[4] = static_cast<std::uint8_t>(kWireVersion + 1);
  ASSERT_NO_FATAL_FAILURE(client.SendBytes(preamble, sizeof(preamble)));
  std::uint8_t buf[256];
  ssize_t n;
  while ((n = client.ReadRaw(buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0);
}

TEST(WirePreambleTest, CheckReportsMagicAndVersionMismatch) {
  std::uint8_t good[kWirePreambleSize];
  EncodeWirePreamble(good);
  EXPECT_TRUE(CheckWirePreamble(good).ok());

  std::uint8_t bad_magic[kWirePreambleSize];
  EncodeWirePreamble(bad_magic);
  bad_magic[0] = 'X';
  const Status magic = CheckWirePreamble(bad_magic);
  EXPECT_EQ(magic.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(magic.message().find("magic"), std::string::npos);

  std::uint8_t bad_version[kWirePreambleSize];
  EncodeWirePreamble(bad_version);
  bad_version[4] = static_cast<std::uint8_t>(kWireVersion + 1);
  const Status version = CheckWirePreamble(bad_version);
  EXPECT_EQ(version.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(version.message().find("version mismatch"), std::string::npos)
      << version.ToString();
}

// ---- ServiceRouter / typed client stub --------------------------------------

struct PairRequest {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  Buffer Encode() const {
    BinaryWriter w;
    w.PutU32(a);
    w.PutU32(b);
    return std::move(w).Finish();
  }
  static Result<PairRequest> Decode(ByteSpan bytes) {
    BinaryReader r(bytes);
    PairRequest req;
    GLIDER_ASSIGN_OR_RETURN(req.a, r.U32());
    GLIDER_ASSIGN_OR_RETURN(req.b, r.U32());
    return req;
  }
};

struct SumResponse {
  std::uint64_t sum = 0;
  Buffer Encode() const {
    BinaryWriter w;
    w.PutU64(sum);
    return std::move(w).Finish();
  }
  static Result<SumResponse> Decode(ByteSpan bytes) {
    BinaryReader r(bytes);
    SumResponse resp;
    GLIDER_ASSIGN_OR_RETURN(resp.sum, r.U64());
    return resp;
  }
};

// Four routes exercising each router path: a typed struct response, a raw
// Buffer response, a handler error, and a deferred responder.
class MathService : public ServiceRouter {
 public:
  MathService() : ServiceRouter("math") {
    Route<PairRequest>(1, "Add", [](const PairRequest& req) -> Result<SumResponse> {
      return SumResponse{static_cast<std::uint64_t>(req.a) + req.b};
    });
    Route<PairRequest>(2, "EchoRaw", [](const PairRequest& req) -> Result<Buffer> {
      return Buffer::FromString(std::to_string(req.a));
    });
    Route<PairRequest>(3, "AlwaysFails", [](const PairRequest&) -> Result<Buffer> {
      return Status::WrongNodeType("teapot");
    });
    RouteDeferred<PairRequest>(
        4, "AddLater",
        [](PairRequest req, Message request, Responder responder) {
          std::thread([req, request, responder = std::move(responder)]() mutable {
            responder.SendOk(request, SumResponse{req.a + req.b}.Encode());
          }).detach();
        });
  }
};

class ServiceRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_shared<MathService>();
    auto listener = transport_.Listen("", service_);
    ASSERT_TRUE(listener.ok());
    listener_ = std::move(listener).value();
    auto conn = transport_.Connect(listener_->address(), nullptr);
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(conn).value();
  }

  InProcTransport transport_{2};
  std::shared_ptr<MathService> service_;
  std::unique_ptr<Listener> listener_;
  std::shared_ptr<Connection> conn_;
};

TEST_F(ServiceRouterTest, TypedRoundTripThroughClientStub) {
  auto resp = Call<SumResponse>(*conn_, 1, PairRequest{40, 2});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->sum, 42u);
}

TEST_F(ServiceRouterTest, BufferResponsePassesThrough) {
  auto raw = conn_->CallSync(2, PairRequest{123, 0}.Encode());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->ToString(), "123");
}

TEST_F(ServiceRouterTest, HandlerErrorTravelsBack) {
  auto resp = Call<SumResponse>(*conn_, 3, PairRequest{});
  EXPECT_EQ(resp.status().code(), StatusCode::kWrongNodeType);
  EXPECT_EQ(resp.status().message(), "teapot");
}

TEST_F(ServiceRouterTest, DeferredRouteRespondsFromAnotherThread) {
  auto resp = Call<SumResponse>(*conn_, 4, PairRequest{20, 22});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->sum, 42u);
}

TEST_F(ServiceRouterTest, DecodeFailureNamesTheOpcode) {
  // A 3-byte payload cannot hold two u32 fields.
  auto result = conn_->CallSync(1, Buffer::FromString("xyz"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("Add"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("bad request"), std::string::npos);
}

TEST_F(ServiceRouterTest, UnroutedOpcodeIsUnimplemented) {
  auto result = conn_->CallSync(9, Buffer{});
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find("math"), std::string::npos)
      << result.status().ToString();
}

TEST_F(ServiceRouterTest, OpNameLookup) {
  EXPECT_STREQ(service_->OpName(1), "Add");
  EXPECT_EQ(service_->OpName(9), nullptr);
  EXPECT_EQ(service_->OpName(63), nullptr);
}

TEST_F(ServiceRouterTest, ManagementOpsAreRoutedByTheBase) {
  // MathService registered none of them: the ServiceRouter base routes the
  // management ops in the same table, through the same decode path.
  int management_ops = 0;
  for (std::uint16_t op = 0; op < 64; ++op) {
    if (!IsManagementOp(op)) continue;
    ++management_ops;
    ASSERT_NE(service_->OpName(op), nullptr) << op;
    EXPECT_STREQ(service_->OpName(op), RpcOpName(op));
  }
  EXPECT_EQ(management_ops, 7);
  auto snapshot = Call<NodeSnapshot>(*conn_, kNodeSnapshot, DumpRequest{});
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // An empty payload is not a DumpRequest: the router's decode error
  // names the op, as for any service opcode.
  auto bad = conn_->CallSync(kNodeSnapshot, Buffer{});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("NodeSnapshot: bad request"),
            std::string::npos)
      << bad.status().ToString();
}

// ---- Link model --------------------------------------------------------------

TEST(LinkModelTest, ShapesBandwidthAndCountsBytes) {
  auto metrics = std::make_shared<Metrics>();
  // 10 MB/s with a 1 MiB burst: 2 MiB takes >= ~100 ms.
  LinkModel link(LinkClass::kFaas, 10'000'000, std::chrono::microseconds(0),
                 metrics);
  Stopwatch timer;
  link.OnSend(2 << 20);
  link.OnSend(1);
  EXPECT_GT(timer.Seconds(), 0.08);
  EXPECT_EQ(metrics->BytesSent(LinkClass::kFaas), (2u << 20) + 1);
  EXPECT_EQ(metrics->Operations(LinkClass::kFaas), 2u);
}

TEST(LinkModelTest, LatencyAppliedOnDeliveryNotOnSend) {
  auto metrics = std::make_shared<Metrics>();
  auto link = std::make_shared<LinkModel>(LinkClass::kControl, 0,
                                          std::chrono::microseconds(20'000),
                                          metrics);
  // OnSend itself must not pay propagation latency (it would serialize
  // pipelined ops)...
  Stopwatch send_timer;
  link->OnSend(1);
  EXPECT_LT(send_timer.Seconds(), 0.01);

  // ...but an end-to-end call over the in-process transport does.
  InProcTransport transport(2);
  auto service = std::make_shared<EchoService>();
  auto listener = transport.Listen("", service);
  ASSERT_TRUE(listener.ok());
  auto conn = transport.Connect((*listener)->address(), link);
  ASSERT_TRUE(conn.ok());
  Stopwatch rt_timer;
  ASSERT_TRUE((*conn)->CallSync(1, Buffer{}).ok());
  EXPECT_GT(rt_timer.Seconds(), 0.015);

  // Pipelined calls overlap their latencies: 8 calls in flight take far
  // less than 8 serial round-trips.
  Stopwatch pipe_timer;
  std::vector<std::future<Result<Message>>> futures;
  for (int i = 0; i < 8; ++i) {
    Message m;
    m.opcode = 1;
    futures.push_back((*conn)->Call(std::move(m)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_LT(pipe_timer.Seconds(), 8 * 0.02 * 0.8);
}

TEST(LinkModelTest, ShapedEndToEndTransferIsSlower) {
  InProcTransport transport(2);
  auto service = std::make_shared<EchoService>();
  auto listener = transport.Listen("", service);
  ASSERT_TRUE(listener.ok());

  auto metrics = std::make_shared<Metrics>();
  auto fast = transport.Connect((*listener)->address(),
                                LinkModel::Unshaped(LinkClass::kFaas, metrics));
  auto slow = transport.Connect(
      (*listener)->address(),
      std::make_shared<LinkModel>(LinkClass::kFaas, 5'000'000,
                                  std::chrono::microseconds(0), metrics));
  ASSERT_TRUE(fast.ok() && slow.ok());

  const Buffer payload(1 << 20);
  Stopwatch t1;
  ASSERT_TRUE((*fast)->CallSync(1, Buffer(payload.data(), payload.size())).ok());
  const double fast_s = t1.Seconds();
  Stopwatch t2;
  ASSERT_TRUE((*slow)->CallSync(1, Buffer(payload.data(), payload.size())).ok());
  const double slow_s = t2.Seconds();
  EXPECT_GT(slow_s, fast_s * 2);
}

}  // namespace
}  // namespace glider::net
