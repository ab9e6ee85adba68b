// Protocol robustness: decoding never crashes or over-reads on corrupted,
// truncated or adversarial payloads (sweep-style "fuzz lite" with
// deterministic mutations), and servers reject garbage cleanly.
#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "common/random.h"
#include "glider/client/action_node.h"
#include "glider/protocol.h"
#include "net/message.h"
#include "net/rpc_client.h"
#include "nodekernel/protocol.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

// Every prefix of a valid frame must decode-fail gracefully, never crash.
TEST(RobustnessTest, MessageDecodeAllTruncations) {
  net::Message m;
  m.opcode = 42;
  m.request_id = 77;
  m.payload = Buffer::FromString("some payload content here");
  const Buffer frame = m.Encode();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    auto decoded = net::Message::Decode(ByteSpan(frame.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << cut << " decoded";
  }
  EXPECT_TRUE(net::Message::Decode(frame.span()).ok());
}

TEST(RobustnessTest, MessageDecodeRandomBytes) {
  SplitMix64 rng(99);
  for (int round = 0; round < 200; ++round) {
    Buffer junk(rng.NextBelow(200));
    for (std::size_t i = 0; i < junk.size(); ++i) {
      junk.data()[i] = static_cast<std::uint8_t>(rng.Next());
    }
    // Must not crash; may or may not decode (random bytes can form a
    // valid tiny frame).
    (void)net::Message::Decode(junk.span());
  }
}

TEST(RobustnessTest, MessageDecodeBitFlips) {
  net::Message m;
  m.opcode = 7;
  m.payload = Buffer::FromString("abcdefgh");
  const Buffer frame = m.Encode();
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    Buffer mutated(frame.data(), frame.size());
    mutated.data()[byte] ^= 0xFF;
    auto decoded = net::Message::Decode(mutated.span());
    if (decoded.ok()) {
      // A flip in opcode/status/id decodes fine; payload length flips must
      // have been caught.
      EXPECT_LE(decoded->payload.size(), frame.size());
    }
  }
}

template <typename T>
void TruncationSweep(const Buffer& encoded) {
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    (void)T::Decode(ByteSpan(encoded.data(), cut));  // must not crash
  }
  EXPECT_TRUE(T::Decode(encoded.span()).ok());
}

TEST(RobustnessTest, ProtocolStructsSurviveTruncation) {
  {
    nk::CreateNodeRequest req;
    req.path = "/x/y/z";
    req.type = nk::NodeType::kAction;
    req.action_type = "some.action";
    req.config = Buffer::FromString("config-bytes");
    TruncationSweep<nk::CreateNodeRequest>(req.Encode());
  }
  {
    nk::NodeInfoResponse resp;
    resp.info.action_type = "t";
    resp.info.slot = {1, 2, "addr:1234"};
    TruncationSweep<nk::NodeInfoResponse>(resp.Encode());
  }
  {
    nk::WriteBlockRequest req;
    req.data = Buffer::FromString("0123456789");
    TruncationSweep<nk::WriteBlockRequest>(req.Encode());
  }
  {
    core::StreamWriteRequest req;
    req.stream_id = 9;
    req.first_seq = 3;
    req.chunks = {Buffer::FromString("abc")};
    TruncationSweep<core::StreamWriteRequest>(req.Encode());
    req.chunks.push_back(Buffer::FromString("defgh"));
    TruncationSweep<core::StreamWriteRequest>(req.Encode());
  }
  {
    core::StreamCloseRequest req;
    req.stream_id = 9;
    req.seq = 3;
    TruncationSweep<core::StreamCloseRequest>(req.Encode());
    req.chunks = {Buffer::FromString("abc")};
    TruncationSweep<core::StreamCloseRequest>(req.Encode());
    req.chunks.push_back(Buffer::FromString("defgh"));
    TruncationSweep<core::StreamCloseRequest>(req.Encode());
  }
  {
    core::ActionCreateRequest req;
    req.action_type = "x";
    req.config = Buffer::FromString("cfg");
    TruncationSweep<core::ActionCreateRequest>(req.Encode());
  }
}

// A one-chunk write frame keeps the single-chunk layout of wire v3, byte
// for byte: u64 stream_id, u64 seq, u32 length, then the bytes, all
// little-endian (20 + len bytes).
TEST(RobustnessTest, OneChunkWriteFrameKeepsItsLayout) {
  core::StreamWriteRequest req;
  req.stream_id = 0x0102030405060708;
  req.first_seq = 0x1112131415161718;
  req.chunks = {Buffer::FromString("abc")};
  const std::vector<std::uint8_t> expected = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // stream_id
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // seq
      0x03, 0x00, 0x00, 0x00,                          // length
      'a',  'b',  'c'};
  const Buffer frame = req.Encode();
  const std::uint8_t* bytes = frame.data();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes, bytes + frame.size()), expected);

  auto decoded = core::StreamWriteRequest::Decode(
      Buffer(expected.data(), expected.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stream_id, req.stream_id);
  EXPECT_EQ(decoded->first_seq, req.first_seq);
  ASSERT_EQ(decoded->chunks.size(), 1u);
  EXPECT_EQ(decoded->chunks.front().ToString(), "abc");
}

// A close that carries no chunk keeps the close layout of wire v4, byte for
// byte: u64 stream_id, u64 seq, little-endian (16 bytes). A reader's close
// and a writer's close on a frame boundary are this.
TEST(RobustnessTest, ZeroChunkCloseKeepsItsLayout) {
  core::StreamCloseRequest req;
  req.stream_id = 0x0102030405060708;
  req.seq = 0x1112131415161718;
  const std::vector<std::uint8_t> expected = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // stream_id
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11};  // seq
  const Buffer frame = req.Encode();
  const std::uint8_t* bytes = frame.data();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes, bytes + frame.size()), expected);

  auto decoded = core::StreamCloseRequest::Decode(
      Buffer(expected.data(), expected.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stream_id, req.stream_id);
  EXPECT_EQ(decoded->seq, req.seq);
  EXPECT_TRUE(decoded->chunks.empty());
}

// Live servers must answer malformed payloads with errors, not crash.
TEST(RobustnessTest, ServersRejectGarbagePayloads) {
  auto cluster = testing::MiniCluster::Start({});
  ASSERT_TRUE(cluster.ok());

  SplitMix64 rng(7);
  const std::vector<std::string> addresses = {
      (*cluster)->metadata_address(), (*cluster)->data(0).address(),
      (*cluster)->active(0).address()};
  const std::vector<std::uint16_t> opcodes = {
      nk::kCreateNode, nk::kLookup,       nk::kGetBlock,
      nk::kWriteBlock, nk::kReadBlock,    core::kActionCreate,
      core::kStreamOpen, core::kStreamWrite, core::kStreamRead};
  for (const auto& address : addresses) {
    auto conn = (*cluster)->transport().Connect(address, nullptr);
    ASSERT_TRUE(conn.ok());
    for (const std::uint16_t opcode : opcodes) {
      Buffer junk(rng.NextBelow(40));
      for (std::size_t i = 0; i < junk.size(); ++i) {
        junk.data()[i] = static_cast<std::uint8_t>(rng.Next());
      }
      auto result = (*conn)->CallSync(opcode, std::move(junk));
      // Either a clean decode error or (rarely) a valid-looking request
      // that fails on semantics; never a hang or crash.
      if (result.ok()) continue;
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
  // The cluster must still be fully functional afterwards.
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->CreateNode("/after", nk::NodeType::kFile).ok());
  EXPECT_TRUE((*client)->PutValue("/after_kv", AsBytes("v")).ok());
}

// Stream operations referencing unknown streams / slots fail cleanly.
TEST(RobustnessTest, UnknownStreamAndSlotIdsRejected) {
  auto cluster = testing::MiniCluster::Start({});
  ASSERT_TRUE(cluster.ok());
  auto conn =
      (*cluster)->transport().Connect((*cluster)->active(0).address(), nullptr);
  ASSERT_TRUE(conn.ok());

  core::StreamWriteRequest write;
  write.stream_id = 424242;
  write.chunks = {Buffer::FromString("x")};
  EXPECT_EQ((*conn)->CallSync(core::kStreamWrite, write.Encode())
                .status()
                .code(),
            StatusCode::kNotFound);

  core::StreamReadRequest read;
  read.stream_id = 424242;
  EXPECT_EQ(
      (*conn)->CallSync(core::kStreamRead, read.Encode()).status().code(),
      StatusCode::kNotFound);

  // A bare close of an unknown stream is an idempotent success; a close
  // carrying chunks fails like the write, since its chunks are lost.
  core::StreamCloseRequest close;
  close.stream_id = 424242;
  EXPECT_TRUE((*conn)->CallSync(core::kStreamClose, close.Encode()).ok());
  close.chunks = {Buffer::FromString("x")};
  EXPECT_EQ(
      (*conn)->CallSync(core::kStreamClose, close.Encode()).status().code(),
      StatusCode::kNotFound);

  core::StreamOpenRequest open;
  open.slot = 12345;
  EXPECT_FALSE((*conn)->CallSync(core::kStreamOpen, open.Encode()).ok());

  core::SlotRequest stat;
  stat.slot = 3;  // in range but empty
  EXPECT_EQ(
      (*conn)->CallSync(core::kActionStat, stat.Encode()).status().code(),
      StatusCode::kNotFound);
}

// A close whose chunks take a seq already admitted is refused whole: it
// fails at once, none of its chunks reaches the action, and its stream is
// aborted, so the slot's turn is freed for the next writer.
TEST(RobustnessTest, StaleCloseWithChunksIsRefusedAndFreesTheSlot) {
  workloads::RegisterWorkloadActions();
  auto cluster = testing::MiniCluster::Start({});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto node = core::ActionNode::Create(**client, "/stale", "glider.merge");
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  auto conn = (*cluster)->transport().Connect(node->info().slot.address,
                                              nullptr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  core::StreamOpenRequest open;
  open.slot = node->info().slot.block;
  open.mode = core::StreamMode::kWrite;
  auto opened =
      net::Call<core::StreamOpenResponse>(**conn, core::kStreamOpen, open);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  core::StreamWriteRequest write;
  write.stream_id = opened->stream_id;
  write.first_seq = 0;
  write.chunks = {Buffer::FromString("1,1\n")};
  ASSERT_TRUE(net::CallVoid(**conn, core::kStreamWrite, write).ok());

  core::StreamCloseRequest close;
  close.stream_id = opened->stream_id;
  close.seq = 0;  // already taken by the write
  close.chunks = {Buffer::FromString("5,100\n"), Buffer::FromString("6,1\n")};
  net::Message request;
  request.opcode = core::kStreamClose;
  request.payload = close.Encode();
  auto closed = (*conn)->Call(std::move(request));
  ASSERT_EQ(closed.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "the refused close was never answered";
  auto reply = closed.get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(net::ToResult(std::move(reply).value()).status().code(),
            StatusCode::kInvalidArgument);

  auto writer = node->OpenWriter();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Write("7,2\n").ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = node->OpenReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::string merged;
  while (true) {
    auto chunk = (*reader)->ReadChunk();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->empty()) break;
    merged += chunk->ToString();
  }
  EXPECT_TRUE((*reader)->Close().ok());
  EXPECT_EQ(merged, "1,1\n7,2\n");
}

}  // namespace
}  // namespace glider
