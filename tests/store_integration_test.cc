// End-to-end tests of the NodeKernel store: namespace operations, file
// streaming across block boundaries, KV/Table/Bag semantics, on both the
// in-process and the TCP transport.
#include <gtest/gtest.h>

#include <numeric>

#include "common/random.h"
#include "testing/cluster.h"

namespace glider {
namespace {

using testing::ClusterOptions;
using testing::MiniCluster;

class StoreIntegrationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.use_tcp = GetParam();
    options.data_servers = 2;
    options.blocks_per_server = 64;
    options.block_size = 64 * 1024;  // small blocks force chaining
    options.chunk_size = 24 * 1024;  // chunks not aligned to block size
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();
  }

  std::unique_ptr<MiniCluster> cluster_;
  std::unique_ptr<nk::StoreClient> client_;
};

TEST_P(StoreIntegrationTest, CreateLookupDelete) {
  auto created = client_->CreateNode("/a", nk::NodeType::kFile);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->type, nk::NodeType::kFile);

  auto found = client_->Lookup("/a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id, created->id);

  auto removed = client_->Delete("/a");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(client_->Lookup("/a").status().code(), StatusCode::kNotFound);
}

TEST_P(StoreIntegrationTest, WriteReadRoundTripAcrossBlocks) {
  ASSERT_TRUE(client_->CreateNode("/f", nk::NodeType::kFile).ok());

  // 300 KiB of deterministic bytes: spans ~5 blocks of 64 KiB.
  std::vector<std::uint8_t> data(300 * 1024);
  SplitMix64 rng(42);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());

  {
    auto writer = nk::FileWriter::Open(*client_, "/f");
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    // Write in awkward sizes to exercise chunking.
    std::size_t off = 0;
    std::size_t step = 1;
    while (off < data.size()) {
      const std::size_t n = std::min(step, data.size() - off);
      ASSERT_TRUE((*writer)->Write(ByteSpan(data.data() + off, n)).ok());
      off += n;
      step = step * 7 % 40000 + 1;
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }

  auto info = client_->Lookup("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, data.size());

  auto reader = nk::FileReader::Open(*client_, "/f");
  ASSERT_TRUE(reader.ok());
  std::vector<std::uint8_t> read_back(data.size());
  auto n = (*reader)->Read(MutableByteSpan(read_back));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(read_back, data);

  // EOF afterwards.
  std::uint8_t one;
  auto eof = (*reader)->Read(MutableByteSpan(&one, 1));
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
}

TEST_P(StoreIntegrationTest, KeyValueRoundTrip) {
  const std::string value = "hello ephemeral world";
  ASSERT_TRUE(client_->PutValue("/kv", AsBytes(value)).ok());
  auto got = client_->GetValue("/kv");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ToString(), value);
}

TEST_P(StoreIntegrationTest, ContainerTypingRules) {
  ASSERT_TRUE(client_->CreateNode("/t", nk::NodeType::kTable).ok());
  // Tables hold only KeyValue nodes.
  EXPECT_EQ(client_->CreateNode("/t/f", nk::NodeType::kFile).status().code(),
            StatusCode::kWrongNodeType);
  EXPECT_TRUE(client_->CreateNode("/t/kv", nk::NodeType::kKeyValue).ok());

  ASSERT_TRUE(client_->CreateNode("/b", nk::NodeType::kBag).ok());
  EXPECT_EQ(
      client_->CreateNode("/b/kv", nk::NodeType::kKeyValue).status().code(),
      StatusCode::kWrongNodeType);
  EXPECT_TRUE(client_->CreateNode("/b/f", nk::NodeType::kFile).ok());

  // Files cannot hold children.
  EXPECT_EQ(client_->CreateNode("/b/f/x", nk::NodeType::kFile).status().code(),
            StatusCode::kWrongNodeType);

  // Non-empty containers cannot be removed.
  EXPECT_EQ(client_->Delete("/t").status().code(),
            StatusCode::kFailedPrecondition);

  auto listing = client_->List("/t");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->entries.size(), 1u);
  EXPECT_EQ(listing->entries[0].name, "kv");
}

TEST_P(StoreIntegrationTest, DeleteFreesBlocksAndStorage) {
  ASSERT_TRUE(client_->CreateNode("/big", nk::NodeType::kFile).ok());
  {
    auto writer = nk::FileWriter::Open(*client_, "/big");
    ASSERT_TRUE(writer.ok());
    std::vector<std::uint8_t> chunk(128 * 1024, 0xAB);
    ASSERT_TRUE((*writer)->Write(ByteSpan(chunk)).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  EXPECT_GE(cluster_->metrics()->StoredBytes(), 128 * 1024);
  const auto free_before = cluster_->metadata().FreeBlocks(nk::kDefaultClass);
  ASSERT_TRUE(client_->Delete("/big").ok());
  EXPECT_GT(cluster_->metadata().FreeBlocks(nk::kDefaultClass), free_before);
  EXPECT_EQ(cluster_->metrics()->StoredBytes(), 0);
}

// A zero chunk size or in-flight window is refused at connect, naming the
// field, instead of hanging the first stream that uses it.
TEST_P(StoreIntegrationTest, ConnectRefusesZeroStreamSizes) {
  for (const std::string field : {"chunk_size", "inflight_window"}) {
    SCOPED_TRACE(field);
    nk::StoreClient::Options options;
    options.transport = &cluster_->transport();
    options.metadata_address = cluster_->metadata_address();
    (field == "chunk_size" ? options.chunk_size : options.inflight_window) = 0;
    auto client = nk::StoreClient::Connect(std::move(options));
    ASSERT_FALSE(client.ok());
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(client.status().ToString().find(field), std::string::npos)
        << client.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, StoreIntegrationTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

}  // namespace
}  // namespace glider
