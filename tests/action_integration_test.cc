// End-to-end tests of Glider storage actions: lifecycle, stateful
// aggregation across streams, read streaming, interleaving, concurrency
// model, error paths. Runs on both transports.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>

#include "glider/client/action_node.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

using core::Action;
using core::ActionContext;
using core::ActionInputStream;
using core::ActionNode;
using core::ActionOutputStream;
using testing::ClusterOptions;
using testing::MiniCluster;

// Counts lines written into it; serves the total on read. The word-count
// merger of the paper's Listing 1, reduced to its essence.
class LineCountAction : public Action {
 public:
  void onWrite(ActionInputStream& in, ActionContext&) override {
    auto lines = in.Lines();
    std::string line;
    while (true) {
      auto more = lines.NextLine(line);
      if (!more.ok() || !*more) break;
      ++count_;
    }
  }
  void onRead(ActionOutputStream& out, ActionContext&) override {
    (void)out.Write(std::to_string(count_));
  }
  std::uint64_t StateBytes() const override { return sizeof(count_); }

 private:
  std::uint64_t count_ = 0;
};
GLIDER_REGISTER_ACTION("test.linecount", LineCountAction);

// The paper's Listing 1: merges "key,value" pairs into a dictionary.
class MergeAction : public Action {
 public:
  void onWrite(ActionInputStream& in, ActionContext&) override {
    auto lines = in.Lines();
    std::string line;
    while (true) {
      auto more = lines.NextLine(line);
      if (!more.ok() || !*more) break;
      const auto comma = line.find(',');
      if (comma == std::string::npos) continue;
      const int key = std::stoi(line.substr(0, comma));
      const long long value = std::stoll(line.substr(comma + 1));
      result_[key] += value;
    }
  }
  void onRead(ActionOutputStream& out, ActionContext&) override {
    std::ostringstream s;
    for (const auto& [k, v] : result_) s << k << "," << v << "\n";
    (void)out.Write(s.str());
    out.Close();
  }
  std::uint64_t StateBytes() const override {
    return result_.size() * (sizeof(int) + sizeof(long long));
  }

 private:
  std::map<int, long long> result_;
};
GLIDER_REGISTER_ACTION("test.merge", MergeAction);

// Emits n lines "gen-i" on read; n parsed from creation config.
class GeneratorAction : public Action {
 public:
  void onCreate(ActionContext& ctx) override {
    n_ = std::stoul(std::string(AsText(ctx.config())));
  }
  void onRead(ActionOutputStream& out, ActionContext&) override {
    for (std::size_t i = 0; i < n_; ++i) {
      if (!out.Write("gen-" + std::to_string(i) + "\n").ok()) return;
    }
  }

 private:
  std::size_t n_ = 0;
};
GLIDER_REGISTER_ACTION("test.generator", GeneratorAction);

// Tracks lifecycle calls through process-wide counters.
std::atomic<int> g_creates{0};
std::atomic<int> g_deletes{0};
class LifecycleAction : public Action {
 public:
  void onCreate(ActionContext&) override { ++g_creates; }
  void onDelete(ActionContext&) override { ++g_deletes; }
};
GLIDER_REGISTER_ACTION("test.lifecycle", LifecycleAction);

class ActionIntegrationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.use_tcp = GetParam();
    options.active_servers = 2;
    options.slots_per_server = 8;
    options.chunk_size = 8 * 1024;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  std::string ReadAll(ActionNode& node) {
    auto reader = node.OpenReader();
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    std::string out;
    while (true) {
      auto chunk = (*reader)->ReadChunk();
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (!chunk.ok() || chunk->empty()) break;
      out += chunk->ToString();
    }
    EXPECT_TRUE((*reader)->Close().ok());
    return out;
  }

  std::unique_ptr<MiniCluster> cluster_;
  std::unique_ptr<nk::StoreClient> client_;
};

TEST_P(ActionIntegrationTest, CreateWriteReadDelete) {
  auto node = ActionNode::Create(*client_, "/counter", "test.linecount");
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  auto writer = node->OpenWriter();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write("one\ntwo\nthree\n").ok());
  ASSERT_TRUE((*writer)->Close().ok());

  EXPECT_EQ(ReadAll(*node), "3");

  ASSERT_TRUE(ActionNode::Delete(*client_, "/counter").ok());
  EXPECT_EQ(client_->Lookup("/counter").status().code(),
            StatusCode::kNotFound);
}

TEST_P(ActionIntegrationTest, StateAccumulatesAcrossStreams) {
  auto node = ActionNode::Create(*client_, "/merge", "test.merge");
  ASSERT_TRUE(node.ok());

  for (int round = 0; round < 3; ++round) {
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Write("1,10\n2,20\n").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  EXPECT_EQ(ReadAll(*node), "1,30\n2,60\n");

  auto state = node->StateBytes();
  ASSERT_TRUE(state.ok());
  EXPECT_GT(*state, 0u);
}

TEST_P(ActionIntegrationTest, ConcurrentWritersInterleaved) {
  auto node =
      ActionNode::Create(*client_, "/merge", "test.merge", /*interleave=*/true);
  ASSERT_TRUE(node.ok());

  constexpr int kWriters = 8;
  constexpr int kPairsEach = 2000;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<nk::StoreClient>> clients;
  for (int w = 0; w < kWriters; ++w) {
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(client).value());
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto n = ActionNode::Lookup(*clients[w], "/merge");
      ASSERT_TRUE(n.ok());
      auto writer = n->OpenWriter();
      ASSERT_TRUE(writer.ok());
      std::string batch;
      for (int i = 0; i < kPairsEach; ++i) {
        batch += std::to_string(i % 16) + ",1\n";
        if (batch.size() > 4096) {
          ASSERT_TRUE((*writer)->Write(batch).ok());
          batch.clear();
        }
      }
      ASSERT_TRUE((*writer)->Write(batch).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    });
  }
  for (auto& t : threads) t.join();

  // Every key 0..15 must have been counted exactly kWriters*kPairsEach/16.
  const std::string result = ReadAll(*node);
  std::istringstream in(result);
  std::string line;
  int keys = 0;
  long long total = 0;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    total += std::stoll(line.substr(comma + 1));
    ++keys;
  }
  EXPECT_EQ(keys, 16);
  EXPECT_EQ(total, static_cast<long long>(kWriters) * kPairsEach);
}

TEST_P(ActionIntegrationTest, GeneratorReadStreaming) {
  auto node = ActionNode::Create(*client_, "/gen", "test.generator",
                                 /*interleave=*/false, AsBytes("5000"));
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  const std::string out = ReadAll(*node);
  std::istringstream in(out);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, "gen-" + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 5000u);
}

TEST_P(ActionIntegrationTest, EarlyReaderCloseUnblocksAction) {
  auto node = ActionNode::Create(*client_, "/gen", "test.generator",
                                 /*interleave=*/false, AsBytes("1000000"));
  ASSERT_TRUE(node.ok());
  auto reader = node->OpenReader();
  ASSERT_TRUE(reader.ok());
  auto chunk = (*reader)->ReadChunk();
  ASSERT_TRUE(chunk.ok());
  EXPECT_FALSE(chunk->empty());
  // Abandon the stream long before the generator finishes; the action's
  // writes must fail with kClosed instead of hanging.
  ASSERT_TRUE((*reader)->Close().ok());
  // The slot must become available for the next method promptly.
  auto state = node->StateBytes();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
}

TEST_P(ActionIntegrationTest, LifecycleHooksRun) {
  const int creates_before = g_creates.load();
  const int deletes_before = g_deletes.load();
  auto node = ActionNode::Create(*client_, "/life", "test.lifecycle");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(g_creates.load(), creates_before + 1);

  // DeleteObject runs onDelete but keeps the node.
  ASSERT_TRUE(node->DeleteObject().ok());
  EXPECT_EQ(g_deletes.load(), deletes_before + 1);
  ASSERT_TRUE(client_->Lookup("/life").ok());
  ASSERT_TRUE(client_->Delete("/life").ok());
}

TEST_P(ActionIntegrationTest, UnknownActionTypeFailsCleanly) {
  auto node = ActionNode::Create(*client_, "/nope", "test.does-not-exist");
  EXPECT_EQ(node.status().code(), StatusCode::kNotFound);
  // The node must have been rolled back.
  EXPECT_EQ(client_->Lookup("/nope").status().code(), StatusCode::kNotFound);
}

TEST_P(ActionIntegrationTest, ActionsDistributeAcrossActiveServers) {
  // With two active servers and round-robin slot allocation, consecutive
  // actions land on alternating servers.
  std::set<std::string> addresses;
  for (int i = 0; i < 4; ++i) {
    auto node = ActionNode::Create(*client_, "/d" + std::to_string(i),
                                   "test.linecount");
    ASSERT_TRUE(node.ok());
    addresses.insert(node->info().slot.address);
  }
  EXPECT_EQ(addresses.size(), 2u);
}

// Every write is one kStreamWrite frame of 1..write_batch_chunks chunks.
// Seven full chunks and a partial remainder (8 chunks) go out as 8 one-chunk
// frames, or as frames of 3, 3 and 2 chunks, the last shipped by Close. The
// FaaS link sees one operation per frame plus the close, and the merged
// dictionaries are equal.
TEST_P(ActionIntegrationTest, WriteFramesCarryOneOrMoreChunks) {
  workloads::RegisterWorkloadActions();
  const std::size_t chunk = cluster_->options().chunk_size;
  std::string text;
  for (int i = 0; text.size() < 7 * chunk + chunk / 2; ++i) {
    text += std::to_string(i % 101) + "," + std::to_string(i) + "\n";
  }
  ASSERT_LT(text.size(), 8 * chunk);

  struct Case {
    std::size_t batch;
    std::uint64_t ops_after_writes;
    std::uint64_t ops_after_close;
  };
  std::vector<std::string> merged;
  for (const Case& c : {Case{1, 7, 9}, Case{3, 2, 4}}) {
    SCOPED_TRACE("write_batch_chunks " + std::to_string(c.batch));
    auto metrics = std::make_shared<Metrics>();
    nk::StoreClient::Options copts;
    copts.transport = &cluster_->transport();
    copts.metadata_address = cluster_->metadata_address();
    copts.data_link = net::LinkModel::Unshaped(LinkClass::kFaas, metrics);
    copts.chunk_size = chunk;
    copts.write_batch_chunks = c.batch;
    auto client = nk::StoreClient::Connect(std::move(copts));
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const std::string path = "/frames" + std::to_string(c.batch);
    auto node = ActionNode::Create(**client, path, "glider.merge");
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();

    const std::uint64_t ops = metrics->Operations(LinkClass::kFaas);
    const std::uint64_t sent = metrics->BytesSent(LinkClass::kFaas);
    ASSERT_TRUE((*writer)->Write(text).ok());
    EXPECT_EQ(metrics->Operations(LinkClass::kFaas) - ops, c.ops_after_writes);
    ASSERT_TRUE((*writer)->Close().ok());
    const std::uint64_t frames = c.ops_after_close - 1;
    EXPECT_EQ(metrics->Operations(LinkClass::kFaas) - ops, c.ops_after_close);
    // Each frame: a header, stream id and first seq, then a u32 length
    // before each of the 8 chunks. The close: a header, stream id and seq.
    EXPECT_EQ(metrics->BytesSent(LinkClass::kFaas) - sent,
              frames * (net::kFrameHeaderSize + 16) + 8 * 4 + text.size() +
                  net::kFrameHeaderSize + 16);
    merged.push_back(ReadAll(*node));
  }
  EXPECT_FALSE(merged[0].empty());
  EXPECT_EQ(merged[0], merged[1]);
}

INSTANTIATE_TEST_SUITE_P(Transports, ActionIntegrationTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

}  // namespace
}  // namespace glider
