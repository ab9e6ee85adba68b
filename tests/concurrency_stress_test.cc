// Threaded stress of the fine-grained server concurrency model: the
// metadata server's shared_mutex read path, the active server's striped
// stream table and per-slot locking, and MethodRunner's cached workers
// (reuse, growth past parked turns, and the join at shutdown).
// Iteration counts are sized so the suite stays fast under ASan and TSan
// (ci/check.sh runs both); the value of these tests is the sanitizer run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/attribution.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "glider/client/action_node.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

constexpr std::size_t kThreads = 8;
constexpr int kIterations = 20;

// Reads each write stream to its end. Counts the onWrite turns running now
// and records the request context each turn saw as it began.
class ProbeAction : public core::Action {
 public:
  struct Turn {
    obs::PrincipalId principal = 0;
    std::uint64_t trace_id = 0;
    std::string profile_tag;
    std::thread::id worker;
  };

  void onWrite(core::ActionInputStream& in, core::ActionContext&) override {
    {
      std::scoped_lock lock(mu);
      turns.push_back({obs::CurrentPrincipal(),
                       obs::CurrentTraceContext().trace_id,
                       obs::CurrentProfileTag(), std::this_thread::get_id()});
    }
    running.fetch_add(1);
    while (true) {
      auto chunk = in.ReadChunk();
      if (!chunk.ok() || chunk->empty()) break;
    }
    running.fetch_sub(1);
  }

  static inline std::atomic<int> running{0};
  static inline std::mutex mu;
  static inline std::vector<Turn> turns;
};
GLIDER_REGISTER_ACTION("stress.probe", ProbeAction);

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::RegisterWorkloadActions();
    testing::ClusterOptions options;
    options.data_servers = 2;
    options.active_servers = 2;
    options.slots_per_server = 32;
    options.blocks_per_server = 256;
    auto cluster = testing::MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
  }

  std::unique_ptr<nk::StoreClient> NewClient() {
    auto client = cluster_->NewInternalClient();
    EXPECT_TRUE(client.ok());
    return std::move(client).value();
  }

  std::unique_ptr<testing::MiniCluster> cluster_;
};

// Readers (lookup + list) run against the shared_mutex read path while
// writers create and delete nodes on the same server.
TEST_F(ConcurrencyStressTest, MetadataReadersOverlapWriters) {
  {
    auto setup = NewClient();
    ASSERT_TRUE(setup->CreateNode("/shared", nk::NodeType::kFile).ok());
    ASSERT_TRUE(setup->CreateNode("/dir", nk::NodeType::kDirectory).ok());
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto client = NewClient();
      for (int i = 0; i < kIterations; ++i) {
        if (t % 2 == 0) {
          ASSERT_TRUE(client->Lookup("/shared").ok());
          ASSERT_TRUE(client->List("/dir").ok());
        } else {
          const std::string path =
              "/dir/t" + std::to_string(t) + "_" + std::to_string(i);
          ASSERT_TRUE(client->CreateNode(path, nk::NodeType::kFile).ok());
          ASSERT_TRUE(client->Delete(path).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto client = NewClient();
  auto listing = client->List("/dir");
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->entries.empty());
}

// Racing creates of one path must elect exactly one winner per round; the
// path is deleted between rounds so every round races afresh.
TEST_F(ConcurrencyStressTest, CreateRaceElectsOneWinner) {
  auto cleaner = NewClient();
  for (int round = 0; round < 6; ++round) {
    const std::string path = "/race" + std::to_string(round);
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, &path, &winners] {
        auto client = NewClient();
        auto created = client->CreateNode(path, nk::NodeType::kFile);
        if (created.ok()) {
          winners.fetch_add(1);
        } else {
          EXPECT_EQ(created.status().code(), StatusCode::kAlreadyExists);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(winners.load(), 1) << path;
    ASSERT_TRUE(cleaner->Delete(path).ok());
  }
}

// Each thread repeatedly creates its own action, streams through it, reads
// the result back and deletes it. Exercises slot reuse under the per-slot
// locks, the striped stream table, and MethodRunner's workers (every stream
// open is a method turn, on an idle worker or a new one).
TEST_F(ConcurrencyStressTest, ActionStreamChurn) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto client = NewClient();
      for (int i = 0; i < kIterations / 4; ++i) {
        const std::string path =
            "/act" + std::to_string(t) + "_" + std::to_string(i);
        const std::string line = "1," + std::to_string(t) + "\n";
        auto node = core::ActionNode::Create(*client, path, "glider.merge");
        ASSERT_TRUE(node.ok()) << node.status().ToString();
        auto writer = node->OpenWriter();
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE((*writer)->Write(line).ok());
        ASSERT_TRUE((*writer)->Close().ok());
        auto reader = node->OpenReader();
        ASSERT_TRUE(reader.ok());
        auto chunk = (*reader)->ReadChunk();
        ASSERT_TRUE(chunk.ok());
        EXPECT_EQ(chunk->ToString(), line);
        ASSERT_TRUE((*reader)->Close().ok());
        ASSERT_TRUE(core::ActionNode::Delete(*client, path).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Concurrent writers to ONE interleaved action: per-slot locking must let
// all streams make progress and deliver every chunk exactly once.
TEST_F(ConcurrencyStressTest, SharedActionConcurrentWriters) {
  auto setup = NewClient();
  auto node =
      core::ActionNode::Create(*setup, "/merge", "glider.merge",
                               /*interleave=*/true);
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto client = NewClient();
      auto mine = core::ActionNode::Lookup(*client, "/merge");
      ASSERT_TRUE(mine.ok());
      auto writer = mine->OpenWriter();
      ASSERT_TRUE(writer.ok());
      for (int i = 0; i < kIterations; ++i) {
        const std::string line =
            std::to_string(t) + "," + std::to_string(i) + "\n";
        ASSERT_TRUE((*writer)->Write(line).ok());
      }
      ASSERT_TRUE((*writer)->Close().ok());
    });
  }
  for (auto& t : threads) t.join();

  auto reader = node->OpenReader();
  ASSERT_TRUE(reader.ok());
  std::string merged;
  while (true) {
    auto chunk = (*reader)->ReadChunk();
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    merged += chunk->ToString();
  }
  ASSERT_TRUE((*reader)->Close().ok());

  // The merge aggregates per key: one line per writer, each value the sum
  // of that writer's 0..kIterations-1. A lost or doubled chunk shows up as
  // a wrong sum.
  const long expected_sum = kIterations * (kIterations - 1) / 2;
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < merged.size()) {
    const std::size_t eol = merged.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = merged.substr(pos, eol - pos);
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    EXPECT_EQ(std::stol(line.substr(comma + 1)), expected_sum) << line;
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, kThreads);
}

// A worker reused for a later turn starts it clean: the principal, trace
// context and profile tag of the turn it ran before do not carry over.
TEST_F(ConcurrencyStressTest, ReusedWorkerStartsEachTurnClean) {
  auto client = NewClient();
  // Interleaved, so turns waiting on their streams yield the slot to each
  // other and the writers below may close in any order.
  auto node = core::ActionNode::Create(*client, "/probe", "stress.probe",
                                       /*interleave=*/true);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  {
    std::scoped_lock lock(ProbeAction::mu);
    ProbeAction::turns.clear();
  }

  // The tenant "alpha" writes inside a trace, with the profiler tagging.
  obs::SetEnabled(true);
  ASSERT_TRUE(obs::SamplingProfiler::Global().Start({}).ok());
  {
    obs::PrincipalScope alpha(obs::PrincipalFromName("alpha"));
    obs::Span root = obs::Span::Root("test", "test.tagged_turn");
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE((*writer)->Write("1,1\n").ok());
    EXPECT_TRUE((*writer)->Close().ok());
  }
  obs::SamplingProfiler::Global().Stop();

  // Then untagged writers, all open at once. Each turn waits on its stream
  // and so holds a worker: with more of them than the workers now idle,
  // one runs on the worker of the tagged turn.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  constexpr int kPlain = 4;
  std::vector<std::unique_ptr<core::ActionWriter>> writers;
  for (int i = 0; i < kPlain; ++i) {
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok());
    writers.push_back(std::move(writer).value());
  }
  for (auto& writer : writers) {
    EXPECT_TRUE(writer->Write("1,1\n").ok());
    EXPECT_TRUE(writer->Close().ok());
  }
  obs::SetEnabled(false);

  std::scoped_lock lock(ProbeAction::mu);
  const auto& turns = ProbeAction::turns;
  ASSERT_EQ(turns.size(), 1u + kPlain);
  EXPECT_EQ(turns[0].principal, obs::PrincipalFromName("alpha"));
  EXPECT_NE(turns[0].trace_id, 0u);
  EXPECT_NE(turns[0].profile_tag, "");
  bool reused = false;
  for (std::size_t i = 1; i < turns.size(); ++i) {
    EXPECT_EQ(turns[i].principal, 0u) << "turn " << i;
    EXPECT_EQ(turns[i].trace_id, 0u) << "turn " << i;
    EXPECT_EQ(turns[i].profile_tag, "") << "turn " << i;
    reused = reused || turns[i].worker == turns[0].worker;
  }
  EXPECT_TRUE(reused) << "no plain turn ran on the tagged turn's worker";
}

// Turns parked in onWrite hold their workers; a turn on another slot still
// runs, because the pool starts a worker when none is idle.
TEST_F(ConcurrencyStressTest, PoolGrowsPastParkedTurns) {
  constexpr int kParked = 32;
  const int running_before = ProbeAction::running.load();
  const auto parked_now = [running_before] {
    return ProbeAction::running.load() - running_before;
  };
  auto client = NewClient();
  std::vector<std::unique_ptr<core::ActionWriter>> parked;
  // Parks kParked probes, then creates, writes and reads one more action
  // while they stay parked. Runs apart, so a pool that queued a turn with
  // no idle worker fails the bounded wait below instead of hanging.
  auto run = std::async(std::launch::async, [&]() -> std::string {
    for (int i = 0; i < kParked; ++i) {
      const std::string path = "/parked" + std::to_string(i);
      auto node = core::ActionNode::Create(*client, path, "stress.probe");
      if (!node.ok()) return node.status().ToString();
      auto writer = node->OpenWriter();
      if (!writer.ok()) return writer.status().ToString();
      parked.push_back(std::move(writer).value());
    }
    for (int poll = 0; poll < 1000 && parked_now() != kParked; ++poll) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (parked_now() != kParked) return "the probes did not all park";
    auto node = core::ActionNode::Create(*client, "/extra", "glider.merge");
    if (!node.ok()) return node.status().ToString();
    auto writer = node->OpenWriter();
    if (!writer.ok()) return writer.status().ToString();
    if (!(*writer)->Write("1,2\n").ok() || !(*writer)->Close().ok()) {
      return "write failed";
    }
    auto reader = node->OpenReader();
    if (!reader.ok()) return reader.status().ToString();
    auto chunk = (*reader)->ReadChunk();
    if (!chunk.ok()) return chunk.status().ToString();
    (void)(*reader)->Close();
    if (parked_now() != kParked) return "a probe stopped parking";
    return chunk->ToString();
  });
  if (run.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    // Stopping the active servers unparks every turn and fails the calls
    // still waiting, so the run ends.
    for (std::size_t i = 0; i < cluster_->num_active(); ++i) {
      cluster_->active(i).Stop();
    }
    run.wait();
    FAIL() << "a turn starved behind parked ones";
  }
  EXPECT_EQ(run.get(), "1,2\n");
  for (auto& writer : parked) EXPECT_TRUE(writer->Close().ok());
}

std::size_t ProcessThreads() {
  std::size_t count = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

// No method worker outlives a cluster: after teardown the process runs as
// many threads as it did before the start, on either transport, although
// the last turns left their workers idle and lingering.
TEST(MethodWorkerTest, NoWorkerOutlivesTeardown) {
  workloads::RegisterWorkloadActions();
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "inproc");
    const auto run_cluster = [tcp] {
      testing::ClusterOptions options;
      options.use_tcp = tcp;
      auto cluster = testing::MiniCluster::Start(options);
      ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
      auto client = (*cluster)->NewInternalClient();
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 4; ++i) {
        const std::string path = "/worker" + std::to_string(i);
        auto node = core::ActionNode::Create(**client, path, "glider.merge");
        ASSERT_TRUE(node.ok()) << node.status().ToString();
        auto writer = node->OpenWriter();
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE((*writer)->Write("1,2\n").ok());
        ASSERT_TRUE((*writer)->Close().ok());
      }
    };
    run_cluster();  // brings up any process-wide threads started lazily
    const std::size_t before = ProcessThreads();
    run_cluster();
    // A joined thread leaves the task list as it exits; allow for that.
    std::size_t after = ProcessThreads();
    for (int poll = 0; poll < 100 && after != before; ++poll) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      after = ProcessThreads();
    }
    EXPECT_EQ(after, before);
  }
}

}  // namespace
}  // namespace glider
