// Failure-injection and robustness tests: misbehaving actions, wrong-type
// operations, resource exhaustion, mid-stream teardown, unknown opcodes.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "glider/client/action_node.h"
#include "net/rpc_client.h"
#include "testing/cluster.h"

namespace glider {
namespace {

using core::Action;
using core::ActionContext;
using core::ActionInputStream;
using core::ActionNode;
using core::ActionOutputStream;

// Throws from every hook.
class ThrowingAction : public Action {
 public:
  void onCreate(ActionContext&) override {
    if (throw_on_create) throw std::runtime_error("create boom");
  }
  void onDelete(ActionContext&) override {
    if (throw_on_delete) throw std::runtime_error("delete boom");
  }
  void onWrite(ActionInputStream& in, ActionContext&) override {
    (void)in.ReadChunk();
    throw std::runtime_error("write boom");
  }
  void onRead(ActionOutputStream& out, ActionContext&) override {
    (void)out.Write("partial");
    throw std::runtime_error("read boom");
  }
  static inline bool throw_on_create = false;
  static inline bool throw_on_delete = false;
};
GLIDER_REGISTER_ACTION("fail.throwing", ThrowingAction);

// Returns from onWrite immediately, never consuming the stream. Reports a
// fixed state size, so a test can tell which action a slot holds.
class IgnoringAction : public Action {
 public:
  static constexpr std::uint64_t kStateBytes = 7;
  void onWrite(ActionInputStream&, ActionContext&) override {}
  std::uint64_t StateBytes() const override { return kStateBytes; }
};
GLIDER_REGISTER_ACTION("fail.ignoring", IgnoringAction);

// Its destructor blocks until the test releases it (10 s at most), so a test
// can tell whether a delete answers before the action's state is freed.
class SlowTeardownAction : public Action {
 public:
  ~SlowTeardownAction() override {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [] { return released; });
    destroyed = true;
    cv.notify_all();
  }
  static inline std::mutex mu;
  static inline std::condition_variable cv;
  static inline bool released = false;
  static inline bool destroyed = false;
};
GLIDER_REGISTER_ACTION("fail.slow_teardown", SlowTeardownAction);

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::ClusterOptions options;
    options.slots_per_server = 2;  // small: tests slot exhaustion
    options.blocks_per_server = 8;
    options.block_size = 64 * 1024;
    auto cluster = testing::MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  std::unique_ptr<testing::MiniCluster> cluster_;
  std::unique_ptr<nk::StoreClient> client_;
};

TEST_F(FailureTest, ThrowingOnCreateFailsCreation) {
  ThrowingAction::throw_on_create = true;
  auto node = ActionNode::Create(*client_, "/t", "fail.throwing");
  EXPECT_EQ(node.status().code(), StatusCode::kInternal);
  ThrowingAction::throw_on_create = false;
  // Node was rolled back; the path is reusable.
  EXPECT_FALSE(client_->Lookup("/t").ok());
  EXPECT_TRUE(ActionNode::Create(*client_, "/t", "fail.throwing").ok());
}

TEST_F(FailureTest, ThrowingOnWriteStillCompletesClose) {
  ThrowingAction::throw_on_create = false;
  auto node = ActionNode::Create(*client_, "/t", "fail.throwing");
  ASSERT_TRUE(node.ok());
  auto writer = node->OpenWriter();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write("data\n").ok());
  // The method threw server-side; the close must not hang and the action
  // must remain usable for subsequent streams.
  EXPECT_TRUE((*writer)->Close().ok());
  auto writer2 = node->OpenWriter();
  ASSERT_TRUE(writer2.ok());
  ASSERT_TRUE((*writer2)->Write("again\n").ok());
  EXPECT_TRUE((*writer2)->Close().ok());
}

TEST_F(FailureTest, ThrowingOnDeleteStillEmptiesSlot) {
  ASSERT_TRUE(ActionNode::Create(*client_, "/t", "fail.throwing").ok());
  ASSERT_EQ(cluster_->active().LiveActions(), 1u);
  ThrowingAction::throw_on_delete = true;
  const Status deleted = ActionNode::Delete(*client_, "/t");
  ThrowingAction::throw_on_delete = false;
  EXPECT_TRUE(deleted.ok()) << deleted.ToString();
  EXPECT_EQ(cluster_->active().LiveActions(), 0u);
}

// Freeing an action's state is not part of its delete turn: the reply goes
// out first, so tearing down a large action does not hold up the caller.
TEST_F(FailureTest, DeleteAnswersBeforeActionIsFreed) {
  SlowTeardownAction::released = false;
  SlowTeardownAction::destroyed = false;
  ASSERT_TRUE(ActionNode::Create(*client_, "/s", "fail.slow_teardown").ok());
  const Status deleted = ActionNode::Delete(*client_, "/s");
  EXPECT_TRUE(deleted.ok()) << deleted.ToString();
  EXPECT_EQ(cluster_->active().LiveActions(), 0u);
  std::unique_lock lock(SlowTeardownAction::mu);
  EXPECT_FALSE(SlowTeardownAction::destroyed);
  SlowTeardownAction::released = true;
  SlowTeardownAction::cv.notify_all();
  EXPECT_TRUE(SlowTeardownAction::cv.wait_for(
      lock, std::chrono::seconds(10),
      [] { return SlowTeardownAction::destroyed; }));
}

// A create that reaches an occupied slot (bypassing the metadata server's
// slot allocation) is refused, and the occupant keeps serving.
TEST_F(FailureTest, CreateOnOccupiedSlotIsRejected) {
  auto node = ActionNode::Create(*client_, "/o", "fail.ignoring");
  ASSERT_TRUE(node.ok());
  auto conn = cluster_->transport().Connect(cluster_->active().address(),
                                            nullptr);
  ASSERT_TRUE(conn.ok());
  core::ActionCreateRequest req;
  req.slot = node->info().slot.block;
  req.action_type = "fail.throwing";
  EXPECT_EQ(net::CallVoid(**conn, core::kActionCreate, req).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cluster_->active().LiveActions(), 1u);
  auto state = node->StateBytes();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, IgnoringAction::kStateBytes);
}

TEST_F(FailureTest, ThrowingOnReadEndsStream) {
  ThrowingAction::throw_on_create = false;
  auto node = ActionNode::Create(*client_, "/t", "fail.throwing");
  ASSERT_TRUE(node.ok());
  auto reader = node->OpenReader();
  ASSERT_TRUE(reader.ok());
  std::string out;
  while (true) {
    auto chunk = (*reader)->ReadChunk();
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    out += chunk->ToString();
  }
  EXPECT_EQ(out, "partial");  // data before the throw arrives; then EOS
  EXPECT_TRUE((*reader)->Close().ok());
}

TEST_F(FailureTest, MethodIgnoringItsStreamStillAcksWrites) {
  auto node = ActionNode::Create(*client_, "/i", "fail.ignoring");
  ASSERT_TRUE(node.ok());
  auto writer = node->OpenWriter();
  ASSERT_TRUE(writer.ok());
  // Far more data than the per-stream channel buffers: the server-side
  // drain must keep acknowledging after the method returned.
  const std::string chunk(64 * 1024, 'x');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*writer)->Write(chunk).ok()) << i;
  }
  EXPECT_TRUE((*writer)->Close().ok());
}

TEST_F(FailureTest, SlotExhaustionReportsResourceExhausted) {
  // 1 active server x 2 slots.
  ASSERT_TRUE(ActionNode::Create(*client_, "/a0", "fail.ignoring").ok());
  ASSERT_TRUE(ActionNode::Create(*client_, "/a1", "fail.ignoring").ok());
  auto third = ActionNode::Create(*client_, "/a2", "fail.ignoring");
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Deleting one frees its slot for reuse.
  ASSERT_TRUE(ActionNode::Delete(*client_, "/a0").ok());
  EXPECT_TRUE(ActionNode::Create(*client_, "/a2", "fail.ignoring").ok());
}

TEST_F(FailureTest, BlockExhaustionSurfacesOnWrite) {
  // 8 blocks x 64 KiB = 512 KiB capacity.
  ASSERT_TRUE(client_->CreateNode("/big", nk::NodeType::kFile).ok());
  auto writer = nk::FileWriter::Open(*client_, "/big");
  ASSERT_TRUE(writer.ok());
  const std::string chunk(64 * 1024, 'x');
  // Write enough to exceed capacity; the error must surface on a Write or
  // at the latest on Close (writes complete asynchronously).
  Status status;
  for (int i = 0; i < 20 && status.ok(); ++i) status = (*writer)->Write(chunk);
  const Status close_status = (*writer)->Close();
  EXPECT_TRUE(!status.ok() || !close_status.ok());
  EXPECT_EQ((!status.ok() ? status : close_status).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FailureTest, FileOpsOnActionNodeRejected) {
  auto node = ActionNode::Create(*client_, "/a", "fail.ignoring");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(nk::FileWriter::Open(*client_, "/a").status().code(),
            StatusCode::kWrongNodeType);
  EXPECT_EQ(nk::FileReader::Open(*client_, "/a").status().code(),
            StatusCode::kWrongNodeType);
}

TEST_F(FailureTest, ActionOpsOnFileNodeRejected) {
  ASSERT_TRUE(client_->CreateNode("/f", nk::NodeType::kFile).ok());
  EXPECT_EQ(ActionNode::Lookup(*client_, "/f").status().code(),
            StatusCode::kWrongNodeType);
}

TEST_F(FailureTest, DataClassCannotHostActions) {
  // Directly asking the metadata server to create an action works only in
  // the active class; a plain node cannot claim the active class either.
  auto node = client_->CreateNode("/x", nk::NodeType::kFile, nk::kActiveClass);
  EXPECT_EQ(node.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FailureTest, UnknownOpcodeRejected) {
  auto conn = cluster_->transport().Connect(cluster_->metadata_address(),
                                            nullptr);
  ASSERT_TRUE(conn.ok());
  auto result = (*conn)->CallSync(0x7777, Buffer{});
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(FailureTest, DoubleCloseAndUseAfterCloseAreSafe) {
  auto node = ActionNode::Create(*client_, "/i", "fail.ignoring");
  ASSERT_TRUE(node.ok());
  auto writer = node->OpenWriter();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Write("x").ok());
  EXPECT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE((*writer)->Close().ok());  // idempotent
  EXPECT_EQ((*writer)->Write("y").code(), StatusCode::kClosed);
}

TEST_F(FailureTest, DeleteWhileNotStreamingIsClean) {
  auto node = ActionNode::Create(*client_, "/d", "fail.ignoring");
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(ActionNode::Delete(*client_, "/d").ok());
  // Operations on the stale proxy fail cleanly.
  auto writer = node->OpenWriter();
  EXPECT_FALSE(writer.ok());
}

}  // namespace
}  // namespace glider
