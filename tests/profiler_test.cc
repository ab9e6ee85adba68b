// Tests of the continuous profiling plane (DESIGN.md "Continuous
// profiling"): attribution tag scopes, wait-sample folding, the collapsed
// stack export, the kProfileDump RPC protocol, end-to-end per-action
// attribution over a MiniCluster, and the slot-stall watchdog.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>

#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "glider/client/action_node.h"
#include "net/rpc_client.h"
#include "net/rpc_obs.h"
#include "testing/cluster.h"

namespace glider {
namespace {

using core::Action;
using core::ActionContext;
using core::ActionNode;
using core::ActionOutputStream;
using obs::ProfileTagScope;
using obs::SamplingProfiler;
using testing::ClusterOptions;
using testing::MiniCluster;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Burns CPU until `ms` of wall time elapsed — work the SIGPROF sampler
// (which counts process CPU time) can see.
std::uint64_t SpinFor(std::chrono::milliseconds ms) {
  const auto until = std::chrono::steady_clock::now() + ms;
  std::uint64_t acc = 1469598103934665603ull;
  while (std::chrono::steady_clock::now() < until) {
    for (std::uint64_t i = 0; i < 4096; ++i) acc = (acc ^ i) * 1099511628211ull;
  }
  return acc;
}

// Per-tag total over a folded dump: "tag;frame;... N" summed by tag (lines
// without a ';' are whole-line tags, which the exporter never emits).
std::map<std::string, std::uint64_t> WeightByTag(const std::string& folded) {
  std::map<std::string, std::uint64_t> weights;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t eol = folded.find('\n', pos);
    const std::string line =
        folded.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? folded.size() : eol + 1;
    const std::size_t space = line.rfind(' ');
    const std::size_t semi = line.find(';');
    if (space == std::string::npos || semi == std::string::npos) continue;
    weights[line.substr(0, semi)] +=
        std::stoull(line.substr(space + 1));
  }
  return weights;
}

// ---- Tag scopes -------------------------------------------------------------

TEST(ProfileTagScopeTest, InstallsRestoresAndTruncates) {
  auto& profiler = SamplingProfiler::Global();
  ASSERT_TRUE(profiler.Start({}).ok());

  EXPECT_STREQ(obs::CurrentProfileTag(), "");
  {
    ProfileTagScope outer("rpc.Get");
    EXPECT_STREQ(obs::CurrentProfileTag(), "rpc.Get");
    {
      ProfileTagScope inner("slot1:merge.onWrite");
      EXPECT_STREQ(obs::CurrentProfileTag(), "slot1:merge.onWrite");
    }
    EXPECT_STREQ(obs::CurrentProfileTag(), "rpc.Get");
    {
      ProfileTagScope noop(nullptr);  // null tag: keep the current one
      EXPECT_STREQ(obs::CurrentProfileTag(), "rpc.Get");
    }
  }
  EXPECT_STREQ(obs::CurrentProfileTag(), "");

  {
    const std::string long_tag(200, 'x');
    ProfileTagScope scope(long_tag.c_str());
    EXPECT_EQ(std::strlen(obs::CurrentProfileTag()),
              obs::ProfileSample::kMaxTag - 1);
  }
  EXPECT_STREQ(obs::CurrentProfileTag(), "");

  profiler.Stop();
  // Inactive profiler: scopes cost nothing and install nothing.
  ProfileTagScope idle("ignored");
  EXPECT_STREQ(obs::CurrentProfileTag(), "");
}

// ---- Lifecycle --------------------------------------------------------------

TEST(SamplingProfilerTest, StartValidatesAndRejectsDoubleStart) {
  auto& profiler = SamplingProfiler::Global();
  SamplingProfiler::Options bad;
  bad.hz = 0;
  EXPECT_EQ(profiler.Start(bad).code(), StatusCode::kInvalidArgument);
  bad.hz = 100000;
  EXPECT_EQ(profiler.Start(bad).code(), StatusCode::kInvalidArgument);
  bad = {};
  bad.ring_capacity = 0;
  EXPECT_EQ(profiler.Start(bad).code(), StatusCode::kInvalidArgument);

  SamplingProfiler::Options options;
  options.hz = 251;
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_TRUE(SamplingProfiler::ActiveFast());
  EXPECT_EQ(profiler.hz(), 251);
  EXPECT_EQ(profiler.Start(options).code(), StatusCode::kAlreadyExists);
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(SamplingProfiler::ActiveFast());
  profiler.Stop();  // idempotent
}

// ---- Wait samples -----------------------------------------------------------

TEST(SamplingProfilerTest, WaitSamplesFoldAtTheSamplingRate) {
  auto& profiler = SamplingProfiler::Global();
  SamplingProfiler::Options options;
  options.hz = 100;
  ASSERT_TRUE(profiler.Start(options).ok());
  {
    ProfileTagScope tag("slot0:merge.onWrite");
    // 250 ms of blocked time at 100 Hz folds to 25 synthetic samples.
    profiler.AddWaitSample("channel.pop", 250'000);
  }
  profiler.AddWaitSample("action.queue", 40'000);  // untagged: 4 samples
  profiler.AddWaitSample(nullptr, 1000);           // ignored
  profiler.AddWaitSample("zero", 0);               // ignored
  profiler.Stop();

  const std::string folded = profiler.CollectFolded(/*clear=*/true);
  EXPECT_TRUE(
      Contains(folded, "slot0:merge.onWrite;[wait];channel.pop 25\n"));
  EXPECT_TRUE(Contains(folded, "untagged;[wait];action.queue 4\n"));
  EXPECT_FALSE(Contains(folded, "zero"));
  // clear=true reset the window.
  EXPECT_FALSE(Contains(profiler.CollectFolded(), "[wait]"));
}

// ---- CPU sampling -----------------------------------------------------------

TEST(SamplingProfilerTest, CapturesSpinSamplesUnderTheTag) {
  if (!SamplingProfiler::SignalSamplingSupported()) {
    GTEST_SKIP() << "SIGPROF sampling unavailable (sanitizer build)";
  }
  auto& profiler = SamplingProfiler::Global();
  SamplingProfiler::Options options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options).ok());
  {
    ProfileTagScope tag("spin.test");
    SpinFor(std::chrono::milliseconds(300));
  }
  profiler.Stop();
  EXPECT_GT(profiler.SampleCount(), 20u);
  const std::string folded = profiler.CollectFolded(/*clear=*/true);
  const auto weights = WeightByTag(folded);
  const auto it = weights.find("spin.test");
  ASSERT_NE(it, weights.end()) << folded;
  EXPECT_GT(it->second, 10u);
}

// ---- kProfileDump RPC protocol ---------------------------------------------

Result<Buffer> Profile(net::Connection& conn, net::ProfileCmd cmd,
                       std::uint32_t hz = 0) {
  return net::Call<Buffer>(conn, net::kProfileDump,
                           net::ProfileRequest{cmd, hz});
}

TEST(ProfileDumpRpcTest, StartDumpStopAgainstMiniCluster) {
  ClusterOptions options;
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto conn = (*cluster)->transport().Connect(
      (*cluster)->metadata_address(), nullptr);
  ASSERT_TRUE(conn.ok());

  auto started = Profile(**conn, net::ProfileCmd::kStart, 151);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_GE(started->size(), 1u);
  EXPECT_EQ(started->data()[0], 1);  // started by this call
  EXPECT_TRUE(SamplingProfiler::Global().running());
  EXPECT_EQ(SamplingProfiler::Global().hz(), 151);

  // A second start reports "already running" instead of failing, so a CLI
  // session never tears down another operator's window.
  auto again = Profile(**conn, net::ProfileCmd::kStart, 99);
  ASSERT_TRUE(again.ok());
  ASSERT_GE(again->size(), 1u);
  EXPECT_EQ(again->data()[0], 0);
  EXPECT_EQ(SamplingProfiler::Global().hz(), 151);  // unchanged

  {
    ProfileTagScope tag("rpc.test");
    SamplingProfiler::Global().AddWaitSample("queue", 1'000'000);
  }

  // A plain dump leaves the window in place.
  auto dump = Profile(**conn, net::ProfileCmd::kDump);
  ASSERT_TRUE(dump.ok());
  const std::string folded(reinterpret_cast<const char*>(dump->data()),
                           dump->size());
  EXPECT_TRUE(Contains(folded, "rpc.test;[wait];queue"));

  auto stopped = Profile(**conn, net::ProfileCmd::kStop);
  ASSERT_TRUE(stopped.ok());
  EXPECT_FALSE(SamplingProfiler::Global().running());

  // Dump-and-clear drains the window.
  auto cleared = Profile(**conn, net::ProfileCmd::kDumpClear);
  ASSERT_TRUE(cleared.ok());
  auto empty = Profile(**conn, net::ProfileCmd::kDump);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
}

// ---- End-to-end per-action attribution --------------------------------------

// A spin-heavy action: onRead burns CPU, then answers. With the profiler
// on, its slot tag must dominate the folded stacks (the acceptance check).
class SpinAction : public Action {
 public:
  void onRead(ActionOutputStream& out, ActionContext&) override {
    const std::uint64_t acc = SpinFor(std::chrono::milliseconds(400));
    (void)out.Write("spun:" + std::to_string(acc % 10));
  }
};
GLIDER_REGISTER_ACTION("test.spin", SpinAction);

std::string ReadAll(ActionNode& node) {
  auto reader = node.OpenReader();
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return {};
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

TEST(ProfilerClusterTest, SpinActionSlotDominatesFoldedStacks) {
  if (!SamplingProfiler::SignalSamplingSupported()) {
    GTEST_SKIP() << "SIGPROF sampling unavailable (sanitizer build)";
  }
  ClusterOptions options;
  options.profile_hz = 997;
  options.slots_per_server = 4;
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok());

  auto node = ActionNode::Create(**client, "/spin", "test.spin");
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(ReadAll(*node).rfind("spun:", 0), 0u);

  const std::string folded =
      SamplingProfiler::Global().CollectFolded(/*clear=*/true);
  const auto weights = WeightByTag(folded);
  ASSERT_FALSE(weights.empty()) << folded;
  std::string dominant;
  std::uint64_t best = 0;
  for (const auto& [tag, weight] : weights) {
    if (weight > best) {
      best = weight;
      dominant = tag;
    }
  }
  // The 400 ms spin at ~1 kHz dwarfs everything else in the process: the
  // heaviest tag is the spin action's slot.
  EXPECT_EQ(dominant.rfind("slot", 0), 0u) << folded;
  EXPECT_TRUE(Contains(dominant, "test.spin.onRead")) << folded;
}

// ---- Slot-stall watchdog ----------------------------------------------------

// Burns CPU without ever touching its streams — with interleaving this
// would starve the slot's other methods, which is what the watchdog flags.
class NonYieldingAction : public Action {
 public:
  void onRead(ActionOutputStream& out, ActionContext&) override {
    SpinFor(std::chrono::milliseconds(250));
    (void)out.Write("done");
  }
};
GLIDER_REGISTER_ACTION("test.nonyielding", NonYieldingAction);

TEST(StallWatchdogTest, NonYieldingMethodTripsWatchdog) {
  auto& stalls = obs::MetricsRegistry::Global().GetCounter("active.stalls");
  const std::uint64_t stalls_before = stalls.value();
  obs::SlowTraceStore::Global().Clear();

  ClusterOptions options;
  options.slots_per_server = 2;
  // 2 x 10 ms quantum = 20 ms of CPU without a channel touch trips it; the
  // 250 ms spin exceeds that many times over.
  options.interleave_quantum = std::chrono::milliseconds(10);
  options.stall_multiple = 2.0;
  options.watchdog_interval = std::chrono::milliseconds(5);
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok());

  auto node = ActionNode::Create(**client, "/stall", "test.nonyielding");
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(ReadAll(*node), "done");

  EXPECT_GT(stalls.value(), stalls_before);

  // The watchdog also files a slow-trace entry naming slot and method.
  bool saw_stall_trace = false;
  for (const auto& trace : obs::SlowTraceStore::Global().Snapshot()) {
    if (trace.root.name.rfind("stall.slot", 0) == 0 &&
        Contains(trace.root.name, "onRead")) {
      saw_stall_trace = true;
    }
  }
  EXPECT_TRUE(saw_stall_trace);
  obs::SlowTraceStore::Global().Clear();
}

// A well-behaved action under the same aggressive thresholds: frequent
// stream writes count as progress, so the watchdog must stay quiet.
class YieldingAction : public Action {
 public:
  void onRead(ActionOutputStream& out, ActionContext&) override {
    for (int i = 0; i < 20; ++i) {
      SpinFor(std::chrono::milliseconds(2));
      if (!out.Write("tick\n").ok()) return;
    }
  }
};
GLIDER_REGISTER_ACTION("test.yielding", YieldingAction);

TEST(StallWatchdogTest, ProgressingMethodIsNotFlagged) {
  auto& stalls = obs::MetricsRegistry::Global().GetCounter("active.stalls");
  const std::uint64_t stalls_before = stalls.value();

  ClusterOptions options;
  options.slots_per_server = 2;
  options.interleave_quantum = std::chrono::milliseconds(10);
  options.stall_multiple = 2.0;
  options.watchdog_interval = std::chrono::milliseconds(5);
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok());

  auto node = ActionNode::Create(**client, "/yield", "test.yielding");
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(ReadAll(*node).size(), 20u * 5u);

  EXPECT_EQ(stalls.value(), stalls_before);
}

}  // namespace
}  // namespace glider
