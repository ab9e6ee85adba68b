// Tests of the observability layer (DESIGN.md "Observability"): latency
// histogram bucketing and merge, concurrent MetricsRegistry updates, span
// parent/child linkage, trace-context propagation across both transports,
// and the end-to-end FaaS -> RPC -> action-method trace tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "common/metrics_registry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "faas/invoker.h"
#include "glider/client/action_node.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::SpanRecord;
using obs::TraceRecorder;

// Global trace state is per-process; this binary owns it.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    TraceRecorder::Global().Clear();
  }
  void TearDown() override { obs::SetEnabled(false); }

  static std::vector<SpanRecord> SpansNamed(
      const std::vector<SpanRecord>& spans, const std::string& name) {
    std::vector<SpanRecord> out;
    for (const auto& s : spans) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }
};

// ---- Histogram buckets ------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i>=1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ull),
            LatencyHistogram::kNumBuckets - 1);

  EXPECT_EQ(LatencyHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(3), 7u);
  // Every representable value falls inside its bucket's bounds.
  for (std::uint64_t v : {1ull, 5ull, 100ull, 4096ull, 1234567ull}) {
    const std::size_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_LE(v, LatencyHistogram::BucketUpperBound(b));
    EXPECT_GT(v, LatencyHistogram::BucketUpperBound(b - 1));
  }
}

TEST(LatencyHistogramTest, RecordAndPercentiles) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(50), 0u);
  for (int i = 0; i < 100; ++i) hist.Record(10);
  hist.Record(1000);

  EXPECT_EQ(hist.Count(), 101u);
  EXPECT_EQ(hist.Min(), 10u);
  EXPECT_EQ(hist.Max(), 1000u);
  EXPECT_EQ(hist.Sum(), 100u * 10 + 1000);
  // p50 lands in 10's bucket [8, 15]; the report is the upper bound,
  // clamped to the observed extremes.
  EXPECT_GE(hist.Percentile(50), 10u);
  EXPECT_LE(hist.Percentile(50), 15u);
  EXPECT_EQ(hist.Percentile(100), 1000u);

  // A single-valued distribution reports exactly that value.
  LatencyHistogram exact;
  for (int i = 0; i < 10; ++i) exact.Record(37);
  EXPECT_EQ(exact.Percentile(50), 37u);
  EXPECT_EQ(exact.Percentile(99), 37u);
}

TEST(LatencyHistogramTest, MergeAddsBucketsAndExtremes) {
  LatencyHistogram a, b;
  a.Record(4);
  a.Record(5);
  b.Record(1000);

  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Min(), 4u);
  EXPECT_EQ(a.Max(), 1000u);
  EXPECT_EQ(a.BucketCount(LatencyHistogram::BucketIndex(1000)), 1u);
  EXPECT_EQ(a.BucketCount(LatencyHistogram::BucketIndex(4)), 2u);

  // Merging an empty histogram must not disturb min/max.
  LatencyHistogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.Min(), 4u);
  EXPECT_EQ(a.Max(), 1000u);
}

// ---- Registry under concurrency ---------------------------------------------

TEST(MetricsRegistryTest, ConcurrentUpdatesUnderThreadPool) {
  auto& registry = MetricsRegistry::Global();
  auto& counter = registry.GetCounter("test.concurrent_counter");
  auto& hist = registry.GetHistogram("test.concurrent_hist");
  counter.Reset();
  hist.Reset();

  constexpr int kTasks = 64;
  constexpr int kIterations = 1000;
  ThreadPool pool(8);
  std::atomic<int> done{0};
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(pool.Submit([&registry, &done] {
                      // Resolve by name concurrently too: same handle back.
                      auto& c = registry.GetCounter("test.concurrent_counter");
                      auto& h = registry.GetHistogram("test.concurrent_hist");
                      for (int i = 0; i < kIterations; ++i) {
                        c.Increment();
                        h.Record(static_cast<std::uint64_t>(i));
                      }
                      done.fetch_add(1);
                    })
                    .ok());
  }
  pool.Shutdown();
  ASSERT_EQ(done.load(), kTasks);
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kTasks) * kIterations);
  EXPECT_EQ(hist.Count(), static_cast<std::uint64_t>(kTasks) * kIterations);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), kIterations - 1);
}

// ---- Span linkage -----------------------------------------------------------

TEST_F(ObservabilityTest, SpanParentChildLinkage) {
  std::uint64_t root_id = 0, child_id = 0;
  {
    obs::Span root = obs::Span::Root("test", "root");
    ASSERT_TRUE(root.active());
    root_id = root.span_id();
    {
      obs::Span child("test", "child");
      ASSERT_TRUE(child.active());
      child_id = child.span_id();
      EXPECT_EQ(child.trace_id(), root.trace_id());
    }
  }
  const auto spans = TraceRecorder::Global().Snapshot();
  const auto roots = SpansNamed(spans, "root");
  const auto children = SpansNamed(spans, "child");
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(roots[0].span_id, root_id);
  EXPECT_EQ(roots[0].parent_span_id, 0u);
  EXPECT_EQ(children[0].span_id, child_id);
  EXPECT_EQ(children[0].parent_span_id, root_id);
  EXPECT_EQ(children[0].trace_id, roots[0].trace_id);

  // Spans outside any trace are inert and record nothing.
  TraceRecorder::Global().Clear();
  { obs::Span orphan("test", "orphan"); }
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
}

TEST_F(ObservabilityTest, ChromeJsonExport) {
  {
    obs::Span root = obs::Span::Root("test", "json-span");
  }
  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"json-span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
}

// The span store is a flight recorder: a slot keeps its newest
// kSpansPerSlot spans, oldest first, and counts each overwrite.
TEST_F(ObservabilityTest, SpanStoreKeepsTheNewestSpansPerSlot) {
  constexpr std::size_t kExtra = 100;
  constexpr std::size_t kTotal = TraceRecorder::kSpansPerSlot + kExtra;
  const obs::Counter& dropped =
      MetricsRegistry::Global().GetCounter("trace.dropped_spans");
  const std::uint64_t dropped_before = dropped.value();
  const obs::TraceContext parent{obs::NewTraceId(), obs::NewSpanId()};
  for (std::size_t i = 0; i < kTotal; ++i) {
    obs::RecordSpan("test", std::to_string(i), parent, obs::NewSpanId(), 0, 1);
  }
  std::vector<std::size_t> kept;
  for (const SpanRecord& s : TraceRecorder::Global().Snapshot()) {
    if (s.trace_id == parent.trace_id) kept.push_back(std::stoul(s.name));
  }
  ASSERT_EQ(kept.size(), TraceRecorder::kSpansPerSlot);
  // The kExtra oldest were overwritten; the newest is kept.
  EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()));
  EXPECT_EQ(kept.front(), kExtra);
  EXPECT_EQ(kept.back(), kTotal - 1);
  EXPECT_EQ(dropped.value() - dropped_before, kExtra);
}

// ---- Trace propagation over RPC (both transports) ---------------------------

class RecordingService : public net::Service {
 public:
  void Handle(net::Message request, net::Responder responder) override {
    // The transport's HandleWithObs wrapper installed the frame's trace
    // context before calling us.
    last_context = obs::CurrentTraceContext();
    responder.SendOk(request, std::move(request.payload));
  }
  obs::TraceContext last_context;
};

class TransportTraceTest : public ObservabilityTest,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(TransportTraceTest, ContextCrossesTheWire) {
  std::unique_ptr<net::Transport> transport;
  if (GetParam()) {
    transport = std::make_unique<net::TcpTransport>(2);
  } else {
    transport = std::make_unique<net::InProcTransport>(2);
  }
  auto service = std::make_shared<RecordingService>();
  auto listener = transport->Listen("", service);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto conn = transport->Connect((*listener)->address(), nullptr);
  ASSERT_TRUE(conn.ok());

  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;
  {
    obs::Span root = obs::Span::Root("test", "client-root");
    trace_id = root.trace_id();
    root_span_id = root.span_id();
    auto result = (*conn)->CallSync(3, Buffer::FromString("x"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // The handler observed the caller's trace id even though it ran on a
  // different thread (and, for TCP, decoded it from the wire frame).
  EXPECT_EQ(service->last_context.trace_id, trace_id);
  EXPECT_NE(service->last_context.span_id, 0u);

  const auto spans = TraceRecorder::Global().Snapshot();
  const auto client = SpansNamed(spans, "rpc.Lookup");
  const auto server = SpansNamed(spans, "handle.Lookup");
  ASSERT_EQ(client.size(), 1u);
  ASSERT_EQ(server.size(), 1u);
  // One trace: client span under the root, server span under the client
  // span (its id crossed the wire in the frame header).
  EXPECT_EQ(client[0].trace_id, trace_id);
  EXPECT_EQ(server[0].trace_id, trace_id);
  EXPECT_EQ(client[0].parent_span_id, root_span_id);
  EXPECT_EQ(server[0].parent_span_id, client[0].span_id);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTraceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

// ---- End-to-end: FaaS invocation -> RPC -> action method --------------------

class EndToEndTraceTest : public ObservabilityTest,
                          public ::testing::WithParamInterface<bool> {};

TEST_P(EndToEndTraceTest, InvocationTreeSpansAllPlanes) {
  workloads::RegisterWorkloadActions();
  testing::ClusterOptions options;
  options.use_tcp = GetParam();
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  {
    auto driver = (*cluster)->NewInternalClient();
    ASSERT_TRUE(driver.ok());
    auto node = core::ActionNode::Create(**driver, "/merge", "glider.merge",
                                         /*interleave=*/true);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
  }

  TraceRecorder::Global().Clear();
  faas::Invoker invoker(**cluster);
  const Status ran =
      invoker.RunStage(1, [](faas::WorkerContext& ctx) -> Status {
        GLIDER_ASSIGN_OR_RETURN(auto node,
                                core::ActionNode::Lookup(*ctx.store, "/merge"));
        GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
        GLIDER_RETURN_IF_ERROR(writer->Write("alpha 1\nbeta 2\n"));
        return writer->Close();
      });
  ASSERT_TRUE(ran.ok()) << ran.ToString();

  const auto spans = TraceRecorder::Global().Snapshot();
  const auto roots = SpansNamed(spans, "faas.invoke.w0");
  ASSERT_EQ(roots.size(), 1u);
  const std::uint64_t trace_id = roots[0].trace_id;

  // Child RPC spans from the worker's clients, in the same trace.
  std::size_t rpc_children = 0;
  for (const auto& s : spans) {
    if (s.trace_id == trace_id && std::string(s.category) == "rpc" &&
        s.parent_span_id == roots[0].span_id) {
      ++rpc_children;
    }
  }
  EXPECT_GT(rpc_children, 0u) << "no RPC spans under the invocation root";

  // The action method executed under the same trace id, with queue-wait
  // and run recorded separately.
  const auto queue = SpansNamed(spans, "action.onWrite.queue");
  const auto run = SpansNamed(spans, "action.onWrite.run");
  ASSERT_EQ(queue.size(), 1u);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(queue[0].trace_id, trace_id);
  EXPECT_EQ(run[0].trace_id, trace_id);
  EXPECT_GE(run[0].start_us, queue[0].start_us);

  // The histograms were fed too.
  auto& registry = MetricsRegistry::Global();
  EXPECT_GT(registry.GetHistogram("action.onWrite.queue_us").Count(), 0u);
  EXPECT_GT(registry.GetHistogram("action.onWrite.run_us").Count(), 0u);
  EXPECT_GT(registry.GetHistogram("faas.invoke_us").Count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, EndToEndTraceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

// Disabled mode: spans must record nothing (the overhead-free default).
TEST(TraceDisabledTest, NothingRecordedWhenDisabled) {
  obs::SetEnabled(false);
  TraceRecorder::Global().Clear();
  {
    obs::Span root = obs::Span::Root("test", "off");
    EXPECT_FALSE(root.active());
  }
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
}

}  // namespace
}  // namespace glider
