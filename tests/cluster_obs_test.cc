// Tests of the cluster observability plane (DESIGN.md "Cluster
// observability"): Prometheus text exposition conformance, time-series ring
// wraparound and rate computation, the MetricsRegistry::ResetAll() vs
// concurrent-sampler regression, slow-trace retention (bounds + adaptive
// threshold), the /metrics HTTP responder, the management routes every
// server answers, and an end-to-end ClusterMonitor merge over a
// MiniCluster.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/prometheus.h"
#include "common/time_series.h"
#include "common/trace.h"
#include "glider/cluster_monitor.h"
#include "net/http_metrics.h"
#include "net/rpc_client.h"
#include "nodekernel/client/store_client.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::SlowTraceStore;
using obs::SpanRecord;
using obs::TimeSeries;
using obs::TimeSeriesSampler;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- Prometheus exposition --------------------------------------------------

TEST(PrometheusTest, SanitizeNames) {
  EXPECT_EQ(obs::PrometheusSanitize("rpc.latency.Get"), "rpc_latency_Get");
  EXPECT_EQ(obs::PrometheusSanitize("already_fine"), "already_fine");
  EXPECT_EQ(obs::PrometheusSanitize("weird-chars!here"), "weird_chars_here");
  // Leading digits and empty names are not valid metric names.
  EXPECT_EQ(obs::PrometheusSanitize("1abc"), "_1abc");
  EXPECT_EQ(obs::PrometheusSanitize(""), "_");
}

TEST(PrometheusTest, CounterAndGaugeExposition) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(7);
  registry.GetGauge("test.depth").Set(-3);

  const std::string text = obs::PrometheusText(registry);
  EXPECT_TRUE(Contains(text, "# TYPE glider_test_requests_total counter\n"));
  EXPECT_TRUE(Contains(text, "glider_test_requests_total 7\n"));
  EXPECT_TRUE(Contains(text, "# TYPE glider_test_depth gauge\n"));
  EXPECT_TRUE(Contains(text, "glider_test_depth -3\n"));
  // The format requires a trailing newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusTest, HistogramExpositionIsCumulative) {
  MetricsRegistry registry;
  auto& hist = registry.GetHistogram("test.lat_us");
  hist.Record(1);   // bucket le="1"
  hist.Record(1);
  hist.Record(10);  // bucket le="15"

  const std::string text = obs::PrometheusText(registry);
  EXPECT_TRUE(Contains(text, "# TYPE glider_test_lat_us histogram\n"));
  // Cumulative counts: 2 at le=1, 3 by le=15 and at +Inf.
  EXPECT_TRUE(Contains(text, "glider_test_lat_us_bucket{le=\"1\"} 2\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_us_bucket{le=\"15\"} 3\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_us_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_us_sum 12\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_us_count 3\n"));
  // Empty buckets are elided: nothing between le=1 and le=15.
  EXPECT_FALSE(Contains(text, "le=\"3\""));
  EXPECT_FALSE(Contains(text, "le=\"7\""));
}

TEST(PrometheusTest, LabelValuesAreEscaped) {
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("line\nbreak"), "line\\nbreak");

  MetricsRegistry registry;
  registry.GetCounter("test.ops").Add(1);
  registry.GetGauge("test.depth").Set(2);
  registry.GetHistogram("test.lat").Record(1);
  const std::string text = obs::PrometheusText(
      registry, {{"role", "active"}, {"note", "a\"b\\c\nd"}});
  const std::string block = "{role=\"active\",note=\"a\\\"b\\\\c\\nd\"}";
  EXPECT_TRUE(Contains(text, "glider_test_ops_total" + block + " 1\n"));
  EXPECT_TRUE(Contains(text, "glider_test_depth" + block + " 2\n"));
  // Histogram series carry the labels too; le is appended last so the
  // shared label prefix stays byte-identical across the family.
  EXPECT_TRUE(Contains(text, "glider_test_lat_bucket{role=\"active\",note="
                             "\"a\\\"b\\\\c\\nd\",le=\"1\"} 1\n"));
  EXPECT_TRUE(Contains(text, ",le=\"+Inf\"} 1\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_sum" + block + " 1\n"));
  EXPECT_TRUE(Contains(text, "glider_test_lat_count" + block + " 1\n"));
  // TYPE comments name the bare metric, never a labeled series.
  EXPECT_TRUE(Contains(text, "# TYPE glider_test_ops_total counter\n"));
}

TEST(PrometheusTest, HistogramInfStaysConsistentWithBuckets) {
  // An event beyond the last finite bound lands in the overflow bucket: it
  // appears only in the +Inf series, which must still equal _count.
  MetricsRegistry registry;
  auto& hist = registry.GetHistogram("test.big");
  hist.Record(std::uint64_t{1} << 63);
  hist.Record(1);
  std::string text = obs::PrometheusText(registry);
  EXPECT_TRUE(Contains(text, "glider_test_big_bucket{le=\"1\"} 1\n"));
  EXPECT_TRUE(Contains(text, "glider_test_big_bucket{le=\"+Inf\"} 2\n"));
  EXPECT_TRUE(Contains(text, "glider_test_big_count 2\n"));

  // A snapshot torn across relaxed loads (buckets incremented, count not
  // yet) must still satisfy +Inf == _count >= every finite le bucket.
  obs::MetricsSnapshot snapshot;
  obs::HistogramSnapshot torn;
  torn.buckets[1] = 3;  // three events visible in the le="1" bucket...
  torn.count = 1;       // ...but the count load saw only one
  torn.sum = 3;
  snapshot.histograms = {{"torn", torn}};
  text = obs::PrometheusText(snapshot);
  EXPECT_TRUE(Contains(text, "glider_torn_bucket{le=\"1\"} 3\n"));
  EXPECT_TRUE(Contains(text, "glider_torn_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(Contains(text, "glider_torn_count 3\n"));
}

// ---- TimeSeries ring --------------------------------------------------------

TEST(TimeSeriesTest, RingWrapsAroundKeepingNewest) {
  TimeSeries ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Push({i * 100, static_cast<double>(i)});
  }
  EXPECT_EQ(ring.size(), 4u);
  const auto samples = ring.Samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest -> newest, the two earliest pushes evicted.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].value, static_cast<double>(i + 3));
    EXPECT_EQ(samples[i].t_us, (i + 3) * 100);
  }
}

// ---- TimeSeriesSampler ------------------------------------------------------

TEST(TimeSeriesSamplerTest, CounterRatesAndWindowedPercentiles) {
  MetricsRegistry registry;
  TimeSeriesSampler sampler(registry);
  auto& counter = registry.GetCounter("ops");
  auto& gauge = registry.GetGauge("depth");
  auto& hist = registry.GetHistogram("lat_us");

  counter.Add(10);
  gauge.Set(5);
  hist.Record(100);
  sampler.SampleOnce(1'000'000);  // baseline only: no points yet
  for (const auto& series : sampler.Snapshot()) {
    EXPECT_TRUE(series.samples.empty()) << series.name;
  }

  counter.Add(50);          // +50 over 2 seconds -> 25/s
  gauge.Set(9);
  for (int i = 0; i < 10; ++i) hist.Record(40);  // window: 10 records at 40
  sampler.SampleOnce(3'000'000);

  double rate = -1, depth = -1, p50 = -1, hist_rate = -1;
  for (const auto& series : sampler.Snapshot()) {
    ASSERT_EQ(series.samples.size(), 1u) << series.name;
    const double v = series.samples.back().value;
    if (series.name == "ops.rate") rate = v;
    if (series.name == "depth") depth = v;
    if (series.name == "lat_us.p50") p50 = v;
    if (series.name == "lat_us.rate") hist_rate = v;
  }
  EXPECT_NEAR(rate, 25.0, 0.01);
  EXPECT_EQ(depth, 9.0);
  EXPECT_NEAR(hist_rate, 5.0, 0.01);
  // The windowed p50 reflects only the 40s recorded inside the window, not
  // the 100 from before the baseline: 40 lands in bucket [32, 63].
  EXPECT_GE(p50, 40.0);
  EXPECT_LE(p50, 63.0);
}

// Regression test: benches call ResetAll() while the sampler thread reads.
// The sampler must rebaseline on a generation change — never emit a rate
// point computed across the reset (which would underflow to garbage).
TEST(TimeSeriesSamplerTest, ResetAllRebaselinesInsteadOfBogusRates) {
  MetricsRegistry registry;
  TimeSeriesSampler sampler(registry);
  auto& counter = registry.GetCounter("ops");

  counter.Add(1000);
  sampler.SampleOnce(1'000'000);
  counter.Add(10);
  sampler.SampleOnce(2'000'000);  // honest point: 10/s

  registry.ResetAll();            // counter back to 0: below the baseline
  counter.Add(3);
  sampler.SampleOnce(3'000'000);  // must rebaseline, not emit (3-1010)/1s

  counter.Add(8);
  sampler.SampleOnce(4'000'000);  // honest again: 8/s

  EXPECT_EQ(sampler.rebaselines(), 1u);
  std::vector<double> rates;
  for (const auto& series : sampler.Snapshot()) {
    if (series.name != "ops.rate") continue;
    for (const auto& sample : series.samples) rates.push_back(sample.value);
  }
  ASSERT_EQ(rates.size(), 2u);  // the reset tick emitted nothing
  EXPECT_NEAR(rates[0], 10.0, 0.01);
  EXPECT_NEAR(rates[1], 8.0, 0.01);
  for (double r : rates) EXPECT_GE(r, 0.0);
}

// The same property with the real background thread and the global
// registry: hammer ResetAll() against a fast sampler and require every
// emitted rate to be finite and non-negative.
TEST(TimeSeriesSamplerTest, ConcurrentResetAllNeverEmitsNegativeRates) {
  auto& registry = MetricsRegistry::Global();
  auto& counter = registry.GetCounter("test.reset_race");
  TimeSeriesSampler sampler(registry);
  TimeSeriesSampler::Options options;
  options.interval = std::chrono::milliseconds(1);
  ASSERT_TRUE(sampler.Start(options).ok());

  std::thread resetter([&] {
    for (int i = 0; i < 50; ++i) {
      registry.ResetAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 5000; ++i) counter.Increment();
  resetter.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.Stop();

  for (const auto& series : sampler.Snapshot()) {
    for (const auto& sample : series.samples) {
      EXPECT_GE(sample.value, 0.0) << series.name;
    }
  }
}

TEST(TimeSeriesSamplerTest, StartStopLifecycle) {
  MetricsRegistry registry;
  TimeSeriesSampler sampler(registry);
  TimeSeriesSampler::Options options;
  options.interval = std::chrono::milliseconds(5);
  ASSERT_TRUE(sampler.Start(options).ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start(options).ok());  // double-start rejected
  registry.GetCounter("ticks").Add(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  sampler.Stop();  // idempotent
}

// ---- Slow-trace retention ---------------------------------------------------

SpanRecord MakeRoot(const std::string& name, std::uint64_t dur_us,
                    std::uint64_t trace_id) {
  SpanRecord root;
  root.name = name;
  root.category = "test";
  root.trace_id = trace_id;
  root.span_id = trace_id * 10;
  root.parent_span_id = 0;
  root.start_us = 1000;
  root.dur_us = dur_us;
  return root;
}

TEST(SlowTraceStoreTest, MinThresholdFiltersFastSpans) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 100;
  options.multiplier = 3.0;
  options.capacity = 8;
  SlowTraceStore store(options);

  // Below the floor: never slow, whatever the (empty) p99 says.
  store.OnRootSpanEnd(MakeRoot("op", 50, 1), /*recorder=*/nullptr);
  EXPECT_EQ(store.size(), 0u);
  // Above the floor with no history for this op: retained at the floor.
  store.OnRootSpanEnd(MakeRoot("op2", 500, 2), /*recorder=*/nullptr);
  ASSERT_EQ(store.size(), 1u);
  const auto traces = store.Snapshot();
  EXPECT_EQ(traces[0].root.dur_us, 500u);
  EXPECT_EQ(traces[0].threshold_us, 100u);
}

TEST(SlowTraceStoreTest, AdaptiveThresholdTracksLiveP99) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 10;
  options.multiplier = 2.0;
  options.capacity = 64;
  SlowTraceStore store(options);

  // Build history: 100 spans of ~1000us. Every record's threshold is
  // computed from the samples *before* it, so the p99 converges to the
  // 1000us bucket and the adaptive threshold to ~2 * p99.
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.OnRootSpanEnd(MakeRoot("op", 1000, 100 + i), nullptr);
  }
  store.Clear();  // drop retained traces, but Clear drops histograms too —
  // rebuild the history without retention by staying under the threshold.
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.OnRootSpanEnd(MakeRoot("op", 9, 300 + i), nullptr);
  }
  EXPECT_EQ(store.size(), 0u);  // all below min_threshold_us

  // p99 of the history is in the 9us bucket (upper bound 15): the adaptive
  // threshold is about 2 * 9..15 = 18..30us. A 25..31us span may straddle;
  // a 100us span must be retained, a 10us span must not.
  store.OnRootSpanEnd(MakeRoot("op", 10, 500), nullptr);
  EXPECT_EQ(store.size(), 0u);
  store.OnRootSpanEnd(MakeRoot("op", 100, 501), nullptr);
  EXPECT_EQ(store.size(), 1u);

  // A different op name has its own histogram and threshold.
  store.OnRootSpanEnd(MakeRoot("other", 11, 502), nullptr);
  EXPECT_EQ(store.size(), 2u);  // fresh history: floor applies, 11 > 10
}

TEST(SlowTraceStoreTest, RingIsBoundedOldestEvicted) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 1;
  // Zero multiplier keeps the threshold at the 1us floor so every span is
  // retained and the ring actually fills past capacity.
  options.multiplier = 0.0;
  options.capacity = 4;
  SlowTraceStore store(options);

  for (std::uint64_t i = 0; i < 10; ++i) {
    store.OnRootSpanEnd(MakeRoot("op" + std::to_string(i), 100 + i, i + 1),
                        nullptr);
  }
  EXPECT_EQ(store.size(), 4u);
  const auto traces = store.Snapshot();
  ASSERT_EQ(traces.size(), 4u);
  // The four newest survive, oldest first.
  EXPECT_EQ(traces[0].root.name, "op6");
  EXPECT_EQ(traces[3].root.name, "op9");
}

TEST(SlowTraceStoreTest, JsonContainsOnlyRetainedTraces) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 100;
  options.capacity = 8;
  SlowTraceStore store(options);
  store.OnRootSpanEnd(MakeRoot("fast_op", 5, 1), nullptr);
  store.OnRootSpanEnd(MakeRoot("slow_op", 5000, 2), nullptr);

  const std::string json = store.ToJson();
  EXPECT_TRUE(Contains(json, "\"slowTraces\""));
  EXPECT_TRUE(Contains(json, "slow_op"));
  EXPECT_TRUE(Contains(json, "\"threshold_us\""));
  EXPECT_FALSE(Contains(json, "fast_op"));

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(Contains(store.ToJson(), "slow_op"));
}

// The watchdog path: Flag() retains unconditionally, bypassing both the
// floor and the adaptive threshold, but honors the same ring bound.
TEST(SlowTraceStoreTest, FlagBypassesAdaptiveJudgement) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 1'000'000;  // nothing qualifies organically
  options.capacity = 2;
  SlowTraceStore store(options);

  store.OnRootSpanEnd(MakeRoot("fast", 5, 1), nullptr);
  EXPECT_EQ(store.size(), 0u);
  store.Flag(MakeRoot("stall.slot0.run", 777, 2), /*threshold_us=*/123);
  ASSERT_EQ(store.size(), 1u);
  const auto traces = store.Snapshot();
  EXPECT_EQ(traces[0].root.name, "stall.slot0.run");
  EXPECT_EQ(traces[0].threshold_us, 123u);
  EXPECT_TRUE(Contains(store.ToJson(), "stall.slot0.run"));

  for (std::uint64_t i = 0; i < 5; ++i) {
    store.Flag(MakeRoot("s" + std::to_string(i), 10, 10 + i), 1);
  }
  EXPECT_EQ(store.size(), 2u);  // ring bound applies to flagged entries too
}

// Hammer record/Flag from several threads while dump/clear readers run: the
// per-op threshold histograms adapt under the same mutex as retention, the
// ring must never exceed capacity, and no dump may observe a torn trace.
TEST(SlowTraceStoreTest, ConcurrentRecordAndDumpStaysBounded) {
  SlowTraceStore::Options options;
  options.min_threshold_us = 1;
  options.multiplier = 2.0;  // adaptive: recording also mutates histograms
  options.capacity = 16;
  SlowTraceStore store(options);

  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto traces = store.Snapshot();
      EXPECT_LE(traces.size(), 16u);
      for (const auto& trace : traces) {
        EXPECT_FALSE(trace.root.name.empty());
      }
      const std::string json = store.ToJson();
      EXPECT_TRUE(Contains(json, "\"slowTraces\""));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, t] {
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(t) * 100000 + i;
        if (i % 3 == 0) {
          store.Flag(MakeRoot("flagged" + std::to_string(t), 50, id), 42);
        } else {
          // Durations spread across buckets so each op's p99 keeps moving
          // while other threads read it.
          store.OnRootSpanEnd(
              MakeRoot("op" + std::to_string(t), 1 + (i % 512), id), nullptr);
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  EXPECT_LE(store.size(), 16u);
  EXPECT_GT(store.size(), 0u);  // flagged entries guarantee retention
}

// End-to-end: a real traced span over the global store. Root spans flow
// through SlowTraceStore::Global() on End(); only over-threshold ones stay.
TEST(SlowTraceStoreTest, RootSpansFeedTheGlobalStore) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();
  auto& store = SlowTraceStore::Global();
  const SlowTraceStore::Options saved = store.options();
  SlowTraceStore::Options options;
  options.min_threshold_us = 1000;  // 1ms floor
  options.capacity = 8;
  store.SetOptions(options);
  store.Clear();

  {
    obs::Span fast = obs::Span::Root("test", "instant_root");
    // Another trace's span, retained beside the slow trace's own.
    obs::Span other("test", "other_trace_child");
  }
  {
    obs::Span slow = obs::Span::Root("test", "slept_root");
    obs::Span child("test", "slept_child");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto traces = store.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].root.name, "slept_root");
  // The retained trace carries its span tree (root excluded).
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_EQ(traces[0].spans[0].name, "slept_child");

  store.Clear();
  store.SetOptions(saved);
  obs::SetEnabled(false);
}

// ---- /metrics HTTP responder ------------------------------------------------

// Minimal blocking HTTP GET against 127.0.0.1:<port>; returns the raw
// response (headers + body).
std::string HttpGet(const std::string& address, const std::string& target,
                    const std::string& extra_headers = {}) {
  const auto colon = address.rfind(':');
  const std::string host = address.substr(0, colon);
  const int port = std::atoi(address.substr(colon + 1).c_str());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\n" + extra_headers + "\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpMetricsTest, MetricsEndpointAndNotFound) {
  MetricsRegistry registry;
  registry.GetCounter("http.test_counter").Add(42);
  auto server = net::HttpMetricsServer::Listen("127.0.0.1:0", registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string ok = HttpGet((*server)->address(), "/metrics");
  EXPECT_TRUE(Contains(ok, "HTTP/1.1 200"));
  EXPECT_TRUE(Contains(ok, "text/plain; version=0.0.4"));
  EXPECT_TRUE(Contains(ok, "glider_http_test_counter_total 42"));
  EXPECT_FALSE(Contains(ok, "# EOF"));

  // Scrapers that ask for OpenMetrics (the exemplar-capable format) get it,
  // with the matching content type and the mandatory "# EOF" terminator.
  const std::string om =
      HttpGet((*server)->address(), "/metrics",
              "Accept: application/openmetrics-text; version=1.0.0\r\n");
  EXPECT_TRUE(Contains(om, "HTTP/1.1 200"));
  EXPECT_TRUE(Contains(om, "application/openmetrics-text; version=1.0.0"));
  EXPECT_TRUE(Contains(om, "glider_http_test_counter_total 42"));
  EXPECT_TRUE(Contains(om, "# EOF"));

  const std::string missing = HttpGet((*server)->address(), "/nope");
  EXPECT_TRUE(Contains(missing, "HTTP/1.1 404"));
}

// ---- ClusterMonitor over a MiniCluster --------------------------------------

// ---- Management routes -----------------------------------------------------

// Histograms, spans and ledger ops are named by RpcOpName; it must agree
// with the name each router registered, for every routed opcode.
TEST(ManagementRoutesTest, RpcOpNameMatchesEveryRouter) {
  workloads::RegisterWorkloadActions();
  auto cluster = testing::MiniCluster::Start(testing::ClusterOptions{});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::vector<const net::ServiceRouter*> routers = {
      &(*cluster)->metadata(), &(*cluster)->data(), &(*cluster)->active()};
  for (const net::ServiceRouter* router : routers) {
    int service_ops = 0;
    int management_ops = 0;
    for (std::uint16_t op = 0; op < 64; ++op) {
      const char* name = router->OpName(op);
      if (name == nullptr) continue;
      ++(net::IsManagementOp(op) ? management_ops : service_ops);
      EXPECT_STREQ(net::RpcOpName(op), name)
          << router->service_name() << " opcode " << op;
    }
    EXPECT_GT(service_ops, 0) << router->service_name();
    EXPECT_EQ(management_ops, 7) << router->service_name();
  }
}

TEST(ManagementRoutesTest, EachOpRecordsItsOwnHistogram) {
  obs::SetEnabled(true);
  testing::ClusterOptions options;
  options.use_tcp = true;
  options.active_servers = 0;
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto count = [](const std::string& name) {
    return MetricsRegistry::Global().GetHistogram(name).Count();
  };
  const char* const kNames[] = {
      "rpc.client.tcp.Heartbeat_us", "rpc.client.tcp.NodeSnapshot_us",
      "rpc.client.tcp.OpOther_us",   "rpc.server.tcp.Heartbeat_us",
      "rpc.server.tcp.NodeSnapshot_us", "rpc.server.tcp.OpOther_us"};
  std::map<std::string, std::uint64_t> before;
  for (const char* name : kNames) before[name] = count(name);

  auto conn = (*cluster)->transport().Connect((*cluster)->metadata_address(),
                                              nullptr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(net::Call<net::HeartbeatResponse>(**conn, net::kHeartbeat,
                                                net::EmptyRequest{})
                  .ok());
  ASSERT_TRUE(net::Call<net::NodeSnapshot>(**conn, net::kNodeSnapshot,
                                           net::DumpRequest{})
                  .ok());

  // The client records before its call returns; the server records once
  // its handler returned, which may trail the reply.
  EXPECT_EQ(count("rpc.client.tcp.Heartbeat_us"),
            before["rpc.client.tcp.Heartbeat_us"] + 1);
  EXPECT_EQ(count("rpc.client.tcp.NodeSnapshot_us"),
            before["rpc.client.tcp.NodeSnapshot_us"] + 1);
  for (int i = 0; i < 200; ++i) {
    if (count("rpc.server.tcp.NodeSnapshot_us") >
            before["rpc.server.tcp.NodeSnapshot_us"] &&
        count("rpc.server.tcp.Heartbeat_us") >
            before["rpc.server.tcp.Heartbeat_us"]) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count("rpc.server.tcp.Heartbeat_us"),
            before["rpc.server.tcp.Heartbeat_us"] + 1);
  EXPECT_EQ(count("rpc.server.tcp.NodeSnapshot_us"),
            before["rpc.server.tcp.NodeSnapshot_us"] + 1);
  EXPECT_EQ(count("rpc.client.tcp.OpOther_us"),
            before["rpc.client.tcp.OpOther_us"]);
  EXPECT_EQ(count("rpc.server.tcp.OpOther_us"),
            before["rpc.server.tcp.OpOther_us"]);
  obs::SetEnabled(false);
}

// ---- ClusterMonitor over a MiniCluster --------------------------------------

TEST(ClusterMonitorTest, MergeSumsCountersAndHistograms) {
  net::NodeSnapshot a, b;
  a.metrics.counters = {{"ops", 10}, {"only_a", 1}};
  b.metrics.counters = {{"ops", 32}};
  a.metrics.gauges = {{"depth", 2}};
  b.metrics.gauges = {{"depth", 3}};
  obs::HistogramSnapshot ha, hb;
  ha.buckets[4] = 5;  // five events in [8, 15]
  ha.count = 5;
  ha.sum = 50;
  ha.min = 8;
  ha.max = 15;
  hb.buckets[10] = 1;  // one event in [512, 1023]
  hb.count = 1;
  hb.sum = 600;
  hb.min = 600;
  hb.max = 600;
  a.metrics.histograms = {{"lat", ha}};
  b.metrics.histograms = {{"lat", hb}};
  b.series = {{"ops.rate", {{1, 2.0}}}};

  net::NodeSnapshot merged;
  merged.Merge(a);
  merged.Merge(b);
  // Process id and series describe one process; the merge leaves them.
  EXPECT_EQ(merged.process_id, 0u);
  EXPECT_TRUE(merged.series.empty());
  ASSERT_EQ(merged.metrics.counters.size(), 2u);
  EXPECT_EQ(merged.metrics.counters[0].first, "ops");
  EXPECT_EQ(merged.metrics.counters[0].second, 42u);
  EXPECT_EQ(merged.metrics.counters[1].first, "only_a");
  ASSERT_EQ(merged.metrics.gauges.size(), 1u);
  EXPECT_EQ(merged.metrics.gauges[0].second, 5);
  ASSERT_EQ(merged.metrics.histograms.size(), 1u);
  const auto& h = merged.metrics.histograms[0].second;
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 650u);
  // Percentiles over merged buckets are cluster-exact: p50 in [8, 15],
  // p99+ reaches the slow server's bucket.
  EXPECT_LE(h.Percentile(50), 15u);
  EXPECT_GE(h.Percentile(99), 512u);
}

TEST(ClusterMonitorTest, PollsAndMergesLiveMiniCluster) {
  workloads::RegisterWorkloadActions();
  obs::SetEnabled(true);
  obs::TimeSeriesSampler::Global().Clear();

  testing::ClusterOptions options;
  options.use_tcp = true;  // monitoring runs over real sockets
  options.data_servers = 2;
  options.active_servers = 1;
  options.sample_interval = std::chrono::milliseconds(20);
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // Generate some traffic so counters and histograms have content.
  {
    auto client = (*cluster)->NewInternalClient();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->CreateNode("/obs-dir", nk::NodeType::kDirectory).ok());
    ASSERT_TRUE((*client)->Lookup("/obs-dir").ok());
  }
  // Let the sampler take at least two ticks (first one is baseline-only).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  ClusterMonitor monitor(&(*cluster)->transport(),
                         (*cluster)->metadata_address());
  auto sample = monitor.Poll();
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();

  // metadata + 2 data + 1 active = 4 targets discovered, each polled...
  ASSERT_EQ(sample->servers.size(), 4u);
  EXPECT_TRUE(sample->servers[0].is_metadata);
  for (const auto& server : sample->servers) {
    ASSERT_TRUE(server.status.ok()) << server.server.address << ": "
                                    << server.status.ToString();
    EXPECT_EQ(server.snapshot.process_id,
              sample->servers[0].snapshot.process_id);
  }
  // ...but MiniCluster runs in one process, so the merge counts it once: a
  // metric moved by the traffic above (and not by the poll) equals the
  // local registry's value.
  const obs::HistogramSnapshot* lookups =
      sample->merged.metrics.FindHistogram("meta.lookup_us");
  ASSERT_NE(lookups, nullptr);
  EXPECT_GT(lookups->count, 0u);
  EXPECT_EQ(lookups->count,
            MetricsRegistry::Global().GetHistogram("meta.lookup_us").Count());

  // The merged snapshot saw the RPC server histograms from the traffic.
  bool saw_rpc_hist = false;
  for (const auto& [name, hist] : sample->merged.metrics.histograms) {
    if (name.rfind("rpc.server.", 0) == 0 && hist.count > 0) {
      saw_rpc_hist = true;
    }
  }
  EXPECT_TRUE(saw_rpc_hist);

  // The sampler produced series, and the dump carried its interval.
  bool saw_series = false;
  for (const auto& server : sample->servers) {
    EXPECT_EQ(server.snapshot.sampler_interval_ms, 20u);
    if (!server.snapshot.series.empty()) saw_series = true;
  }
  EXPECT_TRUE(saw_series);

  // A second poll over the cached connections still works.
  auto again = monitor.Poll();
  ASSERT_TRUE(again.ok()) << again.status().ToString();

  cluster->reset();  // stops the sampler it started
  EXPECT_FALSE(obs::TimeSeriesSampler::Global().running());
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace glider
