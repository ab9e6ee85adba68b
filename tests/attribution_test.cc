// Tests of the resource attribution plane (DESIGN.md §12): principal tag
// pack/unpack and propagation, the sharded resource ledger, space-saving
// heavy-hitter sketches (Zipf accuracy, merge associativity, bounded
// memory), histogram exemplars (capture + OpenMetrics exposition + trace
// resolution), empty-histogram exposition regressions, and a two-tenant
// end-to-end over a MiniCluster where the ledger's action-plane charges
// must sum exactly to the per-slot accounting.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/attribution.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/prometheus.h"
#include "common/trace.h"
#include "glider/client/action_node.h"
#include "glider/cluster_monitor.h"
#include "net/rpc_client.h"
#include "net/rpc_obs.h"
#include "testing/cluster.h"
#include "workloads/actions.h"

namespace glider {
namespace {

using obs::EventType;
using obs::LedgerCell;
using obs::LedgerEntry;
using obs::MetricsRegistry;
using obs::PrincipalFromName;
using obs::PrincipalName;
using obs::ResourceLedger;
using obs::SpaceSavingTopK;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- Principal tag ----------------------------------------------------------

TEST(PrincipalTest, PacksAndUnpacksNames) {
  EXPECT_EQ(PrincipalName(PrincipalFromName("alpha")), "alpha");
  EXPECT_EQ(PrincipalName(PrincipalFromName("a")), "a");
  EXPECT_EQ(PrincipalName(PrincipalFromName("eightchr")), "eightchr");
  // Longer names truncate deterministically.
  EXPECT_EQ(PrincipalFromName("tenant-alpha"), PrincipalFromName("tenant-a"));
  EXPECT_EQ(PrincipalName(PrincipalFromName("tenant-alpha")), "tenant-a");
  // 0 is "unattributed".
  EXPECT_EQ(PrincipalFromName(""), 0u);
  EXPECT_EQ(PrincipalName(0), "-");
  // Distinct short names map to distinct ids.
  EXPECT_NE(PrincipalFromName("alpha"), PrincipalFromName("beta"));
}

TEST(PrincipalTest, StampedIntoFrameEvenWithObservabilityOff) {
  // A client with the obs switch off must still tag its requests: servers
  // whose attribution IS on would otherwise bill its work to "-". This is
  // what makes `glider_load` (no --trace) bill tenants correctly against
  // daemons started with --trace 1.
  obs::SetEnabled(false);
  obs::PrincipalScope scope(PrincipalFromName("alpha"));
  net::Message request;
  request.opcode = 1;
  const net::ClientCallTrace trace =
      net::ClientCallTrace::Begin(request, /*transport_index=*/0);
  EXPECT_FALSE(trace.active);
  EXPECT_EQ(request.principal, PrincipalFromName("alpha"));
  EXPECT_EQ(request.trace_id, 0u);
}

TEST(PrincipalTest, NonPrintableIdsRenderAsHex) {
  // An id that decodes to non-printable bytes renders as p<hex>, never as
  // garbage bytes.
  const obs::PrincipalId weird = 0x01ff02u;
  const std::string name = PrincipalName(weird);
  EXPECT_EQ(name.rfind("p", 0), 0u) << name;
  for (const char c : name) {
    EXPECT_TRUE(c >= 0x20 && c < 0x7f) << static_cast<int>(c);
  }
}

TEST(PrincipalTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(obs::CurrentPrincipal(), 0u);
  {
    obs::PrincipalScope outer(PrincipalFromName("alpha"));
    EXPECT_EQ(obs::CurrentPrincipal(), PrincipalFromName("alpha"));
    {
      obs::PrincipalScope inner(PrincipalFromName("beta"));
      EXPECT_EQ(obs::CurrentPrincipal(), PrincipalFromName("beta"));
    }
    EXPECT_EQ(obs::CurrentPrincipal(), PrincipalFromName("alpha"));
  }
  EXPECT_EQ(obs::CurrentPrincipal(), 0u);
}

// ---- Resource ledger --------------------------------------------------------

TEST(ResourceLedgerTest, ChargesAcrossThreadsAndSnapshotsExactly) {
  auto& ledger = ResourceLedger::Global();
  ledger.Clear();
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const obs::PrincipalId who =
          PrincipalFromName(t % 2 == 0 ? "alpha" : "beta");
      for (int i = 0; i < kChargesPerThread; ++i) {
        LedgerCell cell;
        cell.cpu_us = 2;
        cell.bytes_in = 10;
        cell.invocations = 1;
        ResourceLedger::Global().Charge(who, "op.x", cell);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto entries = ledger.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  std::uint64_t cpu = 0, bytes = 0, calls = 0;
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.op, "op.x");
    cpu += entry.cell.cpu_us;
    bytes += entry.cell.bytes_in;
    calls += entry.cell.invocations;
  }
  // Exact: nothing sampled, nothing lost.
  EXPECT_EQ(calls, static_cast<std::uint64_t>(kThreads * kChargesPerThread));
  EXPECT_EQ(cpu, 2u * kThreads * kChargesPerThread);
  EXPECT_EQ(bytes, 10u * kThreads * kChargesPerThread);
  ledger.Clear();
  EXPECT_TRUE(ledger.Snapshot().empty());
}

// Threads that exit hand their ledger slot to later threads: 2000
// threads, at most 8 alive at once, each charging once (and recording one
// journal event, so each thread holds two slots), bill exactly 2000
// invocations.
TEST(ResourceLedgerTest, ExactAcrossThreadChurn) {
  auto& ledger = ResourceLedger::Global();
  ledger.Clear();
  constexpr int kThreads = 2000;
  constexpr int kWave = 8;
  for (int started = 0; started < kThreads; started += kWave) {
    std::vector<std::thread> wave;
    for (int i = 0; i < kWave; ++i) {
      wave.emplace_back([] {
        LedgerCell cell;
        cell.invocations = 1;
        ResourceLedger::Global().Charge(PrincipalFromName("churn"),
                                        "op.churn", cell);
        obs::JournalEvent(EventType::kPoolExhausted, "churn");
      });
    }
    for (auto& thread : wave) thread.join();
  }
  std::uint64_t calls = 0;
  for (const auto& entry : ledger.Snapshot()) {
    if (entry.op == "op.churn") calls += entry.cell.invocations;
  }
  EXPECT_EQ(calls, static_cast<std::uint64_t>(kThreads));
  ledger.Clear();
  obs::EventJournal::Global().Clear();
}

LedgerEntry MakeEntry(const std::string& who, const std::string& op,
                      std::uint64_t cpu) {
  LedgerEntry e;
  e.principal = PrincipalFromName(who);
  e.op = op;
  e.cell.cpu_us = cpu;
  e.cell.invocations = 1;
  return e;
}

TEST(ResourceLedgerTest, MergeIsExactAndAssociative) {
  const std::vector<LedgerEntry> a = {MakeEntry("alpha", "op.x", 10),
                                      MakeEntry("beta", "op.x", 5)};
  const std::vector<LedgerEntry> b = {MakeEntry("alpha", "op.x", 7),
                                      MakeEntry("alpha", "op.y", 3)};
  const std::vector<LedgerEntry> c = {MakeEntry("beta", "op.y", 4)};

  const auto ab_c = obs::MergeLedgerEntries(obs::MergeLedgerEntries(a, b), c);
  const auto a_bc = obs::MergeLedgerEntries(a, obs::MergeLedgerEntries(b, c));
  ASSERT_EQ(ab_c.size(), a_bc.size());
  for (std::size_t i = 0; i < ab_c.size(); ++i) {
    EXPECT_EQ(ab_c[i].principal, a_bc[i].principal);
    EXPECT_EQ(ab_c[i].op, a_bc[i].op);
    EXPECT_EQ(ab_c[i].cell.cpu_us, a_bc[i].cell.cpu_us);
    EXPECT_EQ(ab_c[i].cell.invocations, a_bc[i].cell.invocations);
  }
  // Spot-check the sums.
  for (const auto& entry : ab_c) {
    if (entry.principal == PrincipalFromName("alpha") && entry.op == "op.x") {
      EXPECT_EQ(entry.cell.cpu_us, 17u);
      EXPECT_EQ(entry.cell.invocations, 2u);
    }
  }
}

// ---- Space-saving sketch ----------------------------------------------------

// A deterministic Zipf-ish stream: key r (rank 1..kKeys) appears
// floor(kBase / r) times. Keys are offered round-robin (worst case for the
// sketch: every key keeps coming back while heavy keys accumulate).
std::vector<std::pair<std::string, std::uint64_t>> ZipfCounts(int keys,
                                                              int base) {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  for (int r = 1; r <= keys; ++r) {
    counts.emplace_back("key" + std::to_string(r),
                        static_cast<std::uint64_t>(base / r));
  }
  return counts;
}

void OfferRoundRobin(SpaceSavingTopK& sketch,
                     std::vector<std::pair<std::string, std::uint64_t>> left) {
  bool any = true;
  while (any) {
    any = false;
    for (auto& [key, remaining] : left) {
      if (remaining == 0) continue;
      sketch.Offer(key);
      --remaining;
      any = true;
    }
  }
}

TEST(SpaceSavingTopKTest, ZipfHeavyHittersWithinErrorBound) {
  SpaceSavingTopK sketch(16);
  const auto truth = ZipfCounts(/*keys=*/200, /*base=*/10000);
  std::uint64_t total = 0;
  for (const auto& [key, count] : truth) total += count;
  OfferRoundRobin(sketch, truth);

  EXPECT_EQ(sketch.Total(), total);
  EXPECT_LE(sketch.size(), 16u);

  const auto entries = sketch.Entries();
  std::map<std::string, SpaceSavingTopK::Entry> by_key;
  for (const auto& entry : entries) by_key[entry.key] = entry;

  // Space-saving guarantee: every key with true count > total/capacity is
  // tracked, and its estimate brackets the truth: true <= count <=
  // true + error.
  for (const auto& [key, true_count] : truth) {
    if (true_count <= total / 16) continue;
    ASSERT_TRUE(by_key.count(key)) << key << " (true " << true_count
                                   << ") missing from sketch";
    const auto& entry = by_key[key];
    EXPECT_GE(entry.count, true_count) << key;
    EXPECT_LE(entry.count - entry.error, true_count) << key;
  }
  // The top of the ranking is right: key1 dominates.
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.front().key, "key1");
}

TEST(SpaceSavingTopKTest, MergeIsAssociativeOnClearMargins) {
  // Three shards over the same heavy keys with clear margins between
  // ranks: union-then-trim merging is order-independent here.
  auto make = [](int base) {
    SpaceSavingTopK sketch(16);
    OfferRoundRobin(sketch, ZipfCounts(/*keys=*/30, base));
    return sketch.Entries();
  };
  const auto a = make(8000);
  const auto b = make(4000);
  const auto c = make(2000);

  const auto ab_c = SpaceSavingTopK::MergeEntries(
      SpaceSavingTopK::MergeEntries(a, b, 16), c, 16);
  const auto a_bc = SpaceSavingTopK::MergeEntries(
      a, SpaceSavingTopK::MergeEntries(b, c, 16), 16);
  ASSERT_EQ(ab_c.size(), a_bc.size());
  for (std::size_t i = 0; i < ab_c.size(); ++i) {
    EXPECT_EQ(ab_c[i].key, a_bc[i].key) << i;
    EXPECT_EQ(ab_c[i].count, a_bc[i].count) << ab_c[i].key;
  }
  // Shared keys sum across shards: key1 saw 8000 + 4000 + 2000.
  EXPECT_EQ(ab_c.front().key, "key1");
  EXPECT_GE(ab_c.front().count, 14000u);
}

TEST(SpaceSavingTopKTest, BoundedMemoryUnderChurn) {
  // 100k distinct keys churn through a 32-entry sketch: size never
  // exceeds capacity, totals stay exact.
  SpaceSavingTopK sketch(32);
  for (int i = 0; i < 100000; ++i) {
    sketch.Offer("churn" + std::to_string(i));
    ASSERT_LE(sketch.size(), 32u);
  }
  EXPECT_EQ(sketch.Total(), 100000u);
  // Every surviving entry's count is bounded by the worst-case inherited
  // minimum; errors never exceed counts.
  for (const auto& entry : sketch.Entries()) {
    EXPECT_LE(entry.error, entry.count);
  }
  sketch.Clear();
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_EQ(sketch.Total(), 0u);
}

// ---- Histogram exemplars ----------------------------------------------------

TEST(ExemplarTest, CapturedAndExposedAndResolvable) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();

  MetricsRegistry registry;
  auto& hist = registry.GetHistogram("test.lat_us");
  std::uint64_t trace_id = 0;
  {
    obs::Span root = obs::Span::Root("test", "test.request");
    trace_id = obs::CurrentTraceContext().trace_id;
    hist.Record(42);
  }
  ASSERT_NE(trace_id, 0u);

  // The bucket holding 42 retained (trace_id, value).
  const auto snap = hist.Snapshot();
  bool found = false;
  for (std::size_t i = 0; i < snap.exemplar_trace.size(); ++i) {
    if (snap.exemplar_trace[i] == trace_id) {
      EXPECT_EQ(snap.exemplar_value[i], 42u);
      EXPECT_GT(snap.buckets[i], 0u);  // exemplars only in populated buckets
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // OpenMetrics exposition: the bucket line carries the exemplar with the
  // same hex trace id the trace JSON uses, and the body is terminated by
  // the mandatory "# EOF".
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%" PRIx64, trace_id);
  const std::string text = obs::PrometheusText(
      registry, {}, obs::PrometheusFormat::kOpenMetrics);
  EXPECT_TRUE(Contains(text, "# {trace_id=\"" + std::string(hex) + "\"} 42"))
      << text;
  EXPECT_TRUE(text.size() >= 6 && text.compare(text.size() - 6, 6, "# EOF\n") == 0)
      << text;

  // The classic 0.0.4 format must stay exemplar-free — its parser rejects
  // the ` # {...}` suffix, which would fail the entire scrape.
  const std::string classic = obs::PrometheusText(registry);
  EXPECT_FALSE(Contains(classic, "# {trace_id=")) << classic;
  EXPECT_FALSE(Contains(classic, "# EOF"));

  // The exemplar's trace id resolves: the recorder holds its spans.
  bool resolved = false;
  for (const auto& span : obs::TraceRecorder::Global().Snapshot()) {
    if (span.trace_id == trace_id) resolved = true;
  }
  EXPECT_TRUE(resolved);
  obs::SetEnabled(false);
}

TEST(ExemplarTest, MergeKeepsFirstNonEmptyAndDeltaTracksGrowth) {
  obs::SetEnabled(true);
  MetricsRegistry registry;
  auto& a = registry.GetHistogram("test.a");
  auto& b = registry.GetHistogram("test.b");
  std::uint64_t ta = 0, tb = 0;
  {
    obs::Span root = obs::Span::Root("test", "a");
    ta = obs::CurrentTraceContext().trace_id;
    a.Record(5);
  }
  {
    obs::Span root = obs::Span::Root("test", "b");
    tb = obs::CurrentTraceContext().trace_id;
    b.Record(5);
  }
  auto sa = a.Snapshot();
  const auto sb = b.Snapshot();
  sa.Merge(sb);
  // Same bucket in both: the first non-empty exemplar wins (stable under
  // server ordering).
  bool saw = false;
  for (std::size_t i = 0; i < sa.exemplar_trace.size(); ++i) {
    if (sa.buckets[i] != 0) {
      EXPECT_EQ(sa.exemplar_trace[i], ta);
      EXPECT_NE(sa.exemplar_trace[i], tb);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
  obs::SetEnabled(false);
}

TEST(ExemplarTest, NoExemplarWithoutActiveTrace) {
  obs::SetEnabled(true);
  MetricsRegistry registry;
  auto& hist = registry.GetHistogram("test.untraced");
  hist.Record(7);  // no Span active: nothing to link to
  const auto snap = hist.Snapshot();
  for (std::size_t i = 0; i < snap.exemplar_trace.size(); ++i) {
    EXPECT_EQ(snap.exemplar_trace[i], 0u);
  }
  EXPECT_FALSE(Contains(
      obs::PrometheusText(registry, {}, obs::PrometheusFormat::kOpenMetrics),
      "# {trace_id="));
  obs::SetEnabled(false);
}

// ---- Empty-histogram regressions (never NaN / garbage) ----------------------

TEST(EmptyHistogramTest, PercentilesAreZeroAndExpositionIsClean) {
  MetricsRegistry registry;
  auto& hist = registry.GetHistogram("test.never_recorded");
  EXPECT_EQ(hist.Percentile(0), 0u);
  EXPECT_EQ(hist.Percentile(50), 0u);
  EXPECT_EQ(hist.Percentile(100), 0u);
  // Out-of-range p clamps instead of reading past the bucket table.
  EXPECT_EQ(hist.Percentile(-5), 0u);
  EXPECT_EQ(hist.Percentile(400), 0u);
  EXPECT_EQ(hist.Mean(), 0.0);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 0u);

  const auto snap = hist.Snapshot();
  EXPECT_EQ(snap.Percentile(50), 0u);
  EXPECT_EQ(snap.Percentile(99), 0u);
  EXPECT_EQ(snap.Mean(), 0.0);

  // Neither exposition format leaks NaN or inf for the empty family.
  const std::string json = obs::SnapshotJson(registry.Snapshot());
  EXPECT_FALSE(Contains(json, "nan"));
  EXPECT_FALSE(Contains(json, "inf"));
  const std::string prom = obs::PrometheusText(registry);
  EXPECT_FALSE(Contains(prom, "nan"));
  EXPECT_TRUE(Contains(prom, "glider_test_never_recorded_count 0\n"));
}

// ---- Prometheus HELP metadata (satellite: every family documented) ----------

TEST(PrometheusHelpTest, EveryFamilyGetsHelpBeforeType) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(1);
  registry.GetGauge("test.depth").Set(2);
  registry.GetHistogram("test.lat_us").Record(3);
  const std::string text = obs::PrometheusText(registry);
  EXPECT_TRUE(Contains(
      text, "# HELP glider_test_requests_total Glider metric "
            "'test.requests'.\n# TYPE glider_test_requests_total counter\n"))
      << text;
  EXPECT_TRUE(Contains(text,
                       "# HELP glider_test_depth Glider metric 'test.depth'."
                       "\n# TYPE glider_test_depth gauge\n"));
  EXPECT_TRUE(Contains(
      text, "# HELP glider_test_lat_us Glider metric 'test.lat_us'.\n"
            "# TYPE glider_test_lat_us histogram\n"));

  // OpenMetrics names counter families without the _total suffix (samples
  // keep it) and terminates the exposition with "# EOF".
  const std::string om =
      obs::PrometheusText(registry, {}, obs::PrometheusFormat::kOpenMetrics);
  EXPECT_TRUE(Contains(om, "# TYPE glider_test_requests counter\n"
                           "glider_test_requests_total 1\n"))
      << om;
  EXPECT_TRUE(om.size() >= 6 && om.compare(om.size() - 6, 6, "# EOF\n") == 0);
}

// ---- Node snapshot wire format ---------------------------------------------

TEST(NodeSnapshotTest, EncodeDecodeRoundTripAndMerge) {
  net::NodeSnapshot snap;
  snap.process_id = 7;
  snap.metrics.counters = {{"ops", 3}};
  snap.metrics.gauges = {{"depth", -2}};
  obs::HistogramSnapshot hist;
  hist.buckets[4] = 2;
  hist.exemplar_trace[4] = 0xabc;
  hist.exemplar_value[4] = 9;
  hist.count = 2;
  hist.sum = 20;
  hist.min = 9;
  hist.max = 11;
  snap.metrics.histograms = {{"lat_us", hist}};
  snap.series = {{"ops.rate", {{100, 1.5}, {200, 2.5}}}};
  snap.sampler_interval_ms = 20;
  snap.ledger = {MakeEntry("alpha", "op.x", 10), MakeEntry("beta", "op.y", 5)};
  net::NodeSnapshot::Sketch sketch;
  sketch.name = "keys";
  sketch.total = 15;
  SpaceSavingTopK::Entry e;
  e.key = "/hot/path";
  e.count = 15;
  e.error = 0;
  sketch.entries.push_back(e);
  snap.sketches.push_back(sketch);

  const Buffer wire = snap.Encode();
  auto decoded = net::NodeSnapshot::Decode(wire.span());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->process_id, 7u);
  ASSERT_NE(decoded->metrics.FindCounter("ops"), nullptr);
  EXPECT_EQ(*decoded->metrics.FindCounter("ops"), 3u);
  ASSERT_NE(decoded->metrics.FindGauge("depth"), nullptr);
  EXPECT_EQ(*decoded->metrics.FindGauge("depth"), -2);
  const obs::HistogramSnapshot* lat = decoded->metrics.FindHistogram("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_EQ(lat->buckets[4], 2u);
  EXPECT_EQ(lat->exemplar_trace[4], 0xabcu);
  EXPECT_EQ(lat->max, 11u);
  ASSERT_EQ(decoded->series.size(), 1u);
  EXPECT_EQ(decoded->series[0].name, "ops.rate");
  ASSERT_EQ(decoded->series[0].samples.size(), 2u);
  EXPECT_EQ(decoded->series[0].samples[1].value, 2.5);
  EXPECT_EQ(decoded->sampler_interval_ms, 20u);
  ASSERT_EQ(decoded->ledger.size(), 2u);
  EXPECT_EQ(decoded->ledger[0].principal, PrincipalFromName("alpha"));
  EXPECT_EQ(decoded->ledger[0].op, "op.x");
  EXPECT_EQ(decoded->ledger[0].cell.cpu_us, 10u);
  ASSERT_EQ(decoded->sketches.size(), 1u);
  EXPECT_EQ(decoded->sketches[0].name, "keys");
  EXPECT_EQ(decoded->sketches[0].total, 15u);
  ASSERT_EQ(decoded->sketches[0].entries.size(), 1u);
  EXPECT_EQ(decoded->sketches[0].entries[0].key, "/hot/path");

  // Merging two decoded snapshots sums ledger cells and sketch totals.
  // (Merged entries come back sorted by packed (principal, op) key, not
  // insertion order, so look the cells up by principal.)
  net::NodeSnapshot merged = *decoded;
  merged.Merge(*decoded);
  ASSERT_EQ(merged.ledger.size(), 2u);
  for (const auto& entry : merged.ledger) {
    if (entry.principal == PrincipalFromName("alpha")) {
      EXPECT_EQ(entry.cell.cpu_us, 20u);
    } else {
      EXPECT_EQ(entry.principal, PrincipalFromName("beta"));
      EXPECT_EQ(entry.cell.cpu_us, 10u);
    }
  }
  EXPECT_EQ(merged.sketches[0].total, 30u);
  EXPECT_EQ(merged.sketches[0].entries[0].count, 30u);
  EXPECT_EQ(*merged.metrics.FindCounter("ops"), 6u);
  EXPECT_EQ(merged.metrics.FindHistogram("lat_us")->count, 4u);

  // Truncated payloads fail cleanly instead of reading out of bounds.
  Buffer truncated;
  truncated.Resize(3);
  EXPECT_FALSE(net::NodeSnapshot::Decode(truncated.span()).ok());
  EXPECT_FALSE(
      net::NodeSnapshot::Decode(ByteSpan(wire.data(), wire.size() - 1)).ok());
}

// ---- Two-tenant end-to-end --------------------------------------------------

TEST(AttributionE2ETest, TwoTenantsBillSeparatelyAndSumToSlotAccounting) {
  workloads::RegisterWorkloadActions();
  obs::SetEnabled(true);
  ResourceLedger::Global().Clear();
  obs::KeySketch().Clear();
  obs::MethodSketch().Clear();
  obs::PrincipalSketch().Clear();
  MetricsRegistry::Global().ResetAll();

  testing::ClusterOptions options;
  options.use_tcp = true;  // principals must survive real frame encoding
  options.data_servers = 1;
  options.active_servers = 1;
  auto cluster = testing::MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // Two tenants, each writing a merge workload through its own action and
  // reading the result back (the read forces onWrite completion).
  auto run_tenant = [&](const std::string& who, const std::string& path) {
    obs::PrincipalScope scope(PrincipalFromName(who));
    auto client = (*cluster)->NewFaasClient();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto node = core::ActionNode::Create(**client, path, "glider.merge");
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    auto writer = node->OpenWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    std::string batch;
    for (int i = 0; i < 2000; ++i) {
      batch += std::to_string(i % 97) + "," + std::to_string(i) + "\n";
    }
    ASSERT_TRUE((*writer)->Write(batch).ok());
    ASSERT_TRUE((*writer)->Close().ok());
    auto reader = node->OpenReader();
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    while (true) {
      auto chunk = (*reader)->ReadChunk();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk->empty()) break;
    }
    ASSERT_TRUE((*reader)->Close().ok());
    auto state = node->StateBytes();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
  };
  run_tenant("alpha", "/attr-alpha");
  run_tenant("beta", "/attr-beta");

  // --- Per-principal ledger content (MiniCluster shares one process-global
  // ledger, so the local snapshot is the cluster truth).
  const auto entries = ResourceLedger::Global().Snapshot();
  std::map<obs::PrincipalId, LedgerCell> per_principal;
  LedgerCell action_total;  // all "action.*" ops across principals
  std::uint64_t action_queue_us = 0;
  std::uint64_t stream_bytes_in = 0;
  for (const auto& entry : entries) {
    per_principal[entry.principal].Merge(entry.cell);
    if (entry.op.rfind("action.", 0) == 0) {
      action_total.Merge(entry.cell);
      action_queue_us += entry.cell.queue_us;
    }
    if (entry.op == "stream.channel") stream_bytes_in += entry.cell.bytes_in;
  }
  const obs::PrincipalId alpha = PrincipalFromName("alpha");
  const obs::PrincipalId beta = PrincipalFromName("beta");
  ASSERT_TRUE(per_principal.count(alpha));
  ASSERT_TRUE(per_principal.count(beta));
  for (const obs::PrincipalId who : {alpha, beta}) {
    EXPECT_GT(per_principal[who].invocations, 0u) << PrincipalName(who);
    EXPECT_GT(per_principal[who].bytes_in, 0u) << PrincipalName(who);
    EXPECT_GT(per_principal[who].cpu_us, 0u) << PrincipalName(who);
  }

  // --- The acceptance sum: the ledger's action-plane CPU equals the
  // per-slot accounting exactly (both sides add the same ThreadCpuMicros
  // delta), and its queue time equals the queue histograms' sums.
  const auto metrics = MetricsRegistry::Global().Snapshot();
  std::uint64_t slot_cpu_us = 0, slot_bytes_in = 0, slot_bytes_out = 0;
  std::uint64_t slot_invocations = 0;
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("active.slot", 0) != 0) continue;
    if (name.size() >= 7 && name.compare(name.size() - 7, 7, ".cpu_us") == 0) {
      slot_cpu_us += value;
    }
    if (name.size() >= 12 &&
        name.compare(name.size() - 12, 12, ".invocations") == 0) {
      slot_invocations += value;
    }
    if (name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".bytes_in") == 0) {
      slot_bytes_in += value;
    }
    if (name.size() >= 10 &&
        name.compare(name.size() - 10, 10, ".bytes_out") == 0) {
      slot_bytes_out += value;
    }
  }
  EXPECT_EQ(action_total.cpu_us, slot_cpu_us);
  // Every turn — create, write, read and stat — is one invocation on both
  // sides.
  EXPECT_EQ(action_total.invocations, slot_invocations);
  std::uint64_t queue_hist_sum = 0;
  for (const auto& [name, hist] : metrics.histograms) {
    if (name.rfind("action.", 0) == 0 &&
        name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".queue_us") == 0) {
      queue_hist_sum += hist.sum;
    }
  }
  EXPECT_EQ(action_queue_us, queue_hist_sum);
  // Stream-channel push bytes billed to tenants match the slots' stream
  // bytes exactly: write-side pushes are the slots' bytes_in, and the
  // action's onRead pushes equal the slots' delivered bytes_out (the test
  // drains every read stream).
  EXPECT_EQ(stream_bytes_in, slot_bytes_in + slot_bytes_out);

  // --- The wire: one kNodeSnapshot against the metadata address carries
  // exactly the process-global ledger (same process, mgmt opcodes are
  // never charged, so nothing moves between dump and local snapshot).
  {
    auto conn = (*cluster)->transport().Connect((*cluster)->metadata_address(),
                                                nullptr);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    auto dump = net::Call<net::NodeSnapshot>(**conn, net::kNodeSnapshot,
                                             net::DumpRequest{});
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    const auto local = ResourceLedger::Global().Snapshot();
    ASSERT_EQ(dump->ledger.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ(dump->ledger[i].principal, local[i].principal);
      EXPECT_EQ(dump->ledger[i].op, local[i].op);
      EXPECT_EQ(dump->ledger[i].cell.cpu_us, local[i].cell.cpu_us);
      EXPECT_EQ(dump->ledger[i].cell.bytes_in, local[i].cell.bytes_in);
      EXPECT_EQ(dump->ledger[i].cell.invocations,
                local[i].cell.invocations);
    }
    // The dump carries all three sketches; methods saw the action methods
    // and principals saw both tenants.
    ASSERT_EQ(dump->sketches.size(), 3u);
    std::set<std::string> names;
    for (const auto& sketch : dump->sketches) names.insert(sketch.name);
    EXPECT_TRUE(names.count("keys"));
    EXPECT_TRUE(names.count("methods"));
    EXPECT_TRUE(names.count("principals"));
    for (const auto& sketch : dump->sketches) {
      if (sketch.name != "principals") continue;
      std::set<std::string> seen;
      for (const auto& entry : sketch.entries) seen.insert(entry.key);
      EXPECT_TRUE(seen.count("alpha")) << "principals sketch missing alpha";
      EXPECT_TRUE(seen.count("beta")) << "principals sketch missing beta";
    }
  }

  // --- The cluster poll merges one snapshot per process. MiniCluster's
  // servers share this process, so the merged ledger is the local one.
  // The poll's own discovery (kListServers) is charged once its reply is
  // sent, so that one cell may or may not have landed before the snapshot;
  // every other cell must match exactly.
  ClusterMonitor monitor(&(*cluster)->transport(),
                         (*cluster)->metadata_address());
  auto polled = monitor.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  auto without_discovery = [](std::vector<LedgerEntry> entries) {
    std::erase_if(entries, [](const LedgerEntry& entry) {
      return entry.op == "rpc.ListServers";
    });
    return entries;
  };
  {
    const auto merged = without_discovery(polled->merged.ledger);
    const auto local = without_discovery(ResourceLedger::Global().Snapshot());
    ASSERT_EQ(merged.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ(merged[i].principal, local[i].principal);
      EXPECT_EQ(merged[i].op, local[i].op);
      EXPECT_EQ(merged[i].cell.cpu_us, local[i].cell.cpu_us) << local[i].op;
      EXPECT_EQ(merged[i].cell.queue_us, local[i].cell.queue_us);
      EXPECT_EQ(merged[i].cell.bytes_in, local[i].cell.bytes_in);
      EXPECT_EQ(merged[i].cell.bytes_out, local[i].cell.bytes_out);
      EXPECT_EQ(merged[i].cell.invocations, local[i].cell.invocations)
          << local[i].op;
    }
  }
  std::set<obs::PrincipalId> polled_principals;
  for (const auto& entry : polled->merged.ledger) {
    polled_principals.insert(entry.principal);
  }
  EXPECT_TRUE(polled_principals.count(alpha));
  EXPECT_TRUE(polled_principals.count(beta));

  cluster->reset();
  ResourceLedger::Global().Clear();
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace glider
