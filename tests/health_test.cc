// Tests of the cluster health plane (DESIGN.md "Cluster health plane"):
// the structured event journal (ring bounds, cross-thread merge, JSON),
// phi-accrual failure detection under synthetic clocks (growth, the
// three-window detection bound, dead-state stickiness, zero false positives
// over a jittered 10s steady state), the load/hotspot tracker, the
// kHeartbeat/kHealthDump/kEventDump opcodes, and end-to-end ClusterMonitor
// behavior over a MiniCluster: degraded polling when the metadata server is
// partitioned away, alive -> suspect -> dead detection after a hard server
// kill, heartbeat rounds, and the started (background) watcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/attribution.h"
#include "common/event_journal.h"
#include "common/health.h"
#include "common/load.h"
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

using obs::EventJournal;
using obs::EventType;
using obs::HealthDetector;
using obs::LedgerCell;
using obs::PeerState;
using obs::PrincipalFromName;
using obs::ResourceLedger;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::vector<obs::Event> EventsFor(EventType type, const std::string& scope) {
  std::vector<obs::Event> out;
  for (const auto& event : EventJournal::Global().Snapshot()) {
    if (event.type == type && event.scope == scope) out.push_back(event);
  }
  return out;
}

// ---- Event journal ----------------------------------------------------------

TEST(EventJournalTest, RecordSnapshotClear) {
  auto& journal = EventJournal::Global();
  journal.Clear();
  journal.Record(EventType::kServerUp, "addr:1", "storage");
  journal.Record(EventType::kSlotStall, "slot3", "glider.merge", 1234);

  const auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by timestamp; both recorded on this thread in order.
  EXPECT_LE(events[0].t_us, events[1].t_us);
  EXPECT_EQ(events[0].type, EventType::kServerUp);
  EXPECT_EQ(events[0].scope, "addr:1");
  EXPECT_EQ(events[0].detail, "storage");
  EXPECT_EQ(events[1].value, 1234);
  EXPECT_EQ(journal.Overwritten(), 0u);

  journal.Clear();
  EXPECT_TRUE(journal.Snapshot().empty());
}

TEST(EventJournalTest, RingBoundsRetainedEventsAndCountsOverwrites) {
  auto& journal = EventJournal::Global();
  journal.Clear();
  const std::size_t total = EventJournal::kRingCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    journal.Record(EventType::kPoolExhausted, "pool", "",
                   static_cast<std::int64_t>(i));
  }
  const auto events = journal.Snapshot();
  EXPECT_EQ(events.size(), EventJournal::kRingCapacity);
  EXPECT_EQ(journal.Overwritten(), 50u);
  // The newest events win: the highest value recorded must survive.
  std::int64_t max_value = -1;
  for (const auto& event : events) max_value = std::max(max_value, event.value);
  EXPECT_EQ(max_value, static_cast<std::int64_t>(total - 1));
  journal.Clear();
}

TEST(EventJournalTest, MergesThreadRingsSortedByTime) {
  auto& journal = EventJournal::Global();
  journal.Clear();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Record(EventType::kPoolExhausted,
                       "thread" + std::to_string(t), "", i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto events = journal.Snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_us, events[i].t_us);
  }
  journal.Clear();
}

// Threads that exit hand their journal ring to later threads: 2000
// threads, at most 8 alive at once, each recording one event (and charging
// the ledger once, so each thread holds two slots), lose no event
// unaccounted: every one is retained or counted as overwritten.
TEST(EventJournalTest, EveryEventAccountedAcrossThreadChurn) {
  auto& journal = EventJournal::Global();
  journal.Clear();
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
  EXPECT_EQ(EventsFor(EventType::kPoolExhausted, "churn").size() +
                journal.Overwritten(),
            static_cast<std::uint64_t>(kThreads));
  journal.Clear();
  ResourceLedger::Global().Clear();
}

TEST(EventJournalTest, JsonShape) {
  auto& journal = EventJournal::Global();
  journal.Clear();
  journal.Record(EventType::kPeerDead, "10.0.0.1:7000", "from suspect", 9500);
  const std::string json = journal.ToJson();
  EXPECT_TRUE(Contains(json, "\"events\":["));
  EXPECT_TRUE(Contains(json, "\"type\":\"peer_dead\""));
  EXPECT_TRUE(Contains(json, "\"scope\":\"10.0.0.1:7000\""));
  EXPECT_TRUE(Contains(json, "\"detail\":\"from suspect\""));
  EXPECT_TRUE(Contains(json, "\"value\":9500"));
  EXPECT_TRUE(Contains(json, "\"overwritten\":0"));
  journal.Clear();
}

// ---- Phi-accrual failure detection (synthetic clocks) -----------------------

constexpr std::uint64_t kBeat = 100 * 1000;  // 100ms heartbeat cadence

// Feeds `beats` regular heartbeats starting at t=kBeat and returns the time
// of the last one.
std::uint64_t FeedRegular(HealthDetector& detector, const std::string& addr,
                          int beats) {
  std::uint64_t t = 0;
  for (int i = 1; i <= beats; ++i) {
    t = static_cast<std::uint64_t>(i) * kBeat;
    detector.Heartbeat(addr, t);
  }
  return t;
}

TEST(HealthDetectorTest, FirstHeartbeatMarksAlive) {
  HealthDetector detector;
  EXPECT_EQ(detector.State("a", 1), PeerState::kUnknown);
  EXPECT_EQ(detector.Phi("a", 1), 0.0);
  detector.Heartbeat("a", kBeat);
  EXPECT_EQ(detector.State("a", kBeat + 1), PeerState::kAlive);
}

TEST(HealthDetectorTest, PhiGrowsMonotonicallyWithSilence) {
  HealthDetector detector;
  const std::uint64_t last = FeedRegular(detector, "a", 20);
  double prev = -1.0;
  for (int step = 1; step <= 10; ++step) {
    const double phi = detector.Phi("a", last + step * kBeat);
    EXPECT_GE(phi, prev);
    prev = phi;
  }
  // Right after a heartbeat suspicion is ~0; after 10 silent intervals the
  // peer is far beyond any plausible gap.
  EXPECT_LT(detector.Phi("a", last + kBeat / 10), 0.5);
  EXPECT_GT(prev, detector.options().phi_dead);
}

// The acceptance bound: a silent peer reaches dead within 3 heartbeat
// windows of its last heartbeat (with the default sigma floor of mean/3 and
// phi_dead = 8, the math says ~2.9 windows).
TEST(HealthDetectorTest, DeclaresDeadWithinThreeWindows) {
  EventJournal::Global().Clear();
  HealthDetector detector;
  const std::uint64_t last = FeedRegular(detector, "a", 20);
  // Not a false positive within the first window after the last beat.
  EXPECT_EQ(detector.State("a", last + kBeat), PeerState::kAlive);
  std::uint64_t dead_at = 0;
  for (std::uint64_t t = last; t <= last + 4 * kBeat; t += kBeat / 20) {
    if (detector.State("a", t) == PeerState::kDead) {
      dead_at = t;
      break;
    }
  }
  ASSERT_NE(dead_at, 0u) << "peer never declared dead";
  EXPECT_LE(dead_at, last + 3 * kBeat);
  // And it went through suspect on the way (phi_suspect < phi_dead).
  const auto suspects = EventsFor(EventType::kPeerSuspect, "a");
  const auto deads = EventsFor(EventType::kPeerDead, "a");
  EXPECT_FALSE(suspects.empty());
  EXPECT_FALSE(deads.empty());
}

TEST(HealthDetectorTest, DeadIsStickyUntilAHeartbeatHeals) {
  HealthDetector detector;
  const std::uint64_t last = FeedRegular(detector, "a", 20);
  ASSERT_EQ(detector.State("a", last + 10 * kBeat), PeerState::kDead);
  // Evaluating again, even at a moment whose phi alone would only say
  // "suspect", keeps the peer dead.
  EXPECT_EQ(detector.State("a", last + 10 * kBeat + 1), PeerState::kDead);
  // A fresh heartbeat heals.
  detector.Heartbeat("a", last + 20 * kBeat);
  EXPECT_EQ(detector.State("a", last + 20 * kBeat + 1), PeerState::kAlive);
}

// Zero false positives across a simulated 10s steady state with +/-20%
// jitter on the heartbeat cadence (deterministic LCG, so the test is
// reproducible).
TEST(HealthDetectorTest, NoFalsePositivesUnderJitteredSteadyState) {
  HealthDetector detector;
  std::uint64_t t = kBeat;
  std::uint32_t rng = 12345;
  detector.Heartbeat("jitter-peer", t);
  for (int beat = 0; beat < 100; ++beat) {  // 100 beats x ~100ms = ~10s
    rng = rng * 1664525u + 1013904223u;
    // interval in [80ms, 120ms]
    const std::uint64_t interval = kBeat * 80 / 100 + rng % (kBeat * 40 / 100);
    // Probe mid-gap too: the detector must stay quiet between beats.
    EXPECT_EQ(detector.State("jitter-peer", t + interval / 2),
              PeerState::kAlive)
        << "false positive mid-gap at beat " << beat;
    t += interval;
    detector.Heartbeat("jitter-peer", t);
    EXPECT_EQ(detector.State("jitter-peer", t), PeerState::kAlive)
        << "false positive at beat " << beat;
  }
  EXPECT_TRUE(EventsFor(EventType::kPeerSuspect, "jitter-peer").empty());
}

TEST(HealthDetectorTest, JournalsEveryTransition) {
  EventJournal::Global().Clear();
  HealthDetector detector;
  const std::uint64_t last = FeedRegular(detector, "peer-x", 20);
  ASSERT_EQ(detector.State("peer-x", last + 10 * kBeat), PeerState::kDead);
  detector.Heartbeat("peer-x", last + 20 * kBeat);

  EXPECT_EQ(EventsFor(EventType::kPeerDead, "peer-x").size(), 1u);
  // kPeerAlive twice: unknown -> alive on first beat, dead -> alive on heal.
  EXPECT_EQ(EventsFor(EventType::kPeerAlive, "peer-x").size(), 2u);
  EventJournal::Global().Clear();
}

TEST(HealthDetectorTest, SnapshotCarriesLoadReports) {
  HealthDetector detector;
  FeedRegular(detector, "a", 3);
  detector.ReportLoad("a", 2.5, 1);
  detector.ReportLoad("ghost", 9.0, 2);  // unknown peer: dropped

  const auto board = detector.Snapshot(3 * kBeat + 1);
  ASSERT_EQ(board.size(), 1u);
  EXPECT_EQ(board[0].address, "a");
  EXPECT_EQ(board[0].state, PeerState::kAlive);
  EXPECT_DOUBLE_EQ(board[0].load_index, 2.5);
  EXPECT_EQ(board[0].hotspot_slots, 1);
  EXPECT_EQ(board[0].heartbeats, 3u);
  EXPECT_EQ(board[0].mean_interval_us, kBeat);

  detector.Forget("a");
  EXPECT_TRUE(detector.Snapshot(3 * kBeat + 2).empty());
}

TEST(HealthBoardTest, PublishAndJson) {
  HealthDetector detector;
  FeedRegular(detector, "10.0.0.2:7001", 5);
  obs::HealthBoard board;
  EXPECT_FALSE(board.running());
  board.Publish(detector.Snapshot(5 * kBeat + 1));
  EXPECT_TRUE(board.running());

  const std::string json = board.ToJson();
  EXPECT_TRUE(Contains(json, "\"running\":true"));
  EXPECT_TRUE(Contains(
      json, "\"address\":\"10.0.0.2:7001\",\"state\":\"alive\""));
  EXPECT_TRUE(Contains(json, "\"phi\":"));

  board.SetRunning(false);
  EXPECT_TRUE(Contains(board.ToJson(), "\"running\":false,\"peers\":[]"));
}

TEST(HealthMetricsTest, PhiGaugesExportAsGliderHealthPhi) {
  obs::MetricsRegistry registry;
  registry.GetGauge("health.phi.10.0.0.1:7000").Set(8123);
  const std::string text = obs::PrometheusText(registry);
  EXPECT_TRUE(Contains(text, "glider_health_phi_10_0_0_1:7000 8123\n"));
}

// ---- Load / hotspot tracking ------------------------------------------------

TEST(LoadTrackerTest, BlendsInputsAndFlagsHotspots) {
  auto& registry = obs::MetricsRegistry::Global();
  EventJournal::Global().Clear();

  obs::LoadTracker::Options opts;
  opts.min_window_us = 0;          // every Update recomputes
  opts.hotspot_multiple = 1.5;     // reachable with two slots
  obs::LoadTracker tracker(opts);

  registry.GetGauge("active.queue_depth").Set(3);
  auto& slot0 = registry.GetCounter("active.slot0.cpu_us");
  registry.GetCounter("active.slot1.cpu_us").Add(0);

  // First call arms the baseline; rates are unknown.
  auto first = tracker.Update();
  EXPECT_EQ(first.window_us, 0u);
  EXPECT_GE(first.queue_depth, 3.0);

  // Burn CPU on slot 0 only: it takes ~100% of the windowed slot CPU.
  slot0.Add(200 * 1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto second = tracker.Update();
  ASSERT_GT(second.window_us, 0u);
  EXPECT_GT(second.cpu_utilization, 0.0);
  EXPECT_GT(second.load_index, 0.0);
  ASSERT_FALSE(second.hotspots.empty());
  EXPECT_EQ(second.hotspots.front(), 0u);
  // Published back into the registry for /metrics and glider_top.
  const auto snap = registry.Snapshot();
  const std::int64_t* hot = snap.FindGauge("active.slot0.hot");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(*hot, 1);
  const std::int64_t* load = snap.FindGauge("load_index");
  ASSERT_NE(load, nullptr);
  EXPECT_GT(*load, 0);
  EXPECT_FALSE(EventsFor(EventType::kHotspot, "slot0").empty());

  // No further CPU: the slot cools down and its flag clears.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto third = tracker.Update();
  EXPECT_TRUE(third.hotspots.empty());
  const auto cooled = registry.Snapshot();
  const std::int64_t* hot2 = cooled.FindGauge("active.slot0.hot");
  ASSERT_NE(hot2, nullptr);
  EXPECT_EQ(*hot2, 0);

  registry.GetGauge("active.queue_depth").Set(0);
  EventJournal::Global().Clear();
}

// ---- Health-plane RPCs over a MiniCluster -----------------------------------

testing::ClusterOptions SmallCluster() {
  testing::ClusterOptions options;
  options.data_servers = 1;
  options.active_servers = 1;
  options.blocks_per_server = 16;
  options.slots_per_server = 4;
  return options;
}

// Slot accounting is always on: with observability off, a writer queued
// behind a running non-interleaved method shows in active.queue_depth and
// in the load index, and the slot's CPU still accrues.
TEST(LoadTrackerTest, SeesActionQueueingWithObservabilityOff) {
  workloads::RegisterWorkloadActions();
  obs::SetEnabled(false);
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto client = (*cluster_or)->NewInternalClient();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto node = core::ActionNode::Create(**client, "/queued", "glider.merge");
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  auto& registry = obs::MetricsRegistry::Global();
  obs::Gauge& depth = registry.GetGauge("active.queue_depth");
  obs::Counter& slot_cpu = registry.GetCounter(
      "active.slot" + std::to_string(node->info().slot.block) + ".cpu_us");
  const std::int64_t depth_before = depth.value();
  const std::uint64_t cpu_before = slot_cpu.value();
  std::string batch;
  for (int i = 0; i < 2000; ++i) {
    batch += std::to_string(i % 97) + "," + std::to_string(i) + "\n";
  }

  // The first writer's onWrite takes the slot's turn and, not interleaved,
  // keeps it until its stream closes.
  auto first = node->OpenWriter();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE((*first)->Write(batch).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (depth.value() != depth_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(depth.value(), depth_before) << "first writer never ran";

  // The second writer's method is submitted before its open returns, and
  // queues on the slot.
  auto second = node->OpenWriter();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(depth.value(), depth_before + 1);
  obs::LoadTracker::Options opts;
  opts.min_window_us = 0;
  opts.journal_hotspots = false;
  obs::LoadTracker tracker(opts);
  EXPECT_GE(tracker.Update().queue_depth, 1.0);

  ASSERT_TRUE((*first)->Close().ok());
  ASSERT_TRUE((*second)->Write(batch).ok());
  ASSERT_TRUE((*second)->Close().ok());
  EXPECT_EQ(depth.value(), depth_before);
  EXPECT_GT(slot_cpu.value(), cpu_before);
}

TEST(HealthRpcTest, HeartbeatHealthAndEventDumps) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;

  auto conn = cluster.transport().Connect(cluster.metadata_address(), nullptr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  // kHeartbeat: cheap probe answered by any server.
  auto beat = net::Call<net::HeartbeatResponse>(**conn, net::kHeartbeat,
                                                net::EmptyRequest{});
  ASSERT_TRUE(beat.ok()) << beat.status().ToString();
  EXPECT_GT(beat->server_time_us, 0u);

  // kHealthDump: valid board JSON even when no monitor runs here.
  auto health =
      net::Call<Buffer>(**conn, net::kHealthDump, net::EmptyRequest{});
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  const std::string health_json(
      reinterpret_cast<const char*>(health->data()), health->size());
  EXPECT_TRUE(Contains(health_json, "\"running\":"));
  EXPECT_TRUE(Contains(health_json, "\"peers\":["));

  // kEventDump with the clear flag drains the journal.
  EventJournal::Global().Clear();
  obs::JournalEvent(EventType::kPoolExhausted, "pool", "test", 256);
  auto events = net::Call<Buffer>(**conn, net::kEventDump,
                                 net::DumpRequest{/*clear=*/true});
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const std::string events_json(
      reinterpret_cast<const char*>(events->data()), events->size());
  EXPECT_TRUE(Contains(events_json, "\"type\":\"pool_exhausted\""));
  EXPECT_TRUE(EventJournal::Global().Snapshot().empty());
}

// Satellite fix: a partitioned/refused metadata server degrades Poll() to
// the cached server list instead of failing the whole round.
TEST(ClusterMonitorHealthTest, DegradesWhenMetadataUnreachable) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;

  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  auto healthy = monitor.Poll();
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->stale_discovery);
  const std::size_t rows = healthy->servers.size();
  ASSERT_GE(rows, 2u);  // metadata + registered servers

  ASSERT_TRUE(
      cluster.SetPartitioned(cluster.metadata_address(), true).ok());
  auto degraded = monitor.Poll();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->stale_discovery);
  EXPECT_EQ(degraded->servers.size(), rows);
  bool metadata_row_failed = false;
  for (const auto& server : degraded->servers) {
    if (server.is_metadata) metadata_row_failed = !server.status.ok();
  }
  EXPECT_TRUE(metadata_row_failed);

  // A monitor with no cached discovery still fails outright — there is
  // nothing to degrade to.
  ClusterMonitor fresh(&cluster.transport(), cluster.metadata_address());
  EXPECT_FALSE(fresh.Poll().ok());

  ASSERT_TRUE(
      cluster.SetPartitioned(cluster.metadata_address(), false).ok());
  auto healed = monitor.Poll();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed->stale_discovery);
}

// End-to-end failure detection: hard-kill the active server mid-polling and
// watch the monitor's detector walk alive -> suspect -> dead, with the
// transitions recorded in the event journal.
TEST(ClusterMonitorHealthTest, KillActiveWalksAliveSuspectDead) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;
  const std::string victim = cluster.active(0).address();

  EventJournal::Global().Clear();
  // A low suspect threshold widens the suspect band to ~1.7 mean intervals,
  // so even coarse polling observes the intermediate state.
  HealthDetector::Options hopts;
  hopts.phi_suspect = 0.5;
  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address(),
                         nullptr, hopts);

  auto poll_victim = [&]() -> ClusterMonitor::ServerSample {
    auto sample = monitor.Poll();
    EXPECT_TRUE(sample.ok()) << sample.status().ToString();
    for (auto& server : sample->servers) {
      if (server.server.address == victim) return server;
    }
    ADD_FAILURE() << "victim row missing";
    return {};
  };

  // Steady state: several polls, always alive, zero false positives.
  for (int i = 0; i < 8; ++i) {
    const auto row = poll_victim();
    EXPECT_TRUE(row.status.ok()) << row.status.ToString();
    if (i > 0) EXPECT_EQ(row.health, PeerState::kAlive) << "poll " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::uint64_t killed_at = obs::TraceNowMicros();
  std::uint64_t mean_interval = 0;
  for (const auto& peer : monitor.health().Snapshot()) {
    if (peer.address == victim) mean_interval = peer.mean_interval_us;
  }
  ASSERT_GT(mean_interval, 0u);

  ASSERT_TRUE(cluster.KillActive(0).ok());

  bool saw_suspect = false;
  std::uint64_t dead_at = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto row = poll_victim();
    // The killed server's registration dangles in the metadata server, so
    // its row persists — unreachable, with the detector verdict attached.
    if (row.health == PeerState::kSuspect) saw_suspect = true;
    if (row.health == PeerState::kDead) {
      dead_at = obs::TraceNowMicros();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_NE(dead_at, 0u) << "killed server never declared dead";
  EXPECT_TRUE(saw_suspect) << "dead without passing through suspect";
  // Detection bound: the phi math crosses phi_dead at ~2.9 mean intervals;
  // allow one extra poll period plus sanitizer slack for observing it.
  EXPECT_LE(dead_at - killed_at, 4 * mean_interval + 1000 * 1000)
      << "detection took " << (dead_at - killed_at) << "us at mean interval "
      << mean_interval << "us";

  EXPECT_FALSE(EventsFor(EventType::kPeerSuspect, victim).empty());
  EXPECT_FALSE(EventsFor(EventType::kPeerDead, victim).empty());
  EventJournal::Global().Clear();
}

// Wall-clock steady-state soak: nothing dies, nothing may be suspected.
// Default 2s keeps the suite fast; set GLIDER_HEALTH_SOAK_MS=10000 for the
// full acceptance run.
TEST(ClusterMonitorHealthTest, SteadyStateHasNoFalsePositives) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;

  long soak_ms = 2000;
  if (const char* env = std::getenv("GLIDER_HEALTH_SOAK_MS")) {
    soak_ms = std::atol(env);
  }
  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(soak_ms);
  int polls = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto sample = monitor.Poll();
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    for (const auto& server : sample->servers) {
      ASSERT_TRUE(server.status.ok())
          << server.server.address << ": " << server.status.ToString();
      EXPECT_NE(server.health, PeerState::kSuspect)
          << server.server.address << " falsely suspected at poll " << polls;
      EXPECT_NE(server.health, PeerState::kDead)
          << server.server.address << " falsely declared dead at poll "
          << polls;
    }
    ++polls;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(polls, 5);
}

// A heartbeat round fills the rows a poll does, minus the snapshot: each
// answering server's load report comes from its kHeartbeat reply, and an
// unreachable server keeps its row.
TEST(ClusterMonitorHealthTest, HeartbeatRowsCarryLoadReports) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;

  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  auto beat = monitor.Heartbeat();
  ASSERT_TRUE(beat.ok()) << beat.status().ToString();
  auto polled = monitor.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_FALSE(beat->stale_discovery);
  ASSERT_EQ(beat->servers.size(), 3u);  // metadata, data, active
  ASSERT_EQ(polled->servers.size(), beat->servers.size());
  for (std::size_t i = 0; i < beat->servers.size(); ++i) {
    const auto& row = beat->servers[i];
    const auto& poll_row = polled->servers[i];
    SCOPED_TRACE(row.server.address);
    EXPECT_EQ(row.server.address, poll_row.server.address);
    EXPECT_EQ(row.is_metadata, poll_row.is_metadata);
    EXPECT_EQ(row.is_metadata, i == 0);
    ASSERT_TRUE(row.status.ok()) << row.status.ToString();
    EXPECT_EQ(row.health, PeerState::kAlive);
    EXPECT_GE(row.load_index, 0.0);
    EXPECT_GE(row.hotspot_slots, 0);
    EXPECT_GE(poll_row.hotspot_slots, 0);
    EXPECT_TRUE(row.snapshot.metrics.gauges.empty());
  }

  const std::string victim = cluster.data(0).address();
  ASSERT_TRUE(cluster.KillData(0).ok());
  auto after = monitor.Heartbeat();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->servers.size(), 3u);  // the registration dangles
  for (const auto& row : after->servers) {
    EXPECT_EQ(row.status.ok(), row.server.address != victim)
        << row.server.address;
    if (row.server.address == victim) {
      EXPECT_EQ(row.hotspot_slots, -1);
    }
  }
}

// A server restarted on its address registers again, so discovery lists
// the address twice; a round keeps both rows but feeds the detector once.
TEST(ClusterMonitorHealthTest, AddressListedTwiceBeatsOncePerRound) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;
  const std::string twice = cluster.data(0).address();
  auto conn = cluster.transport().Connect(cluster.metadata_address(), nullptr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  nk::RegisterServerRequest again;
  again.address = twice;
  ASSERT_TRUE(net::Call<nk::RegisterServerResponse>(
                  **conn, nk::kRegisterServer, again)
                  .ok());

  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  constexpr int kRounds = 3;
  for (int i = 0; i < kRounds; ++i) {
    auto beat = monitor.Heartbeat();
    ASSERT_TRUE(beat.ok()) << beat.status().ToString();
    EXPECT_EQ(std::count_if(beat->servers.begin(), beat->servers.end(),
                            [&](const auto& row) {
                              return row.server.address == twice;
                            }),
              2);
  }
  auto polled = monitor.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(polled->servers.size(), 4u);
  for (const auto& peer : monitor.health().Snapshot()) {
    EXPECT_EQ(peer.heartbeats, kRounds + 1u) << peer.address;
  }
}

// ---- The started watcher ----------------------------------------------------

std::size_t ProcessThreads() {
  std::size_t count = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

// Polls `done` every 5 ms until it holds or `limit` passes.
bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

std::optional<HealthDetector::PeerSnapshot> BoardRow(
    const std::string& address) {
  for (auto& peer : obs::HealthBoard::Global().Snapshot()) {
    if (peer.address == address) return peer;
  }
  return std::nullopt;
}

// What glider_daemon --health-ms runs: the started monitor marks every
// server alive on the process board, walks a killed server to dead within
// the bound of KillActiveWalksAliveSuspectDead, publishes the phi and
// clock gauges, and Stop() takes down its one thread and the board.
TEST(ClusterMonitorLoopTest, BoardTracksAKillUntilStop) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;
  const std::string victim = cluster.active(0).address();
  const std::vector<std::string> servers = {
      cluster.metadata_address(), cluster.data(0).address(), victim};

  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  const std::size_t threads_before = ProcessThreads();
  ASSERT_TRUE(monitor.Start(std::chrono::milliseconds(20)).ok());
  EXPECT_EQ(monitor.Start(std::chrono::milliseconds(20)).code(),
            StatusCode::kAlreadyExists);
  const auto all_alive = [&] {
    for (const std::string& address : servers) {
      const auto row = BoardRow(address);
      // A few intervals, so the detector's mean is the loop's cadence.
      if (!row || row->state != PeerState::kAlive || row->heartbeats < 8) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(WaitFor(all_alive, std::chrono::seconds(10)))
      << obs::HealthBoard::Global().ToJson();
  EXPECT_TRUE(obs::HealthBoard::Global().running());
  EXPECT_EQ(ProcessThreads(), threads_before + 1);
  const std::uint64_t mean_interval = BoardRow(victim)->mean_interval_us;
  ASSERT_GT(mean_interval, 0u);

  const std::uint64_t killed_at = obs::TraceNowMicros();
  ASSERT_TRUE(cluster.KillActive(0).ok());
  const auto victim_dead = [&] {
    const auto row = BoardRow(victim);
    return row && row->state == PeerState::kDead;
  };
  ASSERT_TRUE(WaitFor(victim_dead, std::chrono::seconds(20)))
      << obs::HealthBoard::Global().ToJson();
  const std::uint64_t dead_at = obs::TraceNowMicros();
  EXPECT_LE(dead_at - killed_at, 4 * mean_interval + 1000 * 1000)
      << "detection took " << (dead_at - killed_at) << "us at mean interval "
      << mean_interval << "us";

  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_GE(registry.GetGauge("health.phi." + victim).value(),
            static_cast<std::int64_t>(monitor.health().options().phi_dead *
                                      1000.0));
  bool saw_clock_gauge = false;
  for (const auto& [name, value] : registry.Snapshot().gauges) {
    if (name.rfind("clock.offset_us.", 0) == 0) saw_clock_gauge = true;
  }
  EXPECT_TRUE(saw_clock_gauge);

  // The kill took the victim's own threads; Stop() takes the loop's.
  const std::size_t threads_running = ProcessThreads();
  monitor.Stop();
  EXPECT_FALSE(obs::HealthBoard::Global().running());
  EXPECT_TRUE(obs::HealthBoard::Global().Snapshot().empty());
  EXPECT_TRUE(WaitFor([&] { return ProcessThreads() == threads_running - 1; },
                      std::chrono::seconds(1)))
      << ProcessThreads() << " threads, " << threads_running << " before Stop";
}

// Rounds serialise on one mutex, so a started monitor can be polled from
// another thread (the suite runs under TSan in CI).
TEST(ClusterMonitorLoopTest, PollWhileStarted) {
  workloads::RegisterWorkloadActions();
  auto cluster_or = testing::MiniCluster::Start(SmallCluster());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = **cluster_or;

  ClusterMonitor monitor(&cluster.transport(), cluster.metadata_address());
  const std::size_t threads_before = ProcessThreads();
  ASSERT_TRUE(monitor.Start(std::chrono::milliseconds(1)).ok());
  for (int i = 0; i < 20; ++i) {
    auto sample = monitor.Poll();
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    ASSERT_EQ(sample->servers.size(), 3u);
    for (const auto& server : sample->servers) {
      EXPECT_TRUE(server.status.ok())
          << server.server.address << ": " << server.status.ToString();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.Stop();
  EXPECT_FALSE(obs::HealthBoard::Global().running());
  EXPECT_TRUE(WaitFor([&] { return ProcessThreads() == threads_before; },
                      std::chrono::seconds(1)))
      << ProcessThreads() << " threads, " << threads_before << " before Start";
}

}  // namespace
}  // namespace glider
