// Tests of the benchmark's own arithmetic and run control.
#include <gtest/gtest.h>

#include <future>

#include "closed_loop.h"
#include "counters.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

SpanRecord MakeSpan(std::uint64_t id, std::uint64_t parent, const char* name,
                    std::int64_t start, std::int64_t end,
                    std::uint64_t bytes = 0) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.bytes = bytes;
  return span;
}

TEST(SpanSummary, SelfTimeSubtractsOnlyDirectChildren) {
  // unit [0,100) > stage [10,90) > spawn [10,20), map [20,80) > open [30,40)
  const std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, "unit", 0, 100),
      MakeSpan(2, 1, "faas.stage", 10, 90),
      MakeSpan(3, 2, "faas.spawn", 10, 20),
      MakeSpan(4, 2, "app.map", 20, 80),
      MakeSpan(5, 4, "glider.action.open", 30, 40),
  };
  const SpanSummary summary = Summarize(spans);
  EXPECT_EQ(summary.units, 1u);
  EXPECT_DOUBLE_EQ(summary.unit_ns, 100);
  // stage 80 - (10 + 60) covered; spawn 10 with no children.
  EXPECT_DOUBLE_EQ(summary.layer_self_ns.at("faas"), 10 + 10);
  EXPECT_DOUBLE_EQ(summary.layer_self_ns.at("app"), 60 - 10);
  EXPECT_DOUBLE_EQ(summary.layer_self_ns.at("glider.action"), 10);
  EXPECT_EQ(summary.layer_calls.at("faas"), 2u);
}

TEST(SpanSummary, OverlappingChildrenCountOnceAndAreClipped) {
  // Two parallel workers under one stage, plus one child that outlives it.
  const std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, "unit", 0, 200),
      MakeSpan(2, 1, "faas.stage", 0, 100),
      MakeSpan(3, 2, "app.map", 10, 60),
      MakeSpan(4, 2, "app.map", 40, 70),
      MakeSpan(5, 2, "app.map", 90, 150),
  };
  const SpanSummary summary = Summarize(spans);
  // Covered: [10,70) and [90,100) = 70 of the stage's 100.
  EXPECT_DOUBLE_EQ(summary.layer_self_ns.at("faas"), 30);
  EXPECT_DOUBLE_EQ(summary.layer_self_ns.at("app"), 50 + 30 + 60);
  EXPECT_EQ(summary.durations_ns.at("app.map").count(), 3u);
}

TEST(SpanSummary, BytesGiveTimePerByte) {
  const std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, "unit", 0, 1000),
      MakeSpan(2, 1, "nodekernel.data.read", 0, 400, 200),
      MakeSpan(3, 1, "nodekernel.data.read", 400, 500, 0),  // EOF call
  };
  const SpanSummary summary = Summarize(spans);
  ASSERT_EQ(summary.ns_per_byte.at("nodekernel.data.read").count(), 1u);
  EXPECT_DOUBLE_EQ(summary.ns_per_byte.at("nodekernel.data.read").samples()[0], 2.0);
  EXPECT_EQ(summary.durations_ns.at("nodekernel.data.read").count(), 2u);
}

TEST(SpanRecorder, NestsOnOneThreadAndRecordsOnlyWhenTracing) {
  TakeSpans();
  { Span ignored("glider.action.open"); }
  SetTracing(true);
  std::uint64_t root_id = 0;
  {
    Span root("unit", 0);
    root_id = root.id();
    Span child("glider.action.open");
    EXPECT_EQ(CurrentSpan(), child.id());
  }
  SetTracing(false);
  const auto spans = TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "glider.action.open");
  EXPECT_EQ(spans[0].parent, root_id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(CurrentSpan(), 0u);
}

TEST(Counters, PerUnitRatiosComeFromDeltas) {
  Counters before;
  before.wall_s = 100;
  before.link_ops[static_cast<std::size_t>(glider::LinkClass::kFaas)] = 7;
  before.cpu_s = 3;
  before.copied_bytes = 1000;
  Counters after = before;
  after.wall_s = 102;
  after.link_ops[static_cast<std::size_t>(glider::LinkClass::kFaas)] += 300;
  after.link_ops[static_cast<std::size_t>(glider::LinkClass::kControl)] += 50;
  after.link_bytes[static_cast<std::size_t>(glider::LinkClass::kFaas)] += 819200;
  after.accesses += 100;
  after.cpu_s += 0.4096;
  after.copied_bytes += 2 * 409600;
  after.pool_hits += 30;
  after.pool_misses += 10;
  after.vcsw += 1420;
  after.minflt += 25;
  after.host_jiffies += 1000;
  after.steal_jiffies += 50;

  // 100 units of 4 KiB.
  const auto costs = DeriveCosts(Delta(after, before), 100, 409600);
  EXPECT_DOUBLE_EQ(costs.at("net.rpcs_per_unit.faas"), 3.0);
  EXPECT_DOUBLE_EQ(costs.at("net.rpcs_per_unit.control"), 0.5);
  EXPECT_DOUBLE_EQ(costs.at("net.rpcs_per_unit.internal"), 0.0);
  EXPECT_DOUBLE_EQ(costs.at("link_bytes_per_byte"), 2.0);
  EXPECT_DOUBLE_EQ(costs.at("accesses_per_unit"), 1.0);
  EXPECT_DOUBLE_EQ(costs.at("cpu_us_per_kib"), 1024.0);
  EXPECT_DOUBLE_EQ(costs.at("common.copied_bytes_per_byte"), 2.0);
  EXPECT_DOUBLE_EQ(costs.at("common.pool_hit_frac"), 0.75);
  EXPECT_DOUBLE_EQ(costs.at("proc.vcsw_per_unit"), 14.2);
  EXPECT_DOUBLE_EQ(costs.at("proc.minflt_per_mib"), 64.0);
  EXPECT_NEAR(costs.at("proc.cpu_util"), 0.2048, 1e-12);

  // Two disjoint phases add up; an empty phase divides by nothing.
  const Counters twice = Sum(Delta(after, before), Delta(after, before));
  EXPECT_DOUBLE_EQ(DeriveCosts(twice, 200, 819200).at("net.rpcs_per_unit.faas"),
                   3.0);
  EXPECT_DOUBLE_EQ(DeriveCosts(Counters{}, 0, 0).at("cpu_us_per_kib"), 0.0);
}

Piece MakePiece(std::uint64_t ok, std::uint64_t failed, double wall_s,
                std::uint64_t steal_jiffies) {
  Piece piece;
  for (std::uint64_t i = 0; i < ok; ++i) {
    piece.stats.latencies_ns.Add(wall_s * 1e9 / static_cast<double>(ok));
  }
  piece.stats.attempted = ok + failed;
  piece.stats.failed = failed;
  piece.stats.wall_s = wall_s;
  piece.cost.wall_s = wall_s;
  piece.cost.host_jiffies = 100;
  piece.cost.steal_jiffies = steal_jiffies;
  return piece;
}

TEST(Pool, KeepsTheLeastStolenSlices) {
  const std::vector<Piece> slices = {
      MakePiece(10, 0, 2.0, 40), MakePiece(10, 1, 2.0, 20),
      MakePiece(10, 0, 1.0, 2), MakePiece(10, 0, 1.0, 3)};
  const Piece all = Pool(slices, slices.size());
  EXPECT_EQ(all.stats.attempted, 41u);
  EXPECT_EQ(all.stats.failed, 1u);
  EXPECT_DOUBLE_EQ(all.stats.wall_s, 6.0);
  EXPECT_DOUBLE_EQ(all.steal(), 65.0 / 400);

  const Piece kept = Pool(slices, 2);
  EXPECT_EQ(kept.stats.latencies_ns.count(), 20u);
  EXPECT_EQ(kept.stats.failed, 0u);
  EXPECT_DOUBLE_EQ(kept.stats.wall_s, 2.0);
  EXPECT_DOUBLE_EQ(kept.cost.wall_s, 2.0);
  EXPECT_DOUBLE_EQ(kept.steal(), 5.0 / 200);
}

TEST(ClosedLoop, RunsEveryUnitOfEveryClient) {
  ClosedLoop loop(2, std::chrono::seconds(5));
  std::atomic<int> calls{0};
  const LoopStats stats = loop.Run(50, [&](std::size_t client, std::size_t) {
    ++calls;
    return client == 1 ? glider::Status::Internal("boom") : glider::Status::Ok();
  });
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(stats.attempted, 100u);
  EXPECT_EQ(stats.failed, 50u);
  EXPECT_EQ(stats.latencies_ns.count(), 50u);
  EXPECT_EQ(stats.overruns, 0u);
  EXPECT_FALSE(loop.hung());
}

TEST(ClosedLoop, UnitThatNeverReturnsFailsWithinTheDeadline) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  const auto deadline = std::chrono::milliseconds(200);
  LoopStats stats;
  std::int64_t elapsed_ns = 0;
  {
    ClosedLoop loop(2, deadline);
    const std::int64_t start = NowNs();
    stats = loop.Run(1000, [released](std::size_t client, std::size_t unit) {
      if (client == 0 && unit == 3) released.wait();  // stuck in get()
      return glider::Status::Ok();
    });
    elapsed_ns = NowNs() - start;
    EXPECT_TRUE(loop.hung());
    release.set_value();  // lets the destructor join the abandoned thread
  }
  EXPECT_EQ(stats.overruns, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.attempted, stats.latencies_ns.count() + 1);
  EXPECT_GE(elapsed_ns, 200'000'000);
  EXPECT_LT(elapsed_ns, 2'000'000'000);
}

TEST(Checksum, IndependentOfHowTheStreamIsSplit) {
  std::vector<std::uint8_t> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  Checksum whole;
  whole.Update(bytes.data(), bytes.size());
  Checksum pieces;
  for (std::size_t off = 0; off < bytes.size(); off += 13) {
    pieces.Update(bytes.data() + off, std::min<std::size_t>(13, bytes.size() - off));
  }
  EXPECT_EQ(whole.Value(), pieces.Value());
  std::swap(bytes[100], bytes[108]);
  Checksum swapped;
  swapped.Update(bytes.data(), bytes.size());
  EXPECT_NE(whole.Value(), swapped.Value());
}

}  // namespace
}  // namespace perfbench
