// Unit tests for the common substrate: Status/Result, serde, thread pool,
// rate limiter, metrics, per-thread slots, generators' building blocks.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "common/per_thread.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace glider {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("missing node");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing node");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 12; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, ValueAccess) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, ErrorAccess) {
  Result<int> r = Status::Internal("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, OkStatusIntoResultBecomesInternalError) {
  Result<int> r = Status::Ok();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

Result<int> Doubler(Result<int> in) {
  GLIDER_ASSIGN_OR_RETURN(auto v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Timeout("t")).status().code(),
            StatusCode::kTimeout);
}

// ---- Buffer -----------------------------------------------------------------

TEST(BufferTest, RoundTripText) {
  Buffer b = Buffer::FromString("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.ToString(), "hello");
  b.Append(std::string_view(" world"));
  EXPECT_EQ(b.ToString(), "hello world");
}

TEST(BufferTest, SpanViewsShareBytes) {
  Buffer b(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(b.span()[1], 2);
  b.mutable_span()[1] = 9;
  EXPECT_EQ(b.span()[1], 9);
}

TEST(BufferTest, SliceIsZeroCopyView) {
  Buffer b = Buffer::FromString("hello world");
  Buffer s = b.Slice(6, 5);
  EXPECT_EQ(s.ToString(), "world");
  // Same underlying bytes: the slice's data pointer aliases the parent.
  EXPECT_EQ(s.span().data(), b.span().data() + 6);
  EXPECT_FALSE(b.unique());
  EXPECT_FALSE(s.unique());
}

TEST(BufferTest, SliceClampsToBounds) {
  Buffer b = Buffer::FromString("abcdef");
  EXPECT_EQ(b.Slice(4, 100).ToString(), "ef");
  EXPECT_EQ(b.Slice(100, 5).size(), 0u);
  EXPECT_EQ(b.Slice(2).ToString(), "cdef");
  EXPECT_EQ(b.Slice(0, 0).size(), 0u);
}

TEST(BufferTest, SliceOutlivesParent) {
  Buffer s;
  const std::uint8_t* parent_data = nullptr;
  {
    Buffer b = Buffer::FromString("persistent bytes");
    parent_data = b.span().data();
    s = b.Slice(11, 5);
  }  // parent destroyed; storage kept alive by the slice
  EXPECT_EQ(s.ToString(), "bytes");
  EXPECT_EQ(s.span().data(), parent_data + 11);
}

TEST(BufferTest, MutationDetachesWhenShared) {
  Buffer b = Buffer::FromString("shared");
  Buffer s = b.Slice(0, 6);
  // Mutating through b must not change what s observes (copy-on-write).
  b.mutable_span()[0] = 'S';
  EXPECT_EQ(b.ToString(), "Shared");
  EXPECT_EQ(s.ToString(), "shared");
  EXPECT_TRUE(b.unique());
}

TEST(BufferTest, AppendAfterSliceDoesNotDisturbSlice) {
  Buffer b = Buffer::FromString("head");
  Buffer s = b.Slice(0, 4);
  b.Append(std::string_view("+tail"));
  EXPECT_EQ(b.ToString(), "head+tail");
  EXPECT_EQ(s.ToString(), "head");
}

TEST(BufferTest, SliceOfSliceComposes) {
  Buffer b = Buffer::FromString("0123456789");
  Buffer s = b.Slice(2, 6);   // "234567"
  Buffer t = s.Slice(1, 3);   // "345"
  EXPECT_EQ(t.ToString(), "345");
  EXPECT_EQ(t.span().data(), b.span().data() + 3);
}

TEST(BufferTest, CopySemanticsAreValueLike) {
  Buffer a = Buffer::FromString("value");
  Buffer b = a;  // O(1): shares storage
  EXPECT_EQ(a.span().data(), b.span().data());
  b.mutable_span()[0] = 'V';
  EXPECT_EQ(a.ToString(), "value");
  EXPECT_EQ(b.ToString(), "Value");
  EXPECT_TRUE(a == Buffer::FromString("value"));
  EXPECT_FALSE(a == b);
}

TEST(BufferTest, UniqueBufferMutatesInPlace) {
  Buffer b = Buffer::FromString("abc");
  const std::uint8_t* before = b.span().data();
  b.mutable_span()[0] = 'A';  // unique: no detach
  EXPECT_EQ(b.span().data(), before);
}

// ---- BufferPool -------------------------------------------------------------

TEST(BufferPoolTest, RecyclesStorage) {
  BufferPool pool;
  const std::uint8_t* first = nullptr;
  {
    Buffer b = pool.Acquire(4096);
    ASSERT_EQ(b.size(), 4096u);
    first = b.span().data();
  }  // released back to the pool
  Buffer c = pool.Acquire(4096);
  EXPECT_EQ(c.span().data(), first);  // same storage came back
}

TEST(BufferPoolTest, LiveSliceBlocksRecycling) {
  BufferPool pool;
  Buffer slice;
  const std::uint8_t* first = nullptr;
  {
    Buffer b = pool.Acquire(1024);
    first = b.span().data();
    b.mutable_span()[10] = 42;
    slice = b.Slice(10, 1);
  }  // b gone, but `slice` still pins the storage
  Buffer c = pool.Acquire(1024);
  EXPECT_NE(c.span().data(), first);  // pool had to allocate fresh storage
  EXPECT_EQ(slice.span()[0], 42);     // slice bytes untouched
  slice = Buffer{};                   // last reference: now it recycles
  Buffer d = pool.Acquire(1024);
  EXPECT_EQ(d.span().data(), first);
}

TEST(BufferPoolTest, ReusesLargerCachedEntry) {
  BufferPool pool;
  { Buffer b = pool.Acquire(8192); }
  EXPECT_GE(pool.CachedBytes(), 8192u);
  Buffer c = pool.Acquire(100);  // first-fit: served from the 8 KiB entry
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(pool.CachedBytes(), 0u);
}

TEST(BufferPoolTest, RespectsCacheCaps) {
  BufferPool pool(/*max_cached_bytes=*/1000, /*max_entries=*/2);
  { Buffer b = pool.Acquire(600); }
  { Buffer b = pool.Acquire(600); }  // would exceed 1000 cached bytes
  EXPECT_LE(pool.CachedBytes(), 1000u);
}

TEST(BufferPoolTest, CountersTrackHitsAndMisses) {
  const std::uint64_t hits0 = data_plane::PoolHits();
  const std::uint64_t miss0 = data_plane::PoolMisses();
  BufferPool pool;
  { Buffer b = pool.Acquire(256); }  // miss + release
  Buffer c = pool.Acquire(256);      // hit
  EXPECT_GE(data_plane::PoolMisses(), miss0 + 1);
  EXPECT_GE(data_plane::PoolHits(), hits0 + 1);
}

// ---- serde ------------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutDouble(3.25);
  w.PutString("xyz");
  const Buffer buf = std::move(w).Finish();

  BinaryReader r(buf.span());
  EXPECT_EQ(*r.U8(), 0xAB);
  EXPECT_EQ(*r.U16(), 0x1234);
  EXPECT_EQ(*r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.I64(), -42);
  EXPECT_EQ(*r.Bool(), true);
  EXPECT_EQ(*r.Double(), 3.25);
  EXPECT_EQ(*r.String(), "xyz");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncatedReadsFailCleanly) {
  BinaryWriter w;
  w.PutU64(1);
  const Buffer buf = std::move(w).Finish();
  BinaryReader r(ByteSpan(buf.data(), 3));  // cut mid-integer
  EXPECT_EQ(r.U64().status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, OversizedStringLengthRejected) {
  BinaryWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutRaw(AsBytes("short"));
  const Buffer buf = std::move(w).Finish();
  BinaryReader r(buf.span());
  EXPECT_EQ(r.String().status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, RestConsumesRemainder) {
  BinaryWriter w;
  w.PutU8(1);
  w.PutRaw(AsBytes("tail"));
  const Buffer buf = std::move(w).Finish();
  BinaryReader r(buf.span());
  ASSERT_TRUE(r.U8().ok());
  EXPECT_EQ(AsText(r.Rest()), "tail");
  EXPECT_TRUE(r.AtEnd());
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&] { ++count; }).ok());
    }
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_EQ(pool.Submit([] {}).code(), StatusCode::kClosed);
  EXPECT_EQ(pool.SubmitAll({[] {}}).code(), StatusCode::kClosed);
}

TEST(ThreadPoolTest, SubmitAllRunsWholeBatch) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    std::vector<std::function<void()>> batch;
    for (int i = 0; i < 64; ++i) batch.push_back([&] { ++count; });
    ASSERT_TRUE(pool.SubmitAll(std::move(batch)).ok());
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 64);
}

// spin_budget=0 sends every idle worker straight to its condvar, so each
// Submit below lands on a fully parked pool: a single lost wakeup in the
// notify-after-unlock / poked-flag protocol hangs the fut.wait() forever.
TEST(ThreadPoolTest, ParkedWorkersWakeOnEverySubmit) {
  ThreadPool pool(2, /*spin_budget=*/0);
  for (int i = 0; i < 200; ++i) {
    std::promise<void> done;
    auto fut = done.get_future();
    ASSERT_TRUE(pool.Submit([&] { done.set_value(); }).ok());
    fut.wait();
  }
}

// A doorbell batch into one shard must poke parked peers to steal the
// surplus: with sleeping tasks, overlap proves more than one worker ran.
TEST(ThreadPoolTest, SubmitAllPokesParkedPeersToSteal) {
  ThreadPool pool(4, /*spin_budget=*/0);
  // Let all four workers reach their condvar park before the doorbell, so
  // the batch's wakeups must come from the poke protocol alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back([&] {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
    });
  }
  ASSERT_TRUE(pool.SubmitAll(std::move(batch)).ok());
  pool.Shutdown();
  EXPECT_GE(peak.load(), 2);
}

// ---- RateLimiter ------------------------------------------------------------

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  RateLimiter limiter(0);
  Stopwatch timer;
  limiter.Acquire(1ull << 30);
  EXPECT_LT(timer.Seconds(), 0.05);
}

TEST(RateLimiterTest, ThrottlesToConfiguredRate) {
  // 10 MB/s, 512 KiB after the burst => ~50 ms minimum.
  RateLimiter limiter(10'000'000, /*burst_bytes=*/1024);
  Stopwatch timer;
  limiter.Acquire(512 * 1024);
  limiter.Acquire(1);  // forces waiting out the reservation
  EXPECT_GT(timer.Seconds(), 0.04);
}

TEST(RateLimiterTest, ConcurrentAcquirersShareTheRate) {
  // 4 threads x 250 KiB at 10 MB/s must take ~100 ms in total, not ~25 ms
  // (the bug the reservation design prevents).
  RateLimiter limiter(10'000'000, /*burst_bytes=*/1024);
  Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { limiter.Acquire(250 * 1024); });
  }
  for (auto& t : threads) t.join();
  limiter.Acquire(1);
  EXPECT_GT(timer.Seconds(), 0.08);
}

// ---- Metrics ----------------------------------------------------------------

TEST(MetricsTest, AttributesTrafficPerLink) {
  Metrics m;
  m.RecordSend(LinkClass::kFaas, 100);
  m.RecordReceive(LinkClass::kFaas, 50);
  m.RecordSend(LinkClass::kInternal, 999);
  EXPECT_EQ(m.FaasTransferBytes(), 150u);
  EXPECT_EQ(m.Operations(LinkClass::kFaas), 1u);
  EXPECT_EQ(m.BytesSent(LinkClass::kInternal), 999u);
}

TEST(MetricsTest, StoredBytesTracksPeak) {
  Metrics m;
  m.RecordStoredBytes(100);
  m.RecordStoredBytes(200);
  m.RecordStoredBytes(-250);
  EXPECT_EQ(m.StoredBytes(), 50);
  EXPECT_EQ(m.PeakStoredBytes(), 300);
  m.Reset();
  EXPECT_EQ(m.PeakStoredBytes(), 0);
}

// ---- random -----------------------------------------------------------------

TEST(RandomTest, SplitMixIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, NextBelowRespectsBound) {
  SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  ZipfGenerator zipf(1000, 1.1, 42);
  std::size_t low = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) ++low;
  }
  // The 10 hottest ranks of 1000 must take far more than their uniform
  // share (1%); with s=1.1 it is ~45%.
  EXPECT_GT(low, kDraws / 5);
}

// ---- per-thread slots -------------------------------------------------------

// An exited thread parks its slot for the next thread to claim: 2000
// threads, at most 8 alive at once, leave at most 8 slots, and no count is
// lost when a slot changes hands.
TEST(PerThreadTest, SlotsFollowPeakConcurrencyNotThreadChurn) {
  struct Tally {
    int count = 0;
  };
  // Only the joined workers record, so no lease outlives this instance.
  obs::PerThread<Tally> tallies;
  constexpr int kThreads = 2000;
  constexpr int kWave = 8;
  for (int started = 0; started < kThreads; started += kWave) {
    std::vector<std::thread> wave;
    for (int i = 0; i < kWave; ++i) {
      wave.emplace_back(
          [&tallies] { tallies.With([](Tally& tally) { ++tally.count; }); });
    }
    for (auto& thread : wave) thread.join();
  }
  int slots = 0;
  int total = 0;
  tallies.ForEach([&](const Tally& tally) {
    ++slots;
    total += tally.count;
  });
  EXPECT_LE(slots, kWave);
  EXPECT_EQ(total, kThreads);
}

// A walk holds no registry lock: a thread's first record, which makes its
// slot, completes while a ForEach callback is still running.
TEST(PerThreadTest, FirstRecordDoesNotWaitForAWalk) {
  struct Tally {
    int count = 0;
  };
  // Only the joined threads record, so no lease outlives this instance.
  obs::PerThread<Tally> tallies;
  std::mutex mu;
  std::condition_variable cv;
  bool holder_recorded = false;
  bool release_holder = false;
  bool newcomer_recorded = false;
  // The holder keeps its slot claimed (not parked) during the walk, so the
  // newcomer below must make a slot of its own.
  std::thread holder([&] {
    tallies.With([](Tally& tally) { ++tally.count; });
    std::unique_lock lock(mu);
    holder_recorded = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_holder; });
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return holder_recorded; });
  }

  bool recorded_during_walk = false;
  std::thread newcomer;
  tallies.ForEach([&](const Tally&) {
    newcomer = std::thread([&] {
      tallies.With([](Tally& tally) { ++tally.count; });
      std::scoped_lock lock(mu);
      newcomer_recorded = true;
      cv.notify_all();
    });
    std::unique_lock lock(mu);
    recorded_during_walk = cv.wait_for(lock, std::chrono::seconds(1),
                                       [&] { return newcomer_recorded; });
  });
  newcomer.join();
  {
    std::scoped_lock lock(mu);
    release_holder = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_TRUE(recorded_during_walk);
  int total = 0;
  tallies.ForEach([&](const Tally& tally) { total += tally.count; });
  EXPECT_EQ(total, 2);
}

// ---- stats ------------------------------------------------------------------

TEST(SampleStatsTest, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_EQ(stats.Min(), 1);
  EXPECT_EQ(stats.Max(), 100);
  EXPECT_DOUBLE_EQ(stats.Mean(), 50.5);
  EXPECT_NEAR(stats.Percentile(50), 50, 1);
  EXPECT_NEAR(stats.Percentile(99), 99, 1);
  // Population stddev of 1..100 is sqrt((100^2 - 1) / 12).
  EXPECT_NEAR(stats.Stddev(), 28.866, 0.001);
}

TEST(SampleStatsTest, PercentileIsNonMutating) {
  SampleStats stats;
  stats.Add(30);
  stats.Add(10);
  stats.Add(20);
  // Percentile is const and must not reorder the samples; interleaved
  // Add/Percentile keeps answers consistent with all data seen so far.
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 30);
  stats.Add(40);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 40);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 10);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 20);
}

}  // namespace
}  // namespace glider
