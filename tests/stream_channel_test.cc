// Unit tests of StreamChannel + ActionMonitor: sequence ordering, deferred
// admission/consumption, end-of-stream, abort, and interleaving yield.
#include <gtest/gtest.h>

#include <thread>

#include "glider/stream_channel.h"

namespace glider::core {
namespace {

DataTask Task(std::string_view text) {
  DataTask t;
  t.data = Buffer::FromString(text);
  return t;
}

TEST(StreamChannelTest, InOrderPushPop) {
  StreamChannel channel(4);
  std::vector<Status> acks;
  channel.AsyncPush(0, Task("a"), [&](Status s) { acks.push_back(s); });
  channel.AsyncPush(1, Task("b"), [&](Status s) { acks.push_back(s); });
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_TRUE(acks[0].ok() && acks[1].ok());

  auto t1 = channel.BlockingPop(nullptr);
  auto t2 = channel.BlockingPop(nullptr);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(t1->data.ToString(), "a");
  EXPECT_EQ(t2->data.ToString(), "b");
}

TEST(StreamChannelTest, OutOfOrderArrivalsReleasedInSequence) {
  StreamChannel channel(8);
  std::vector<int> admitted;
  channel.AsyncPush(2, Task("c"), [&](Status) { admitted.push_back(2); });
  channel.AsyncPush(1, Task("b"), [&](Status) { admitted.push_back(1); });
  EXPECT_TRUE(admitted.empty());  // holes: nothing admitted yet
  channel.AsyncPush(0, Task("a"), [&](Status) { admitted.push_back(0); });
  EXPECT_EQ(admitted, (std::vector<int>{0, 1, 2}));

  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "c");
}

TEST(StreamChannelTest, AdmissionDeferredWhileFull) {
  StreamChannel channel(2);
  int acked = 0;
  channel.AsyncPush(0, Task("a"), [&](Status) { ++acked; });
  channel.AsyncPush(1, Task("b"), [&](Status) { ++acked; });
  channel.AsyncPush(2, Task("c"), [&](Status) { ++acked; });
  EXPECT_EQ(acked, 2);  // third write waits for space
  ASSERT_TRUE(channel.BlockingPop(nullptr).ok());
  EXPECT_EQ(acked, 3);  // space freed -> admission + ack
}

TEST(StreamChannelTest, AsyncPopDeliversWhenDataArrives) {
  StreamChannel channel(4);
  std::vector<std::string> got;
  channel.AsyncPop(0, [&](Result<DataTask> t) {
    ASSERT_TRUE(t.ok());
    got.push_back(t->data.ToString());
  });
  EXPECT_TRUE(got.empty());  // parked
  channel.AsyncPush(0, Task("x"), [](Status) {});
  EXPECT_EQ(got, (std::vector<std::string>{"x"}));
}

TEST(StreamChannelTest, PipelinedPopsServedInSeqOrder) {
  StreamChannel channel(8);
  std::vector<std::string> got;
  // Reads arrive out of order (two network workers raced).
  channel.AsyncPop(1, [&](Result<DataTask> t) {
    got.push_back(t.ok() ? t->data.ToString() : "EOS");
  });
  channel.AsyncPop(0, [&](Result<DataTask> t) {
    got.push_back(t.ok() ? t->data.ToString() : "EOS");
  });
  channel.AsyncPush(0, Task("first"), [](Status) {});
  channel.AsyncPush(1, Task("second"), [](Status) {});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
}

TEST(StreamChannelTest, CloseProducerDrainsThenEos) {
  StreamChannel channel(4);
  channel.AsyncPush(0, Task("last"), [](Status) {});
  channel.CloseProducer();
  std::vector<std::string> got;
  channel.AsyncPop(0, [&](Result<DataTask> t) {
    got.push_back(t.ok() ? t->data.ToString() : "EOS");
  });
  channel.AsyncPop(1, [&](Result<DataTask> t) {
    got.push_back(t.ok() ? t->data.ToString() : "EOS");
  });
  EXPECT_EQ(got, (std::vector<std::string>{"last", "EOS"}));
}

TEST(StreamChannelTest, AbortFailsEverybody) {
  StreamChannel channel(1);
  std::vector<StatusCode> admit_codes;
  std::vector<bool> pop_ok;
  channel.AsyncPush(0, Task("a"), [&](Status s) { admit_codes.push_back(s.code()); });
  channel.AsyncPush(1, Task("b"), [&](Status s) { admit_codes.push_back(s.code()); });
  channel.AsyncPop(5, [&](Result<DataTask> t) { pop_ok.push_back(t.ok()); });
  channel.Abort();
  // A pop arriving after the abort, out of sequence (a pipelined read that
  // raced a close), is answered at once instead of parking forever.
  channel.AsyncPop(6, [&](Result<DataTask> t) { pop_ok.push_back(t.ok()); });
  // First push was admitted; the deferred second got kClosed; the parked
  // out-of-sequence consumer and the late one got kClosed.
  EXPECT_EQ(admit_codes,
            (std::vector<StatusCode>{StatusCode::kOk, StatusCode::kClosed}));
  EXPECT_EQ(pop_ok, (std::vector<bool>{false, false}));
  // Action-side ops fail fast after abort.
  EXPECT_EQ(channel.BlockingPush(Task("x"), nullptr).code(),
            StatusCode::kClosed);
}

TEST(StreamChannelTest, BlockingPushRespectsCapacityAndAbort) {
  StreamChannel channel(2);
  ASSERT_TRUE(channel.BlockingPush(Task("a"), nullptr).ok());
  ASSERT_TRUE(channel.BlockingPush(Task("b"), nullptr).ok());
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(channel.BlockingPush(Task("c"), nullptr).ok());
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());  // full: producer blocked
  channel.AsyncPop(0, [](Result<DataTask>) {});
  producer.join();
  EXPECT_TRUE(third_done.load());
}

TEST(StreamChannelTest, AsyncPushAllAdmitsBatchWithSingleAck) {
  StreamChannel channel(8);
  int acks = 0;
  Status last;
  std::vector<DataTask> batch;
  batch.push_back(Task("a"));
  batch.push_back(Task("b"));
  batch.push_back(Task("c"));
  channel.AsyncPushAll(0, std::move(batch), [&](Status s) {
    ++acks;
    last = s;
  });
  EXPECT_EQ(acks, 1);  // one ack for the whole batch
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "c");
}

TEST(StreamChannelTest, AsyncPushAllOutOfOrderWaitsForHole) {
  StreamChannel channel(8);
  int acks = 0;
  std::vector<DataTask> tail;
  tail.push_back(Task("b"));
  tail.push_back(Task("c"));
  channel.AsyncPushAll(1, std::move(tail), [&](Status) { ++acks; });
  EXPECT_EQ(acks, 0);  // hole at seq 0: nothing admitted yet
  channel.AsyncPush(0, Task("a"), [](Status) {});
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "c");
}

TEST(StreamChannelTest, AsyncPushAllAckDeferredUntilLastAdmitted) {
  StreamChannel channel(2);
  int acks = 0;
  std::vector<DataTask> batch;
  batch.push_back(Task("a"));
  batch.push_back(Task("b"));
  batch.push_back(Task("c"));
  channel.AsyncPushAll(0, std::move(batch), [&](Status) { ++acks; });
  EXPECT_EQ(acks, 0);  // capacity 2: the last task is still waiting
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "a");
  EXPECT_EQ(acks, 1);  // pop freed a slot; "c" admitted, batch acked
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPop(nullptr)->data.ToString(), "c");
}

TEST(StreamChannelTest, AbortFailsPendingBatchAck) {
  StreamChannel channel(1);
  std::vector<StatusCode> codes;
  std::vector<DataTask> batch;
  batch.push_back(Task("a"));
  batch.push_back(Task("b"));
  channel.AsyncPushAll(0, std::move(batch),
                       [&](Status s) { codes.push_back(s.code()); });
  EXPECT_TRUE(codes.empty());  // "b" not admitted: ack pending
  channel.Abort();
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::kClosed}));
}

TEST(StreamChannelTest, BlockingPopAllDrainsUpToMax) {
  StreamChannel channel(8);
  std::vector<DataTask> batch;
  for (const char* s : {"a", "b", "c", "d"}) batch.push_back(Task(s));
  channel.AsyncPushAll(0, std::move(batch), [](Status) {});
  auto first = channel.BlockingPopAll(nullptr, /*max_items=*/3);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 3u);
  EXPECT_EQ((*first)[0].data.ToString(), "a");
  EXPECT_EQ((*first)[2].data.ToString(), "c");
  auto rest = channel.BlockingPopAll(nullptr, /*max_items=*/16);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].data.ToString(), "d");
}

TEST(StreamChannelTest, BlockingPopAllWaitsForFirstItem) {
  StreamChannel channel(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    channel.AsyncPush(0, Task("late"), [](Status) {});
  });
  auto batch = channel.BlockingPopAll(nullptr, /*max_items=*/4);
  producer.join();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].data.ToString(), "late");
}

TEST(StreamChannelTest, BlockingPopAllAfterAbortReportsClosed) {
  StreamChannel channel(4);
  channel.Abort();
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 4).status().code(),
            StatusCode::kClosed);
}

TEST(StreamChannelTest, BlockingPopWaitsForData) {
  StreamChannel channel(4);
  std::string got;
  std::thread consumer([&] {
    auto t = channel.BlockingPop(nullptr);
    ASSERT_TRUE(t.ok());
    got = t->data.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.AsyncPush(0, Task("late"), [](Status) {});
  consumer.join();
  EXPECT_EQ(got, "late");
}

// ---- ActionMonitor -----------------------------------------------------------

TEST(ActionMonitorTest, MutualExclusion) {
  ActionMonitor monitor;
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        monitor.Enter();
        const int now = ++inside;
        int peak = max_inside.load();
        while (now > peak && !max_inside.compare_exchange_weak(peak, now)) {
        }
        --inside;
        monitor.Exit();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(max_inside.load(), 1);
}

TEST(StreamChannelTest, InterleavedPopYieldsMonitor) {
  // Method A holds the monitor and blocks on an empty channel with yield;
  // method B must be able to take the monitor meanwhile (turn taking).
  StreamChannel channel_a(4);
  ActionMonitor monitor;
  std::atomic<bool> b_ran{false};

  std::thread method_a([&] {
    monitor.Enter();
    auto task = channel_a.BlockingPop(&monitor);  // yields while waiting
    EXPECT_TRUE(task.ok());
    monitor.Exit();
  });
  std::thread method_b([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    monitor.Enter();  // must not deadlock: A yielded its turn
    b_ran = true;
    monitor.Exit();
    channel_a.AsyncPush(0, Task("resume-a"), [](Status) {});
  });
  method_a.join();
  method_b.join();
  EXPECT_TRUE(b_ran.load());
}

TEST(StreamChannelTest, NonInterleavedPopHoldsMonitor) {
  // Without yield, a method blocked on its stream keeps its turn: another
  // method cannot enter until the first completes.
  StreamChannel channel(4);
  ActionMonitor monitor;
  std::atomic<bool> a_done{false};
  std::atomic<bool> b_entered{false};

  std::thread method_a([&] {
    monitor.Enter();
    auto task = channel.BlockingPop(nullptr);  // holds the turn
    EXPECT_TRUE(task.ok());
    a_done = true;
    monitor.Exit();
  });
  std::thread method_b([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    monitor.Enter();
    b_entered = true;
    EXPECT_TRUE(a_done.load());  // B may only run after A finished
    monitor.Exit();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(b_entered.load());
  channel.AsyncPush(0, Task("go"), [](Status) {});
  method_a.join();
  method_b.join();
  EXPECT_TRUE(b_entered.load());
}

}  // namespace
}  // namespace glider::core
