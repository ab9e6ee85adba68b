// Unit tests of StreamChannel + ActionMonitor: sequence ordering, deferred
// admission/consumption, end-of-stream, abort, and interleaving yield.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "glider/stream_channel.h"

namespace glider::core {
namespace {

DataTask Task(std::string_view text) {
  DataTask t;
  t.data = Buffer::FromString(text);
  return t;
}

// The one answer an ack or a read callback delivers, awaited for at most a
// second: a callback that is parked, or dropped unanswered, never answers.
template <typename T>
class Answer {
 public:
  std::function<void(T)> Callback() {
    return [this](T value) {
      std::scoped_lock lock(mu_);
      value_.emplace(std::move(value));
      cv_.notify_all();
    };
  }

  std::optional<T> Wait() {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(1),
                 [this] { return value_.has_value(); });
    return std::move(value_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<T> value_;
};

std::vector<DataTask> Tasks(std::initializer_list<std::string_view> texts) {
  std::vector<DataTask> tasks;
  for (const std::string_view text : texts) tasks.push_back(Task(text));
  return tasks;
}

TEST(StreamChannelTest, InOrderPushPop) {
  StreamChannel channel(4);
  std::vector<Status> acks;
  channel.AsyncPushAll(0, Tasks({"a"}), [&](Status s) { acks.push_back(s); });
  channel.AsyncPushAll(1, Tasks({"b"}), [&](Status s) { acks.push_back(s); });
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_TRUE(acks[0].ok() && acks[1].ok());

  auto t1 = channel.BlockingPopAll(nullptr, 1);
  auto t2 = channel.BlockingPopAll(nullptr, 1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(t1->front().data.ToString(), "a");
  EXPECT_EQ(t2->front().data.ToString(), "b");
}

TEST(StreamChannelTest, OutOfOrderArrivalsReleasedInSequence) {
  StreamChannel channel(8);
  std::vector<int> admitted;
  channel.AsyncPushAll(2, Tasks({"c"}), [&](Status) { admitted.push_back(2); });
  channel.AsyncPushAll(1, Tasks({"b"}), [&](Status) { admitted.push_back(1); });
  EXPECT_TRUE(admitted.empty());  // holes: nothing admitted yet
  channel.AsyncPushAll(0, Tasks({"a"}), [&](Status) { admitted.push_back(0); });
  EXPECT_EQ(admitted, (std::vector<int>{0, 1, 2}));

  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "c");
}

TEST(StreamChannelTest, AdmissionDeferredWhileFull) {
  StreamChannel channel(2);
  int acked = 0;
  channel.AsyncPushAll(0, Tasks({"a"}), [&](Status) { ++acked; });
  channel.AsyncPushAll(1, Tasks({"b"}), [&](Status) { ++acked; });
  channel.AsyncPushAll(2, Tasks({"c"}), [&](Status) { ++acked; });
  EXPECT_EQ(acked, 2);  // third write waits for space
  ASSERT_TRUE(channel.BlockingPopAll(nullptr, 1).ok());
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
  channel.AsyncPushAll(0, Tasks({"x"}), [](Status) {});
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
  channel.AsyncPushAll(0, Tasks({"first"}), [](Status) {});
  channel.AsyncPushAll(1, Tasks({"second"}), [](Status) {});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
}

TEST(StreamChannelTest, CloseProducerDrainsThenEos) {
  StreamChannel channel(4);
  channel.AsyncPushAll(0, Tasks({"last"}), [](Status) {});
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
  channel.AsyncPushAll(0, Tasks({"a"}),
                       [&](Status s) { admit_codes.push_back(s.code()); });
  channel.AsyncPushAll(1, Tasks({"b"}),
                       [&](Status s) { admit_codes.push_back(s.code()); });
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
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "c");
}

TEST(StreamChannelTest, AsyncPushAllOutOfOrderWaitsForHole) {
  StreamChannel channel(8);
  int acks = 0;
  std::vector<DataTask> tail;
  tail.push_back(Task("b"));
  tail.push_back(Task("c"));
  channel.AsyncPushAll(1, std::move(tail), [&](Status) { ++acks; });
  EXPECT_EQ(acks, 0);  // hole at seq 0: nothing admitted yet
  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "a");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "c");
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
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "a");
  EXPECT_EQ(acks, 1);  // pop freed a slot; "c" admitted, batch acked
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "b");
  EXPECT_EQ(channel.BlockingPopAll(nullptr, 1)->front().data.ToString(), "c");
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
    channel.AsyncPushAll(0, Tasks({"late"}), [](Status) {});
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
    auto t = channel.BlockingPopAll(nullptr, 1);
    ASSERT_TRUE(t.ok());
    got = t->front().data.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.AsyncPushAll(0, Tasks({"late"}), [](Status) {});
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
    auto task = channel_a.BlockingPopAll(&monitor, 1);  // yields while waiting
    EXPECT_TRUE(task.ok());
    monitor.Exit();
  });
  std::thread method_b([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    monitor.Enter();  // must not deadlock: A yielded its turn
    b_ran = true;
    monitor.Exit();
    channel_a.AsyncPushAll(0, Tasks({"resume-a"}), [](Status) {});
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
    auto task = channel.BlockingPopAll(nullptr, 1);  // holds the turn
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
  channel.AsyncPushAll(0, Tasks({"go"}), [](Status) {});
  method_a.join();
  method_b.join();
  EXPECT_TRUE(b_entered.load());
}

// A push whose seq was already admitted is refused at once, alone or in a
// batch, and the channel keeps serving the stream.
TEST(StreamChannelTest, StalePushFailsAtOnce) {
  Answer<Status> stale;
  Answer<Status> stale_batch;
  StreamChannel channel(4);
  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  channel.AsyncPushAll(0, Tasks({"again"}), stale.Callback());
  const auto answer = stale.Wait();
  ASSERT_TRUE(answer.has_value()) << "a stale push parked its ack";
  EXPECT_EQ(answer->code(), StatusCode::kInvalidArgument);

  channel.AsyncPushAll(0, Tasks({"x", "y"}), stale_batch.Callback());
  const auto batch_answer = stale_batch.Wait();
  ASSERT_TRUE(batch_answer.has_value()) << "a stale batch parked its ack";
  EXPECT_EQ(batch_answer->code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.size(), 1u);  // neither entered the queue

  channel.AsyncPushAll(1, Tasks({"b"}), [](Status) {});
  auto popped = channel.BlockingPopAll(nullptr, 4);
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(popped->size(), 2u);
  EXPECT_EQ((*popped)[0].data.ToString(), "a");
  EXPECT_EQ((*popped)[1].data.ToString(), "b");
}

// A batch whose last seq would wrap past the top of the seq space is
// refused whole: its tail would otherwise enter as seq 0 and onward.
TEST(StreamChannelTest, BatchWhoseSeqWouldWrapIsRefused) {
  Answer<Status> wrapping;
  StreamChannel channel(4);
  channel.AsyncPushAll(std::numeric_limits<std::uint64_t>::max(),
                       Tasks({"x", "y"}), wrapping.Callback());
  const auto answer = wrapping.Wait();
  ASSERT_TRUE(answer.has_value()) << "a wrapping batch went unanswered";
  EXPECT_EQ(answer->code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.size(), 0u);

  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  auto popped = channel.BlockingPopAll(nullptr, 4);
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(popped->size(), 1u);
  EXPECT_EQ(popped->front().data.ToString(), "a");
}

// A push whose seq is already pending is refused at once rather than
// dropped unanswered; a batch overlapping a pending seq is refused whole.
TEST(StreamChannelTest, DuplicatePushFailsAtOnce) {
  Answer<Status> pending;
  Answer<Status> duplicate;
  Answer<Status> overlapping;
  StreamChannel channel(4);
  channel.AsyncPushAll(1, Tasks({"b"}), pending.Callback());  // waits for seq 0
  channel.AsyncPushAll(1, Tasks({"dup"}), duplicate.Callback());
  const auto answer = duplicate.Wait();
  ASSERT_TRUE(answer.has_value()) << "a duplicate push went unanswered";
  EXPECT_EQ(answer->code(), StatusCode::kInvalidArgument);

  channel.AsyncPushAll(0, Tasks({"x", "y"}), overlapping.Callback());
  const auto batch_answer = overlapping.Wait();
  ASSERT_TRUE(batch_answer.has_value())
      << "an overlapping batch went unanswered";
  EXPECT_EQ(batch_answer->code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.size(), 0u);  // no part of the batch was admitted

  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  const auto admitted = pending.Wait();
  ASSERT_TRUE(admitted.has_value());
  EXPECT_TRUE(admitted->ok());
  auto popped = channel.BlockingPopAll(nullptr, 4);
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(popped->size(), 2u);
  EXPECT_EQ((*popped)[0].data.ToString(), "a");
  EXPECT_EQ((*popped)[1].data.ToString(), "b");
}

// A write stream's close: its last chunks and the eos enter as one batch,
// and the consumer takes them, eos last, in one pop.
TEST(StreamChannelTest, CloseBatchComesOutOfOnePop) {
  Answer<Status> admitted;
  StreamChannel channel(4);
  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  std::vector<DataTask> close = Tasks({"b", "c"});
  close.emplace_back().eos = true;
  channel.AsyncPushAll(1, std::move(close), admitted.Callback());
  const auto answer = admitted.Wait();
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->ok());

  auto popped = channel.BlockingPopAll(nullptr, 16);
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(popped->size(), 4u);
  EXPECT_EQ((*popped)[0].data.ToString(), "a");
  EXPECT_EQ((*popped)[1].data.ToString(), "b");
  EXPECT_EQ((*popped)[2].data.ToString(), "c");
  EXPECT_TRUE((*popped)[3].eos);
  EXPECT_EQ(channel.size(), 0u);
}

// An eos batch that does not start at the next seq to admit would wait for
// writes its writer never sends (a writer closes only once every write is
// acked): it is refused whole at once, and the stream can still end.
TEST(StreamChannelTest, CloseAheadOfTheWritesIsRefused) {
  Answer<Status> ahead;
  Answer<Status> in_order;
  StreamChannel channel(4);
  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  std::vector<DataTask> early = Tasks({"x"});
  early.emplace_back().eos = true;
  channel.AsyncPushAll(5, std::move(early), ahead.Callback());
  const auto answer = ahead.Wait();
  ASSERT_TRUE(answer.has_value()) << "an ahead close parked its ack";
  EXPECT_EQ(answer->code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.size(), 1u);  // no part of the batch was admitted

  std::vector<DataTask> close;
  close.emplace_back().eos = true;
  channel.AsyncPushAll(1, std::move(close), in_order.Callback());
  const auto closed = in_order.Wait();
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->ok());
  auto popped = channel.BlockingPopAll(nullptr, 16);
  ASSERT_TRUE(popped.ok());
  ASSERT_EQ(popped->size(), 2u);
  EXPECT_EQ((*popped)[0].data.ToString(), "a");
  EXPECT_TRUE((*popped)[1].eos);
}

// A read whose seq was already served is refused at once instead of
// parking forever.
TEST(StreamChannelTest, StalePopFailsAtOnce) {
  Answer<Result<DataTask>> served;
  Answer<Result<DataTask>> stale;
  StreamChannel channel(4);
  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  channel.AsyncPop(0, served.Callback());
  const auto first = served.Wait();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->ok());
  EXPECT_EQ((*first)->data.ToString(), "a");

  channel.AsyncPop(0, stale.Callback());
  const auto answer = stale.Wait();
  ASSERT_TRUE(answer.has_value()) << "a stale read parked";
  EXPECT_EQ(answer->status().code(), StatusCode::kInvalidArgument);
}

// A read whose seq is already parked is refused at once rather than
// dropped unanswered; the parked one still gets its data.
TEST(StreamChannelTest, DuplicatePopFailsAtOnce) {
  Answer<Result<DataTask>> parked;
  Answer<Result<DataTask>> duplicate;
  StreamChannel channel(4);
  channel.AsyncPop(0, parked.Callback());
  channel.AsyncPop(0, duplicate.Callback());
  const auto answer = duplicate.Wait();
  ASSERT_TRUE(answer.has_value()) << "a duplicate read went unanswered";
  EXPECT_EQ(answer->status().code(), StatusCode::kInvalidArgument);

  channel.AsyncPushAll(0, Tasks({"a"}), [](Status) {});
  const auto delivered = parked.Wait();
  ASSERT_TRUE(delivered.has_value());
  ASSERT_TRUE(delivered->ok());
  EXPECT_EQ((*delivered)->data.ToString(), "a");
}

}  // namespace
}  // namespace glider::core
