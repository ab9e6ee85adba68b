#include "glider/stream_channel.h"

#include <limits>
#include <string>
#include <utility>

#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/trace.h"

namespace glider::core {

namespace {

// Off-CPU attribution: reports one channel-block episode to the profiler as
// a wait sample under the blocking thread's tag. `start_us` is 0 when the
// profiler was inactive at block time.
void ReportChannelWait(const char* kind, std::uint64_t start_us) {
  if (start_us == 0) return;
  obs::SamplingProfiler::Global().AddWaitSample(
      kind, obs::TraceNowMicros() - start_us);
}

// The answer to an operation whose seq was already served or is already
// pending: buffering it would park its ack or read forever, or drop it
// unanswered.
Status BadSeq(const char* op, std::uint64_t seq) {
  return Status::InvalidArgument(std::string("stream ") + op + " seq " +
                                 std::to_string(seq) +
                                 " already served or pending");
}

std::uint64_t WaitStart() {
  return obs::SamplingProfiler::ActiveFast() ? obs::TraceNowMicros() : 0;
}

// Stamps the producer's trace context + enqueue time onto a task about to
// enter the queue (the push side runs under the producing span: a network
// worker inside HandleWithObs, or an action thread under its run span).
// The producer's principal is stamped and charged (push-side bytes) even
// when no trace is active — attribution works untraced.
void StampTask(DataTask& task) {
  if (!obs::Enabled()) return;
  task.principal = obs::CurrentPrincipal();
  task.enqueue_us = obs::TraceNowMicros();
  obs::LedgerCell push;
  push.bytes_in = task.data.size();
  push.invocations = 1;
  obs::ResourceLedger::Global().Charge(task.principal, "stream.channel", push);
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.trace_id == 0) return;
  task.ctx = ctx;
}

// Dequeue side of the stamp: one "channel.wait" transit span per task,
// parented to the producer's context, covering enqueue -> dequeue (only
// when traced). The pop-side ledger charge — transit time and delivered
// bytes billed to the producer's tenant — happens regardless. Safe from
// any thread (RecordSpan never touches thread-local trace state).
void RecordTransit(const DataTask& task) {
  if (task.enqueue_us == 0 || !obs::Enabled()) return;
  const std::uint64_t now = obs::TraceNowMicros();
  obs::LedgerCell pop;
  pop.queue_us = now - task.enqueue_us;
  pop.bytes_out = task.data.size();
  obs::ResourceLedger::Global().Charge(task.principal, "stream.channel", pop);
  if (task.ctx.trace_id == 0) return;
  obs::RecordSpan("channel", "channel.wait", task.ctx, obs::NewSpanId(),
                  task.enqueue_us, now);
}

// Counts monitor-yield events (the action gave up its execution turn while
// blocked on channel capacity/data — the interleaving mechanism of §4.3).
obs::Counter& YieldCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("channel.interleave_yields");
  return counter;
}

// Queue depth sampled after each enqueue: how full channels run under load.
obs::LatencyHistogram& OccupancyHist() {
  static obs::LatencyHistogram& hist =
      obs::MetricsRegistry::Global().GetHistogram("channel.occupancy");
  return hist;
}

// Callbacks collected under the lock, fired after release. Invoking client
// acks or deliveries under the channel lock could re-enter the channel or
// sleep inside link shaping, so they always run outside.
struct FireList {
  std::vector<std::pair<StreamChannel::AdmitFn, Status>> admits;
  std::vector<std::pair<StreamChannel::ConsumeFn, Result<DataTask>>> deliveries;

  // Null admit fns (batch interiors — only the last task of an
  // AsyncPushAll carries the ack) are dropped here, not earlier: the
  // promote fixpoint counts promoted items, not callbacks.
  void Add(std::vector<StreamChannel::AdmitFn> admit_fns) {
    for (auto& fn : admit_fns) {
      if (fn) admits.emplace_back(std::move(fn), Status::Ok());
    }
  }

  void FireAll() {
    for (auto& [fn, status] : admits) fn(status);
    for (auto& [fn, result] : deliveries) {
      if (result.ok()) RecordTransit(*result);
      fn(std::move(result));
    }
  }
};

}  // namespace

std::vector<StreamChannel::AdmitFn> StreamChannel::PromoteLocked() {
  // One entry per promoted item (entries may be null batch interiors), so
  // callers can use emptiness as the fixpoint progress signal.
  std::vector<AdmitFn> fired;
  while (!aborted_) {
    auto it = pushes_.find(next_push_seq_);
    if (it == pushes_.end()) break;
    // Admit while below capacity, or when the next read op is already
    // parked (the item will drain immediately in the match step).
    const bool drains_now = consumers_.contains(next_pop_seq_);
    if (items_.size() >= capacity_ && !drains_now) break;
    items_.push_back(std::move(it->second.task));
    if (obs::Enabled()) OccupancyHist().Record(items_.size());
    fired.push_back(std::move(it->second.on_admitted));
    pushes_.erase(it);
    ++next_push_seq_;
    // At capacity: let the caller's promote/match fixpoint loop drain into
    // parked consumers before admitting more.
    if (items_.size() >= capacity_) break;
  }
  return fired;
}

std::vector<std::pair<StreamChannel::ConsumeFn, Result<DataTask>>>
StreamChannel::MatchLocked() {
  std::vector<std::pair<ConsumeFn, Result<DataTask>>> fired;
  while (true) {
    auto it = consumers_.find(next_pop_seq_);
    if (it == consumers_.end()) break;
    if (!items_.empty()) {
      fired.emplace_back(std::move(it->second), std::move(items_.front()));
      items_.pop_front();
    } else if (producer_closed_ || aborted_) {
      fired.emplace_back(std::move(it->second),
                         Status::Closed("end of stream"));
    } else {
      break;  // no data yet; stay parked
    }
    consumers_.erase(it);
    ++next_pop_seq_;
  }
  return fired;
}

void StreamChannel::AsyncPushAll(std::uint64_t first_seq,
                                 std::vector<DataTask> tasks,
                                 AdmitFn on_admitted) {
  if (tasks.empty()) {
    if (on_admitted) on_admitted(Status::Ok());
    return;
  }
  for (DataTask& task : tasks) StampTask(task);
  FireList fire;
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    const auto pending = pushes_.lower_bound(first_seq);
    if (aborted_) {
      fire.admits.emplace_back(std::move(on_admitted),
                               Status::Closed("stream aborted"));
    } else if (first_seq < next_push_seq_ ||
               tasks.size() - 1 >
                   std::numeric_limits<std::uint64_t>::max() - first_seq ||
               (pending != pushes_.end() &&
                pending->first - first_seq < tasks.size())) {
      // The batch is refused whole: none of its tasks enters the channel.
      // A batch whose last seq would wrap past the top is refused too.
      fire.admits.emplace_back(std::move(on_admitted),
                               BadSeq("push", first_seq));
    } else if (tasks.back().eos && first_seq != next_push_seq_) {
      // A writer sends its close once every earlier write is admitted, so
      // an end-of-stream batch that starts past the next seq waits for
      // writes that never come.
      fire.admits.emplace_back(
          std::move(on_admitted),
          Status::InvalidArgument(
              "stream close seq " + std::to_string(first_seq) +
              " runs ahead of the writes (next seq " +
              std::to_string(next_push_seq_) + ")"));
    } else {
      std::size_t i = 0;
      if (first_seq == next_push_seq_ && pushes_.empty()) {
        // In-order fast path: admit the prefix that fits directly.
        while (i < tasks.size() &&
               (items_.size() < capacity_ ||
                consumers_.contains(next_pop_seq_))) {
          items_.push_back(std::move(tasks[i]));
          if (obs::Enabled()) OccupancyHist().Record(items_.size());
          ++next_push_seq_;
          ++i;
          if (items_.size() >= capacity_) {
            // Drain into parked consumers before admitting more.
            for (auto& d : MatchLocked()) {
              fire.deliveries.push_back(std::move(d));
            }
          }
        }
      }
      if (i == tasks.size()) {
        if (on_admitted) {
          fire.admits.emplace_back(std::move(on_admitted), Status::Ok());
        }
      } else {
        // Defer the remainder; only the batch's last task carries the ack,
        // which therefore fires once the WHOLE batch is admitted.
        for (; i < tasks.size(); ++i) {
          const bool last = i + 1 == tasks.size();
          pushes_.emplace(
              first_seq + i,
              PendingPush{std::move(tasks[i]),
                          last ? std::move(on_admitted) : AdmitFn{}});
        }
        while (true) {
          auto admits = PromoteLocked();
          auto deliveries = MatchLocked();
          if (admits.empty() && deliveries.empty()) break;
          fire.Add(std::move(admits));
          for (auto& d : deliveries) fire.deliveries.push_back(std::move(d));
        }
      }
      for (auto& d : MatchLocked()) fire.deliveries.push_back(std::move(d));
    }
    PublishHintLocked();
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_all();
  fire.FireAll();
}

void StreamChannel::AsyncPop(std::uint64_t seq, ConsumeFn consumer) {
  FireList fire;
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    if (aborted_) {
      // Abort() does not advance next_pop_seq_, so a pop arriving after it
      // would never be matched: answer now instead of parking forever.
      fire.deliveries.emplace_back(std::move(consumer),
                                   Status::Closed("stream aborted"));
    } else if (seq < next_pop_seq_ || consumers_.contains(seq)) {
      fire.deliveries.emplace_back(std::move(consumer), BadSeq("pop", seq));
    } else {
      consumers_.emplace(seq, std::move(consumer));
      while (true) {
        auto deliveries = MatchLocked();
        auto admits = PromoteLocked();
        if (admits.empty() && deliveries.empty()) break;
        fire.Add(std::move(admits));
        for (auto& d : deliveries) fire.deliveries.push_back(std::move(d));
      }
    }
    PublishHintLocked();
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_all();
  fire.FireAll();
}

void StreamChannel::ParkLocked(std::unique_lock<std::mutex>& lock,
                               ActionMonitor* monitor, const char* wait_kind) {
  const std::uint64_t wait_start = WaitStart();
  // Blocking-wait span for the *consumer's* trace (the action's run span):
  // an action stalled on channel data/space shows up as "channel" time on
  // the critical path, not as opaque run time.
  const obs::TraceContext trace_ctx =
      obs::Enabled() ? obs::CurrentTraceContext() : obs::TraceContext{};
  const std::uint64_t trace_start =
      trace_ctx.trace_id != 0 ? obs::TraceNowMicros() : 0;
  ++waiters_;
  if (monitor != nullptr) {
    if (obs::Enabled()) YieldCounter().Increment();
    monitor->Exit();
    cv_.wait(lock);
    --waiters_;
    lock.unlock();
    monitor->Enter();
    lock.lock();
  } else {
    cv_.wait(lock);
    --waiters_;
  }
  ReportChannelWait(wait_kind, wait_start);
  if (trace_start != 0) {
    obs::RecordSpan("channel", wait_kind, trace_ctx, obs::NewSpanId(),
                    trace_start, obs::TraceNowMicros());
  }
}

Result<std::vector<DataTask>> StreamChannel::BlockingPopAll(
    ActionMonitor* monitor, std::size_t max_items) {
  if (max_items == 0) max_items = 1;
  SpinForItems();
  std::unique_lock lock(mu_);
  while (true) {
    if (!items_.empty()) {
      std::vector<DataTask> batch;
      const std::size_t take =
          items_.size() < max_items ? items_.size() : max_items;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      FireList fire;
      fire.Add(PromoteLocked());
      PublishHintLocked();
      lock.unlock();
      for (const DataTask& task : batch) RecordTransit(task);
      fire.FireAll();
      return batch;
    }
    if (aborted_ || producer_closed_) {
      // For write streams the end arrives in-band (eos task); reaching here
      // closed means teardown.
      return Status::Closed("stream closed");
    }
    ParkLocked(lock, monitor, "channel.pop");
  }
}

Status StreamChannel::BlockingPush(DataTask task, ActionMonitor* monitor) {
  StampTask(task);
  // Spin hint: wait for space (or closure) before taking the lock.
  if (const std::size_t h = size_hint_.load(std::memory_order_acquire);
      h >= capacity_ && h != kClosedHint) {
    spin_.SpinUntil([this] {
      const std::size_t hint = size_hint_.load(std::memory_order_acquire);
      return hint < capacity_ || hint == kClosedHint;
    });
  }
  std::unique_lock lock(mu_);
  while (true) {
    if (aborted_) return Status::Closed("reader abandoned the stream");
    if (items_.size() < capacity_ || !consumers_.empty()) {
      items_.push_back(std::move(task));
      if (obs::Enabled()) OccupancyHist().Record(items_.size());
      FireList fire;
      for (auto& d : MatchLocked()) fire.deliveries.push_back(std::move(d));
      PublishHintLocked();
      const bool wake = waiters_ > 0;
      lock.unlock();
      if (wake) cv_.notify_all();
      fire.FireAll();
      return Status::Ok();
    }
    ParkLocked(lock, monitor, "channel.push");
  }
}

void StreamChannel::CloseProducer() {
  FireList fire;
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    producer_closed_ = true;
    for (auto& d : MatchLocked()) fire.deliveries.push_back(std::move(d));
    PublishHintLocked();
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_all();
  fire.FireAll();
}

void StreamChannel::Abort() {
  FireList fire;
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    aborted_ = true;
    for (auto& [seq, push] : pushes_) {
      if (push.on_admitted) {
        fire.admits.emplace_back(std::move(push.on_admitted),
                                 Status::Closed("stream aborted"));
      }
    }
    pushes_.clear();
    for (auto& [seq, consumer] : consumers_) {
      fire.deliveries.emplace_back(std::move(consumer),
                                   Status::Closed("stream aborted"));
    }
    consumers_.clear();
    PublishHintLocked();
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_all();
  fire.FireAll();
}

}  // namespace glider::core
