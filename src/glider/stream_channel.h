// StreamChannel: the per-stream task queue between network workers and
// action threads (paper §4.2 "Accessing actions", §5).
//
// Two usages:
//   * write streams: network workers push data tasks asynchronously (in
//     sequence order, acknowledging the client when a write frame's tasks
//     are admitted); the action thread pops them from inside
//     Action::onWrite.
//   * read streams: the action thread pushes chunks from Action::onRead
//     (blocking while the client is behind); network workers pop them
//     asynchronously to answer pipelined read requests in sequence order.
//
// Network workers NEVER block here: when the queue is full, admission is
// deferred (the ack fires once space frees); when it is empty, consumption
// is parked (the consumer fires once data arrives). This is what prevents a
// fleet of blocked network workers from starving unrelated streams — e.g.
// actions writing to other actions on the same server.
//
// Hot-path discipline (see DESIGN.md "Hot-path batching & wakeup"):
//   * AsyncPushAll, the one network-side push, is a doorbell: a whole
//     write frame of contiguous chunks (or a close's eos task) is admitted
//     under one lock acquisition with one admission ack and at most one
//     consumer wakeup;
//   * the expected case (in-order arrival, queue open) skips the
//     out-of-order buffering map entirely;
//   * the action-side cv is only notified when a waiter is parked, and
//     always after the lock is released;
//   * action-side blocking calls spin adaptively on an atomic size hint
//     before parking (common/spin_park.h).
//
// Action-side blocking calls take an ActionMonitor*: non-null (interleaving
// enabled) releases the action's execution turn while waiting, so another
// method of the same action may run (paper §4.2 "action interleaving",
// applied like Orleans turns).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/attribution.h"
#include "common/bytes.h"
#include "common/spin_park.h"
#include "common/status.h"
#include "common/trace.h"

namespace glider::core {

// Serializes method execution per action ("as if run by a single thread",
// paper §4.2). Enter blocks until the action is idle; interleaved waits
// Exit/Enter around their sleep.
class ActionMonitor {
 public:
  void Enter() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !busy_; });
    busy_ = true;
  }
  void Exit() {
    {
      std::scoped_lock lock(mu_);
      busy_ = false;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool busy_ = false;
};

struct DataTask {
  Buffer data;
  bool eos = false;  // write streams: the client closed the stream
  // Producer's trace context + enqueue instant, stamped on push while
  // observability is on: the dequeue side records a "channel.wait" transit
  // span parented to the producer (when ctx carries a trace), so stream
  // hops appear inside the assembled trace tree instead of as orphan
  // roots. enqueue_us == 0 = pushed with observability off.
  obs::TraceContext ctx;
  std::uint64_t enqueue_us = 0;
  // Producer's tenant, stamped whenever observability is on (independent of
  // tracing): the pop side bills transit time and delivered bytes to it.
  obs::PrincipalId principal = 0;
};

class StreamChannel {
 public:
  using AdmitFn = std::function<void(Status)>;           // acks one push
  using ConsumeFn = std::function<void(Result<DataTask>)>;  // delivers one pop

  explicit StreamChannel(std::size_t capacity) : capacity_(capacity) {}

  StreamChannel(const StreamChannel&) = delete;
  StreamChannel& operator=(const StreamChannel&) = delete;

  // --- network-worker side (never blocks) ---

  // Admits `tasks` as operations first_seq .. first_seq + tasks.size() - 1
  // (0-based, contiguous) under one lock acquisition with at most one
  // consumer wakeup. Out-of-order arrivals are buffered until the hole
  // before them fills. `on_admitted` acks the batch as a whole: it fires
  // once the LAST task has entered the queue (immediately or once space
  // frees), so a client window counts the batch as one in-flight unit. A
  // batch holding any seq already admitted or already pending is refused
  // whole with kInvalidArgument at once.
  void AsyncPushAll(std::uint64_t first_seq, std::vector<DataTask> tasks,
                    AdmitFn on_admitted);

  // Requests the item for read operation `seq`. The consumer fires with the
  // task, or with kClosed at end-of-stream / teardown (at once if the
  // channel was already aborted). A seq already served or already parked
  // is answered with kInvalidArgument at once.
  void AsyncPop(std::uint64_t seq, ConsumeFn consumer);

  // --- action-thread side (may block) ---

  // Pops every queued in-order task (at least one; blocks while empty), up
  // to `max_items`, under one lock acquisition. Write-stream consumers use
  // this to drain a write frame's chunks at the cost of a single wakeup. The
  // batch may contain the eos task (always last: nothing follows eos).
  // With a monitor, the wait yields the action's turn. kClosed after
  // Abort(), or once the producer closed and the queue is empty.
  Result<std::vector<DataTask>> BlockingPopAll(ActionMonitor* monitor,
                                               std::size_t max_items);

  // Pushes the next chunk; blocks while full. With a monitor, the wait
  // yields the action's turn. kClosed if the consumer went away.
  Status BlockingPush(DataTask task, ActionMonitor* monitor);

  // --- lifecycle ---

  // Producer finished (onRead returned / teardown): parked and future
  // consumers observe kClosed once the queue drains.
  void CloseProducer();

  // Consumer abandoned the stream (client closed a read stream early) or
  // hard teardown: blocked/parked parties all observe kClosed.
  void Abort();

  std::size_t size() const {
    std::scoped_lock lock(mu_);
    return items_.size();
  }

 private:
  struct PendingPush {
    DataTask task;
    AdmitFn on_admitted;  // may be null (interior of a batch)
  };

  // Moves in-order pending pushes into the queue while space remains.
  // Returns the admission callbacks to fire (outside the lock).
  std::vector<AdmitFn> PromoteLocked();
  // Matches queued items with parked consumers. Returns deliveries to fire.
  std::vector<std::pair<ConsumeFn, Result<DataTask>>> MatchLocked();

  // Mirrors queue state into the lock-free spin hint: item count, or
  // kClosedHint once closed/aborted.
  void PublishHintLocked() {
    size_hint_.store(
        (aborted_ || producer_closed_) ? kClosedHint : items_.size(),
        std::memory_order_release);
  }

  // Adaptive spin on the size hint before an action-side pop parks.
  void SpinForItems() {
    if (size_hint_.load(std::memory_order_acquire) != 0) return;
    spin_.SpinUntil([this] {
      return size_hint_.load(std::memory_order_acquire) != 0;
    });
  }

  // One action-side park iteration: cv wait (yielding the monitor turn when
  // interleaving), waiter-counted so producers can gate their notifies.
  void ParkLocked(std::unique_lock<std::mutex>& lock, ActionMonitor* monitor,
                  const char* wait_kind);

  static constexpr std::size_t kClosedHint =
      static_cast<std::size_t>(-1);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes action-side blocking calls
  std::size_t waiters_ = 0;     // action-side threads parked on cv_

  std::deque<DataTask> items_;
  std::uint64_t next_push_seq_ = 0;  // next op admitted to the queue
  std::map<std::uint64_t, PendingPush> pushes_;  // out-of-order / deferred

  std::uint64_t next_pop_seq_ = 0;  // next read op to serve
  std::map<std::uint64_t, ConsumeFn> consumers_;  // parked read ops

  std::atomic<std::size_t> size_hint_{0};
  AdaptiveSpin spin_;

  bool producer_closed_ = false;
  bool aborted_ = false;
};

}  // namespace glider::core
