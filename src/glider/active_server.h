// The active storage server (paper §4.2 "The active storage server", §5).
//
// An active server is a storage space contributing *action slots* instead of
// data blocks: it registers its slots with the metadata server under the
// dedicated active storage class, so the storage kernel allocates action
// nodes only here. Each slot hosts one live action object.
//
// Execution follows the paper's decoupling of network work from action work:
//   * network workers (the transport's handler pool) decode stream
//     operations and move them onto per-stream channels — never blocking;
//   * action threads (one per running method, reaped as methods finish)
//     consume the channels by running action methods, one method at a time
//     per action (ActionMonitor), with optional interleaving.
//
// Every method turn — create, delete, stat, write and read — goes through
// one dispatch path (Dispatch): queue on the slot, take the slot's turn,
// run the method, release the turn, then emit one per-invocation record
// before the reply. Dispatch is the only writer of the per-turn slot
// counters (invocations, queue depth, CPU; always on) and, with
// observability on, of the action spans, histograms, ledger charges,
// method sketch and profiler wait samples.
//
// Locking is per-object so concurrent streams to different actions never
// contend: the slot vector is preallocated and immutable, each slot guards
// its live-object pointer with its own mutex (method execution order is the
// monitor's job), and open streams live in a striped table keyed by stream
// id. There is no server-wide lock on any request path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "glider/action.h"
#include "glider/protocol.h"
#include "glider/stream_channel.h"
#include "net/service_router.h"
#include "nodekernel/protocol.h"

namespace glider::core {

class ActiveServer : public net::ServiceRouter,
                     public std::enable_shared_from_this<ActiveServer> {
 public:
  struct Options {
    std::uint32_t num_slots = 16;
    // Nominal slot capacity registered with the metadata server; a resource
    // management knob (paper: "the size of an active server and the number
    // of slots it registers determine the capacity ... of its actions").
    std::uint64_t slot_bytes = 64ull << 20;
    std::size_t channel_capacity = 8;  // in-flight ops buffered per stream
    std::string preferred_address;
    // Link class for the server's internal store client (actions reaching
    // other nodes): kInternal, or kRdma when the deployment gives the
    // storage tier a fast fabric (§7.1 "RDMA" row).
    LinkClass internal_link_class = LinkClass::kInternal;
    // Bandwidth of the internal link (0 = unshaped).
    std::uint64_t internal_link_bps = 0;

    // Slot-stall watchdog (DESIGN.md "Continuous profiling"): a method that
    // burns more than stall_multiple × interleave_quantum of CPU without
    // yielding (touching its stream channel) is flagged — "active.stalls"
    // counter + slow-trace entry + kWarn log. The stall measure is the
    // method thread's CPU clock, so a method legitimately parked on a
    // channel is never flagged. stall_multiple = 0 disables the watchdog.
    std::chrono::milliseconds interleave_quantum{50};
    double stall_multiple = 8.0;
    std::chrono::milliseconds watchdog_interval{10};
  };

  ActiveServer(Options options, std::shared_ptr<ActionRegistry> registry,
               std::shared_ptr<Metrics> metrics);
  ~ActiveServer() override;

  // Binds, registers the slots with the metadata server, and builds the
  // internal store client handed to actions.
  Status Start(net::Transport& transport, const std::string& metadata_address);

  // Stops accepting requests and joins every action-method thread.
  // Idempotent. Owners must call this (directly or via the destructor of
  // the last external reference being unreachable — the transport's
  // listener entry holds a shared_ptr back to the service, so the server
  // cannot be destroyed while it is still listening).
  void Stop();

  const std::string& address() const { return address_; }

  // Sum of self-reported action state (storage-utilization metric).
  std::uint64_t UsedBytes() const;
  std::size_t LiveActions() const;

 private:
  struct Slot;
  struct Stream;

  // The method turns, in the order of the per-method name table.
  enum class Method : std::uint8_t { kCreate, kDelete, kStat, kWrite, kRead };
  struct MethodObs;

  void DoActionCreate(ActionCreateRequest req, net::Message request,
                      net::Responder responder);
  void DoActionDelete(SlotRequest req, net::Message request,
                      net::Responder responder);
  void DoActionStat(SlotRequest req, net::Message request,
                    net::Responder responder);
  void DoStreamOpen(StreamOpenRequest req, net::Message request,
                    net::Responder responder);
  void DoStreamWrite(StreamWriteRequest req, net::Message request,
                     net::Responder responder);
  void DoStreamWriteBatch(StreamWriteBatchRequest req, net::Message request,
                          net::Responder responder);
  void DoStreamRead(StreamReadRequest req, net::Message request,
                    net::Responder responder);
  void DoStreamClose(StreamCloseRequest req, net::Message request,
                     net::Responder responder);

  Result<std::shared_ptr<Slot>> GetSlot(std::uint32_t index,
                                        bool must_have_object);

  // Queues one method turn on `slot` and runs it on an action thread:
  // `run` executes under the slot's turn and returns the reply step, which
  // runs after the turn is released and its invocation record emitted.
  // `type` names the action in the profile tag and method sketch; empty
  // means the slot's current type, read under the turn. Fails only when
  // the action pool refuses the turn (shutdown); the caller answers then.
  template <typename Run>
  Status Dispatch(const std::shared_ptr<Slot>& slot, Method method,
                  std::string type, Run run);

  // Slot-stall watchdog body: scans slots every watchdog_interval and flags
  // methods that exceeded the CPU budget without yielding.
  void WatchdogLoop();

  const Options options_;
  std::shared_ptr<ActionRegistry> registry_;
  std::shared_ptr<Metrics> metrics_;

  // Spawns one tracked thread per action-method execution. Threads report
  // completion so later Submits reap (join) them incrementally instead of
  // accumulating one joinable thread per method until shutdown. Not a fixed
  // pool: methods are long-lived and may open streams to *other* actions
  // (e.g. the genomics sampler feeding the manager), which a fixed pool can
  // deadlock on when every thread blocks on a method it cannot schedule.
  class MethodRunner {
   public:
    ~MethodRunner() { Shutdown(); }
    Status Submit(std::function<void()> task);
    void Shutdown();

   private:
    std::mutex mu_;
    std::uint64_t next_id_ = 0;
    std::map<std::uint64_t, std::thread> threads_;
    std::vector<std::uint64_t> finished_;  // ids whose bodies completed
    bool shutdown_ = false;
  };

  // Open streams, striped by id so concurrent lookups and inserts on
  // different streams take different mutexes.
  class StreamTable {
   public:
    void Insert(std::uint64_t id, std::shared_ptr<Stream> stream);
    Result<std::shared_ptr<Stream>> Find(std::uint64_t id) const;
    void Erase(std::uint64_t id);
    // Aborts every open stream's channel, waking method threads blocked on
    // a stream the client abandoned without closing (shutdown path).
    void AbortAll();

   private:
    static constexpr std::size_t kStripes = 16;  // power of two
    struct Stripe {
      mutable std::mutex mu;
      std::map<std::uint64_t, std::shared_ptr<Stream>> streams;
    };
    const Stripe& StripeFor(std::uint64_t id) const {
      return stripes_[id & (kStripes - 1)];
    }
    Stripe& StripeFor(std::uint64_t id) {
      return stripes_[id & (kStripes - 1)];
    }
    std::array<Stripe, kStripes> stripes_;
  };

  std::unique_ptr<net::Listener> listener_;
  std::string address_;
  std::unique_ptr<nk::StoreClient> internal_client_;
  std::unique_ptr<MethodRunner> action_pool_;

  // Preallocated at construction, immutable afterwards: slot lookup takes
  // no lock. Per-slot state is guarded inside Slot.
  std::vector<std::shared_ptr<Slot>> slots_;
  StreamTable streams_;
  std::atomic<std::uint64_t> next_stream_id_{1};

  // Span, ledger and histogram names per Method, resolved at construction.
  std::vector<MethodObs> method_obs_;

  // Server-wide action queue depth ("active.queue_depth"): methods
  // submitted to the action pool but not yet admitted by their slot's
  // monitor. Updated alongside the per-slot gauges, on every turn.
  obs::Gauge* total_queue_depth_ = nullptr;

  // Stall watchdog state; the thread runs between Start() and Stop().
  obs::Counter* total_stalls_ = nullptr;
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace glider::core
