#include "glider/active_server.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <deque>
#include <utility>

#include "common/attribution.h"
#include "common/buffer_pool.h"
#include "common/event_journal.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "net/link_model.h"
#include "net/rpc_client.h"

namespace glider::core {

// CPU time of the calling thread, for per-action cost attribution: wall
// time alone can't distinguish an action burning a core from one parked on
// a stream pop.
static std::uint64_t ThreadCpuMicros() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
}

// Watchdog view of a slot's in-flight method. run_start_us != 0 publishes
// the rest (written by the method thread before it, read by the watchdog
// thread). `cpu_clock` is the method thread's CPU clock: the watchdog
// measures CPU burnt since `cpu_at_progress_us` (bumped on every channel
// touch), so "stalled" means burning CPU without yielding — a method parked
// on a channel accrues no CPU and is never flagged. If the thread exits
// between the run_start check and the clock read, clock_gettime fails and
// the scan skips the slot.
struct SlotRunState {
  std::atomic<std::uint64_t> run_start_us{0};  // wall clock; 0 = idle
  std::atomic<std::uint64_t> cpu_at_progress_us{0};
  std::atomic<clockid_t> cpu_clock{CLOCK_THREAD_CPUTIME_ID};
  std::atomic<const char*> method{""};
  std::atomic<bool> flagged{false};  // one warning per stall episode

  // Called by the method thread whenever it touches its stream channel —
  // the watchdog's definition of "yield/progress".
  void BumpProgress() {
    cpu_at_progress_us.store(ThreadCpuMicros(), std::memory_order_relaxed);
    flagged.store(false, std::memory_order_relaxed);
  }
};

// Marks a slot's method as running for the watchdog, for the lifetime of
// the method body on the action thread.
class MethodRunScope {
 public:
  MethodRunScope(SlotRunState* run, const char* method) : run_(run) {
    clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
    ::pthread_getcpuclockid(::pthread_self(), &clock);
    run_->cpu_clock.store(clock, std::memory_order_relaxed);
    run_->cpu_at_progress_us.store(ThreadCpuMicros(),
                                   std::memory_order_relaxed);
    run_->method.store(method, std::memory_order_relaxed);
    run_->flagged.store(false, std::memory_order_relaxed);
    start_ = obs::TraceNowMicros();
    run_->run_start_us.store(start_, std::memory_order_release);
  }
  ~MethodRunScope() {
    // The scope outlives the monitor hand-off (it unwinds after Exit), so
    // the next method on this slot may already have published its own
    // start. Clear only our own mark.
    std::uint64_t expected = start_;
    run_->run_start_us.compare_exchange_strong(expected, 0,
                                               std::memory_order_release,
                                               std::memory_order_relaxed);
  }
  MethodRunScope(const MethodRunScope&) = delete;
  MethodRunScope& operator=(const MethodRunScope&) = delete;

 private:
  SlotRunState* run_;
  std::uint64_t start_ = 0;
};

// One action slot: the unit of active-server capacity. Holds the live
// action object, its execution monitor, and its creation config.
//
// Locking: method execution (and with it every mutation of interleave/
// action_type/config) is serialized by `monitor`. The live-object pointer
// is additionally guarded by `obj_mu` so network workers can check/observe
// it without entering the monitor (which would queue them behind running
// methods).
struct ActiveServer::Slot {
  std::uint32_t index = 0;
  // shared_ptr (not unique_ptr) because handler lambdas captured into
  // std::function must stay copyable.
  std::shared_ptr<Action> object;
  mutable std::mutex obj_mu;
  ActionMonitor monitor;
  bool interleave = false;
  std::string action_type;
  Buffer config;

  // Per-slot resource accounting ("active.slot<i>.*"), resolved once at
  // server construction; updates are relaxed atomics, always on (the load
  // index reads them). `queue_depth` counts methods submitted but not yet
  // admitted by the monitor; `cpu_us` is method thread CPU time
  // (CLOCK_THREAD_CPUTIME_ID), the cost-attribution signal glider_top
  // uses to blame cluster load on individual actions.
  struct Stats {
    obs::Counter* invocations = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* cpu_us = nullptr;
    obs::Counter* stalls = nullptr;
    obs::Gauge* queue_depth = nullptr;
  } stats;

  SlotRunState run;

  std::shared_ptr<Action> LiveObject() const {
    std::scoped_lock lock(obj_mu);
    return object;
  }
};

// One open I/O stream on an action.
struct ActiveServer::Stream {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  StreamMode mode = StreamMode::kRead;
  StreamChannel channel;
  // Write streams: responder for the client's close request, fulfilled when
  // the method finishes consuming the stream ("this sends a final request
  // that ... ends the method execution", §4.2).
  std::mutex close_mu;
  net::Responder close_responder;
  net::Message close_request;
  bool method_done = false;

  Stream(std::uint64_t stream_id, std::uint32_t slot_index, StreamMode m,
         std::size_t capacity)
      : id(stream_id), slot(slot_index), mode(m), channel(capacity) {}
};

namespace {

// Context handed to action methods. Reads the slot's config on use: a
// create turn installs the config after the context is built.
class ServerActionContext : public ActionContext {
 public:
  ServerActionContext(nk::StoreClient* store, const Buffer* config)
      : store_(store), config_(config) {}

  nk::StoreClient& store() override { return *store_; }
  ByteSpan config() const override { return config_->span(); }

 private:
  nk::StoreClient* store_;
  const Buffer* config_;
};

// Input stream over a write-stream channel: pops tasks in order; EOS task
// becomes the empty end-of-stream chunk.
class ChannelInputStream : public ActionInputStream {
 public:
  ChannelInputStream(StreamChannel* channel, ActionMonitor* monitor,
                     SlotRunState* run)
      : channel_(channel), monitor_(monitor), run_(run) {}

  Result<Buffer> ReadChunk() override {
    if (eos_) return Buffer{};
    if (pending_.empty()) {
      run_->BumpProgress();
      // Drain every queued task with a single channel lock/wakeup: doorbell
      // batches arrive together, so one wake serves many ReadChunk calls.
      auto batch = channel_->BlockingPopAll(monitor_, kDrainMax);
      run_->BumpProgress();
      if (!batch.ok()) {
        // Teardown while reading: surface as end of stream.
        eos_ = true;
        return Buffer{};
      }
      for (auto& task : *batch) pending_.push_back(std::move(task));
    }
    DataTask task = std::move(pending_.front());
    pending_.pop_front();
    if (task.eos) {
      eos_ = true;
      return Buffer{};
    }
    return std::move(task.data);
  }

  bool saw_eos() const { return eos_; }

  // Consumes the rest of the stream — local stash first, then the channel —
  // WITHOUT monitor yields: used after the method returned or threw, when
  // the action's execution turn has already been released. Terminates on
  // the eos task or channel teardown.
  void DrainUntilEos() {
    while (!eos_) {
      while (!pending_.empty()) {
        DataTask task = std::move(pending_.front());
        pending_.pop_front();
        if (task.eos) {
          eos_ = true;
          break;
        }
      }
      if (eos_) break;
      auto batch = channel_->BlockingPopAll(nullptr, kDrainMax);
      if (!batch.ok()) {
        eos_ = true;
        break;
      }
      for (auto& task : *batch) pending_.push_back(std::move(task));
    }
  }

 private:
  // Bounds the local stash so channel capacity (and thus client admission
  // windows) keeps functioning as backpressure.
  static constexpr std::size_t kDrainMax = 16;

  StreamChannel* channel_;
  ActionMonitor* monitor_;
  SlotRunState* run_;
  std::deque<DataTask> pending_;
  bool eos_ = false;
};

// Output stream over a read-stream channel.
class ChannelOutputStream : public ActionOutputStream {
 public:
  ChannelOutputStream(StreamChannel* channel, ActionMonitor* monitor,
                      SlotRunState* run)
      : channel_(channel), monitor_(monitor), run_(run) {}

  Status Write(ByteSpan data) override {
    if (closed_) return Status::Closed("output stream closed");
    run_->BumpProgress();
    DataTask task;
    // One copy, into pooled chunk storage; the network worker later ships
    // this buffer to the wire without copying it again.
    Buffer chunk = BufferPool::Global().Acquire(data.size());
    std::copy(data.begin(), data.end(), chunk.mutable_span().begin());
    data_plane::RecordCopy(data.size());
    task.data = std::move(chunk);
    const Status admitted = channel_->BlockingPush(std::move(task), monitor_);
    run_->BumpProgress();
    return admitted;
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    channel_->CloseProducer();
  }

 private:
  StreamChannel* channel_;
  ActionMonitor* monitor_;
  SlotRunState* run_;
  bool closed_ = false;
};

// Observability for one action-method execution. Captured on the network
// worker at submit time (while the RPC server span is the current context),
// then consumed on the action thread by Dispatch's invocation record: the
// submit->monitor-admit gap becomes the queue-wait span, monitor-admit->exit
// the run span. `active` is captured too, so a turn submitted with
// observability off emits nothing even if it is switched on meanwhile.
struct MethodTrace {
  bool active = false;
  obs::TraceContext parent;
  obs::PrincipalId principal = 0;  // caller's tenant, captured at submit
  std::uint64_t submit_us = 0;
  std::uint64_t run_span_id = 0;  // pre-allocated: the run span's id

  static MethodTrace Begin() {
    MethodTrace t;
    if (!obs::Enabled()) return t;
    t.active = true;
    t.parent = obs::CurrentTraceContext();
    t.principal = obs::CurrentPrincipal();
    t.submit_us = obs::TraceNowMicros();
    t.run_span_id = obs::NewSpanId();
    return t;
  }

  // Context for the method body: the run span id is allocated up front so
  // nested work (store RPCs, channel pushes/pops) parents *under* the run
  // span — the assembled tree then decomposes run time into cpu / net /
  // channel instead of flattening those spans beside it.
  obs::TraceContext RunContext() const {
    if (!active || parent.trace_id == 0) return parent;
    return obs::TraceContext{parent.trace_id, run_span_id};
  }
};

// An RPC-answered turn's reply step: `payload` on success, else the error.
auto Answer(net::Responder responder, net::Message request, Status status,
            Buffer payload = {}) {
  return [responder = std::move(responder), request = std::move(request),
          status = std::move(status), payload = std::move(payload)]() mutable {
    if (status.ok()) {
      responder.SendOk(request, std::move(payload));
    } else {
      responder.SendError(request, status);
    }
  };
}

}  // namespace

// Observable names of one method turn, built once per server so a turn
// builds no span, ledger or histogram name and looks up no histogram.
struct ActiveServer::MethodObs {
  const char* method = "";  // "onWrite"
  std::string ledger_op;    // "action.onWrite"
  std::string queue_span;   // "action.onWrite.queue"
  std::string run_span;     // "action.onWrite.run"
  obs::LatencyHistogram* queue_us = nullptr;  // "action.onWrite.queue_us"
  obs::LatencyHistogram* run_us = nullptr;    // "action.onWrite.run_us"
};

ActiveServer::ActiveServer(Options options,
                           std::shared_ptr<ActionRegistry> registry,
                           std::shared_ptr<Metrics> metrics)
    : net::ServiceRouter("active", metrics.get()),
      options_(std::move(options)),
      registry_(std::move(registry)),
      metrics_(std::move(metrics)) {
  auto& reg = obs::MetricsRegistry::Global();
  total_queue_depth_ = &reg.GetGauge("active.queue_depth");
  total_stalls_ = &reg.GetCounter("active.stalls");
  // Indexed by Method. The stat turn runs the action's StateBytes().
  for (const char* method :
       {"onCreate", "onDelete", "StateBytes", "onWrite", "onRead"}) {
    const std::string op = std::string("action.") + method;
    method_obs_.push_back(MethodObs{method, op, op + ".queue", op + ".run",
                                    &reg.GetHistogram(op + ".queue_us"),
                                    &reg.GetHistogram(op + ".run_us")});
  }
  slots_.reserve(options_.num_slots);
  for (std::uint32_t i = 0; i < options_.num_slots; ++i) {
    auto slot = std::make_shared<Slot>();
    slot->index = i;
    const std::string prefix = "active.slot" + std::to_string(i) + ".";
    slot->stats.invocations = &reg.GetCounter(prefix + "invocations");
    slot->stats.bytes_in = &reg.GetCounter(prefix + "bytes_in");
    slot->stats.bytes_out = &reg.GetCounter(prefix + "bytes_out");
    slot->stats.cpu_us = &reg.GetCounter(prefix + "cpu_us");
    slot->stats.stalls = &reg.GetCounter(prefix + "stalls");
    slot->stats.queue_depth = &reg.GetGauge(prefix + "queue_depth");
    slots_.push_back(std::move(slot));
  }
  RouteDeferred<ActionCreateRequest>(
      kActionCreate, "ActionCreate",
      [this](ActionCreateRequest req, net::Message request,
             net::Responder responder) {
        DoActionCreate(std::move(req), std::move(request),
                       std::move(responder));
      });
  RouteDeferred<SlotRequest>(
      kActionDelete, "ActionDelete",
      [this](SlotRequest req, net::Message request, net::Responder responder) {
        DoActionDelete(req, std::move(request), std::move(responder));
      });
  RouteDeferred<SlotRequest>(
      kActionStat, "ActionStat",
      [this](SlotRequest req, net::Message request, net::Responder responder) {
        DoActionStat(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamOpenRequest>(
      kStreamOpen, "StreamOpen",
      [this](StreamOpenRequest req, net::Message request,
             net::Responder responder) {
        DoStreamOpen(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamWriteRequest>(
      kStreamWrite, "StreamWrite",
      [this](StreamWriteRequest req, net::Message request,
             net::Responder responder) {
        DoStreamWrite(std::move(req), std::move(request),
                      std::move(responder));
      });
  RouteDeferred<StreamWriteBatchRequest>(
      kStreamWriteBatch, "StreamWriteBatch",
      [this](StreamWriteBatchRequest req, net::Message request,
             net::Responder responder) {
        DoStreamWriteBatch(std::move(req), std::move(request),
                           std::move(responder));
      });
  RouteDeferred<StreamReadRequest>(
      kStreamRead, "StreamRead",
      [this](StreamReadRequest req, net::Message request,
             net::Responder responder) {
        DoStreamRead(req, std::move(request), std::move(responder));
      });
  RouteDeferred<StreamCloseRequest>(
      kStreamClose, "StreamClose",
      [this](StreamCloseRequest req, net::Message request,
             net::Responder responder) {
        DoStreamClose(req, std::move(request), std::move(responder));
      });
}

Status ActiveServer::MethodRunner::Submit(std::function<void()> task) {
  std::vector<std::thread> reaped;
  {
    std::scoped_lock lock(mu_);
    if (shutdown_) return Status::Closed("active server shutting down");
    // Pull out threads whose bodies already completed; joined below,
    // outside the lock (the join itself only waits for thread exit).
    reaped.reserve(finished_.size());
    for (const std::uint64_t id : finished_) {
      auto it = threads_.find(id);
      if (it != threads_.end()) {
        reaped.push_back(std::move(it->second));
        threads_.erase(it);
      }
    }
    finished_.clear();
    const std::uint64_t id = next_id_++;
    threads_.emplace(id, std::thread([this, id, task = std::move(task)] {
                       task();
                       std::scoped_lock done_lock(mu_);
                       finished_.push_back(id);
                     }));
  }
  for (auto& t : reaped) {
    if (t.joinable()) t.join();
  }
  return Status::Ok();
}

void ActiveServer::MethodRunner::Shutdown() {
  std::map<std::uint64_t, std::thread> to_join;
  {
    std::scoped_lock lock(mu_);
    shutdown_ = true;
    to_join.swap(threads_);
  }
  for (auto& [id, t] : to_join) {
    if (t.joinable()) t.join();
  }
}

ActiveServer::~ActiveServer() { Stop(); }

void ActiveServer::Stop() {
  // Stop accepting requests before tearing down action state. Joining the
  // method threads here (not just in the destructor) matters: the
  // transport's listener entry holds a shared_ptr to this service, so the
  // destructor alone can never run while the listener exists. Abort open
  // streams first: a method blocked on a stream the client abandoned
  // without closing would otherwise block the join forever.
  if (listener_) {
    obs::JournalEvent(obs::EventType::kServerDown, address_, "active");
  }
  listener_.reset();
  {
    std::scoped_lock lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  streams_.AbortAll();
  if (action_pool_) action_pool_->Shutdown();
  // With the methods joined, nothing touches the internal client or the
  // action objects any more. Release both: connections held by the client
  // (and, transitively, by retained action state) can reference active
  // servers — including this one — and would otherwise keep a cycle of
  // server entries alive past shutdown.
  internal_client_.reset();
  for (const auto& slot : slots_) {
    std::scoped_lock lock(slot->obj_mu);
    slot->object.reset();
  }
}

Status ActiveServer::Start(net::Transport& transport,
                           const std::string& metadata_address) {
  // Everything handler threads read (the method runner, the internal store
  // client) must be in place before Listen: the first RPC can arrive on a
  // listener thread with no synchronization edge back to this one.
  action_pool_ = std::make_unique<MethodRunner>();

  // The store client actions use to reach other nodes, over the
  // storage-internal link. Connects to the metadata server, so it does not
  // depend on our own listener being up.
  nk::StoreClient::Options copts;
  copts.transport = &transport;
  copts.metadata_address = metadata_address;
  copts.data_link = std::make_shared<net::LinkModel>(
      options_.internal_link_class, options_.internal_link_bps,
      std::chrono::microseconds(0), metrics_);
  GLIDER_ASSIGN_OR_RETURN(internal_client_,
                          nk::StoreClient::Connect(std::move(copts)));

  auto listener =
      transport.Listen(options_.preferred_address, shared_from_this());
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();

  // Register the slots as the blocks of this storage space, grouped under
  // the active storage class.
  auto conn = transport.Connect(
      metadata_address, net::LinkModel::Unshaped(LinkClass::kControl, metrics_));
  if (!conn.ok()) return conn.status();
  nk::RegisterServerRequest req;
  req.storage_class = nk::kActiveClass;
  req.address = address_;
  req.num_blocks = options_.num_slots;
  req.block_size = options_.slot_bytes;
  GLIDER_RETURN_IF_ERROR(net::CallVoid(**conn, nk::kRegisterServer, req));

  if (options_.stall_multiple > 0 && options_.interleave_quantum.count() > 0 &&
      !watchdog_.joinable()) {
    {
      std::scoped_lock lock(watchdog_mu_);
      watchdog_stop_ = false;
    }
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  obs::JournalEvent(obs::EventType::kServerUp, address_, "active");
  return Status::Ok();
}

void ActiveServer::WatchdogLoop() {
  const std::uint64_t threshold_us = static_cast<std::uint64_t>(
      options_.stall_multiple *
      static_cast<double>(options_.interleave_quantum.count()) * 1000.0);
  std::unique_lock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, options_.watchdog_interval,
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    for (const auto& slot : slots_) {
      SlotRunState& run = slot->run;
      const std::uint64_t run_start =
          run.run_start_us.load(std::memory_order_acquire);
      if (run_start == 0) continue;  // idle
      if (run.flagged.load(std::memory_order_relaxed)) continue;
      // CPU burnt by the method thread since it last touched a channel. A
      // clock_gettime failure means the thread already exited — skip.
      timespec ts{};
      const clockid_t clock = run.cpu_clock.load(std::memory_order_relaxed);
      if (::clock_gettime(clock, &ts) != 0) continue;
      const std::uint64_t cpu_now =
          static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
          static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
      const std::uint64_t cpu_base =
          run.cpu_at_progress_us.load(std::memory_order_relaxed);
      if (cpu_now <= cpu_base || cpu_now - cpu_base <= threshold_us) continue;
      const std::uint64_t stalled_us = cpu_now - cpu_base;
      run.flagged.store(true, std::memory_order_relaxed);  // once per episode
      const char* method = run.method.load(std::memory_order_relaxed);
      total_stalls_->Increment();
      slot->stats.stalls->Increment();
      GLIDER_LOG(kWarn, "active")
          << "slot " << slot->index << " method " << method << " on-CPU "
          << stalled_us << "us without yielding (threshold " << threshold_us
          << "us = " << options_.stall_multiple << " x "
          << options_.interleave_quantum.count() << "ms quantum)";
      obs::SpanRecord record;
      record.name = "stall.slot" + std::to_string(slot->index) + "." + method;
      record.category = "active";
      record.start_us = run_start;
      record.dur_us = stalled_us;
      obs::SlowTraceStore::Global().Flag(std::move(record), threshold_us);
      obs::JournalEvent(obs::EventType::kSlotStall,
                        "slot" + std::to_string(slot->index), method,
                        static_cast<std::int64_t>(stalled_us));
    }
  }
}

void ActiveServer::StreamTable::Insert(std::uint64_t id,
                                       std::shared_ptr<Stream> stream) {
  Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  stripe.streams[id] = std::move(stream);
}

Result<std::shared_ptr<ActiveServer::Stream>> ActiveServer::StreamTable::Find(
    std::uint64_t id) const {
  const Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  auto it = stripe.streams.find(id);
  if (it == stripe.streams.end()) {
    return Status::NotFound("unknown stream " + std::to_string(id));
  }
  return it->second;
}

void ActiveServer::StreamTable::Erase(std::uint64_t id) {
  Stripe& stripe = StripeFor(id);
  std::scoped_lock lock(stripe.mu);
  stripe.streams.erase(id);
}

void ActiveServer::StreamTable::AbortAll() {
  for (Stripe& stripe : stripes_) {
    std::scoped_lock lock(stripe.mu);
    for (auto& [id, stream] : stripe.streams) stream->channel.Abort();
  }
}

Result<std::shared_ptr<ActiveServer::Slot>> ActiveServer::GetSlot(
    std::uint32_t index, bool must_have_object) {
  if (index >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(index) +
                              " out of range");
  }
  std::shared_ptr<Slot> slot = slots_[index];
  if (must_have_object && slot->LiveObject() == nullptr) {
    return Status::NotFound("no action in slot " + std::to_string(index));
  }
  return slot;
}

template <typename Run>
Status ActiveServer::Dispatch(const std::shared_ptr<Slot>& slot, Method method,
                              std::string type, Run run) {
  const MethodObs& names = method_obs_[static_cast<std::size_t>(method)];
  const MethodTrace mt = MethodTrace::Begin();
  slot->stats.queue_depth->Add(1);
  total_queue_depth_->Add(1);
  auto turn = [this, slot, &names, mt, type = std::move(type),
               run = std::move(run)]() mutable {
    slot->monitor.Enter();
    slot->stats.queue_depth->Add(-1);
    total_queue_depth_->Add(-1);
    const std::uint64_t run_start_us =
        mt.active ? obs::TraceNowMicros() : 0;
    // "<type>.<method>" keys the method sketch and, prefixed with the slot,
    // tags every profiler sample this thread takes while the method runs.
    // Built only when one of them is on; read under the turn, which orders
    // it after any create that rewrote the slot's type.
    const bool profiling = obs::SamplingProfiler::ActiveFast();
    std::string method_key;
    if (mt.active || profiling) {
      method_key = (type.empty() ? slot->action_type : type) + "." +
                   names.method;
    }
    std::string profile_tag;
    if (profiling) {
      profile_tag = "slot" + std::to_string(slot->index) + ":" + method_key;
    }
    obs::ProfileTagScope ptag(profile_tag.empty() ? nullptr
                                                  : profile_tag.c_str());
    MethodRunScope run_scope(&slot->run, names.method);
    // Store RPCs and channel waits issued by the method parent under its
    // run span and bill to the tenant that asked for the turn.
    obs::TraceContextScope trace_scope(mt.RunContext());
    obs::PrincipalScope principal_scope(mt.principal);
    ServerActionContext ctx(internal_client_.get(), &slot->config);
    const std::uint64_t cpu_start_us = ThreadCpuMicros();
    auto reply = run(ctx);
    const std::uint64_t cpu_us = ThreadCpuMicros() - cpu_start_us;
    slot->monitor.Exit();

    // The invocation record, written here only: both sides of "ledger
    // action cpu == slot cpu_us" and "ledger queue_us == queue histogram
    // sum" come from the same fields.
    slot->stats.invocations->Increment();
    slot->stats.cpu_us->Add(cpu_us);
    if (mt.active) {
      const std::uint64_t run_end_us = obs::TraceNowMicros();
      const std::uint64_t queue_us = run_start_us - mt.submit_us;
      obs::SamplingProfiler::Global().AddWaitSample("action.queue", queue_us);
      obs::RecordSpan("action", names.queue_span, mt.parent,
                      obs::NewSpanId(), mt.submit_us, run_start_us);
      obs::RecordSpan("action", names.run_span, mt.parent,
                      mt.run_span_id, run_start_us, run_end_us);
      names.queue_us->Record(queue_us);
      names.run_us->Record(run_end_us - run_start_us);
      obs::LedgerCell cell;
      cell.cpu_us = cpu_us;
      cell.queue_us = queue_us;
      cell.invocations = 1;
      obs::ResourceLedger::Global().Charge(mt.principal, names.ledger_op,
                                           cell);
      obs::MethodSketch().Offer(method_key);
    }
    reply();
  };
  const Status submitted = action_pool_->Submit(std::move(turn));
  if (!submitted.ok()) {
    slot->stats.queue_depth->Add(-1);
    total_queue_depth_->Add(-1);
  }
  return submitted;
}

void ActiveServer::DoActionCreate(ActionCreateRequest req,
                                  net::Message request,
                                  net::Responder responder) {
  auto slot_result = GetSlot(req.slot, /*must_have_object=*/false);
  if (!slot_result.ok()) {
    return responder.SendError(request, slot_result.status());
  }
  auto slot = std::move(slot_result).value();
  auto object = registry_->Create(req.action_type);
  if (!object.ok()) return responder.SendError(request, object.status());

  // Instantiate under the action's execution turn: onCreate is user code
  // and follows the single-threaded model like any other method.
  std::string type = req.action_type;  // copied before the body takes req
  const Status submitted = Dispatch(
      slot, Method::kCreate, std::move(type),
      [slot, req = std::move(req),
       object = std::shared_ptr<Action>(std::move(object).value()), request,
       responder](ActionContext& ctx) mutable {
        if (slot->LiveObject() != nullptr) {
          return Answer(std::move(responder), std::move(request),
                        Status::AlreadyExists("slot already holds an action"));
        }
        slot->interleave = req.interleave;
        slot->action_type = std::move(req.action_type);
        slot->config = std::move(req.config);
        {
          std::scoped_lock lock(slot->obj_mu);
          slot->object = object;
        }
        Status status;
        try {
          object->onCreate(ctx);
        } catch (const std::exception& e) {
          std::scoped_lock lock(slot->obj_mu);
          slot->object.reset();
          status = Status::Internal(std::string("onCreate: ") + e.what());
        }
        return Answer(std::move(responder), std::move(request),
                      std::move(status));
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoActionDelete(SlotRequest req, net::Message request,
                                  net::Responder responder) {
  auto slot_result = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot_result.ok()) {
    return responder.SendError(request, slot_result.status());
  }
  auto slot = std::move(slot_result).value();
  const Status submitted = Dispatch(
      slot, Method::kDelete, {},
      [slot, request, responder](ActionContext& ctx) mutable {
        std::shared_ptr<Action> object = slot->LiveObject();
        Status status;
        if (object == nullptr) {
          status = Status::NotFound("slot already empty");
        } else {
          try {
            object->onDelete(ctx);
          } catch (const std::exception& e) {
            GLIDER_LOG(kWarn, "active") << "onDelete threw: " << e.what();
          }
          std::scoped_lock lock(slot->obj_mu);
          slot->object.reset();
        }
        // The reply step holds the last reference to the action, so its
        // state (a sorter's records, say) is freed after the caller is
        // answered rather than inside the turn, ahead of the reply.
        return [answer = Answer(std::move(responder), std::move(request),
                                std::move(status)),
                object = std::move(object)]() mutable {
          answer();
          object.reset();
        };
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoActionStat(SlotRequest req, net::Message request,
                                net::Responder responder) {
  auto slot_result = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot_result.ok()) {
    return responder.SendError(request, slot_result.status());
  }
  auto slot = std::move(slot_result).value();
  const Status submitted = Dispatch(
      slot, Method::kStat, {},
      [slot, request, responder](ActionContext&) mutable {
        ActionStatResponse resp;
        if (auto object = slot->LiveObject()) {
          resp.state_bytes = object->StateBytes();
        }
        return Answer(std::move(responder), std::move(request), Status::Ok(),
                      resp.Encode());
      });
  if (!submitted.ok()) responder.SendError(request, submitted);
}

void ActiveServer::DoStreamOpen(StreamOpenRequest req, net::Message request,
                                net::Responder responder) {
  auto slot_result = GetSlot(req.slot, /*must_have_object=*/true);
  if (!slot_result.ok()) {
    return responder.SendError(request, slot_result.status());
  }
  auto slot = std::move(slot_result).value();

  const std::uint64_t id = next_stream_id_.fetch_add(1);
  auto stream = std::make_shared<Stream>(id, req.slot, req.mode,
                                         options_.channel_capacity);
  streams_.Insert(id, stream);
  Status submitted;
  if (req.mode == StreamMode::kWrite) {
    submitted = Dispatch(
        slot, Method::kWrite, {}, [slot, stream](ActionContext& ctx) {
          ChannelInputStream in(&stream->channel,
                                slot->interleave ? &slot->monitor : nullptr,
                                &slot->run);
          if (auto object = slot->LiveObject()) {
            try {
              object->onWrite(in, ctx);
            } catch (const std::exception& e) {
              GLIDER_LOG(kWarn, "active") << "onWrite threw: " << e.what();
            }
          }
          // The method may return before consuming the whole stream; drain
          // so pipelined client writes still get acknowledged, then
          // complete the client's close. Must go through `in`, not the
          // channel directly: the input stream may hold batch-drained tasks
          // (eos included) in its local stash.
          return [stream, in = std::move(in)]() mutable {
            in.DrainUntilEos();
            net::Responder close_responder;
            net::Message close_request;
            {
              std::scoped_lock lock(stream->close_mu);
              stream->method_done = true;
              close_responder = std::move(stream->close_responder);
              close_request = stream->close_request;
            }
            if (close_responder.valid()) {
              close_responder.SendOk(close_request);
            }
          };
        });
  } else {
    submitted = Dispatch(
        slot, Method::kRead, {}, [slot, stream](ActionContext& ctx) {
          ChannelOutputStream out(&stream->channel,
                                  slot->interleave ? &slot->monitor : nullptr,
                                  &slot->run);
          if (auto object = slot->LiveObject()) {
            try {
              object->onRead(out, ctx);
            } catch (const std::exception& e) {
              GLIDER_LOG(kWarn, "active") << "onRead threw: " << e.what();
            }
          }
          return [stream, out = std::move(out)]() mutable {
            out.Close();  // idempotent: signals end-of-stream to the reader
            std::scoped_lock lock(stream->close_mu);
            stream->method_done = true;
          };
        });
  }
  if (!submitted.ok()) {
    GLIDER_LOG(kWarn, "active") << "action pool rejected method";
    stream->channel.Abort();
  }

  StreamOpenResponse resp;
  resp.stream_id = id;
  responder.SendOk(request, resp.Encode());
}

void ActiveServer::DoStreamWrite(StreamWriteRequest req, net::Message request,
                                 net::Responder responder) {
  // Zero-copy: req.data is a slice of the request payload; the DataTask
  // keeps the frame's storage alive until the action consumes it.
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kWrite) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a write stream"));
  }
  slots_[(*stream)->slot]->stats.bytes_in->Add(req.data.size());
  DataTask task;
  task.data = std::move(req.data);
  (*stream)->channel.AsyncPush(
      req.seq, std::move(task),
      [request, responder](Status admit) mutable {
        if (admit.ok()) {
          responder.SendOk(request);
        } else {
          responder.SendError(request, admit);
        }
      });
}

void ActiveServer::DoStreamWriteBatch(StreamWriteBatchRequest req,
                                      net::Message request,
                                      net::Responder responder) {
  // Doorbell write: the whole batch enters the channel under one lock with
  // one wakeup; the single response acks the batch once its last chunk is
  // admitted. Chunks are zero-copy slices of the request payload.
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kWrite) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a write stream"));
  }
  std::uint64_t total = 0;
  for (const auto& c : req.chunks) total += c.size();
  slots_[(*stream)->slot]->stats.bytes_in->Add(total);
  std::vector<DataTask> tasks;
  tasks.reserve(req.chunks.size());
  for (auto& chunk : req.chunks) {
    DataTask task;
    task.data = std::move(chunk);
    tasks.push_back(std::move(task));
  }
  (*stream)->channel.AsyncPushAll(
      req.first_seq, std::move(tasks),
      [request, responder](Status admit) mutable {
        if (admit.ok()) {
          responder.SendOk(request);
        } else {
          responder.SendError(request, admit);
        }
      });
}

void ActiveServer::DoStreamRead(StreamReadRequest req, net::Message request,
                                net::Responder responder) {
  auto stream = streams_.Find(req.stream_id);
  if (!stream.ok()) return responder.SendError(request, stream.status());
  if ((*stream)->mode != StreamMode::kRead) {
    return responder.SendError(request,
                               Status::InvalidArgument("not a read stream"));
  }
  obs::Counter* bytes_out = slots_[(*stream)->slot]->stats.bytes_out;
  (*stream)->channel.AsyncPop(
      req.seq, [request, responder, bytes_out](Result<DataTask> task) mutable {
        if (task.ok()) {
          bytes_out->Add(task->data.size());
          responder.SendOk(request, std::move(task->data));
        } else {
          // kClosed = end of stream; the client reader treats it as EOF.
          responder.SendError(request, task.status());
        }
      });
}

void ActiveServer::DoStreamClose(StreamCloseRequest req, net::Message request,
                                 net::Responder responder) {
  auto stream_result = streams_.Find(req.stream_id);
  if (!stream_result.ok()) {
    // Already cleaned up; close is idempotent.
    return responder.SendOk(request);
  }
  auto stream = std::move(stream_result).value();

  if (stream->mode == StreamMode::kWrite) {
    bool already_done = false;
    {
      std::scoped_lock lock(stream->close_mu);
      if (stream->method_done) {
        already_done = true;
      } else {
        stream->close_responder = std::move(responder);
        stream->close_request = request;
      }
    }
    // End-of-stream arrives in-band after the last write (seq ordering).
    DataTask eos;
    eos.eos = true;
    stream->channel.AsyncPush(req.seq, std::move(eos), [](Status) {});
    if (already_done) {
      // Method finished early (it may not consume the whole stream).
      net::Responder r = std::move(responder);
      r.SendOk(request);
    }
  } else {
    // Reader is done: unblock the producer if it is still writing.
    stream->channel.Abort();
    responder.SendOk(request);
  }
  streams_.Erase(req.stream_id);
}

std::uint64_t ActiveServer::UsedBytes() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    if (auto object = slot->LiveObject()) total += object->StateBytes();
  }
  return total;
}

std::size_t ActiveServer::LiveActions() const {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot->LiveObject() != nullptr) ++count;
  }
  return count;
}

}  // namespace glider::core
