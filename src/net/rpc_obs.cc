#include "net/rpc_obs.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>

#include "common/bytes.h"
#include "common/load.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/serde.h"

namespace glider::net {

const char* RpcOpName(std::uint16_t opcode) {
  switch (opcode) {
    case 1: return "RegisterServer";
    case 2: return "CreateNode";
    case 3: return "Lookup";
    case 4: return "Delete";
    case 5: return "GetBlock";
    case 6: return "SetSize";
    case 7: return "List";
    case 20: return "WriteBlock";
    case 21: return "ReadBlock";
    case 22: return "ResetBlock";
    case 30: return "ActionCreate";
    case 31: return "ActionDelete";
    case 32: return "StreamOpen";
    case 33: return "StreamWrite";
    case 34: return "StreamRead";
    case 35: return "StreamClose";
    case 36: return "ActionStat";
    case 8: return "ListServers";
    case kNodeSnapshot: return "NodeSnapshot";
    case kTraceDump: return "TraceDump";
    case kSlowTraceDump: return "SlowTraceDump";
    case kProfileDump: return "ProfileDump";
    case kHeartbeat: return "Heartbeat";
    case kHealthDump: return "HealthDump";
    case kEventDump: return "EventDump";
    default: return "OpOther";
  }
}

obs::LatencyHistogram* RpcHistogram(bool server_side, int transport_index,
                                    std::uint16_t opcode) {
  // Every routable opcode (services and management ops alike) is below 63
  // and gets its own slot; anything else shares the last slot, named via
  // RpcOpName's fallback.
  constexpr std::size_t kSlots = 64;
  const std::size_t slot = opcode < kSlots - 1 ? opcode : kSlots - 1;
  static std::array<std::array<std::array<std::atomic<obs::LatencyHistogram*>,
                                          kSlots>,
                               2>,
                    2>
      table{};
  auto& entry = table[server_side ? 1 : 0][transport_index & 1][slot];
  obs::LatencyHistogram* hist = entry.load(std::memory_order_acquire);
  if (hist == nullptr) {
    const std::string name =
        std::string("rpc.") + (server_side ? "server." : "client.") +
        (transport_index == 1 ? "tcp." : "inproc.") + RpcOpName(opcode) +
        "_us";
    hist = &obs::MetricsRegistry::Global().GetHistogram(name);
    entry.store(hist, std::memory_order_release);  // idempotent: same target
  }
  return hist;
}

namespace {

// Profiler attribution tags for server-side dispatch, interned per opcode so
// the hot path hands ProfileTagScope a stable const char* (no per-request
// string build). Same atomic-pointer-table idiom as RpcHistogram.
const char* RpcProfileTag(std::uint16_t opcode) {
  constexpr std::size_t kSlots = 64;
  const std::size_t slot = opcode < kSlots - 1 ? opcode : kSlots - 1;
  static std::array<std::atomic<const char*>, kSlots> table{};
  const char* tag = table[slot].load(std::memory_order_acquire);
  if (tag == nullptr) {
    // Interned for the process lifetime; a raw char block (not a std::string)
    // so the table's pointer is the allocation base and LeakSanitizer sees it
    // as reachable.
    const std::string name = std::string("rpc.") + RpcOpName(opcode);
    char* owned = new char[name.size() + 1];
    std::memcpy(owned, name.c_str(), name.size() + 1);
    tag = owned;
    const char* expected = nullptr;
    if (!table[slot].compare_exchange_strong(expected, tag,
                                             std::memory_order_acq_rel)) {
      delete[] owned;
      tag = expected;
    }
  }
  return tag;
}

}  // namespace

ClientCallTrace ClientCallTrace::Begin(Message& request, int transport_index) {
  ClientCallTrace t;
  // The principal rides the frame header like the trace context, but is
  // independent of both the obs switch and whether a trace is active: a
  // client with observability off must still tag its requests, or servers
  // whose attribution IS on would bill its work to the unattributed tenant.
  request.principal = obs::CurrentPrincipal();
  if (!obs::Enabled()) return t;
  t.active = true;
  t.transport_index_ = transport_index;
  t.opcode = request.opcode;
  t.start_us = obs::TraceNowMicros();
  t.parent = obs::CurrentTraceContext();
  if (t.parent.trace_id != 0) {
    t.span_id = obs::NewSpanId();
    request.trace_id = t.parent.trace_id;
    request.span_id = t.span_id;
  }
  return t;
}

void ClientCallTrace::Finish() const {
  if (!active) return;
  const std::uint64_t now = obs::TraceNowMicros();
  RpcHistogram(/*server_side=*/false, transport_index_, opcode)
      ->Record(now - start_us);
  if (parent.trace_id != 0) {
    obs::RecordSpan("rpc", std::string("rpc.") + RpcOpName(opcode), parent,
                    span_id, start_us, now);
  }
}

void HandleWithObs(Service& service, Message request, Responder responder,
                   int transport_index) {
  if (!obs::Enabled()) {
    service.Handle(std::move(request), std::move(responder));
    return;
  }
  const std::uint16_t opcode = request.opcode;
  const std::uint64_t start_us = obs::TraceNowMicros();
  const obs::TraceContext parent{request.trace_id, request.span_id};
  const obs::PrincipalId principal = request.principal;
  const bool charged = !IsManagementOp(opcode);
  std::uint64_t span_id = parent.span_id;
  if (parent.trace_id != 0) {
    // The server span is recorded when the RESPONSE is sent, not when the
    // handler returns: the record is then guaranteed to be in the recorder
    // before the client can observe the reply, and deferred responders
    // (stream ops parked in channels) get spans covering the full request
    // lifetime. RecordSpan never touches thread-local trace state, so the
    // send may fire on any thread.
    span_id = obs::NewSpanId();
    responder = Responder(
        [inner = std::make_shared<Responder>(std::move(responder)), opcode,
         parent, span_id, start_us](Message response) mutable {
          obs::RecordSpan("rpc.server",
                          std::string("handle.") + RpcOpName(opcode), parent,
                          span_id, start_us, obs::TraceNowMicros());
          inner->Send(std::move(response));
        });
  }
  {
    // Install the caller's principal alongside its trace context: the
    // handler (and any work it charges synchronously) bills to the caller.
    // Action/channel hops re-capture it, like the trace context.
    obs::TraceContextScope scope(obs::TraceContext{parent.trace_id, span_id});
    obs::PrincipalScope principal_scope(principal);
    obs::ProfileTagScope tag(RpcProfileTag(opcode));
    service.Handle(std::move(request), std::move(responder));
  }
  const std::uint64_t dispatch_us = obs::TraceNowMicros() - start_us;
  RpcHistogram(/*server_side=*/true, transport_index, opcode)
      ->Record(dispatch_us);
  if (charged) {
    // Dispatch-side charge: invocation count plus the synchronous dispatch
    // time. Data bytes are charged at the data-plane sites (stream channel
    // push/pop, storage block ops) so no byte is billed twice.
    obs::LedgerCell cell;
    cell.cpu_us = dispatch_us;
    cell.invocations = 1;
    obs::ResourceLedger::Global().Charge(
        principal, std::string("rpc.") + RpcOpName(opcode), cell);
    obs::PrincipalSketch().Offer(obs::PrincipalName(principal));
  }
}

void RefreshMirroredGauges(const Metrics* metrics) {
  auto& registry = obs::MetricsRegistry::Global();
  if (metrics != nullptr) registry.MirrorLinkCounters(*metrics);
  registry.GetGauge("data_plane.allocs")
      .Set(static_cast<std::int64_t>(data_plane::Allocs()));
  registry.GetGauge("data_plane.copied_bytes")
      .Set(static_cast<std::int64_t>(data_plane::CopiedBytes()));
  registry.GetGauge("data_plane.pool_hits")
      .Set(static_cast<std::int64_t>(data_plane::PoolHits()));
  registry.GetGauge("data_plane.pool_misses")
      .Set(static_cast<std::int64_t>(data_plane::PoolMisses()));
  // Touching the counter here materializes it even at zero, so every node
  // snapshot / /metrics scrape reports span loss explicitly instead of
  // omitting the row until the first drop.
  static obs::Counter& dropped =
      obs::MetricsRegistry::Global().GetCounter("trace.dropped_spans");
  (void)dropped;
  // Load index + hotspot gauges ride the same refresh: every node snapshot
  // (and every /metrics scrape via the HTTP hook) sees fresh values.
  obs::LoadTracker::Global().Update();
  // Per-principal ledger rollups ("ledger.<principal>.*") ride along too,
  // so a Prometheus scrape sees attribution without the node snapshot.
  obs::PublishLedgerRollups();
}

Buffer DumpRequest::Encode() const {
  BinaryWriter w;
  w.PutBool(clear);
  return std::move(w).Finish();
}

Result<DumpRequest> DumpRequest::Decode(ByteSpan payload) {
  BinaryReader r(payload);
  DumpRequest req;
  GLIDER_ASSIGN_OR_RETURN(req.clear, r.Bool());
  return req;
}

Buffer ProfileRequest::Encode() const {
  BinaryWriter w;
  w.PutU8(static_cast<std::uint8_t>(cmd));
  w.PutU32(hz);
  return std::move(w).Finish();
}

Result<ProfileRequest> ProfileRequest::Decode(ByteSpan payload) {
  BinaryReader r(payload);
  ProfileRequest req;
  GLIDER_ASSIGN_OR_RETURN(auto cmd, r.U8());
  if (cmd > static_cast<std::uint8_t>(ProfileCmd::kStop)) {
    return Status::InvalidArgument("unknown profile command " +
                                   std::to_string(cmd));
  }
  req.cmd = static_cast<ProfileCmd>(cmd);
  GLIDER_ASSIGN_OR_RETURN(req.hz, r.U32());
  return req;
}

// --- NodeSnapshot ------------------------------------------------------------

namespace {

// Drawn once, at startup.
const std::uint64_t kProcessId = [] {
  std::random_device rd;
  return (std::uint64_t{rd()} << 32 | rd()) ^
         static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count());
}();

// Histograms as sparse (u8 bucket index, u64 count) pairs: log2 histograms
// populate a handful of the 64 buckets, so sparse beats dense ~8x.
void PutHistogram(BinaryWriter& w, const obs::HistogramSnapshot& h) {
  w.PutU64(h.count);
  w.PutU64(h.sum);
  w.PutU64(h.min);
  w.PutU64(h.max);
  std::uint8_t populated = 0;
  for (std::size_t i = 0; i < obs::LatencyHistogram::kNumBuckets; ++i) {
    if (h.buckets[i] != 0) ++populated;
  }
  w.PutU8(populated);
  for (std::size_t i = 0; i < obs::LatencyHistogram::kNumBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    w.PutU8(static_cast<std::uint8_t>(i));
    w.PutU64(h.buckets[i]);
    // Bucket exemplar (trace_id, value); trace_id 0 = none. Only populated
    // buckets can carry one, so the pairs ride the sparse encoding free.
    w.PutU64(h.exemplar_trace[i]);
    w.PutU64(h.exemplar_value[i]);
  }
}

Result<obs::HistogramSnapshot> GetHistogram(BinaryReader& r) {
  obs::HistogramSnapshot h;
  GLIDER_ASSIGN_OR_RETURN(h.count, r.U64());
  GLIDER_ASSIGN_OR_RETURN(h.sum, r.U64());
  GLIDER_ASSIGN_OR_RETURN(h.min, r.U64());
  GLIDER_ASSIGN_OR_RETURN(h.max, r.U64());
  GLIDER_ASSIGN_OR_RETURN(auto populated, r.U8());
  for (std::uint8_t i = 0; i < populated; ++i) {
    GLIDER_ASSIGN_OR_RETURN(auto idx, r.U8());
    GLIDER_ASSIGN_OR_RETURN(auto count, r.U64());
    GLIDER_ASSIGN_OR_RETURN(auto exemplar_trace, r.U64());
    GLIDER_ASSIGN_OR_RETURN(auto exemplar_value, r.U64());
    if (idx >= obs::LatencyHistogram::kNumBuckets) {
      return Status::OutOfRange("histogram bucket index out of range");
    }
    h.buckets[idx] = count;
    h.exemplar_trace[idx] = exemplar_trace;
    h.exemplar_value[idx] = exemplar_value;
  }
  return h;
}

}  // namespace

NodeSnapshot NodeSnapshot::Capture(const Metrics* metrics, bool clear) {
  RefreshMirroredGauges(metrics);
  NodeSnapshot snap;
  snap.process_id = kProcessId;
  snap.metrics = obs::MetricsRegistry::Global().Snapshot();
  auto& sampler = obs::TimeSeriesSampler::Global();
  snap.series = sampler.Snapshot();
  snap.sampler_interval_ms =
      sampler.running()
          ? static_cast<std::uint64_t>(sampler.interval().count())
          : 0;
  snap.ledger = obs::ResourceLedger::Global().Snapshot();
  if (clear) obs::ResourceLedger::Global().Clear();
  const struct {
    const char* name;
    obs::SpaceSavingTopK* sketch;
  } sketches[] = {{"keys", &obs::KeySketch()},
                  {"methods", &obs::MethodSketch()},
                  {"principals", &obs::PrincipalSketch()}};
  for (const auto& [name, sketch] : sketches) {
    snap.sketches.push_back(Sketch{name, sketch->Total(), sketch->Entries()});
    if (clear) sketch->Clear();
  }
  return snap;
}

void NodeSnapshot::Merge(const NodeSnapshot& other) {
  metrics.Merge(other.metrics);
  ledger = obs::MergeLedgerEntries(ledger, other.ledger);
  for (const auto& theirs : other.sketches) {
    auto ours =
        std::find_if(sketches.begin(), sketches.end(),
                     [&](const Sketch& s) { return s.name == theirs.name; });
    if (ours == sketches.end()) {
      sketches.push_back(theirs);
      continue;
    }
    ours->total += theirs.total;
    // Merged sketches keep the union's bound: capacity = the larger side.
    const std::size_t capacity = std::max<std::size_t>(
        64, std::max(ours->entries.size(), theirs.entries.size()));
    ours->entries = obs::SpaceSavingTopK::MergeEntries(
        ours->entries, theirs.entries, capacity);
  }
}

Buffer NodeSnapshot::Encode() const {
  BinaryWriter w;
  w.PutU64(process_id);
  w.PutU64(metrics.generation);
  w.PutU32(static_cast<std::uint32_t>(metrics.counters.size()));
  for (const auto& [name, value] : metrics.counters) {
    w.PutString(name);
    w.PutU64(value);
  }
  w.PutU32(static_cast<std::uint32_t>(metrics.gauges.size()));
  for (const auto& [name, value] : metrics.gauges) {
    w.PutString(name);
    w.PutI64(value);
  }
  w.PutU32(static_cast<std::uint32_t>(metrics.histograms.size()));
  for (const auto& [name, hist] : metrics.histograms) {
    w.PutString(name);
    PutHistogram(w, hist);
  }
  w.PutU32(static_cast<std::uint32_t>(series.size()));
  for (const auto& s : series) {
    w.PutString(s.name);
    w.PutU32(static_cast<std::uint32_t>(s.samples.size()));
    for (const auto& sample : s.samples) {
      w.PutU64(sample.t_us);
      w.PutDouble(sample.value);
    }
  }
  w.PutU64(sampler_interval_ms);
  w.PutU32(static_cast<std::uint32_t>(ledger.size()));
  for (const auto& e : ledger) {
    w.PutU64(e.principal);
    w.PutString(e.op);
    w.PutU64(e.cell.cpu_us);
    w.PutU64(e.cell.queue_us);
    w.PutU64(e.cell.bytes_in);
    w.PutU64(e.cell.bytes_out);
    w.PutU64(e.cell.invocations);
  }
  w.PutU8(static_cast<std::uint8_t>(sketches.size()));
  for (const auto& sketch : sketches) {
    w.PutString(sketch.name);
    w.PutU64(sketch.total);
    w.PutU32(static_cast<std::uint32_t>(sketch.entries.size()));
    for (const auto& e : sketch.entries) {
      w.PutString(e.key);
      w.PutU64(e.count);
      w.PutU64(e.error);
    }
  }
  return std::move(w).Finish();
}

Result<NodeSnapshot> NodeSnapshot::Decode(ByteSpan payload) {
  BinaryReader r(payload);
  NodeSnapshot snap;
  GLIDER_ASSIGN_OR_RETURN(snap.process_id, r.U64());
  GLIDER_ASSIGN_OR_RETURN(snap.metrics.generation, r.U64());
  GLIDER_ASSIGN_OR_RETURN(auto n_counters, r.U32());
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    GLIDER_ASSIGN_OR_RETURN(auto name, r.String());
    GLIDER_ASSIGN_OR_RETURN(auto value, r.U64());
    snap.metrics.counters.emplace_back(std::move(name), value);
  }
  GLIDER_ASSIGN_OR_RETURN(auto n_gauges, r.U32());
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    GLIDER_ASSIGN_OR_RETURN(auto name, r.String());
    GLIDER_ASSIGN_OR_RETURN(auto value, r.I64());
    snap.metrics.gauges.emplace_back(std::move(name), value);
  }
  GLIDER_ASSIGN_OR_RETURN(auto n_hists, r.U32());
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    GLIDER_ASSIGN_OR_RETURN(auto name, r.String());
    GLIDER_ASSIGN_OR_RETURN(auto hist, GetHistogram(r));
    snap.metrics.histograms.emplace_back(std::move(name), hist);
  }
  GLIDER_ASSIGN_OR_RETURN(auto n_series, r.U32());
  for (std::uint32_t i = 0; i < n_series; ++i) {
    obs::SeriesData s;
    GLIDER_ASSIGN_OR_RETURN(s.name, r.String());
    GLIDER_ASSIGN_OR_RETURN(auto n_samples, r.U32());
    for (std::uint32_t j = 0; j < n_samples; ++j) {
      obs::TimeSeries::Sample sample;
      GLIDER_ASSIGN_OR_RETURN(sample.t_us, r.U64());
      GLIDER_ASSIGN_OR_RETURN(sample.value, r.Double());
      s.samples.push_back(sample);
    }
    snap.series.push_back(std::move(s));
  }
  GLIDER_ASSIGN_OR_RETURN(snap.sampler_interval_ms, r.U64());
  GLIDER_ASSIGN_OR_RETURN(auto n_entries, r.U32());
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    obs::LedgerEntry e;
    GLIDER_ASSIGN_OR_RETURN(e.principal, r.U64());
    GLIDER_ASSIGN_OR_RETURN(e.op, r.String());
    GLIDER_ASSIGN_OR_RETURN(e.cell.cpu_us, r.U64());
    GLIDER_ASSIGN_OR_RETURN(e.cell.queue_us, r.U64());
    GLIDER_ASSIGN_OR_RETURN(e.cell.bytes_in, r.U64());
    GLIDER_ASSIGN_OR_RETURN(e.cell.bytes_out, r.U64());
    GLIDER_ASSIGN_OR_RETURN(e.cell.invocations, r.U64());
    snap.ledger.push_back(std::move(e));
  }
  GLIDER_ASSIGN_OR_RETURN(auto n_sketches, r.U8());
  for (std::uint8_t i = 0; i < n_sketches; ++i) {
    Sketch sketch;
    GLIDER_ASSIGN_OR_RETURN(sketch.name, r.String());
    GLIDER_ASSIGN_OR_RETURN(sketch.total, r.U64());
    GLIDER_ASSIGN_OR_RETURN(auto n, r.U32());
    for (std::uint32_t j = 0; j < n; ++j) {
      obs::SpaceSavingTopK::Entry e;
      GLIDER_ASSIGN_OR_RETURN(e.key, r.String());
      GLIDER_ASSIGN_OR_RETURN(e.count, r.U64());
      GLIDER_ASSIGN_OR_RETURN(e.error, r.U64());
      sketch.entries.push_back(std::move(e));
    }
    snap.sketches.push_back(std::move(sketch));
  }
  return snap;
}

Buffer HeartbeatResponse::Encode() const {
  BinaryWriter w;
  w.PutU64(server_time_us);
  w.PutDouble(load_index);
  w.PutU32(hotspot_slots);
  return std::move(w).Finish();
}

Result<HeartbeatResponse> HeartbeatResponse::Decode(ByteSpan payload) {
  BinaryReader r(payload);
  HeartbeatResponse resp;
  GLIDER_ASSIGN_OR_RETURN(resp.server_time_us, r.U64());
  GLIDER_ASSIGN_OR_RETURN(resp.load_index, r.Double());
  GLIDER_ASSIGN_OR_RETURN(resp.hotspot_slots, r.U32());
  return resp;
}

}  // namespace glider::net
