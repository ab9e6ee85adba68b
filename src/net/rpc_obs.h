// RPC-plane observability glue (DESIGN.md "Observability"):
//
//   * per-opcode client/server latency histograms for both transports
//     ("rpc.client.<transport>.<op>_us" / "rpc.server.<transport>.<op>_us"),
//   * trace-context stamping of outgoing requests and installation of the
//     decoded context around server-side handling,
//   * the management opcodes every server role (storage, metadata, active,
//     S3) answers through its ServiceRouter, with their typed requests and
//     the binary, mergeable NodeSnapshot.
//
// Everything short-circuits to a no-op when obs::Enabled() is false, so the
// disabled-mode RPC hot path costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/attribution.h"
#include "common/metrics_registry.h"
#include "common/time_series.h"
#include "common/trace.h"
#include "net/transport.h"

namespace glider {
class Metrics;
}

namespace glider::net {

// Management opcodes. ServiceRouter routes them for every service, in the
// table slots above every service protocol (1-54). Request -> reply:
//   kNodeSnapshot   DumpRequest    -> NodeSnapshot
//   kTraceDump      DumpRequest    -> Chrome trace JSON
//   kSlowTraceDump  DumpRequest    -> slow-trace JSON
//   kProfileDump    ProfileRequest -> see ProfileCmd
//   kHeartbeat      EmptyRequest   -> HeartbeatResponse
//   kHealthDump     EmptyRequest   -> HealthBoard JSON
//   kEventDump      DumpRequest    -> EventJournal JSON
inline constexpr std::uint16_t kNodeSnapshot = 56;
inline constexpr std::uint16_t kTraceDump = 57;
inline constexpr std::uint16_t kSlowTraceDump = 58;
inline constexpr std::uint16_t kProfileDump = 59;
inline constexpr std::uint16_t kHeartbeat = 60;
inline constexpr std::uint16_t kHealthDump = 61;
inline constexpr std::uint16_t kEventDump = 62;

// Management ops stay off the resource ledger, so monitoring polls do not
// pollute the attribution they read.
constexpr bool IsManagementOp(std::uint16_t opcode) {
  return opcode >= kNodeSnapshot && opcode <= kEventDump;
}

// Request of the dump ops: `clear` empties what was dumped once the reply
// is taken (kNodeSnapshot clears the ledger and the sketches).
struct DumpRequest {
  bool clear = false;

  Buffer Encode() const;
  static Result<DumpRequest> Decode(ByteSpan payload);
};

// kProfileDump commands. kStart (at `hz`, 0 = default) replies with one
// byte: 1 = started by this request, 0 = a profiler was already running
// (callers use it to avoid stopping someone else's session). kDump and
// kDumpClear reply with the folded text, kStop with an empty payload.
enum class ProfileCmd : std::uint8_t {
  kDump = 0,
  kDumpClear = 1,
  kStart = 2,
  kStop = 3,
};

struct ProfileRequest {
  ProfileCmd cmd = ProfileCmd::kDump;
  std::uint32_t hz = 0;

  Buffer Encode() const;
  static Result<ProfileRequest> Decode(ByteSpan payload);
};

// Human-readable opcode name ("Lookup", "StreamWrite", ...). The table
// duplicates the per-service protocol enums on purpose: the net layer can't
// include them (layering), and the names only feed metric/span labels.
const char* RpcOpName(std::uint16_t opcode);

// Registry histograms resolved once per (side, transport, opcode) and then
// cached in an atomic pointer table — no map lookup on the hot path.
// `transport_index`: 0 = inproc, 1 = tcp.
obs::LatencyHistogram* RpcHistogram(bool server_side, int transport_index,
                                    std::uint16_t opcode);

// Client-side per-call trace state: Begin() stamps the request with a fresh
// RPC span id (when a trace is active) and snapshots the clock; Finish()
// records the latency histogram and the client RPC span. Both are no-ops
// when observability is disabled at Begin() time. Copyable so transports
// can carry it through their pending-call tables.
struct ClientCallTrace {
  obs::TraceContext parent;
  std::uint64_t span_id = 0;
  std::uint64_t start_us = 0;
  std::uint16_t opcode = 0;
  bool active = false;

  static ClientCallTrace Begin(Message& request, int transport_index);
  void Finish() const;

 private:
  int transport_index_ = 0;
};

// Runs `service.Handle(request, responder)` under the request's trace
// context with a server-side span + latency histogram around the
// synchronous part of the handler (deferred responders complete later, by
// design — the span measures dispatch, the action-plane spans cover the
// rest).
void HandleWithObs(Service& service, Message request, Responder responder,
                   int transport_index);

// Republishes `metrics` (nullable) and the data-plane counters into the
// global registry without rendering anything: run before every node
// snapshot and every /metrics scrape, so both see identical gauges.
void RefreshMirroredGauges(const Metrics* metrics);

// kNodeSnapshot reply: one process's observable state in one binary,
// mergeable record. Histograms travel as sparse (bucket index, count)
// pairs; log2 histograms are mostly empty, so cluster polling stays cheap.
struct NodeSnapshot {
  struct Sketch {
    std::string name;         // "keys" | "methods" | "principals"
    std::uint64_t total = 0;  // stream weight the sketch observed
    std::vector<obs::SpaceSavingTopK::Entry> entries;
  };

  // Drawn once per process. Servers in one process share every global
  // below, so a cluster merge takes one snapshot per id.
  std::uint64_t process_id = 0;
  obs::MetricsSnapshot metrics;
  std::vector<obs::SeriesData> series;
  std::uint64_t sampler_interval_ms = 0;  // 0 = sampler not running
  std::vector<obs::LedgerEntry> ledger;
  std::vector<Sketch> sketches;

  // This process's snapshot, after RefreshMirroredGauges(metrics).
  // `clear` then empties the ledger and the sketches.
  static NodeSnapshot Capture(const Metrics* metrics, bool clear);

  // Adds another process's snapshot: counters, gauges and ledger cells
  // sum, histograms merge bucket-wise (percentiles over the merged buckets
  // are exact cluster percentiles), sketches merge under the space-saving
  // rule. The process id and the sampler series describe one process and
  // are left as they are.
  void Merge(const NodeSnapshot& other);

  Buffer Encode() const;
  static Result<NodeSnapshot> Decode(ByteSpan payload);
};

// kHeartbeat reply: a liveness proof that also piggybacks the node's
// self-computed load report (the handler runs LoadTracker::Update), so a
// health poll of an otherwise idle link costs one tiny frame and still
// refreshes the load/hotspot picture. The request is an EmptyRequest.
struct HeartbeatResponse {
  std::uint64_t server_time_us = 0;  // peer's TraceNowMicros at reply time
  double load_index = 0.0;
  std::uint32_t hotspot_slots = 0;

  Buffer Encode() const;
  static Result<HeartbeatResponse> Decode(ByteSpan payload);
};

}  // namespace glider::net
