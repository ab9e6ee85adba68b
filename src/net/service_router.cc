#include "net/service_router.h"

#include "common/event_journal.h"
#include "common/health.h"
#include "common/load.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/profiler.h"

namespace glider::net {

ServiceRouter::ServiceRouter(std::string service_name, const Metrics* metrics)
    : service_name_(std::move(service_name)), metrics_(metrics) {
  RouteManagementOps();
}

void ServiceRouter::RouteManagementOps() {
  Route<DumpRequest>(kNodeSnapshot, "NodeSnapshot",
                     [this](const DumpRequest& req) -> Result<NodeSnapshot> {
                       return NodeSnapshot::Capture(metrics_, req.clear);
                     });
  Route<DumpRequest>(kTraceDump, "TraceDump",
                     [](const DumpRequest& req) -> Result<Buffer> {
                       auto& recorder = obs::TraceRecorder::Global();
                       std::string json = recorder.ToChromeJson();
                       if (req.clear) recorder.Clear();
                       return Buffer::FromString(json);
                     });
  Route<DumpRequest>(kSlowTraceDump, "SlowTraceDump",
                     [](const DumpRequest& req) -> Result<Buffer> {
                       auto& store = obs::SlowTraceStore::Global();
                       std::string json = store.ToJson();
                       if (req.clear) store.Clear();
                       return Buffer::FromString(json);
                     });
  Route<ProfileRequest>(
      kProfileDump, "ProfileDump",
      [](const ProfileRequest& req) -> Result<Buffer> {
        auto& profiler = obs::SamplingProfiler::Global();
        switch (req.cmd) {
          case ProfileCmd::kStart: {
            obs::SamplingProfiler::Options opts;
            if (req.hz != 0) opts.hz = static_cast<int>(req.hz);
            const Status s = profiler.Start(opts);
            if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
            return Buffer::FromString(std::string(1, s.ok() ? 1 : 0));
          }
          case ProfileCmd::kStop:
            profiler.Stop();
            return Buffer();
          case ProfileCmd::kDump:
          case ProfileCmd::kDumpClear:
            break;
        }
        return Buffer::FromString(
            profiler.CollectFolded(req.cmd == ProfileCmd::kDumpClear));
      });
  // The heartbeat stays a cheap probe: no node snapshot, only the load
  // tracker's report (which re-reads the registry at most once a window).
  Route<EmptyRequest>(kHeartbeat, "Heartbeat",
                      [](const EmptyRequest&) -> Result<HeartbeatResponse> {
                        const auto load = obs::LoadTracker::Global().Update();
                        HeartbeatResponse resp;
                        resp.server_time_us = obs::TraceNowMicros();
                        resp.load_index = load.load_index;
                        resp.hotspot_slots =
                            static_cast<std::uint32_t>(load.hotspots.size());
                        return resp;
                      });
  Route<EmptyRequest>(kHealthDump, "HealthDump",
                      [](const EmptyRequest&) -> Result<Buffer> {
                        return Buffer::FromString(
                            obs::HealthBoard::Global().ToJson());
                      });
  Route<DumpRequest>(kEventDump, "EventDump",
                     [](const DumpRequest& req) -> Result<Buffer> {
                       auto& journal = obs::EventJournal::Global();
                       std::string json = journal.ToJson();
                       if (req.clear) journal.Clear();
                       return Buffer::FromString(json);
                     });
}

void ServiceRouter::Handle(Message request, Responder responder) {
  if (request.opcode < entries_.size()) {
    const Entry& entry = entries_[request.opcode];
    if (entry.fn) {
      entry.fn(std::move(request), std::move(responder));
      return;
    }
  }
  if (obs::Enabled()) {
    static obs::Counter& unroutable =
        obs::MetricsRegistry::Global().GetCounter("rpc.unroutable");
    unroutable.Increment();
  }
  responder.SendError(
      request, Status::Unimplemented(service_name_ + " opcode " +
                                     std::to_string(request.opcode) + " (" +
                                     RpcOpName(request.opcode) + ")"));
}

const char* ServiceRouter::OpName(std::uint16_t opcode) const {
  return opcode < entries_.size() ? entries_[opcode].name : nullptr;
}

Status ServiceRouter::DecodeError(const char* op_name, const Status& status) {
  return Status(status.code(),
                std::string(op_name) + ": bad request: " + status.message());
}

void ServiceRouter::RegisterRaw(std::uint16_t opcode, const char* op_name,
                                RawHandler fn) {
  if (opcode >= entries_.size() || entries_[opcode].fn) {
    // Registration happens once, at construction, from the server's own
    // code: colliding or out-of-range opcodes are programming errors.
    GLIDER_LOG(kError, "rpc") << service_name_ << ": cannot route opcode "
                              << opcode << " (" << op_name << ")";
    return;
  }
  entries_[opcode] = Entry{op_name, std::move(fn)};
}

}  // namespace glider::net
