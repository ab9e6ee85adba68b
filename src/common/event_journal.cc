#include "common/event_journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/trace.h"

namespace glider::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kServerUp: return "server_up";
    case EventType::kServerDown: return "server_down";
    case EventType::kPeerAlive: return "peer_alive";
    case EventType::kPeerSuspect: return "peer_suspect";
    case EventType::kPeerDead: return "peer_dead";
    case EventType::kSlotStall: return "slot_stall";
    case EventType::kHotspot: return "hotspot";
    case EventType::kPoolExhausted: return "pool_exhausted";
  }
  return "unknown";
}

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();
  return *journal;
}

void EventJournal::Record(EventType type, std::string scope,
                          std::string detail, std::int64_t value) {
  Event event;
  event.t_us = TraceNowMicros();
  event.trace_id = CurrentTraceContext().trace_id;
  event.type = type;
  event.value = value;
  event.scope = std::move(scope);
  event.detail = std::move(detail);
  events_.With([&](auto& ring) { ring.Push(std::move(event)); });
}

std::vector<Event> EventJournal::Snapshot() const {
  std::vector<Event> all;
  events_.ForEach([&](const auto& ring) {
    ring.ForEach([&](const Event& e) { all.push_back(e); });
  });
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.t_us < b.t_us; });
  return all;
}

std::uint64_t EventJournal::Overwritten() const {
  std::uint64_t total = 0;
  events_.ForEach([&](const auto& ring) { total += ring.overwritten(); });
  return total;
}

void EventJournal::Clear() { events_.Clear(); }

std::string EventJournal::ToJson() const {
  const std::vector<Event> events = Snapshot();
  std::string out = "{\"events\":[";
  char buf[128];
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"t_us\":%" PRIu64 ",\"type\":", e.t_us);
    out += buf;
    AppendJsonString(out, EventTypeName(e.type));
    out += ",\"scope\":";
    AppendJsonString(out, e.scope);
    if (!e.detail.empty()) {
      out += ",\"detail\":";
      AppendJsonString(out, e.detail);
    }
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld",
                  static_cast<long long>(e.value));
    out += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"trace_id\":\"%" PRIx64 "\"",
                    e.trace_id);
      out += buf;
    }
    out += '}';
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"overwritten\":%" PRIu64 "}",
                Overwritten());
  out += tail;
  return out;
}

void JournalEvent(EventType type, std::string scope, std::string detail,
                  std::int64_t value) {
  EventJournal::Global().Record(type, std::move(scope), std::move(detail),
                                value);
}

}  // namespace glider::obs
