// Structured event journal (DESIGN.md "Cluster health plane").
//
// A bounded, lock-light log of typed *system* events — server up/down,
// peer suspect/alive/dead transitions, slot stalls, buffer-pool exhaustion
// — the discrete state changes that metrics rates smear out and traces
// only capture when a request happens to be in flight. Records go to
// per-thread rings in PerThread slots (common/per_thread.h, as for the
// TraceRecorder's spans: recording never contends across threads, and an
// exited thread's ring is recycled by the next thread to record);
// Snapshot() merges the rings sorted by timestamp. Each ring is bounded:
// the newest events win and an overwrite counter reports how many were
// dropped.
//
// Unlike tracing, the journal is always on — events are rare (state
// transitions, not per-request), so there is nothing to gate. When a trace
// is active on the recording thread the event is stamped with its trace_id,
// which lets `glider_cli events` line up a pool-exhaustion event with the
// slow trace that suffered it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/per_thread.h"

namespace glider::obs {

enum class EventType : std::uint8_t {
  kServerUp = 0,      // scope = address, detail = role
  kServerDown = 1,    // scope = address, detail = role
  kPeerAlive = 2,     // scope = peer address, value = phi (milli)
  kPeerSuspect = 3,   // scope = peer address, value = phi (milli)
  kPeerDead = 4,      // scope = peer address, value = phi (milli)
  kSlotStall = 5,     // scope = "slot<i>", detail = action, value = run_us
  kHotspot = 6,       // scope = "slot<i>", value = load share (milli)
  kPoolExhausted = 8, // scope = pool, value = consecutive misses
};

const char* EventTypeName(EventType type);

struct Event {
  std::uint64_t t_us = 0;      // TraceNowMicros timebase
  std::uint64_t trace_id = 0;  // 0 = no trace active when recorded
  EventType type = EventType::kServerUp;
  std::int64_t value = 0;      // type-specific (see EventType comments)
  std::string scope;           // what the event is about (address, slot, pool)
  std::string detail;          // freeform context, may be empty
};

class EventJournal {
 public:
  // Events retained per slot's ring; beyond it the oldest are overwritten.
  static constexpr std::size_t kRingCapacity = 256;

  // The process journal dumped by kEventDump / `glider_cli events`.
  static EventJournal& Global();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  // Appends to the calling thread's ring. Stamps t_us and the active
  // trace_id (if any); never blocks on other threads.
  void Record(EventType type, std::string scope, std::string detail = {},
              std::int64_t value = 0);

  // All retained events across threads, merged and sorted by t_us.
  std::vector<Event> Snapshot() const;

  // Events lost to ring overwrites since the last Clear().
  std::uint64_t Overwritten() const;

  void Clear();

  // {"events":[{"t_us":...,"type":"peer_dead","scope":...,"detail":...,
  //   "value":...,"trace_id":"<hex>"}],"overwritten":N}
  std::string ToJson() const;

 private:
  EventJournal() = default;

  PerThread<Ring<Event, kRingCapacity>> events_;
};

// Shorthand for EventJournal::Global().Record(...): instrumentation sites
// (watchdog, coalescer, pool) stay one line.
void JournalEvent(EventType type, std::string scope, std::string detail = {},
                  std::int64_t value = 0);

}  // namespace glider::obs
