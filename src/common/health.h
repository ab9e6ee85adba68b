// Phi-accrual failure detection (DESIGN.md "Cluster health plane").
//
// The detector keeps, per peer, a sliding window of heartbeat inter-arrival
// times and models them as a normal distribution. The suspicion level for a
// peer that last reported `elapsed` microseconds ago is
//
//   phi(elapsed) = -log10( P(interval > elapsed) )
//
// i.e. phi = 1 means "if the peer were healthy there would be a 10% chance
// of a gap this long", phi = 8 means one in 10^8. Unlike a fixed timeout,
// the threshold adapts to the observed heartbeat cadence and its jitter:
// a peer polled every 100ms is suspected after a few hundred milliseconds,
// one polled every 5s after tens of seconds, with no retuning.
//
// The standard deviation is floored (relative and absolute) so a perfectly
// regular heartbeat stream doesn't collapse the model into suspecting a
// peer over scheduler noise. With the default sigma floor of mean/3 and
// phi_dead = 8 (z ~ 5.6), a dead peer is declared at roughly
// mean + 5.6*(mean/3) ~ 2.9 heartbeat intervals — inside the "detect within
// 3 windows" budget while tolerating ~5 sigma of jitter before a false
// positive.
//
// State machine per peer: unknown -> alive on the first heartbeat;
// alive -> suspect at phi_suspect; suspect -> dead at phi_dead; any state
// heals back to alive on the next heartbeat. Transitions are recorded in
// the EventJournal (kPeerAlive/kPeerSuspect/kPeerDead).
//
// Heartbeats come from ClusterMonitor rounds: every answered kNodeSnapshot
// (Poll) or kHeartbeat probe is one. The dedicated kHeartbeat opcode keeps
// links nobody polls observed (the daemon's --health-ms loop).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace glider::obs {

enum class PeerState : std::uint8_t {
  kUnknown = 0,  // never heard from
  kAlive = 1,
  kSuspect = 2,  // phi >= phi_suspect
  kDead = 3,     // phi >= phi_dead
};

const char* PeerStateName(PeerState state);

class HealthDetector {
 public:
  struct Options {
    double phi_suspect = 3.0;  // ~1 in 10^3 chance of a healthy gap
    double phi_dead = 8.0;     // ~1 in 10^8
  };

  struct PeerSnapshot {
    std::string address;
    PeerState state = PeerState::kUnknown;
    double phi = 0.0;
    std::uint64_t heartbeats = 0;
    std::uint64_t last_heartbeat_us = 0;  // TraceNowMicros timebase
    std::uint64_t mean_interval_us = 0;
    // Piggybacked load report from the peer's last kHeartbeat reply (0 /
    // -1 slots when the peer never reported).
    double load_index = 0.0;
    std::int64_t hotspot_slots = -1;
  };

  HealthDetector() = default;
  explicit HealthDetector(Options options) : options_(options) {}

  // A sign of life from `address`. `now_us` defaults to TraceNowMicros();
  // tests pass synthetic clocks. Re-evaluates state (dead peers heal).
  void Heartbeat(const std::string& address, std::uint64_t now_us = 0);

  // Attaches the peer's self-reported load (from a kHeartbeat reply) to
  // its snapshot row. No-op for unknown peers.
  void ReportLoad(const std::string& address, double load_index,
                  std::int64_t hotspot_slots);

  // Current suspicion level; 0 for unknown peers.
  double Phi(const std::string& address, std::uint64_t now_us = 0) const;

  // Evaluates (and journals) the state transition implied by the current
  // phi, then returns the state.
  PeerState State(const std::string& address, std::uint64_t now_us = 0);

  // Evaluates every peer and returns the board, sorted by address.
  std::vector<PeerSnapshot> Snapshot(std::uint64_t now_us = 0);

  // Drops a peer (deregistered servers stop being reported dead forever).
  void Forget(const std::string& address);

  const Options& options() const { return options_; }

 private:
  struct Peer {
    std::vector<std::uint64_t> intervals;  // ring, <= kWindow
    std::size_t next = 0;
    std::uint64_t last_us = 0;
    std::uint64_t heartbeats = 0;
    PeerState state = PeerState::kUnknown;
    double load_index = 0.0;
    std::int64_t hotspot_slots = -1;
  };

  double PhiLocked(const Peer& peer, std::uint64_t now_us) const;
  PeerState EvaluateLocked(const std::string& address, Peer& peer,
                           std::uint64_t now_us);

  mutable std::mutex mu_;
  Options options_;
  std::map<std::string, Peer> peers_;
};

// Latest health board of this process, published by the started
// ClusterMonitor running here (glider_daemon --health-ms) and served by
// kHealthDump so any node can answer `glider_cli health`. Decoupled from
// the detector: the board is a plain snapshot store, so dump handlers never
// touch detector locks.
class HealthBoard {
 public:
  static HealthBoard& Global();

  // Replaces the board (marks it running).
  void Publish(std::vector<HealthDetector::PeerSnapshot> peers);
  void SetRunning(bool running);
  bool running() const;

  std::vector<HealthDetector::PeerSnapshot> Snapshot() const;

  // {"running":true,"peers":[{"address":...,"state":"alive","phi":...,
  //   "heartbeats":...,"age_us":...,"load_index":...,"hotspot_slots":...}]}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  bool running_ = false;
  std::vector<HealthDetector::PeerSnapshot> peers_;
};

}  // namespace glider::obs
