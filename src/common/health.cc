#include "common/health.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/event_journal.h"
#include "common/trace.h"

namespace glider::obs {

namespace {

// Upper clamp on phi: erfc underflows to 0 around z ~ 38 and the exact
// value past "one in 10^40" carries no information anyway.
constexpr double kPhiMax = 40.0;
// Inter-arrival samples kept per peer (sliding window).
constexpr std::size_t kWindow = 64;
// Sigma floors: sigma = max(observed, kMinStdFraction * mean, kMinStdUs).
// The relative floor dominates for fast heartbeats, the absolute one guards
// sub-millisecond cadences in tests.
constexpr double kMinStdFraction = 1.0 / 3.0;
constexpr double kMinStdUs = 1000.0;
// Interval assumed until two heartbeats have arrived (the first heartbeat
// carries no interval).
constexpr double kInitialIntervalUs = 500.0 * 1000.0;

std::uint64_t NowOr(std::uint64_t now_us) {
  return now_us != 0 ? now_us : TraceNowMicros();
}

EventType TransitionEvent(PeerState state) {
  switch (state) {
    case PeerState::kSuspect: return EventType::kPeerSuspect;
    case PeerState::kDead: return EventType::kPeerDead;
    default: return EventType::kPeerAlive;
  }
}

}  // namespace

const char* PeerStateName(PeerState state) {
  switch (state) {
    case PeerState::kUnknown: return "unknown";
    case PeerState::kAlive: return "alive";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "unknown";
}

double HealthDetector::PhiLocked(const Peer& peer,
                                 std::uint64_t now_us) const {
  if (peer.heartbeats == 0) return 0.0;
  const std::uint64_t elapsed =
      now_us > peer.last_us ? now_us - peer.last_us : 0;

  double mean = kInitialIntervalUs;
  double var = 0.0;
  if (!peer.intervals.empty()) {
    double sum = 0.0;
    for (const std::uint64_t v : peer.intervals) {
      sum += static_cast<double>(v);
    }
    mean = sum / static_cast<double>(peer.intervals.size());
    for (const std::uint64_t v : peer.intervals) {
      const double d = static_cast<double>(v) - mean;
      var += d * d;
    }
    var /= static_cast<double>(peer.intervals.size());
  }
  const double std_dev =
      std::max({std::sqrt(var), kMinStdFraction * mean, kMinStdUs});

  // phi = -log10(P(interval > elapsed)) under N(mean, std_dev^2). The
  // survival function via erfc keeps precision in the far tail, which is
  // exactly where the dead threshold lives.
  const double z = (static_cast<double>(elapsed) - mean) / std_dev;
  const double q = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (q <= 0.0) return kPhiMax;
  const double phi = -std::log10(q);
  return std::min(std::max(phi, 0.0), kPhiMax);
}

PeerState HealthDetector::EvaluateLocked(const std::string& address,
                                         Peer& peer, std::uint64_t now_us) {
  if (peer.heartbeats == 0) return peer.state;
  const double phi = PhiLocked(peer, now_us);
  PeerState next = PeerState::kAlive;
  if (phi >= options_.phi_dead) {
    next = PeerState::kDead;
  } else if (phi >= options_.phi_suspect) {
    next = PeerState::kSuspect;
  }
  // Dead is sticky against phi alone: only a fresh heartbeat (which resets
  // elapsed and re-runs this evaluation) revives a dead peer.
  if (peer.state == PeerState::kDead && next != PeerState::kAlive) {
    return peer.state;
  }
  if (next != peer.state) {
    const PeerState prev = peer.state;
    peer.state = next;
    JournalEvent(TransitionEvent(next), address,
                 std::string("from ") + PeerStateName(prev),
                 static_cast<std::int64_t>(phi * 1000.0));
  }
  return peer.state;
}

void HealthDetector::Heartbeat(const std::string& address,
                               std::uint64_t now_us) {
  now_us = NowOr(now_us);
  std::scoped_lock lock(mu_);
  Peer& peer = peers_[address];
  if (peer.heartbeats > 0 && now_us > peer.last_us) {
    const std::uint64_t interval = now_us - peer.last_us;
    if (peer.intervals.size() < kWindow) {
      peer.intervals.push_back(interval);
    } else {
      peer.intervals[peer.next] = interval;
    }
    peer.next = (peer.next + 1) % kWindow;
  }
  peer.last_us = std::max(peer.last_us, now_us);
  ++peer.heartbeats;
  EvaluateLocked(address, peer, now_us);
}

void HealthDetector::ReportLoad(const std::string& address, double load_index,
                                std::int64_t hotspot_slots) {
  std::scoped_lock lock(mu_);
  auto it = peers_.find(address);
  if (it == peers_.end()) return;
  it->second.load_index = load_index;
  it->second.hotspot_slots = hotspot_slots;
}

double HealthDetector::Phi(const std::string& address,
                           std::uint64_t now_us) const {
  now_us = NowOr(now_us);
  std::scoped_lock lock(mu_);
  auto it = peers_.find(address);
  if (it == peers_.end()) return 0.0;
  return PhiLocked(it->second, now_us);
}

PeerState HealthDetector::State(const std::string& address,
                                std::uint64_t now_us) {
  now_us = NowOr(now_us);
  std::scoped_lock lock(mu_);
  auto it = peers_.find(address);
  if (it == peers_.end()) return PeerState::kUnknown;
  return EvaluateLocked(address, it->second, now_us);
}

std::vector<HealthDetector::PeerSnapshot> HealthDetector::Snapshot(
    std::uint64_t now_us) {
  now_us = NowOr(now_us);
  std::vector<PeerSnapshot> out;
  std::scoped_lock lock(mu_);
  out.reserve(peers_.size());
  for (auto& [address, peer] : peers_) {
    PeerSnapshot snap;
    snap.address = address;
    snap.state = EvaluateLocked(address, peer, now_us);
    snap.phi = PhiLocked(peer, now_us);
    snap.heartbeats = peer.heartbeats;
    snap.last_heartbeat_us = peer.last_us;
    if (!peer.intervals.empty()) {
      std::uint64_t sum = 0;
      for (const std::uint64_t v : peer.intervals) sum += v;
      snap.mean_interval_us = sum / peer.intervals.size();
    }
    snap.load_index = peer.load_index;
    snap.hotspot_slots = peer.hotspot_slots;
    out.push_back(std::move(snap));
  }
  return out;
}

void HealthDetector::Forget(const std::string& address) {
  std::scoped_lock lock(mu_);
  peers_.erase(address);
}

// ---- HealthBoard ------------------------------------------------------------

HealthBoard& HealthBoard::Global() {
  static HealthBoard* board = new HealthBoard();
  return *board;
}

void HealthBoard::Publish(std::vector<HealthDetector::PeerSnapshot> peers) {
  std::scoped_lock lock(mu_);
  running_ = true;
  peers_ = std::move(peers);
}

void HealthBoard::SetRunning(bool running) {
  std::scoped_lock lock(mu_);
  running_ = running;
  if (!running) peers_.clear();
}

bool HealthBoard::running() const {
  std::scoped_lock lock(mu_);
  return running_;
}

std::vector<HealthDetector::PeerSnapshot> HealthBoard::Snapshot() const {
  std::scoped_lock lock(mu_);
  return peers_;
}

std::string HealthBoard::ToJson() const {
  const std::uint64_t now = TraceNowMicros();
  std::vector<HealthDetector::PeerSnapshot> peers;
  bool running;
  {
    std::scoped_lock lock(mu_);
    running = running_;
    peers = peers_;
  }
  std::string out = "{\"running\":";
  out += running ? "true" : "false";
  out += ",\"peers\":[";
  char buf[256];
  bool first = true;
  for (const auto& p : peers) {
    if (!first) out += ',';
    first = false;
    const std::uint64_t age =
        now > p.last_heartbeat_us ? now - p.last_heartbeat_us : 0;
    std::snprintf(buf, sizeof(buf),
                  "{\"address\":\"%s\",\"state\":\"%s\",\"phi\":%.3f,"
                  "\"heartbeats\":%" PRIu64 ",\"age_us\":%" PRIu64
                  ",\"mean_interval_us\":%" PRIu64
                  ",\"load_index\":%.3f,\"hotspot_slots\":%lld}",
                  p.address.c_str(), PeerStateName(p.state), p.phi,
                  p.heartbeats, age, p.mean_interval_us, p.load_index,
                  static_cast<long long>(p.hotspot_slots));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace glider::obs
