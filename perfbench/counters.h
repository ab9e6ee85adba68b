// Cost counters the program already keeps, read around a measured phase:
// the paper's link counters (common/metrics.h), the data-plane buffer
// counters (common/bytes.h), getrusage, and the host's /proc/stat.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/metrics.h"

namespace perfbench {

struct Counters {
  double wall_s = 0;
  std::array<std::uint64_t, glider::kNumLinkClasses> link_ops{};
  std::array<std::uint64_t, glider::kNumLinkClasses> link_bytes{};
  std::uint64_t accesses = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double cpu_s = 0;  // process user + system
  std::uint64_t vcsw = 0;
  std::uint64_t ivcsw = 0;
  std::uint64_t minflt = 0;
  std::uint64_t host_jiffies = 0;  // all CPUs, user through steal
  std::uint64_t steal_jiffies = 0;
};

Counters ReadCounters(const glider::Metrics& metrics);
// Only the host fields (host_jiffies, steal_jiffies), for timing work that
// runs without a cluster.
Counters ReadHostTime();

// after - before, field by field.
Counters Delta(const Counters& after, const Counters& before);
// a + b, field by field: the cost of two disjoint phases.
Counters Sum(const Counters& a, const Counters& b);

// Per-unit and per-byte costs of a phase that completed `units` units
// moving `payload_bytes` of user payload, keyed by metric name.
std::map<std::string, double> DeriveCosts(const Counters& delta, double units,
                                          double payload_bytes);

// Peak resident set size of the process so far.
double PeakRssMiB();

}  // namespace perfbench
