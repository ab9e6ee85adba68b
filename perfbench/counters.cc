#include "counters.h"

#include <sys/resource.h>

#include <fstream>

#include "common/bytes.h"
#include "spans.h"

namespace perfbench {
namespace {

template <typename Op>
Counters Combine(const Counters& a, const Counters& b, Op op) {
  Counters r;
  r.wall_s = op(a.wall_s, b.wall_s);
  for (std::size_t link = 0; link < glider::kNumLinkClasses; ++link) {
    r.link_ops[link] = op(a.link_ops[link], b.link_ops[link]);
    r.link_bytes[link] = op(a.link_bytes[link], b.link_bytes[link]);
  }
  r.accesses = op(a.accesses, b.accesses);
  r.copied_bytes = op(a.copied_bytes, b.copied_bytes);
  r.allocs = op(a.allocs, b.allocs);
  r.pool_hits = op(a.pool_hits, b.pool_hits);
  r.pool_misses = op(a.pool_misses, b.pool_misses);
  r.cpu_s = op(a.cpu_s, b.cpu_s);
  r.vcsw = op(a.vcsw, b.vcsw);
  r.ivcsw = op(a.ivcsw, b.ivcsw);
  r.minflt = op(a.minflt, b.minflt);
  r.host_jiffies = op(a.host_jiffies, b.host_jiffies);
  r.steal_jiffies = op(a.steal_jiffies, b.steal_jiffies);
  return r;
}

}  // namespace

Counters ReadHostTime() {
  Counters c;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t value = 0;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && (in >> value); ++field) {
    c.host_jiffies += value;
    if (field == 7) c.steal_jiffies = value;
  }
  return c;
}

Counters ReadCounters(const glider::Metrics& metrics) {
  Counters c = ReadHostTime();
  c.wall_s = static_cast<double>(NowNs()) / 1e9;
  for (std::size_t link = 0; link < glider::kNumLinkClasses; ++link) {
    const auto cls = static_cast<glider::LinkClass>(link);
    c.link_ops[link] = metrics.Operations(cls);
    c.link_bytes[link] = metrics.BytesSent(cls) + metrics.BytesReceived(cls);
  }
  c.accesses = metrics.StorageAccesses();
  c.copied_bytes = glider::data_plane::CopiedBytes();
  c.allocs = glider::data_plane::Allocs();
  c.pool_hits = glider::data_plane::PoolHits();
  c.pool_misses = glider::data_plane::PoolMisses();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  c.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                1e6;
  c.vcsw = static_cast<std::uint64_t>(usage.ru_nvcsw);
  c.ivcsw = static_cast<std::uint64_t>(usage.ru_nivcsw);
  c.minflt = static_cast<std::uint64_t>(usage.ru_minflt);
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  return Combine(after, before, [](auto x, auto y) { return x - y; });
}

Counters Sum(const Counters& a, const Counters& b) {
  return Combine(a, b, [](auto x, auto y) { return x + y; });
}

std::map<std::string, double> DeriveCosts(const Counters& d, double units,
                                          double payload_bytes) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto ops = [&](glider::LinkClass link) {
    return static_cast<double>(d.link_ops[static_cast<std::size_t>(link)]);
  };
  const double hits = static_cast<double>(d.pool_hits);
  const double lookups = hits + static_cast<double>(d.pool_misses);
  return {
      {"cpu_us_per_kib", ratio(d.cpu_s * 1e6, payload_bytes / 1024)},
      {"link_bytes_per_byte",
       ratio(static_cast<double>(
                 d.link_bytes[static_cast<std::size_t>(glider::LinkClass::kFaas)]),
             payload_bytes)},
      {"accesses_per_unit", ratio(static_cast<double>(d.accesses), units)},
      {"net.rpcs_per_unit.faas", ratio(ops(glider::LinkClass::kFaas), units)},
      {"net.rpcs_per_unit.control",
       ratio(ops(glider::LinkClass::kControl), units)},
      {"net.rpcs_per_unit.internal",
       ratio(ops(glider::LinkClass::kInternal), units)},
      {"common.copied_bytes_per_byte",
       ratio(static_cast<double>(d.copied_bytes), payload_bytes)},
      {"common.allocs_per_unit", ratio(static_cast<double>(d.allocs), units)},
      {"common.pool_hit_frac", ratio(hits, lookups)},
      {"proc.vcsw_per_unit", ratio(static_cast<double>(d.vcsw), units)},
      {"proc.ivcsw_per_unit", ratio(static_cast<double>(d.ivcsw), units)},
      {"proc.minflt_per_mib",
       ratio(static_cast<double>(d.minflt), payload_bytes / (1 << 20))},
      {"proc.cpu_util", ratio(d.cpu_s, d.wall_s)},
  };
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
