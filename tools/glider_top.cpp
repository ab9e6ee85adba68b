// glider_top: a live, top(1)-style terminal view over a running Glider
// cluster (DESIGN.md "Cluster observability").
//
//   glider_top --metadata host:port [--interval ms] [--once]
//
// Each tick polls every server via ClusterMonitor (one kNodeSnapshot RPC
// per server), diffs the snapshots against the previous tick, and repaints:
//
//   * per-server rows: ops/s (RPCs handled), bytes in/out per second,
//     action queue depth, windowed p50/p99 of server-side RPC handling,
//     the node's load index and failure-detector verdict (phi), plus the
//     TENANT column: the principal with the most ledger CPU on that node;
//   * a per-action-slot table attributing invocations, stream bytes and
//     CPU time to individual slots (active servers only). Slots flagged by
//     the server's hotspot detector are marked with '*';
//   * a per-tenant table over the merged ledger: cluster-wide CPU, queue
//     time, bytes and invocations charged to each principal.
//
// Rates come from counter/histogram deltas between consecutive polls, so
// the first tick shows only absolute values. --once prints a single
// snapshot without clearing the screen (script-friendly).
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "glider/cluster_monitor.h"
#include "net/tcp_transport.h"

using namespace glider;  // NOLINT

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* unknown = nullptr) {
  if (unknown != nullptr) {
    std::fprintf(stderr, "glider_top: unknown flag '%s'\n\n", unknown);
  }
  std::fprintf(
      stderr,
      "usage: glider_top --metadata host:port [--interval ms] [--once]\n"
      "\n"
      "  --metadata host:port   metadata server used for discovery "
      "(required)\n"
      "  --interval ms          poll/repaint interval (default 1000)\n"
      "  --once                 print a single snapshot without clearing\n"
      "                         the screen (script-friendly)\n"
      "\n"
      "Each tick shows per-server rates (ops/s, bytes/s, queue depth,\n"
      "windowed p50/p99, load index, failure-detector health), the tenant\n"
      "with the most attributed CPU per node, a per-action-slot table, and\n"
      "a cluster-wide per-tenant attribution table from the merged ledger.\n"
      "Use `glider_cli ledger` for exact per-operation breakdowns.\n");
  return 2;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// One server's digested tick: everything the row needs, plus the raw
// snapshot kept so the next tick can diff against it.
struct ServerRow {
  obs::MetricsSnapshot snapshot;
  double ops_per_s = 0;
  double bytes_in_per_s = 0;
  double bytes_out_per_s = 0;
  std::int64_t queue_depth = 0;
  std::uint64_t p50_us = 0;  // windowed over the tick, cumulative on tick 0
  std::uint64_t p99_us = 0;
  // The principal with the most attributed CPU on this node, from its
  // ledger ("-" when nothing charged).
  std::string top_principal = "-";
};

// Per-slot attribution extracted from `active.slot<i>.*` metric names.
struct SlotRow {
  double invocations_per_s = 0;
  double bytes_in_per_s = 0;
  double bytes_out_per_s = 0;
  double cpu_per_s = 0;  // CPU-us per wall-second
  std::int64_t queue_depth = 0;
  std::uint64_t total_invocations = 0;
  bool hot = false;  // flagged by the server's hotspot detector
};

double Rate(std::uint64_t now, std::uint64_t prev, double dt_s) {
  if (dt_s <= 0 || now < prev) return 0;
  return static_cast<double>(now - prev) / dt_s;
}

ServerRow Digest(const net::NodeSnapshot& node,
                 const obs::MetricsSnapshot* prev, double dt_s) {
  const obs::MetricsSnapshot& snap = node.metrics;
  ServerRow row;
  row.snapshot = snap;

  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, const obs::HistogramSnapshot*> prev_hists;
  if (prev != nullptr && prev->generation == snap.generation) {
    for (const auto& [name, value] : prev->counters) {
      prev_counters[name] = value;
    }
    for (const auto& [name, hist] : prev->histograms) {
      prev_hists[name] = &hist;
    }
  }
  auto prev_counter = [&](const std::string& name) -> std::uint64_t {
    auto it = prev_counters.find(name);
    return it == prev_counters.end() ? 0 : it->second;
  };

  for (const auto& [name, value] : snap.counters) {
    if (EndsWith(name, ".bytes_in")) {
      row.bytes_in_per_s += Rate(value, prev_counter(name), dt_s);
    } else if (EndsWith(name, ".bytes_out")) {
      row.bytes_out_per_s += Rate(value, prev_counter(name), dt_s);
    }
  }
  if (const std::int64_t* depth = snap.FindGauge("active.queue_depth")) {
    row.queue_depth = *depth;
  }
  std::uint64_t top_cpu = 0;
  for (const auto& [principal, cell] : obs::PerPrincipal(node.ledger)) {
    if (cell.cpu_us > top_cpu) {
      top_cpu = cell.cpu_us;
      row.top_principal = obs::PrincipalName(principal);
    }
  }
  // Server-side RPC handling: sum every rpc.server.* histogram, windowed
  // against the previous tick where possible.
  obs::HistogramSnapshot window;
  std::uint64_t ops_delta = 0;
  for (const auto& [name, hist] : snap.histograms) {
    if (!StartsWith(name, "rpc.server.")) continue;
    obs::HistogramSnapshot h = hist;
    auto it = prev_hists.find(name);
    if (it != prev_hists.end()) h = hist.DeltaSince(*it->second);
    ops_delta += h.count;
    window.Merge(h);
  }
  row.ops_per_s = dt_s > 0 ? static_cast<double>(ops_delta) / dt_s : 0;
  row.p50_us = window.Percentile(50);
  row.p99_us = window.Percentile(99);
  return row;
}

// Collects `active.slot<i>.*` metrics from one server into per-slot rows.
void DigestSlots(const obs::MetricsSnapshot& snap,
                 const obs::MetricsSnapshot* prev, double dt_s,
                 const std::string& address,
                 std::map<std::pair<std::string, int>, SlotRow>* slots) {
  std::map<std::string, std::uint64_t> prev_counters;
  if (prev != nullptr && prev->generation == snap.generation) {
    for (const auto& [name, value] : prev->counters) {
      prev_counters[name] = value;
    }
  }
  auto parse = [](const std::string& name, std::string* field) -> int {
    // active.slot<i>.<field> -> slot index, or -1.
    if (!StartsWith(name, "active.slot")) return -1;
    const std::size_t dot = name.find('.', std::strlen("active.slot"));
    if (dot == std::string::npos) return -1;
    const std::string index = name.substr(std::strlen("active.slot"),
                                          dot - std::strlen("active.slot"));
    if (index.empty() ||
        index.find_first_not_of("0123456789") != std::string::npos) {
      return -1;
    }
    *field = name.substr(dot + 1);
    return std::atoi(index.c_str());
  };
  for (const auto& [name, value] : snap.counters) {
    std::string field;
    const int slot = parse(name, &field);
    if (slot < 0) continue;
    SlotRow& row = (*slots)[{address, slot}];
    auto it = prev_counters.find(name);
    const std::uint64_t prev_value =
        it == prev_counters.end() ? 0 : it->second;
    const double rate = Rate(value, prev_value, dt_s);
    if (field == "invocations") {
      row.invocations_per_s = rate;
      row.total_invocations = value;
    } else if (field == "bytes_in") {
      row.bytes_in_per_s = rate;
    } else if (field == "bytes_out") {
      row.bytes_out_per_s = rate;
    } else if (field == "cpu_us") {
      row.cpu_per_s = rate;
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    std::string field;
    const int slot = parse(name, &field);
    if (slot < 0) continue;
    if (field == "queue_depth") {
      (*slots)[{address, slot}].queue_depth = value;
    } else if (field == "hot") {
      (*slots)[{address, slot}].hot = value != 0;
    }
  }
}

std::string HumanBytes(double per_s) {
  char buffer[32];
  if (per_s >= 1024.0 * 1024.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM", per_s / (1024.0 * 1024.0));
  } else if (per_s >= 1024.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fK", per_s / 1024.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f", per_s);
  }
  return buffer;
}

const char* RoleName(const ClusterMonitor::ServerSample& server) {
  if (server.is_metadata) return "metadata";
  return server.server.storage_class == nk::kActiveClass ? "active" : "storage";
}

}  // namespace

int main(int argc, char** argv) {
  std::string metadata;
  long interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metadata") == 0 && i + 1 < argc) {
      metadata = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      return Usage(argv[i]);
    }
  }
  if (metadata.empty() || interval_ms <= 0) return Usage();

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  net::TcpTransport transport(4);
  ClusterMonitor monitor(&transport, metadata,
                         net::LinkModel::Unshaped(LinkClass::kControl,
                                                  nullptr));

  // Previous tick's per-address snapshot (for rate windows) and its wall
  // time. Unreachable servers simply have no entry.
  std::map<std::string, obs::MetricsSnapshot> prev;
  std::uint64_t prev_t_us = 0;

  while (g_stop == 0) {
    auto sample = monitor.Poll();
    const std::uint64_t now_us = obs::TraceNowMicros();
    const double dt_s = prev_t_us == 0
                            ? 0
                            : static_cast<double>(now_us - prev_t_us) / 1e6;
    if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home
    if (!sample.ok()) {
      std::printf("glider_top: poll failed: %s\n",
                  sample.status().ToString().c_str());
    } else {
      std::printf("glider_top  %zu server(s)  interval %ld ms%s\n\n",
                  sample->servers.size(), interval_ms,
                  dt_s == 0 ? "  (first tick: absolute values)" : "");
      if (sample->stale_discovery) {
        std::printf("!! metadata unreachable: showing last known servers\n");
      }
      std::printf("%-21s %-8s %9s %9s %9s %5s %8s %8s %6s %-10s %-8s\n",
                  "ADDRESS", "ROLE", "OPS/S", "IN_B/S", "OUT_B/S", "QD",
                  "P50_US", "P99_US", "LOAD", "HEALTH", "TENANT");
      std::map<std::string, obs::MetricsSnapshot> next;
      std::map<std::pair<std::string, int>, SlotRow> slots;
      for (const auto& server : sample->servers) {
        const std::string& address = server.server.address;
        // Failure-detector verdict, e.g. "alive 0.1" or "dead 12.4". For a
        // server that was never reached the detector has no row — show a
        // plain "unreachable".
        char health[32];
        if (server.health == obs::PeerState::kUnknown) {
          std::snprintf(health, sizeof(health), "unreach");
        } else {
          std::snprintf(health, sizeof(health), "%s %.1f",
                        std::string(obs::PeerStateName(server.health)).c_str(),
                        server.phi);
        }
        if (!server.status.ok()) {
          std::printf("%-21s %-8s %52s %6s %-10s [%s]\n", address.c_str(),
                      RoleName(server), "",
                      "-", health, server.status.ToString().c_str());
          continue;
        }
        auto it = prev.find(address);
        const obs::MetricsSnapshot* prev_snap =
            it == prev.end() ? nullptr : &it->second;
        const ServerRow row = Digest(server.snapshot, prev_snap, dt_s);
        DigestSlots(server.snapshot.metrics, prev_snap, dt_s, address,
                    &slots);
        std::printf("%-21s %-8s %9.1f %9s %9s %5" PRId64 " %8" PRIu64
                    " %8" PRIu64 " %6.2f %-10s %-8s\n",
                    address.c_str(),
                    RoleName(server),
                    row.ops_per_s, HumanBytes(row.bytes_in_per_s).c_str(),
                    HumanBytes(row.bytes_out_per_s).c_str(), row.queue_depth,
                    row.p50_us, row.p99_us, server.load_index, health,
                    row.top_principal.c_str());
        next[address] = std::move(row.snapshot);
      }
      // Per-slot attribution: only slots that have ever run a method.
      bool header = false;
      for (const auto& [key, row] : slots) {
        if (row.total_invocations == 0) continue;
        if (!header) {
          std::printf("\n%-21s %5s %9s %9s %9s %8s %5s\n", "ACTION SLOT",
                      "SLOT", "INV/S", "IN_B/S", "OUT_B/S", "CPU%", "QD");
          header = true;
        }
        // A '*' after the slot number marks a hotspot (this slot's share of
        // the node's CPU exceeds the detector's multiple of the mean).
        char slot_label[16];
        std::snprintf(slot_label, sizeof(slot_label), "%d%s", key.second,
                      row.hot ? "*" : "");
        std::printf("%-21s %5s %9.1f %9s %9s %7.1f%% %5" PRId64 "\n",
                    key.first.c_str(), slot_label, row.invocations_per_s,
                    HumanBytes(row.bytes_in_per_s).c_str(),
                    HumanBytes(row.bytes_out_per_s).c_str(),
                    row.cpu_per_s / 1e4,  // cpu-us per s -> percent of a core
                    row.queue_depth);
      }
      // Cluster-wide per-tenant attribution from the merged ledger.
      const auto tenants = obs::PerPrincipal(sample->merged.ledger);
      if (!tenants.empty()) {
        std::printf("\n%-12s %12s %12s %12s %12s %10s\n", "TENANT", "CPU_US",
                    "QUEUE_US", "BYTES_IN", "BYTES_OUT", "CALLS");
        for (const auto& [principal, t] : tenants) {
          std::printf("%-12s %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                      " %12" PRIu64 " %10" PRIu64 "\n",
                      obs::PrincipalName(principal).c_str(), t.cpu_us,
                      t.queue_us, t.bytes_in, t.bytes_out, t.invocations);
        }
      }
      prev = std::move(next);
      prev_t_us = now_us;
    }
    if (once) break;
    std::fflush(stdout);
    for (long waited = 0; waited < interval_ms && g_stop == 0; waited += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}
