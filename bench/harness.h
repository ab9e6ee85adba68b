// Shared bench harness: cluster configurations modelling the paper's
// testbed (DESIGN.md §2) and table printing.
//
// Link model used by all figure benches (values are a scaled-down model of
// the paper's environment, not its absolute numbers):
//   * FaaS worker link:   12.5 MB/s per worker, 300 us/op  (limited function
//                         bandwidth, remote storage latency)
//   * storage-internal:   400 MB/s (actions <-> data servers)
//   * storage "RDMA":     1.6 GB/s (fast fabric available inside the
//                         storage tier only, §7.1)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/prometheus.h"
#include "common/status.h"
#include "common/trace.h"
#include "testing/cluster.h"

namespace glider::bench {

inline constexpr std::uint64_t kFaasBps = 12'500'000;       // 12.5 MB/s
inline constexpr std::uint64_t kInternalBps = 400'000'000;  // 400 MB/s
inline constexpr std::uint64_t kRdmaBps = 1'600'000'000;    // 1.6 GB/s

inline testing::ClusterOptions PaperClusterOptions(bool rdma = false) {
  testing::ClusterOptions options;
  options.data_servers = 1;   // matches §7.1/7.2 setups; benches override
  options.active_servers = 1;
  options.blocks_per_server = 2048;
  options.slots_per_server = 64;
  options.faas_bandwidth_bps = kFaasBps;
  options.faas_latency = std::chrono::microseconds(300);
  options.internal_bandwidth_bps = rdma ? kRdmaBps : kInternalBps;
  options.internal_link_class = rdma ? LinkClass::kRdma : LinkClass::kInternal;
  options.chunk_size = 256 * 1024;
  options.inflight_window = 4;
  return options;
}

// Fatal-error helpers: benches and the graph runner treat setup failures as
// immediately fatal. Unwrap with a labelled diagnostic instead of the
// hand-rolled `if (!x.ok()) { fprintf(...); return 1; }` ladders.
[[noreturn]] inline void ExitWith(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

inline void RequireOk(const Status& status, const char* what) {
  if (!status.ok()) ExitWith(what, status);
}

template <typename T>
T RequireOk(Result<T> result, const char* what) {
  if (!result.ok()) ExitWith(what, result.status());
  return std::move(result).value();
}

// Boots a MiniCluster or exits with a diagnostic — every bench starts here.
inline std::unique_ptr<testing::MiniCluster> StartClusterOrExit(
    const testing::ClusterOptions& options) {
  return RequireOk(testing::MiniCluster::Start(options), "cluster boot");
}

// Fixed-width table printing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    PrintRow(headers_, width);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : "-+-",
                  std::string(width[c], '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) PrintRow(row, width);
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<std::size_t>& width) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "" : " | ",
                  static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// Per-run machine-readable snapshot: scalars recorded by the bench
// (wall-clock seconds, transfer bytes, access counts, ...) plus the full
// MetricsRegistry dump (counters, gauges, and latency-histogram
// p50/p95/p99). Written to BENCH_<name>.json in the working directory;
// tools/bench_diff.py compares two such files and flags regressions.
//
// Pass include_metrics=false for benches that run with observability off:
// the registry would only contribute blocks of all-zero counters (metrics
// that never incremented), which read like real measurements but are not.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name, bool include_metrics = true)
      : name_(std::move(name)), include_metrics_(include_metrics) {}

  void AddScalar(const std::string& key, double value) {
    scalars_.emplace_back(key, value);
  }

  bool Write() const {
    std::string json = "{\"bench\":\"" + name_ + "\",\"scalars\":{";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", scalars_[i].second);
      if (i > 0) json += ",";
      json += "\"" + scalars_[i].first + "\":" + buf;
    }
    if (include_metrics_) {
      json += "},\"metrics\":";
      json += obs::SnapshotJson(obs::MetricsRegistry::Global().Snapshot());
      json += "}\n";
    } else {
      json += "}}\n";
    }

    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  bool include_metrics_;
  std::vector<std::pair<std::string, double>> scalars_;
};

inline std::string FmtBytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= 1ull << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= 1ull << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= 1ull << 10) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace glider::bench
