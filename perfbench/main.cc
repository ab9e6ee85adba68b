// The benchmark program: runs one workload against an in-process cluster over
// TCP and prints its metrics, the last line as one JSON object.
//
//   perfbench --workload invoke|files|shuffle --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// A run sets up the workload nine times (setup_s is a median), warms up,
// then runs slices of units sized from --seconds, for at most twice that
// long. --trace 1 adds a second, traced phase of the same size and reports
// per-layer metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "common/trace.h"
#include "counters.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/actions.h"

namespace perfbench {
namespace {

// setup_s is the median of the kSetupsKept least-stolen of kSetups set-ups.
constexpr int kSetups = 9;
constexpr std::size_t kSetupsKept = 5;
// Timings come from the kKept least-stolen of at least kSlices slices; a
// slice with at most kCleanSteal of the host's CPU time stolen is clean.
constexpr std::size_t kSlices = 20;
constexpr std::size_t kKept = kSlices / 2;
constexpr double kCleanSteal = 0.01;
// A phase starts no slice after kPhaseCap x --seconds. At the nominal rate
// its first kSlices slices take --seconds, so this bounds the run's time
// while leaving room for slower slices and the extra ones under steal.
constexpr double kPhaseCap = 2;
// Far above every unit's p90 (invoke ~0.35 ms, files ~7 ms, shuffle
// ~35 ms); a unit still running at the deadline counts as failed.
constexpr std::chrono::seconds kDeadline{10};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && seed && args.seconds > 0;
}

struct Phase {
  std::vector<Piece> slices;
  std::string check_error;
  // Peak RSS when the first kSlices slices are done: the extra slices run
  // under steal must not add to it.
  double peak_rss_mib = 0;
};

std::string CheckError(const LoopStats& check) {
  if (check.failed == 0) return "";
  return check.overruns > 0 ? "output check overran its deadline"
                            : check.first_error;
}

// Runs kSlices slices of `per_slice` units per client. With `extend`, it
// runs up to kSlices more while fewer than kKept of them are clean. No
// slice starts once the phase has run for `cap_ns`: on a host so slow or
// so stolen that the slices overrun it, the phase measures fewer units
// rather than outlast the run's time limit. Lockstep workloads run one
// round at a time and check each round between rounds, outside the
// counted cost.
Phase RunPhase(Workload& workload, ClosedLoop& loop, ClosedLoop& checker,
               std::size_t per_slice, bool extend, std::int64_t cap_ns) {
  Phase phase;
  const std::int64_t start = NowNs();
  std::size_t next = 0;  // index of each client's next unit
  auto run = [&](std::size_t count) {
    Piece piece;
    const Counters before = ReadCounters(workload.metrics());
    piece.stats = loop.Run(count, [&workload, first = next](std::size_t client,
                                                             std::size_t index) {
      Span root("unit", 0);
      return workload.Unit(client, first + index);
    });
    piece.cost = Delta(ReadCounters(workload.metrics()), before);
    next += count;
    return piece;
  };
  auto clean = [&phase] {
    return static_cast<std::size_t>(std::count_if(
        phase.slices.begin(), phase.slices.end(),
        [](const Piece& slice) { return slice.steal() <= kCleanSteal; }));
  };
  for (std::size_t k = 0; k < (extend ? 2 * kSlices : kSlices); ++k) {
    if (k >= kSlices && clean() >= kKept) break;
    if (k > 0 && NowNs() - start >= cap_ns) break;
    Piece slice;
    if (!workload.lockstep()) {
      slice = run(per_slice);
    } else {
      for (std::size_t round = 0; round < per_slice; ++round) {
        slice.Add(run(1));
        if (loop.hung() || slice.stats.failed > 0) break;
        phase.check_error = CheckError(
            checker.Run(1, [&workload](std::size_t, std::size_t) {
              return workload.CheckRound();
            }));
        if (!phase.check_error.empty()) break;
      }
    }
    phase.slices.push_back(std::move(slice));
    if (phase.slices.size() <= kSlices) phase.peak_rss_mib = PeakRssMiB();
    if (loop.hung() || !phase.check_error.empty() ||
        (workload.lockstep() && phase.slices.back().stats.failed > 0)) {
      break;
    }
  }
  return phase;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Per-call timings: <metric>.p50 and .p90 over the traced phase's spans.
struct CallTiming {
  const char* metric;
  const char* span;
  const char* unit;
  bool per_mib;  // time per MiB moved instead of per call
  double scale;  // ns (or ns per byte) to the reported unit
};

constexpr CallTiming kCallTimings[] = {
    {"glider.action.open_us", "glider.action.open", "us", false, 1e-3},
    {"glider.action.close_us", "glider.action.close", "us", false, 1e-3},
    {"glider.action.write_ms_per_mib", "glider.action.write", "ms/MiB", true,
     1048576e-6},
    {"glider.action.reduce_ms", "glider.action.reduce", "ms", false, 1e-6},
    {"glider.action.create_us", "glider.action.create", "us", false, 1e-3},
    {"glider.action.delete_us", "glider.action.delete", "us", false, 1e-3},
    {"nodekernel.meta.create_us", "nodekernel.meta.create", "us", false, 1e-3},
    {"nodekernel.meta.open_us", "nodekernel.meta.open", "us", false, 1e-3},
    {"nodekernel.meta.delete_us", "nodekernel.meta.delete", "us", false, 1e-3},
    {"nodekernel.data.write_ms_per_mib", "nodekernel.data.write", "ms/MiB",
     true, 1048576e-6},
    {"nodekernel.data.read_ms_per_mib", "nodekernel.data.read", "ms/MiB", true,
     1048576e-6},
    {"faas.stage_ms", "faas.stage", "ms", false, 1e-6},
    {"faas.spawn_us", "faas.spawn", "us", false, 1e-3},
};

constexpr const char* kLayers[] = {"glider.action", "nodekernel.meta",
                                   "nodekernel.data", "faas"};

constexpr const char* kCountMetrics[][2] = {
    {"net.rpcs_per_unit.faas", "count"},
    {"net.rpcs_per_unit.control", "count"},
    {"net.rpcs_per_unit.internal", "count"},
    {"common.copied_bytes_per_byte", "B/B"},
    {"common.allocs_per_unit", "count"},
    {"common.pool_hit_frac", "frac"},
    {"proc.vcsw_per_unit", "count"},
    {"proc.ivcsw_per_unit", "count"},
    {"proc.minflt_per_mib", "1/MiB"},
    {"proc.cpu_util", "cores"},
};

std::vector<Metric> LayerMetrics(const SpanSummary& spans,
                                 const std::map<std::string, double>& costs,
                                 double overhead_frac) {
  std::vector<Metric> metrics;
  for (const auto& timing : kCallTimings) {
    const auto& samples =
        timing.per_mib ? spans.ns_per_byte : spans.durations_ns;
    const auto it = samples.find(timing.span);
    const glider::SampleStats none;
    const glider::SampleStats& values = it == samples.end() ? none : it->second;
    for (const auto& [suffix, p] : {std::pair{".p50", 50}, {".p90", 90}}) {
      metrics.push_back({std::string(timing.metric) + suffix, timing.unit,
                         values.Percentile(p) * timing.scale});
    }
  }
  const double units = static_cast<double>(std::max<std::size_t>(spans.units, 1));
  for (const char* layer : kLayers) {
    const auto calls = spans.layer_calls.find(layer);
    const auto self = spans.layer_self_ns.find(layer);
    metrics.push_back(
        {std::string(layer) + ".calls_per_unit", "count",
         calls == spans.layer_calls.end() ? 0 : static_cast<double>(calls->second) / units});
    metrics.push_back({std::string(layer) + ".self_frac", "frac",
                       self == spans.layer_self_ns.end() || spans.unit_ns <= 0
                           ? 0
                           : self->second / spans.unit_ns});
  }
  for (const auto& [name, unit] : kCountMetrics) {
    metrics.push_back({name, unit, costs.at(name)});
  }
  metrics.push_back({"trace.overhead_frac", "frac", overhead_frac});
  return metrics;
}

// Every layer the spans saw, the benchmark's own code ("app") included.
void PrintLayerTable(const SpanSummary& spans) {
  std::printf("layer                 calls/unit  self_frac   (traced, %zu units)\n",
              spans.units);
  for (const auto& [layer, calls] : spans.layer_calls) {
    std::printf("  %-20s %10.3f %10.4f\n", layer.c_str(),
                static_cast<double>(calls) / static_cast<double>(std::max<std::size_t>(spans.units, 1)),
                spans.unit_ns > 0 ? spans.layer_self_ns.at(layer) / spans.unit_ns : 0);
  }
  std::printf("call                          n        p50_us        p90_us\n");
  for (const auto& [name, durations] : spans.durations_ns) {
    std::printf("  %-26s %6zu %13.3f %13.3f\n", name.c_str(), durations.count(),
                durations.Percentile(50) / 1e3, durations.Percentile(90) / 1e3);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload invoke|files|shuffle --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  glider::obs::SetEnabled(false);  // observability off, as deployed
  glider::workloads::RegisterWorkloadActions();

  // Set-ups are timed as pieces of one unit each, so Pool() can keep the
  // least-stolen, as it does for slices.
  std::vector<Piece> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->Teardown();
    Piece setup;
    const Counters before = ReadHostTime();
    const std::int64_t start = NowNs();
    const glider::Status status = workload->Setup();
    setup.stats.latencies_ns.Add(static_cast<double>(NowNs() - start));
    setup.cost = Delta(ReadHostTime(), before);
    setups.push_back(std::move(setup));
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (const auto status = workload->Connect(); !status.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const auto per_slice = static_cast<std::size_t>(std::max(
      1.0, std::round(workload->nominal_units_per_s() * args.seconds /
                      static_cast<double>(kClients * kSlices))));
  const auto cap_ns = static_cast<std::int64_t>(kPhaseCap * args.seconds * 1e9);
  ClosedLoop loop(kClients, kDeadline);
  ClosedLoop checker(1, kDeadline);
  const Phase warmup =
      RunPhase(*workload, loop, checker, std::max<std::size_t>(1, per_slice / 10),
               false, cap_ns / 10);
  Phase measured;
  if (!loop.hung() && warmup.check_error.empty()) {
    measured = RunPhase(*workload, loop, checker, per_slice, true, cap_ns);
  }
  Phase traced;
  SpanSummary spans;
  if (args.trace && !loop.hung() && measured.check_error.empty()) {
    SetTracing(true);
    traced = RunPhase(*workload, loop, checker, per_slice, true, cap_ns);
    SetTracing(false);
    const std::vector<SpanRecord> records = TakeSpans();
    if (!args.trace_out.empty() && !WriteChromeTrace(records, args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    spans = Summarize(records);
  }

  // Output checks. A run with a stuck unit cannot check exactly.
  std::string check_error = warmup.check_error.empty() ? measured.check_error
                                                       : warmup.check_error;
  if (check_error.empty()) check_error = traced.check_error;
  if (check_error.empty()) check_error = workload->check_failure();
  if (check_error.empty() && loop.hung()) {
    check_error = "not checked: a unit overran its deadline";
  }
  if (check_error.empty()) {
    check_error = CheckError(checker.Run(
        1, [&](std::size_t, std::size_t) { return workload->CheckFinal(); }));
  }
  const bool correct = check_error.empty();

  // Failures and counts cover every unit; times, CPU time included, cover
  // the kKept least-stolen slices.
  const Piece all = Pool(measured.slices, measured.slices.size());
  const Piece kept = Pool(measured.slices, kKept);
  const LoopStats& m = kept.stats;
  const double ok_units = static_cast<double>(m.latencies_ns.count());
  const double payload = workload->payload_bytes_per_unit();
  const auto all_ok = static_cast<double>(all.stats.latencies_ns.count());
  auto costs = DeriveCosts(all.cost, all_ok, all_ok * payload);
  const auto kept_costs = DeriveCosts(kept.cost, ok_units, ok_units * payload);
  for (const char* timed : {"cpu_us_per_kib", "proc.cpu_util"}) {
    costs[timed] = kept_costs.at(timed);
  }
  const double lat_p50_ms = m.latencies_ns.Percentile(50) / 1e6;
  std::vector<Metric> metrics = {
      {"lat_p50_ms", "ms", lat_p50_ms},
      {"lat_p90_ms", "ms", m.latencies_ns.Percentile(90) / 1e6},
      {"capacity_per_s", "1/s", m.wall_s > 0 ? ok_units / m.wall_s : 0},
      {"cpu_us_per_kib", "us/KiB", costs.at("cpu_us_per_kib")},
      {"link_bytes_per_byte", "B/B", costs.at("link_bytes_per_byte")},
      {"accesses_per_unit", "count", costs.at("accesses_per_unit")},
      {"ok_frac", "frac",
       all.stats.attempted > 0
           ? all_ok / static_cast<double>(all.stats.attempted)
           : 0},
      {"setup_s", "s",
       Pool(setups, kSetupsKept).stats.latencies_ns.Percentile(50) / 1e9},
      {"peak_rss_mib", "MiB", measured.peak_rss_mib},
  };
  std::uint64_t attempted = all.stats.attempted;
  std::uint64_t failed = all.stats.failed;
  std::vector<Metric> layer_metrics;
  if (args.trace) {
    const double traced_p50_ms =
        Pool(traced.slices, kKept).stats.latencies_ns.Percentile(50) / 1e6;
    layer_metrics = LayerMetrics(
        spans, costs, lat_p50_ms > 0 ? traced_p50_ms / lat_p50_ms - 1 : 0);
    const Piece traced_all = Pool(traced.slices, traced.slices.size());
    attempted += traced_all.stats.attempted;
    failed += traced_all.stats.failed;
    PrintLayerTable(spans);
  }

  std::printf("host {\"nproc\": %ld, \"cpu_model\": %s, \"build_type\": %s, "
              "\"steal_frac\": %.4f, \"kept_steal_frac\": %.4f}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(), all.steal(), kept.steal());
  std::printf("workload %s seed %llu: %zu slices of %zu units per client, "
              "%zu latency samples kept (%zu beyond p90), setups",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              measured.slices.size(), per_slice, m.latencies_ns.count(),
              m.latencies_ns.count() / 10);
  for (const Piece& setup : setups) {
    std::printf(" %.4f", setup.stats.latencies_ns.samples()[0] / 1e9);
  }
  std::printf(" s\n");
  if (!correct) std::printf("output check failed: %s\n", check_error.c_str());
  if (!all.stats.first_error.empty()) {
    std::printf("first error: %s\n", all.stats.first_error.c_str());
  }
  for (const auto& metric : metrics) {
    std::printf("  %-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& metric : layer_metrics) {
    std::printf("  %-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const auto& reported = args.trace ? layer_metrics : metrics;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(reported[i].value) ? reported[i].value : 0.0);
    json += (i ? ", " : "") + JsonString(reported[i].name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(reported[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  const int code = correct ? 0 : 1;
  // A stuck unit's thread cannot be joined; end without tearing down.
  if (loop.hung() || checker.hung()) std::_Exit(code);
  return code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
