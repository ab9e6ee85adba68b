// glider_daemon: runs one Glider server role over TCP, for multi-process /
// multi-host deployments.
//
//   glider_daemon metadata --listen 0.0.0.0:7000
//   glider_daemon storage  --metadata 10.0.0.1:7000 --blocks 1024 \
//                          --block-size 1048576 [--class 0] [--listen ...]
//   glider_daemon active   --metadata 10.0.0.1:7000 --slots 32 [--listen ...]
//
// Active daemons serve the action definitions compiled into this binary
// (the workload library); a deployment registers its own definitions by
// linking them in and rebuilding — the "upload a package" step of §6.2.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <semaphore>
#include <set>
#include <string>

#include "common/profiler.h"
#include "common/time_series.h"
#include "common/trace.h"
#include "glider/active_server.h"
#include "glider/health_monitor.h"
#include "net/http_metrics.h"
#include "net/rpc_obs.h"
#include "net/tcp_transport.h"
#include "nodekernel/metadata_server.h"
#include "nodekernel/storage_server.h"
#include "workloads/actions.h"

using namespace glider;  // NOLINT

namespace {

std::binary_semaphore g_stop{0};

void HandleSignal(int) { g_stop.release(); }

// Every flag the daemon understands; an argument outside this set is an
// error naming the flag, not a silent no-op.
const std::set<std::string>& KnownFlags() {
  static const std::set<std::string> kFlags = {
      "listen", "metadata", "blocks", "block-size", "class", "slots",
      "partition", "trace", "sample-ms", "metrics-listen", "profile",
      "profile-hz", "health-ms"};
  return kFlags;
}

Result<std::map<std::string, std::string>> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg +
                                     "' (flags look like --name value)");
    }
    const std::string name = arg.substr(2);
    if (KnownFlags().count(name) == 0) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + arg + "' needs a value");
    }
    flags[name] = argv[++i];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& name, const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: glider_daemon <metadata|storage|active> [flags]\n"
      "\n"
      "roles:\n"
      "  metadata  namespace + block manager partition\n"
      "            --listen host:port     bind address (default 127.0.0.1:0)\n"
      "            --partition P          partition index (default 0)\n"
      "  storage   block storage server\n"
      "            --metadata host:port   metadata server to register with "
      "(required)\n"
      "            --listen host:port     preferred data address\n"
      "            --blocks N             block count (default 256)\n"
      "            --block-size B         block size in bytes (default "
      "1048576)\n"
      "            --class C              storage class id (default 0)\n"
      "  active    action execution server\n"
      "            --metadata host:port   metadata server to register with "
      "(required)\n"
      "            --listen host:port     preferred data address\n"
      "            --slots N              concurrent action slots (default "
      "16)\n"
      "\n"
      "observability (any role):\n"
      "  --trace 1                enable span recording + latency histograms\n"
      "  --sample-ms N            start the time-series sampler at this "
      "cadence (implies --trace)\n"
      "  --metrics-listen h:p     serve GET /metrics (Prometheus text)\n"
      "  --profile 1              arm the sampling CPU/off-CPU profiler\n"
      "  --profile-hz N           profiler sample rate (implies --profile; "
      "default 99)\n"
      "  --health-ms N            heartbeat the cluster + phi-accrual failure "
      "detection\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string role = argv[1];
  if (role == "--help" || role == "-h" || role == "help") return Usage();
  auto parsed = ParseFlags(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "glider_daemon: %s\n",
                 parsed.status().message().c_str());
    return Usage();
  }
  const auto flags = std::move(parsed).value();

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  workloads::RegisterWorkloadActions();
  // --trace 1 turns on span recording + latency histograms (GLIDER_TRACE=1
  // in the environment does the same); dump via glider_cli stats/trace-dump.
  if (FlagOr(flags, "trace", "0") == "1") obs::SetEnabled(true);
  // --sample-ms N starts the in-process time-series sampler (kSeriesDump /
  // glider_top read its rings). Implies --trace: rates over disabled
  // histograms would be all zeros.
  const long sample_ms = std::stol(FlagOr(flags, "sample-ms", "0"));
  if (sample_ms > 0) {
    obs::SetEnabled(true);
    obs::TimeSeriesSampler::Options sopts;
    sopts.interval = std::chrono::milliseconds(sample_ms);
    const Status started = obs::TimeSeriesSampler::Global().Start(sopts);
    if (!started.ok()) {
      std::fprintf(stderr, "sampler: %s\n", started.ToString().c_str());
      return 1;
    }
  }
  // --profile 1 arms the sampling profiler at boot (--profile-hz overrides
  // the 99 Hz default; setting it implies --profile). Implies --trace so
  // dispatch sites install attribution tags. Dump via glider_cli profile.
  const long profile_hz = std::stol(FlagOr(flags, "profile-hz", "0"));
  if (FlagOr(flags, "profile", "0") == "1" || profile_hz > 0) {
    obs::SetEnabled(true);
    obs::SamplingProfiler::Options popts;
    if (profile_hz > 0) popts.hz = static_cast<int>(profile_hz);
    const Status started = obs::SamplingProfiler::Global().Start(popts);
    if (!started.ok()) {
      std::fprintf(stderr, "profiler: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("profiler sampling at %d Hz%s\n", popts.hz,
                obs::SamplingProfiler::SignalSamplingSupported()
                    ? ""
                    : " (signal sampling unavailable: wait samples only)");
  }
  auto metrics = std::make_shared<Metrics>();
  // --metrics-listen host:port serves GET /metrics (Prometheus text). Each
  // scrape re-mirrors the data-plane gauges and recomputes the load index,
  // so Prometheus sees the same values kStatsDump / kSeriesDump would.
  std::unique_ptr<net::HttpMetricsServer> metrics_http;
  const std::string metrics_listen = FlagOr(flags, "metrics-listen", "");
  if (!metrics_listen.empty()) {
    auto http = net::HttpMetricsServer::Listen(
        metrics_listen, obs::MetricsRegistry::Global(), {{"role", role}},
        [m = metrics.get()] { net::RefreshMirroredGauges(m); });
    if (!http.ok()) {
      std::fprintf(stderr, "metrics-listen: %s\n",
                   http.status().ToString().c_str());
      return 1;
    }
    metrics_http = std::move(http).value();
    std::printf("metrics at http://%s/metrics\n",
                metrics_http->address().c_str());
  }
  net::TcpTransport transport(16);
  const std::string listen = FlagOr(flags, "listen", "127.0.0.1:0");
  const std::string metadata = FlagOr(flags, "metadata", "");

  std::unique_ptr<net::Listener> listener;  // keeps the service alive
  std::shared_ptr<nk::StorageServer> storage;
  std::shared_ptr<core::ActiveServer> active;

  if (role == "metadata") {
    auto server = std::make_shared<nk::MetadataServer>(
        &transport, metrics,
        static_cast<std::uint32_t>(std::stoul(FlagOr(flags, "partition", "0"))));
    auto bound = transport.Listen(listen, server);
    if (!bound.ok()) {
      std::fprintf(stderr, "listen: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    listener = std::move(bound).value();
    std::printf("metadata server listening at %s\n",
                listener->address().c_str());
  } else if (role == "storage" || role == "active") {
    if (metadata.empty()) {
      std::fprintf(stderr, "--metadata host:port is required\n");
      return Usage();
    }
    if (role == "storage") {
      nk::StorageServer::Options options;
      options.storage_class = static_cast<nk::StorageClassId>(
          std::stoul(FlagOr(flags, "class", "0")));
      options.num_blocks =
          static_cast<std::uint32_t>(std::stoul(FlagOr(flags, "blocks", "256")));
      options.block_size = std::stoull(FlagOr(flags, "block-size", "1048576"));
      options.preferred_address = listen;
      storage = std::make_shared<nk::StorageServer>(options, metrics);
      const Status started = storage->Start(transport, metadata);
      if (!started.ok()) {
        std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
        return 1;
      }
      std::printf("storage server (class %s) at %s, registered with %s\n",
                  FlagOr(flags, "class", "0").c_str(),
                  storage->address().c_str(), metadata.c_str());
    } else {
      core::ActiveServer::Options options;
      options.num_slots =
          static_cast<std::uint32_t>(std::stoul(FlagOr(flags, "slots", "16")));
      options.preferred_address = listen;
      active = std::make_shared<core::ActiveServer>(
          options,
          std::shared_ptr<core::ActionRegistry>(
              &core::ActionRegistry::Global(), [](core::ActionRegistry*) {}),
          metrics);
      const Status started = active->Start(transport, metadata);
      if (!started.ok()) {
        std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
        return 1;
      }
      std::printf("active server (%s slots) at %s, registered with %s\n",
                  FlagOr(flags, "slots", "16").c_str(),
                  active->address().c_str(), metadata.c_str());
    }
  } else {
    return Usage();
  }

  // --health-ms N runs an in-process HealthMonitor: heartbeat every server
  // at this cadence, feed a phi-accrual failure detector, and publish the
  // verdicts as "health.phi.<address>" gauges (Prometheus: glider_health_phi)
  // plus the health board served by kHealthDump (`glider_cli health <addr>`).
  std::unique_ptr<HealthMonitor> health;
  const long health_ms = std::stol(FlagOr(flags, "health-ms", "0"));
  if (health_ms > 0) {
    HealthMonitor::Options hopts;
    hopts.interval = std::chrono::milliseconds(health_ms);
    // A metadata daemon discovers through itself; other roles through the
    // metadata server they registered with.
    const std::string hub =
        role == "metadata" ? listener->address() : metadata;
    health = std::make_unique<HealthMonitor>(&transport, hub, hopts);
    const Status started = health->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "health: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("health monitor heartbeating every %ld ms via %s\n",
                health_ms, hub.c_str());
  }

  std::printf("running; Ctrl-C to stop\n");
  // Scripts poll the log for the bound addresses; don't sit on them in the
  // stdio buffer while blocked below.
  std::fflush(stdout);
  g_stop.acquire();
  std::printf("shutting down\n");
  // The listeners hold shared_ptrs back to the services; stop explicitly
  // so worker/method threads are joined before process teardown. The health
  // monitor goes first — it holds connections into the transport.
  if (health) health->Stop();
  if (storage) storage->Stop();
  if (active) active->Stop();
  listener.reset();
  return 0;
}
