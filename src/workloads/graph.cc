#include "workloads/graph.h"

#include <algorithm>
#include <thread>

#include "common/attribution.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "common/trace_assemble.h"
#include "net/tcp_transport.h"
#include "workloads/stats.h"

namespace glider::workloads {

Status WorkloadNode::RunRequest(GraphContext&, nk::StoreClient&,
                                std::uint64_t) {
  return Status::Unimplemented("node '" + name_ + "' (type " + type_ +
                               ") does not support open-loop requests");
}

// ---------------------------------------------------------------------------
// RemoteClusterHandle

Result<std::unique_ptr<RemoteClusterHandle>> RemoteClusterHandle::Connect(
    const std::string& metadata_csv) {
  auto handle = std::unique_ptr<RemoteClusterHandle>(new RemoteClusterHandle());
  handle->partitions_ = SplitCsv(metadata_csv);
  if (handle->partitions_.empty()) {
    return Status::InvalidArgument("no metadata address given");
  }
  handle->transport_ = std::make_unique<net::TcpTransport>(8);
  // Probe the first partition so a bad address fails at connect time, not
  // in the middle of a stage.
  GLIDER_ASSIGN_OR_RETURN(auto probe, handle->NewInternalClient());
  (void)probe;
  return handle;
}

RemoteClusterHandle::~RemoteClusterHandle() = default;

Result<std::unique_ptr<nk::StoreClient>> RemoteClusterHandle::NewFaasClient() {
  // Link shaping is a MiniCluster simulation feature; against a live
  // cluster the physical network is the link.
  return NewInternalClient();
}

Result<std::unique_ptr<nk::StoreClient>>
RemoteClusterHandle::NewInternalClient() {
  nk::StoreClient::Options copts;
  copts.transport = transport_.get();
  copts.metadata_address = partitions_.front();
  if (partitions_.size() > 1) copts.metadata_partitions = partitions_;
  return nk::StoreClient::Connect(std::move(copts));
}

// ---------------------------------------------------------------------------
// NodeRegistry

NodeRegistry& NodeRegistry::Global() {
  static NodeRegistry* registry = new NodeRegistry();
  return *registry;
}

void NodeRegistry::Register(const std::string& type, NodeFactory factory) {
  std::scoped_lock lock(mu_);
  factories_[type] = std::move(factory);
}

Result<std::unique_ptr<WorkloadNode>> NodeRegistry::Build(
    const SpecSection& section) const {
  GLIDER_ASSIGN_OR_RETURN(auto type, section.GetString("type"));
  NodeFactory factory;
  {
    std::scoped_lock lock(mu_);
    auto it = factories_.find(type);
    if (it == factories_.end()) {
      std::string known;
      for (const auto& [name, f] : factories_) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      return Status::InvalidArgument(
          section.Describe() + ": unknown node type '" + type +
          "' (registered: " + known + ")");
    }
    factory = it->second;
  }
  GLIDER_ASSIGN_OR_RETURN(auto node, factory(section));
  // Misspelled keys are configuration bugs, not extensions: reject them.
  const auto unread = section.UnreadKeys();
  if (!unread.empty()) {
    std::string keys;
    for (const auto& key : unread) {
      if (!keys.empty()) keys += ", ";
      keys += "'" + key + "'";
    }
    return Status::InvalidArgument(section.Describe() + ": unknown key(s) " +
                                   keys + " for node type '" + type + "'");
  }
  return node;
}

std::vector<std::string> NodeRegistry::Types() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> types;
  for (const auto& [name, factory] : factories_) types.push_back(name);
  return types;
}

// ---------------------------------------------------------------------------
// BuildGraph

namespace {

Result<testing::ClusterOptions> ClusterOptionsFromSpec(
    const SpecSection& section) {
  testing::ClusterOptions o;
  GLIDER_ASSIGN_OR_RETURN(auto use_tcp, section.GetBoolOr("use_tcp", false));
  o.use_tcp = use_tcp;
  GLIDER_ASSIGN_OR_RETURN(
      auto net_workers,
      section.GetIntOr("net_workers", static_cast<long long>(o.net_workers)));
  o.net_workers = static_cast<std::size_t>(net_workers);
  GLIDER_ASSIGN_OR_RETURN(auto metadata_servers,
                          section.GetIntOr("metadata_servers", 1));
  o.metadata_servers = static_cast<std::size_t>(metadata_servers);
  GLIDER_ASSIGN_OR_RETURN(auto data_servers,
                          section.GetIntOr("data_servers", 1));
  o.data_servers = static_cast<std::size_t>(data_servers);
  GLIDER_ASSIGN_OR_RETURN(
      auto blocks, section.GetIntOr("blocks_per_server", o.blocks_per_server));
  o.blocks_per_server = static_cast<std::uint32_t>(blocks);
  GLIDER_ASSIGN_OR_RETURN(
      auto block_size,
      section.GetIntOr("block_size", static_cast<long long>(o.block_size)));
  o.block_size = static_cast<std::uint64_t>(block_size);
  GLIDER_ASSIGN_OR_RETURN(auto active_servers,
                          section.GetIntOr("active_servers", 1));
  o.active_servers = static_cast<std::size_t>(active_servers);
  GLIDER_ASSIGN_OR_RETURN(
      auto slots, section.GetIntOr("slots_per_server", o.slots_per_server));
  o.slots_per_server = static_cast<std::uint32_t>(slots);
  GLIDER_ASSIGN_OR_RETURN(
      auto channel_capacity,
      section.GetIntOr("channel_capacity",
                       static_cast<long long>(o.channel_capacity)));
  o.channel_capacity = static_cast<std::size_t>(channel_capacity);
  GLIDER_ASSIGN_OR_RETURN(auto faas_bps,
                          section.GetIntOr("faas_bandwidth_bps", 0));
  o.faas_bandwidth_bps = static_cast<std::uint64_t>(faas_bps);
  GLIDER_ASSIGN_OR_RETURN(auto faas_latency_us,
                          section.GetIntOr("faas_latency_us", 0));
  o.faas_latency = std::chrono::microseconds(faas_latency_us);
  GLIDER_ASSIGN_OR_RETURN(auto internal_bps,
                          section.GetIntOr("internal_bandwidth_bps", 0));
  o.internal_bandwidth_bps = static_cast<std::uint64_t>(internal_bps);
  GLIDER_ASSIGN_OR_RETURN(auto rdma, section.GetBoolOr("internal_rdma", false));
  o.internal_link_class = rdma ? LinkClass::kRdma : LinkClass::kInternal;
  // Stream sizes below 1 have no meaning: a zero chunk size never advances
  // a write, a zero window pops an empty in-flight queue, and a negative
  // value would wrap to a huge size.
  const auto stream_size = [&section](const char* key,
                                      std::size_t fallback)
      -> Result<std::size_t> {
    GLIDER_ASSIGN_OR_RETURN(
        auto value, section.GetIntOr(key, static_cast<long long>(fallback)));
    if (value < 1) {
      return Status::InvalidArgument(section.Describe() + ": cluster key '" +
                                     key + "' must be at least 1, not " +
                                     std::to_string(value));
    }
    return static_cast<std::size_t>(value);
  };
  GLIDER_ASSIGN_OR_RETURN(o.chunk_size,
                          stream_size("chunk_size", o.chunk_size));
  GLIDER_ASSIGN_OR_RETURN(o.inflight_window,
                          stream_size("inflight_window", o.inflight_window));
  GLIDER_ASSIGN_OR_RETURN(
      o.write_batch_chunks,
      stream_size("write_batch_chunks", o.write_batch_chunks));
  const auto unread = section.UnreadKeys();
  if (!unread.empty()) {
    return Status::InvalidArgument(section.Describe() +
                                   ": unknown cluster key '" + unread.front() +
                                   "'");
  }
  return o;
}

Result<LoadOptions> LoadOptionsFromSpec(const SpecSection& section) {
  LoadOptions load;
  GLIDER_ASSIGN_OR_RETURN(load.request_node, section.GetString("request"));
  GLIDER_ASSIGN_OR_RETURN(auto rates_csv, section.GetString("rates"));
  for (const auto& rate_text : SplitCsv(rates_csv)) {
    char* end = nullptr;
    const double rate = std::strtod(rate_text.c_str(), &end);
    if (end != rate_text.c_str() + rate_text.size() || rate <= 0) {
      return Status::InvalidArgument(section.Describe() +
                                     ": key 'rates' has a bad rate '" +
                                     rate_text + "'");
    }
    load.rates.push_back(rate);
  }
  if (load.rates.empty()) {
    return Status::InvalidArgument(section.Describe() +
                                   ": key 'rates' lists no rates");
  }
  const std::string schedule = section.GetStringOr("schedule", "poisson");
  if (schedule == "poisson") {
    load.poisson = true;
  } else if (schedule == "fixed") {
    load.poisson = false;
  } else {
    return Status::InvalidArgument(section.Describe() +
                                   ": key 'schedule' must be poisson or "
                                   "fixed, got '" +
                                   schedule + "'");
  }
  GLIDER_ASSIGN_OR_RETURN(load.duration_s,
                          section.GetDoubleOr("duration_s", load.duration_s));
  GLIDER_ASSIGN_OR_RETURN(load.warmup_s,
                          section.GetDoubleOr("warmup_s", load.warmup_s));
  GLIDER_ASSIGN_OR_RETURN(
      auto workers,
      section.GetIntOr("workers", static_cast<long long>(load.workers)));
  load.workers = static_cast<std::size_t>(workers);
  GLIDER_ASSIGN_OR_RETURN(
      auto backlog,
      section.GetIntOr("max_backlog",
                       static_cast<long long>(load.max_backlog)));
  load.max_backlog = static_cast<std::size_t>(backlog);
  GLIDER_ASSIGN_OR_RETURN(
      auto seed, section.GetIntOr("seed", static_cast<long long>(load.seed)));
  load.seed = static_cast<std::uint64_t>(seed);
  // Optional tenant mix: each worker drives requests as one of these
  // principals (round-robin by worker index).
  const std::string principals_csv = section.GetStringOr("principals", "");
  if (!principals_csv.empty()) {
    load.principals = SplitCsv(principals_csv);
  }
  const auto unread = section.UnreadKeys();
  if (!unread.empty()) {
    return Status::InvalidArgument(section.Describe() +
                                   ": unknown load key '" + unread.front() +
                                   "'");
  }
  return load;
}

}  // namespace

Result<Graph> BuildGraph(const Spec& spec) {
  RegisterBuiltinNodes();
  Graph graph;
  graph.name = spec.Name();
  (void)spec.globals.GetStringOr("name", "");
  (void)spec.globals.GetStringOr("bench", "");
  const auto unread_globals = spec.globals.UnreadKeys();
  if (!unread_globals.empty()) {
    return Status::InvalidArgument(spec.origin + ": unknown global key '" +
                                   unread_globals.front() +
                                   "' (globals are: name, bench)");
  }

  if (const SpecSection* cluster = spec.Find("cluster")) {
    GLIDER_ASSIGN_OR_RETURN(graph.cluster_options,
                            ClusterOptionsFromSpec(*cluster));
  }

  for (const SpecSection* section : spec.FindAll("node")) {
    GLIDER_ASSIGN_OR_RETURN(auto node, NodeRegistry::Global().Build(*section));
    graph.nodes.push_back(std::move(node));
  }
  if (graph.nodes.empty()) {
    return Status::InvalidArgument(spec.origin +
                                   ": spec defines no [node] sections");
  }

  if (const SpecSection* load = spec.Find("load")) {
    GLIDER_ASSIGN_OR_RETURN(auto options, LoadOptionsFromSpec(*load));
    const auto it = std::find_if(
        graph.nodes.begin(), graph.nodes.end(),
        [&](const auto& n) { return n->name() == options.request_node; });
    if (it == graph.nodes.end()) {
      return Status::InvalidArgument(load->Describe() +
                                     ": request node '" +
                                     options.request_node +
                                     "' is not defined in this spec");
    }
    graph.load = std::move(options);
  }

  if (const SpecSection* check = spec.Find("check")) {
    GLIDER_ASSIGN_OR_RETURN(auto equal_csv, check->GetString("equal"));
    graph.check_equal = SplitCsv(equal_csv);
    const auto unread = check->UnreadKeys();
    if (!unread.empty()) {
      return Status::InvalidArgument(check->Describe() +
                                     ": unknown check key '" +
                                     unread.front() + "'");
    }
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Runners

Status RunFaasStage(
    GraphContext& ctx, std::size_t workers, bool internal_client,
    const std::function<Status(std::size_t, nk::StoreClient&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(workers);
  std::mutex status_mu;
  Status first_error;
  const bool acct = obs::Enabled();
  obs::Counter* invocations =
      acct ? &obs::MetricsRegistry::Global().GetCounter("faas.invocations")
           : nullptr;
  obs::Counter* failures =
      acct ? &obs::MetricsRegistry::Global().GetCounter("faas.failures")
           : nullptr;
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&, i] {
      obs::Span invoke_span =
          obs::Span::Root("faas", "faas.invoke.w" + std::to_string(i));
      if (acct) invocations->Increment();
      auto client = internal_client ? ctx.cluster->NewInternalClient()
                                    : ctx.cluster->NewFaasClient();
      Status status = client.ok() ? body(i, **client) : client.status();
      if (!status.ok()) {
        if (acct) failures->Increment();
        GLIDER_LOG(kWarn, "graph")
            << "stage worker " << i << " failed: " << status.ToString();
        std::scoped_lock lock(status_mu);
        if (first_error.ok()) first_error = std::move(status);
      }
    });
  }
  for (auto& t : threads) t.join();
  return first_error;
}

namespace {

// Runs one node with a metrics delta captured around it.
Status RunNode(WorkloadNode& node, GraphContext& ctx) {
  const auto metrics = ctx.cluster->metrics();
  MetricsSnapshot before;
  if (metrics) before = MetricsSnapshot::Take(*metrics);
  Stopwatch timer;
  GLIDER_RETURN_IF_ERROR(node.Run(ctx));
  node.stats().seconds = timer.Seconds();
  if (metrics) {
    const auto delta = MetricsSnapshot::Take(*metrics).Since(before);
    node.stats().faas_bytes = delta.faas_bytes;
    node.stats().accesses = delta.accesses;
    node.stats().peak_stored = delta.peak_stored;
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetHistogram("graph." + node.name() + ".run_us")
        .Record(static_cast<std::uint64_t>(node.stats().seconds * 1e6));
  }
  return Status::Ok();
}

void Accumulate(const WorkloadNode& node, ClusterHandle& cluster,
                GraphReport& report) {
  if (!node.measured()) return;
  report.measured_seconds += node.stats().seconds;
  report.faas_bytes += node.stats().faas_bytes;
  report.accesses += node.stats().accesses;
  report.peak_stored = std::max(report.peak_stored, node.stats().peak_stored);
  report.action_state_bytes =
      std::max(report.action_state_bytes, cluster.ActionStateBytes());
}

}  // namespace

Result<GraphReport> RunGraph(Graph& graph, ClusterHandle& cluster) {
  GraphContext ctx;
  ctx.cluster = &cluster;
  GraphReport report;
  for (auto& node : graph.nodes) {
    GLIDER_RETURN_IF_ERROR(RunNode(*node, ctx));
    Accumulate(*node, cluster, report);
  }
  report.exports = ctx.Snapshot();
  return report;
}

Result<LoadCurve> RunLoadSweep(Graph& graph, ClusterHandle& cluster) {
  if (!graph.load) {
    return Status::InvalidArgument("graph '" + graph.name +
                                   "' has no [load] section");
  }
  const LoadOptions& load = *graph.load;
  GraphContext ctx;
  ctx.cluster = &cluster;

  WorkloadNode* request_node = nullptr;
  // Setup: every node before the request node, in order.
  std::size_t request_index = 0;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    if (graph.nodes[i]->name() == load.request_node) {
      request_node = graph.nodes[i].get();
      request_index = i;
      break;
    }
    GLIDER_RETURN_IF_ERROR(RunNode(*graph.nodes[i], ctx));
  }
  if (request_node == nullptr) {
    return Status::InvalidArgument("request node '" + load.request_node +
                                   "' not found");
  }
  // The request node's own Run() is setup too (it deploys whatever its
  // RunRequest targets).
  GLIDER_RETURN_IF_ERROR(RunNode(*request_node, ctx));

  // One client per executor thread, minted up front: connection setup must
  // not pollute request latencies.
  std::vector<std::unique_ptr<nk::StoreClient>> clients;
  clients.reserve(load.workers);
  for (std::size_t w = 0; w < load.workers; ++w) {
    GLIDER_ASSIGN_OR_RETURN(auto client, cluster.NewFaasClient());
    clients.push_back(std::move(client));
  }

  obs::LatencyHistogram* hist =
      obs::Enabled() ? &obs::MetricsRegistry::Global().GetHistogram(
                           "load." + request_node->name() + ".latency_us")
                     : nullptr;

  // With tracing on, each rate's recorded arrivals root traces that are
  // assembled in-process right after the rate finishes (single node, so no
  // clock alignment needed) into per-component latency percentiles.
  const bool traced = obs::Enabled();
  const std::string trace_root = "load." + request_node->name();

  // Tenant mix: workers round-robin over the spec's principals, so every
  // request (and everything it triggers server-side) bills to one tenant.
  std::vector<obs::PrincipalId> principals;
  for (const auto& name : load.principals) {
    principals.push_back(obs::PrincipalFromName(name));
  }

  LoadCurve curve;
  for (const double rate : load.rates) {
    OpenLoopOptions options;
    options.rate_per_s = rate;
    options.poisson = load.poisson;
    options.duration_s = load.duration_s;
    options.warmup_s = load.warmup_s;
    options.workers = load.workers;
    options.max_backlog = load.max_backlog;
    options.seed = load.seed;
    if (traced) {
      options.trace_root = trace_root;
      // Fresh buffer per rate so the breakdown reflects this rate only
      // (the ring would otherwise mix rates, or overflow and drop).
      obs::TraceRecorder::Global().Clear();
    }
    GLIDER_ASSIGN_OR_RETURN(
        auto result,
        RunOpenLoop(options, [&](std::size_t worker, std::uint64_t id) {
          obs::PrincipalScope principal_scope(
              principals.empty() ? obs::CurrentPrincipal()
                                 : principals[worker % principals.size()]);
          Stopwatch request_timer;
          const Status status =
              request_node->RunRequest(ctx, *clients[worker], id);
          if (hist != nullptr) {
            hist->Record(
                static_cast<std::uint64_t>(request_timer.Seconds() * 1e6));
          }
          return status;
        }));
    request_node->stats().ops += result.completed;
    LoadCurvePoint point;
    point.rate = rate;
    point.result = result;
    if (traced) {
      obs::TraceAssembler assembler;
      assembler.AddSpans("local", obs::TraceRecorder::Global().Snapshot(),
                         /*offset_us=*/0);
      static constexpr const char* kBuckets[] = {"client", "net",   "server",
                                                 "queue",  "run",   "channel"};
      std::map<std::string, std::vector<std::uint64_t>> samples;
      for (const auto& trace : assembler.Assemble()) {
        // Only this sweep's roots: the recorder may also hold spans from
        // stray background work that never parented under an arrival.
        if (trace.spans[trace.root].span.name != trace_root) continue;
        for (const char* bucket : kBuckets) {
          const auto it = trace.bucket_us.find(bucket);
          samples[bucket].push_back(it == trace.bucket_us.end() ? 0
                                                                : it->second);
        }
      }
      for (auto& [bucket, values] : samples) {
        if (values.empty()) continue;
        point.breakdown[bucket + "_us_p50"] = obs::PercentileUs(values, 50);
        point.breakdown[bucket + "_us_p99"] = obs::PercentileUs(values, 99);
      }
    }
    curve.points.push_back(std::move(point));
  }

  // Teardown: the nodes after the request node.
  for (std::size_t i = request_index + 1; i < graph.nodes.size(); ++i) {
    GLIDER_RETURN_IF_ERROR(RunNode(*graph.nodes[i], ctx));
  }
  curve.exports = ctx.Snapshot();
  return curve;
}

}  // namespace glider::workloads
