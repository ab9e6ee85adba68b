// glider_cli: a small command-line client for a running Glider deployment
// (see tools/glider_daemon.cpp).
//
//   glider_cli --metadata host:port <command> [args]
//
// Commands:
//   mkdir <path>                     create a directory
//   put <path>                       create/overwrite a file from stdin
//   get <path>                       print a file to stdout
//   ls <path>                        list a container
//   rm <path>                        delete a node
//   stat <path>                      show node metadata
//   action-create <path> <type> [interleave]   instantiate an action
//   action-write <path>              stream stdin into an action
//   action-read <path>               stream an action's onRead to stdout
//   action-rm <path>                 delete an action (object + node)
//   stats <address>                  print a server's metrics as JSON
//   trace-dump <address> [clear]     print a server's Chrome trace JSON
//                                    (load in Perfetto / chrome://tracing)
//   slow-traces <address> [clear]    print a server's retained slow traces
//   series <address>                 print a server's time-series rings
//   cluster-stats                    poll every server via the metadata
//                                    server and print merged metrics
//   health [address]                 no address: poll every server and print
//                                    a per-node health/load table; with an
//                                    address: print that server's health
//                                    board JSON (daemon --health-ms)
//   events <address> [clear]         print a server's structured event
//                                    journal as JSON
//   ledger [--by principal|action|key] [--clear]
//                                    poll every server's node snapshot via
//                                    the metadata server, merge the ledgers
//                                    exactly, and print attribution tables
//                                    (per tenant, per operation, or the
//                                    hot-key sketch)
//   profile <address> [--seconds N] [--hz H] [--folded out.txt]
//                                    sample the server for N seconds (default
//                                    2) and print/write collapsed stacks —
//                                    pipe through flamegraph.pl for an SVG
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/prometheus.h"
#include "common/trace.h"
#include "glider/client/action_node.h"
#include "glider/cluster_monitor.h"
#include "net/rpc_client.h"
#include "net/rpc_obs.h"
#include "net/tcp_transport.h"
#include "nodekernel/client/store_client.h"
#include "workloads/actions.h"

using namespace glider;  // NOLINT

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string ReadStdin() {
  std::string data;
  char buffer[64 * 1024];
  while (std::cin.read(buffer, sizeof(buffer)) || std::cin.gcount() > 0) {
    data.append(buffer, static_cast<std::size_t>(std::cin.gcount()));
  }
  return data;
}

int Usage(const std::string& unknown = "") {
  if (!unknown.empty()) {
    std::fprintf(stderr, "glider_cli: unknown command '%s'\n\n",
                 unknown.c_str());
  }
  std::fprintf(
      stderr,
      "usage: glider_cli --metadata host:port <command> [args]\n"
      "\n"
      "filesystem commands (<path> is a Glider path):\n"
      "  mkdir <path>                    create a directory\n"
      "  put <path>                      create/overwrite a file from stdin\n"
      "  get <path>                      print a file to stdout\n"
      "  ls <path>                       list a container\n"
      "  rm <path>                       delete a node\n"
      "  stat <path>                     show node metadata\n"
      "\n"
      "action commands:\n"
      "  action-create <path> <type> [interleave]   instantiate an action\n"
      "  action-write <path>             stream stdin into an action\n"
      "  action-read <path>              stream an action's onRead to stdout\n"
      "  action-rm <path>                delete an action (object + node)\n"
      "\n"
      "observability commands (<address> is a server's host:port):\n"
      "  stats <address>                 print a server's metrics as JSON\n"
      "  trace-dump <address> [clear]    print a server's Chrome trace JSON\n"
      "  slow-traces <address> [clear]   print a server's retained slow "
      "traces\n"
      "  series <address>                print a server's time-series rings\n"
      "  events <address> [clear]        print a server's event journal\n"
      "  cluster-stats                   poll every server and print merged "
      "metrics\n"
      "  health [address]                per-node health/load table, or one\n"
      "                                  server's health board JSON\n"
      "  ledger [--by principal|action|key] [--clear]\n"
      "                                  cluster-merged resource attribution:\n"
      "                                  per-tenant ledger totals (principal),\n"
      "                                  per-operation totals (action), or "
      "the\n"
      "                                  heavy-hitter key sketch (key).\n"
      "                                  --clear resets ledgers after "
      "dumping\n"
      "  profile <address> [--seconds N] [--hz H] [--folded out.txt]\n"
      "                                  sample the server and print "
      "collapsed\n"
      "                                  stacks (flamegraph.pl input)\n");
  return 2;
}

Result<std::shared_ptr<net::Connection>> ConnectControl(
    net::TcpTransport& transport, const std::string& address) {
  return transport.Connect(
      address, net::LinkModel::Unshaped(LinkClass::kControl, nullptr));
}

// Sends a management request directly to the server at `address` and
// prints the JSON payload it returns.
template <typename Req>
int DumpFromServer(net::TcpTransport& transport, const std::string& address,
                   std::uint16_t opcode, const Req& request) {
  auto conn = ConnectControl(transport, address);
  if (!conn.ok()) return Fail(conn.status());
  auto result = net::Call<Buffer>(**conn, opcode, request);
  if (!result.ok()) return Fail(result.status());
  std::fwrite(result->data(), 1, result->size(), stdout);
  std::printf("\n");
  return 0;
}

Result<net::NodeSnapshot> FetchSnapshot(net::TcpTransport& transport,
                                        const std::string& address) {
  GLIDER_ASSIGN_OR_RETURN(auto conn, ConnectControl(transport, address));
  return net::Call<net::NodeSnapshot>(*conn, net::kNodeSnapshot,
                                      net::DumpRequest{});
}

// Prints one server's registry as JSON, rendered here from its snapshot.
int PrintStats(net::TcpTransport& transport, const std::string& address) {
  auto snapshot = FetchSnapshot(transport, address);
  if (!snapshot.ok()) return Fail(snapshot.status());
  std::printf("%s\n", obs::SnapshotJson(snapshot->metrics).c_str());
  return 0;
}

// Prints each of one server's time-series rings as its latest window:
// `<name> n=<samples> last=<value>`.
int PrintSeries(net::TcpTransport& transport, const std::string& address) {
  auto snapshot = FetchSnapshot(transport, address);
  if (!snapshot.ok()) return Fail(snapshot.status());
  if (snapshot->sampler_interval_ms == 0) {
    std::printf("# sampler not running (start the daemon with --sample-ms)\n");
  } else {
    std::printf("# sampler interval: %" PRIu64 " ms\n",
                snapshot->sampler_interval_ms);
  }
  for (const auto& series : snapshot->series) {
    const double last =
        series.samples.empty() ? 0.0 : series.samples.back().value;
    std::printf("%-48s n=%-4zu last=%.2f\n", series.name.c_str(),
                series.samples.size(), last);
  }
  return 0;
}

// Profiles the server at `address` for `seconds`: starts its sampling
// profiler (unless one is already running — then we only observe), waits,
// and dumps collapsed stacks. Stops/clears only the session we started, so
// concurrent operators don't tear down each other's windows.
int Profile(net::TcpTransport& transport, const std::string& address,
            int seconds, std::uint32_t hz, const std::string& folded_path) {
  auto conn = ConnectControl(transport, address);
  if (!conn.ok()) return Fail(conn.status());
  auto profile = [&](net::ProfileCmd cmd) {
    return net::Call<Buffer>(**conn, net::kProfileDump,
                             net::ProfileRequest{cmd, hz});
  };

  auto started = profile(net::ProfileCmd::kStart);
  if (!started.ok()) return Fail(started.status());
  const bool we_started = started->size() >= 1 && started->data()[0] == 1;
  if (!we_started) {
    std::fprintf(stderr,
                 "profiler already running on %s; dumping its window\n",
                 address.c_str());
  }

  std::this_thread::sleep_for(std::chrono::seconds(seconds));

  if (we_started) {
    auto stopped = profile(net::ProfileCmd::kStop);
    if (!stopped.ok()) return Fail(stopped.status());
  }

  auto dump = profile(we_started ? net::ProfileCmd::kDumpClear
                                 : net::ProfileCmd::kDump);
  if (!dump.ok()) return Fail(dump.status());

  if (!folded_path.empty()) {
    std::ofstream out(folded_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", folded_path.c_str());
      return 1;
    }
    out.write(reinterpret_cast<const char*>(dump->data()),
              static_cast<std::streamsize>(dump->size()));
    std::fprintf(stderr, "wrote %zu bytes of folded stacks to %s\n",
                 dump->size(), folded_path.c_str());
  } else {
    std::fwrite(dump->data(), 1, dump->size(), stdout);
  }
  return 0;
}

// Polls every server via the metadata server and prints the merged view.
int ClusterStats(net::TcpTransport& transport, const std::string& metadata) {
  ClusterMonitor monitor(&transport, metadata,
                         net::LinkModel::Unshaped(LinkClass::kControl,
                                                  nullptr));
  auto sample = monitor.Poll();
  if (!sample.ok()) return Fail(sample.status());
  std::printf("servers:\n");
  for (const auto& server : sample->servers) {
    if (server.status.ok()) {
      std::printf("  %-21s %-8s counters=%zu histograms=%zu\n",
                  server.server.address.c_str(),
                  server.is_metadata ? "metadata" : "storage",
                  server.snapshot.metrics.counters.size(),
                  server.snapshot.metrics.histograms.size());
    } else {
      std::printf("  %-21s %-8s [%s]\n", server.server.address.c_str(),
                  server.is_metadata ? "metadata" : "storage",
                  server.status.ToString().c_str());
    }
  }
  const obs::MetricsSnapshot& merged = sample->merged.metrics;
  std::printf("merged counters:\n");
  for (const auto& [name, value] : merged.counters) {
    std::printf("  %-48s %" PRIu64 "\n", name.c_str(), value);
  }
  std::printf("merged gauges:\n");
  for (const auto& [name, value] : merged.gauges) {
    std::printf("  %-48s %" PRId64 "\n", name.c_str(), value);
  }
  std::printf("merged histograms (count / p50 / p99):\n");
  for (const auto& [name, hist] : merged.histograms) {
    std::printf("  %-48s %" PRIu64 " / %" PRIu64 " / %" PRIu64 "\n",
                name.c_str(), hist.count, hist.Percentile(50),
                hist.Percentile(99));
  }
  return 0;
}

// Polls every server via the metadata server and prints one attribution
// table from the merged snapshot (ledger cells sum per (principal, op);
// sketches merge under the space-saving rule). `by` selects the grouping:
// "principal" (per-tenant totals plus a per-op breakdown), "action"
// (per-op totals across tenants), "key" (the hot-key sketch).
int Ledger(net::TcpTransport& transport, const std::string& metadata,
           const std::string& by, bool clear) {
  ClusterMonitor monitor(&transport, metadata,
                         net::LinkModel::Unshaped(LinkClass::kControl,
                                                  nullptr));
  auto sample = monitor.Poll(clear);
  if (!sample.ok()) return Fail(sample.status());
  const net::NodeSnapshot& merged = sample->merged;

  if (by == "key") {
    const net::NodeSnapshot::Sketch* keys = nullptr;
    for (const auto& sketch : merged.sketches) {
      if (sketch.name == "keys") keys = &sketch;
    }
    if (keys == nullptr || keys->entries.empty()) {
      std::printf("# no keys observed (is observability on?)\n");
      return 0;
    }
    std::printf("# heavy-hitter keys, %" PRIu64
                " lookups observed (count <= true + error)\n",
                keys->total);
    std::printf("%-48s %12s %10s\n", "KEY", "COUNT", "ERROR");
    for (const auto& entry : keys->entries) {
      std::printf("%-48s %12" PRIu64 " %10" PRIu64 "\n", entry.key.c_str(),
                  entry.count, entry.error);
    }
    return 0;
  }

  if (merged.ledger.empty()) {
    std::printf("# ledger empty (is observability on?)\n");
    return 0;
  }

  if (by == "action") {
    std::map<std::string, obs::LedgerCell> per_op;
    for (const auto& entry : merged.ledger) {
      per_op[entry.op].Merge(entry.cell);
    }
    std::printf("%-28s %12s %12s %12s %12s %10s\n", "OP", "CPU_US",
                "QUEUE_US", "BYTES_IN", "BYTES_OUT", "CALLS");
    for (const auto& [op, cell] : per_op) {
      std::printf("%-28s %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                  " %12" PRIu64 " %10" PRIu64 "\n",
                  op.c_str(), cell.cpu_us, cell.queue_us, cell.bytes_in,
                  cell.bytes_out, cell.invocations);
    }
    return 0;
  }

  // Default: per-principal totals, then the (principal, op) breakdown.
  std::printf("%-12s %12s %12s %12s %12s %10s\n", "PRINCIPAL", "CPU_US",
              "QUEUE_US", "BYTES_IN", "BYTES_OUT", "CALLS");
  for (const auto& [principal, cell] : obs::PerPrincipal(merged.ledger)) {
    std::printf("%-12s %12" PRIu64 " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                " %10" PRIu64 "\n",
                obs::PrincipalName(principal).c_str(), cell.cpu_us,
                cell.queue_us, cell.bytes_in, cell.bytes_out,
                cell.invocations);
  }
  std::printf("\n%-12s %-28s %12s %12s %12s %12s %10s\n", "PRINCIPAL", "OP",
              "CPU_US", "QUEUE_US", "BYTES_IN", "BYTES_OUT", "CALLS");
  for (const auto& entry : merged.ledger) {
    std::printf("%-12s %-28s %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                " %12" PRIu64 " %10" PRIu64 "\n",
                obs::PrincipalName(entry.principal).c_str(), entry.op.c_str(),
                entry.cell.cpu_us, entry.cell.queue_us, entry.cell.bytes_in,
                entry.cell.bytes_out, entry.cell.invocations);
  }
  return 0;
}

// Heartbeats every server a few times via the metadata server (so the
// failure detector accumulates heartbeat intervals) and prints a per-node
// health / load table. With `address` non-empty, instead dumps that
// server's own health board JSON (populated when the daemon runs with
// --health-ms).
int Health(net::TcpTransport& transport, const std::string& metadata,
           const std::string& address) {
  if (!address.empty()) {
    return DumpFromServer(transport, address, net::kHealthDump,
                          net::EmptyRequest{});
  }
  ClusterMonitor monitor(&transport, metadata,
                         net::LinkModel::Unshaped(LinkClass::kControl,
                                                  nullptr));
  Result<ClusterMonitor::ClusterSample> sample = Status::Unavailable("no round");
  constexpr int kRounds = 3;
  for (int i = 0; i < kRounds; ++i) {
    sample = monitor.Heartbeat();
    if (!sample.ok()) return Fail(sample.status());
    if (i + 1 < kRounds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }
  if (sample->stale_discovery) {
    std::printf("# metadata unreachable; using last known server list\n");
  }
  std::printf("%-21s %-8s %-12s %8s %8s %8s\n", "ADDRESS", "ROLE", "HEALTH",
              "PHI", "LOAD", "HOT");
  for (const auto& server : sample->servers) {
    const char* role = server.is_metadata ? "metadata"
                       : server.server.storage_class == nk::kActiveClass
                           ? "active"
                           : "storage";
    std::string state(obs::PeerStateName(server.health));
    if (!server.status.ok() && server.health == obs::PeerState::kUnknown) {
      state = "unreachable";
    }
    char hot[16];
    if (server.hotspot_slots >= 0) {
      std::snprintf(hot, sizeof(hot), "%lld",
                    static_cast<long long>(server.hotspot_slots));
    } else {
      std::snprintf(hot, sizeof(hot), "-");
    }
    std::printf("%-21s %-8s %-12s %8.2f %8.2f %8s\n",
                server.server.address.c_str(), role, state.c_str(),
                server.phi, server.load_index, hot);
    if (!server.status.ok()) {
      std::printf("  [%s]\n", server.status.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  workloads::RegisterWorkloadActions();
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string metadata;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--metadata") {
      metadata = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  if (metadata.empty() || args.empty()) return Usage();
  const std::string command = args[0];

  net::TcpTransport transport(4);
  // cluster-stats needs only the metadata address; everything else takes a
  // <path|address> argument.
  if (command == "cluster-stats") return ClusterStats(transport, metadata);
  // `health` takes an optional address: without one it polls the cluster.
  if (command == "health") {
    return Health(transport, metadata, args.size() > 1 ? args[1] : "");
  }
  // `ledger` polls the cluster via the metadata server; no address needed.
  if (command == "ledger") {
    std::string by = "principal";
    bool clear = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--by" && i + 1 < args.size()) {
        by = args[++i];
      } else if (args[i] == "--clear") {
        clear = true;
      } else {
        return Usage();
      }
    }
    if (by != "principal" && by != "action" && by != "key") {
      std::fprintf(stderr,
                   "glider_cli: ledger --by takes principal|action|key "
                   "(got '%s')\n",
                   by.c_str());
      return 2;
    }
    return Ledger(transport, metadata, by, clear);
  }
  // Reject unknown verbs by name before complaining about a missing
  // <path|address> argument, so `glider_cli frobnicate` says which verb
  // it did not recognize.
  static const char* kVerbs[] = {
      "stats",  "trace-dump",    "slow-traces",  "series",
      "events", "profile",       "mkdir",        "put",
      "get",    "ls",            "rm",           "stat",
      "action-create", "action-write", "action-read", "action-rm"};
  bool known = false;
  for (const char* verb : kVerbs) known = known || command == verb;
  if (!known) return Usage(command);
  if (args.size() < 2) return Usage();
  const std::string path = args[1];

  // Observability verbs talk to one server directly (the <path> argument is
  // its host:port), no store client needed.
  const net::DumpRequest dump{args.size() > 2 && args[2] == "clear"};
  if (command == "stats") return PrintStats(transport, path);
  if (command == "trace-dump") {
    return DumpFromServer(transport, path, net::kTraceDump, dump);
  }
  if (command == "slow-traces") {
    return DumpFromServer(transport, path, net::kSlowTraceDump, dump);
  }
  if (command == "series") return PrintSeries(transport, path);
  if (command == "events") {
    return DumpFromServer(transport, path, net::kEventDump, dump);
  }
  if (command == "profile") {
    int seconds = 2;
    std::uint32_t hz = 0;  // 0 = server default (99)
    std::string folded_path;
    for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
      if (args[i] == "--seconds") {
        seconds = std::stoi(args[i + 1]);
      } else if (args[i] == "--hz") {
        hz = static_cast<std::uint32_t>(std::stoul(args[i + 1]));
      } else if (args[i] == "--folded") {
        folded_path = args[i + 1];
      } else {
        return Usage();
      }
    }
    return Profile(transport, path, seconds, hz, folded_path);
  }

  // With GLIDER_TRACE=1 every other command becomes a trace root, so the
  // servers' trace-dump shows its RPCs; inert otherwise.
  obs::Span root_span = obs::Span::Root("cli", "cli." + command);
  nk::StoreClient::Options options;
  options.transport = &transport;
  options.metadata_address = metadata;
  auto client_or = nk::StoreClient::Connect(std::move(options));
  if (!client_or.ok()) return Fail(client_or.status());
  auto& client = **client_or;

  if (command == "mkdir") {
    auto created = client.CreateNode(path, nk::NodeType::kDirectory);
    if (!created.ok()) return Fail(created.status());
  } else if (command == "put") {
    auto created = client.CreateNode(path, nk::NodeType::kFile);
    if (!created.ok() &&
        created.status().code() != StatusCode::kAlreadyExists) {
      return Fail(created.status());
    }
    auto writer = nk::FileWriter::Open(client, path);
    if (!writer.ok()) return Fail(writer.status());
    const std::string data = ReadStdin();
    if (auto s = (*writer)->Write(data); !s.ok()) return Fail(s);
    if (auto s = (*writer)->Close(); !s.ok()) return Fail(s);
    std::fprintf(stderr, "wrote %zu bytes\n", data.size());
  } else if (command == "get") {
    auto reader = nk::FileReader::Open(client, path);
    if (!reader.ok()) return Fail(reader.status());
    while (true) {
      auto chunk = (*reader)->ReadChunk();
      if (!chunk.ok()) return Fail(chunk.status());
      if (chunk->empty()) break;
      std::fwrite(chunk->data(), 1, chunk->size(), stdout);
    }
  } else if (command == "ls") {
    auto listing = client.List(path);
    if (!listing.ok()) return Fail(listing.status());
    for (const auto& entry : listing->entries) {
      std::printf("%-10s %s\n",
                  std::string(nk::NodeTypeName(entry.type)).c_str(),
                  entry.name.c_str());
    }
  } else if (command == "rm") {
    auto removed = client.Delete(path);
    if (!removed.ok()) return Fail(removed.status());
  } else if (command == "stat") {
    auto info = client.Lookup(path);
    if (!info.ok()) return Fail(info.status());
    std::printf("id: %llu\ntype: %s\nsize: %llu\nclass: %u\n",
                static_cast<unsigned long long>(info->id),
                std::string(nk::NodeTypeName(info->type)).c_str(),
                static_cast<unsigned long long>(info->size),
                info->storage_class);
    if (info->type == nk::NodeType::kAction) {
      std::printf("action: %s\ninterleave: %s\nslot: %s#%u\n",
                  info->action_type.c_str(),
                  info->interleave ? "yes" : "no",
                  info->slot.address.c_str(), info->slot.block);
    }
  } else if (command == "action-create") {
    if (args.size() < 3) return Usage();
    const bool interleave = args.size() > 3 && args[3] == "interleave";
    auto node = core::ActionNode::Create(client, path, args[2], interleave);
    if (!node.ok()) return Fail(node.status());
  } else if (command == "action-write") {
    auto node = core::ActionNode::Lookup(client, path);
    if (!node.ok()) return Fail(node.status());
    auto writer = node->OpenWriter();
    if (!writer.ok()) return Fail(writer.status());
    if (auto s = (*writer)->Write(ReadStdin()); !s.ok()) return Fail(s);
    if (auto s = (*writer)->Close(); !s.ok()) return Fail(s);
  } else if (command == "action-read") {
    auto node = core::ActionNode::Lookup(client, path);
    if (!node.ok()) return Fail(node.status());
    auto reader = node->OpenReader();
    if (!reader.ok()) return Fail(reader.status());
    while (true) {
      auto chunk = (*reader)->ReadChunk();
      if (!chunk.ok()) return Fail(chunk.status());
      if (chunk->empty()) break;
      std::fwrite(chunk->data(), 1, chunk->size(), stdout);
    }
    if (auto s = (*reader)->Close(); !s.ok()) return Fail(s);
  } else if (command == "action-rm") {
    if (auto s = core::ActionNode::Delete(client, path); !s.ok()) {
      return Fail(s);
    }
  } else {
    return Usage(command);
  }
  return 0;
}
