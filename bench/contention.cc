// Server-concurrency contention microbenchmark (BENCH_contention.json).
//
// N client threads each run a closed loop of one metadata lookup plus one
// stream write to their own action against a single metadata server and a
// single active server over the unshaped in-process transport. With
// coarse per-server locks every request serializes behind one mutex per
// process; with the shared_mutex read path (metadata) and the striped
// stream table + per-slot locking (active server) the aggregate rate
// should scale with the thread count.
//
// Writes carry kWriteBatchChunks small chunks per kStreamWrite frame
// (write_batch_chunks), so the per-op framing, channel lock and consumer
// wakeup are paid once per frame — the hot-path amortization this bench
// gates in CI.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "glider/client/action_node.h"
#include "workloads/actions.h"

using namespace glider;         // NOLINT
using namespace glider::bench;  // NOLINT

namespace {

constexpr std::size_t kChunkBytes = 4096;
constexpr std::size_t kWriteBatchChunks = 8;
constexpr double kMeasureSeconds = 0.4;

// Aggregate (lookup + stream-write) operations per second at `threads`
// concurrent closed-loop clients.
Result<double> RunMixed(std::size_t threads) {
  testing::ClusterOptions options;
  options.net_workers = 16;
  options.data_servers = 1;
  options.active_servers = 1;
  options.slots_per_server = 16;
  options.blocks_per_server = 256;
  options.chunk_size = kChunkBytes;  // every Write() becomes one chunk
  options.write_batch_chunks = kWriteBatchChunks;
  // A write frame admits as a unit; give the channel room for a full
  // client window of frames so acks stay inline (capacity scales with the
  // frame size, preserving backpressure at the same multiple).
  options.channel_capacity = kWriteBatchChunks * 4;
  auto cluster = testing::MiniCluster::Start(options);
  GLIDER_RETURN_IF_ERROR(cluster.status());

  // Per-thread state set up before the clock starts: a client, a lookup
  // target, and an open write stream to the thread's own action.
  struct Worker {
    std::unique_ptr<nk::StoreClient> client;
    std::string lookup_path;
    core::ActionNode node;
    std::unique_ptr<core::ActionWriter> writer;
  };
  std::vector<Worker> workers;
  workers.reserve(threads);
  {
    GLIDER_ASSIGN_OR_RETURN(auto setup, (*cluster)->NewInternalClient());
    GLIDER_RETURN_IF_ERROR(
        setup->CreateNode("/files", nk::NodeType::kDirectory).status());
  }
  for (std::size_t t = 0; t < threads; ++t) {
    GLIDER_ASSIGN_OR_RETURN(auto client, (*cluster)->NewInternalClient());
    const std::string file = "/files/f" + std::to_string(t);
    GLIDER_RETURN_IF_ERROR(
        client->CreateNode(file, nk::NodeType::kFile).status());
    GLIDER_ASSIGN_OR_RETURN(
        auto node, core::ActionNode::Create(*client, "/act" + std::to_string(t),
                                            "glider.noop"));
    GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
    workers.push_back(Worker{std::move(client), file, std::move(node),
                             std::move(writer)});
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> failed{false};
  const Buffer chunk(kChunkBytes);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Worker& w = workers[t];
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!w.client->Lookup(w.lookup_path).ok() ||
            !w.writer->Write(chunk.span()).ok()) {
          failed.store(true);
          break;
        }
        local += 2;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  Stopwatch timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(kMeasureSeconds));
  stop.store(true);
  for (auto& t : pool) t.join();
  const double elapsed = timer.Seconds();
  for (auto& w : workers) {
    GLIDER_RETURN_IF_ERROR(w.writer->Close());
  }
  if (failed.load()) return Status::Internal("worker loop failed");
  return static_cast<double>(ops.load()) / elapsed;
}

}  // namespace

int main() {
  workloads::RegisterWorkloadActions();
  // Observability is off in this bench, so the registry holds nothing but
  // never-incremented zeros — emit only the measured scalars.
  BenchJsonWriter bench_json("contention", /*include_metrics=*/false);
  std::printf("== Contention: mixed lookup + stream-write, closed loop ==\n\n");
  Table table({"Threads", "Aggregate ops/s"});
  double ops_at_1 = 0;
  double ops_at_8 = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double result = RequireOk(RunMixed(threads), "mixed run");
    if (threads == 1) ops_at_1 = result;
    if (threads == 8) ops_at_8 = result;
    table.AddRow({std::to_string(threads), Fmt(result, 0)});
    bench_json.AddScalar("ops_per_s_t" + std::to_string(threads), result);
  }
  table.Print();
  if (ops_at_1 > 0) {
    const double speedup = ops_at_8 / ops_at_1;
    std::printf("\n8-thread speedup over 1 thread: %.2fx\n", speedup);
    bench_json.AddScalar("speedup_8_over_1", speedup);
  }
  bench_json.Write();
  return 0;
}
