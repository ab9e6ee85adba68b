#include "workloads/sort.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "faas/invoker.h"
#include "glider/client/action_node.h"
#include "workloads/actions.h"
#include "workloads/generators.h"
#include "workloads/record_run.h"

namespace glider::workloads {
namespace {

// Reducer j owns keys in [j, j+1) * 2^64 / R.
std::size_t ReducerOf(std::uint64_t key, std::size_t num_reducers) {
  // Use the top bits so the split is uniform for uniform keys.
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(key) * num_reducers) >> 64);
}

std::string InPath(std::size_t i) { return "/sort_in_" + std::to_string(i); }
std::string TmpPath(std::size_t i, std::size_t j) {
  return "/sort_tmp_" + std::to_string(i) + "_" + std::to_string(j);
}
std::string OutPath(std::size_t j) { return "/sort_out_" + std::to_string(j); }

// An order-independent digest of a multiset of records: the count and the
// sum of one 64-bit hash per record.
struct RecordDigest {
  std::uint64_t records = 0;
  std::uint64_t hash_sum = 0;

  void Add(std::string_view record) {
    ++records;
    hash_sum += std::hash<std::string_view>{}(record);
  }
  bool operator==(const RecordDigest&) const = default;
};

// Calls `fn` on each record of the file at `path`, in file order.
template <typename Fn>
Status ForEachRecord(nk::StoreClient& client, const std::string& path,
                     Fn fn) {
  GLIDER_ASSIGN_OR_RETURN(auto reader, nk::FileReader::Open(client, path));
  nk::LineScanner scanner([&] { return reader->ReadChunk(); });
  std::string line;
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
    if (!more) return Status::Ok();
    fn(line);
  }
}

// Verifies that the concatenation of /sort_out_0..R-1 is globally sorted
// and holds the same multiset of records as the inputs /sort_in_*: a check
// independent of the sort kernel both variants share. Runs in the calling
// process after the timer stops. Returns the verdict and the output's
// record count.
Result<std::pair<bool, std::uint64_t>> VerifySorted(nk::StoreClient& client,
                                                    std::size_t workers) {
  RecordDigest input;
  for (std::size_t i = 0; i < workers; ++i) {
    GLIDER_RETURN_IF_ERROR(ForEachRecord(
        client, InPath(i), [&](const std::string& line) { input.Add(line); }));
  }
  RecordDigest output;
  std::string previous;
  bool ordered = true;
  for (std::size_t j = 0; j < workers; ++j) {
    GLIDER_RETURN_IF_ERROR(
        ForEachRecord(client, OutPath(j), [&](const std::string& line) {
          if (line < previous) ordered = false;
          previous = line;
          output.Add(line);
        }));
  }
  return std::pair<bool, std::uint64_t>(ordered && output == input,
                                        output.records);
}

void Cleanup(nk::StoreClient& client, const SortParams& params,
             bool tmp_files) {
  for (std::size_t j = 0; j < params.workers; ++j) {
    (void)client.Delete(OutPath(j));
    if (tmp_files) {
      for (std::size_t i = 0; i < params.workers; ++i) {
        (void)client.Delete(TmpPath(i, j));
      }
    }
  }
}

}  // namespace

Status SetupSortInput(testing::MiniCluster& cluster, const SortParams& params) {
  GLIDER_ASSIGN_OR_RETURN(auto client, cluster.NewInternalClient());
  for (std::size_t i = 0; i < params.workers; ++i) {
    if (client->Lookup(InPath(i)).ok()) continue;
    GLIDER_RETURN_IF_ERROR(
        client->CreateNode(InPath(i), nk::NodeType::kFile).status());
    GLIDER_ASSIGN_OR_RETURN(auto writer,
                            nk::FileWriter::Open(*client, InPath(i)));
    SortRecordGenerator gen(params.seed + i);
    std::string batch;
    std::size_t written = 0;
    while (written < params.bytes_per_partition) {
      batch.clear();
      gen.Generate(std::min<std::size_t>(1 << 20,
                                         params.bytes_per_partition - written),
                   batch);
      GLIDER_RETURN_IF_ERROR(writer->Write(batch));
      written += batch.size();
    }
    GLIDER_RETURN_IF_ERROR(writer->Close());
  }
  return Status::Ok();
}

Result<SortResult> RunSortBaseline(testing::MiniCluster& cluster,
                                   const SortParams& params) {
  RegisterWorkloadActions();
  faas::Invoker invoker(cluster);
  const std::size_t r = params.workers;
  const auto before = MetricsSnapshot::Take(*cluster.metrics());
  Stopwatch timer;

  // P1 (map): read the input partition, scatter records into one
  // intermediate file per reducer.
  GLIDER_RETURN_IF_ERROR(
      invoker.RunStage(params.workers, [&](faas::WorkerContext& ctx) -> Status {
        std::vector<std::unique_ptr<nk::FileWriter>> writers(r);
        std::vector<std::string> buffers(r);
        for (std::size_t j = 0; j < r; ++j) {
          GLIDER_RETURN_IF_ERROR(
              ctx.store->CreateNode(TmpPath(ctx.worker_id, j),
                                    nk::NodeType::kFile)
                  .status());
          GLIDER_ASSIGN_OR_RETURN(
              writers[j],
              nk::FileWriter::Open(*ctx.store, TmpPath(ctx.worker_id, j)));
        }
        GLIDER_ASSIGN_OR_RETURN(
            auto reader, nk::FileReader::Open(*ctx.store, InPath(ctx.worker_id)));
        nk::LineScanner scanner([&] { return reader->ReadChunk(); });
        std::string line;
        while (true) {
          GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
          if (!more) break;
          const std::size_t j = ReducerOf(SortRecordGenerator::KeyOf(line), r);
          buffers[j] += line;
          buffers[j].push_back('\n');
          if (buffers[j].size() >= 128 * 1024) {
            GLIDER_RETURN_IF_ERROR(writers[j]->Write(buffers[j]));
            buffers[j].clear();
          }
        }
        for (std::size_t j = 0; j < r; ++j) {
          if (!buffers[j].empty()) {
            GLIDER_RETURN_IF_ERROR(writers[j]->Write(buffers[j]));
          }
          GLIDER_RETURN_IF_ERROR(writers[j]->Close());
        }
        return Status::Ok();
      }));
  const double p1 = timer.Seconds();

  // P2 (reduce): read back every intermediate file of the range, sort,
  // write the run.
  GLIDER_RETURN_IF_ERROR(
      invoker.RunStage(r, [&](faas::WorkerContext& ctx) -> Status {
        RecordRun run;
        for (std::size_t i = 0; i < params.workers; ++i) {
          GLIDER_ASSIGN_OR_RETURN(
              auto reader,
              nk::FileReader::Open(*ctx.store, TmpPath(i, ctx.worker_id)));
          GLIDER_RETURN_IF_ERROR(run.Add([&] { return reader->ReadChunk(); }));
        }
        run.Sort();
        GLIDER_RETURN_IF_ERROR(
            ctx.store->CreateNode(OutPath(ctx.worker_id), nk::NodeType::kFile)
                .status());
        GLIDER_ASSIGN_OR_RETURN(
            auto writer, nk::FileWriter::Open(*ctx.store, OutPath(ctx.worker_id)));
        GLIDER_RETURN_IF_ERROR(
            run.WriteTo(*writer, ctx.store->options().chunk_size));
        return writer->Close();
      }));
  const double total = timer.Seconds();
  const auto delta = MetricsSnapshot::Take(*cluster.metrics()).Since(before);

  SortResult result;
  result.p1_seconds = p1;
  result.p2_seconds = total - p1;
  result.total_seconds = total;
  result.transfer_bytes = delta.faas_bytes;
  result.accesses = delta.accesses;

  GLIDER_ASSIGN_OR_RETURN(auto driver, cluster.NewInternalClient());
  GLIDER_ASSIGN_OR_RETURN(auto check, VerifySorted(*driver, r));
  result.verified = check.first;
  result.records = check.second;
  Cleanup(*driver, params, /*tmp_files=*/true);
  return result;
}

Result<SortResult> RunSortGlider(testing::MiniCluster& cluster,
                                 const SortParams& params) {
  RegisterWorkloadActions();
  faas::Invoker invoker(cluster);
  const std::size_t r = params.workers;
  const auto before = MetricsSnapshot::Take(*cluster.metrics());
  Stopwatch timer;

  // Deploy one sorter action per range; interleaving lets every mapper
  // stream into the same action concurrently.
  {
    GLIDER_ASSIGN_OR_RETURN(auto driver, cluster.NewInternalClient());
    for (std::size_t j = 0; j < r; ++j) {
      GLIDER_RETURN_IF_ERROR(
          core::ActionNode::Create(*driver, "/sorter_" + std::to_string(j),
                                   "glider.sorter", /*interleave=*/true,
                                   AsBytes(OutPath(j)))
              .status());
    }
  }

  // P1 (map): identical scatter, but the shuffle streams go straight into
  // the sorter actions — no intermediate files.
  GLIDER_RETURN_IF_ERROR(
      invoker.RunStage(params.workers, [&](faas::WorkerContext& ctx) -> Status {
        std::vector<std::unique_ptr<core::ActionWriter>> writers(r);
        std::vector<std::string> buffers(r);
        for (std::size_t j = 0; j < r; ++j) {
          GLIDER_ASSIGN_OR_RETURN(
              auto node, core::ActionNode::Lookup(
                             *ctx.store, "/sorter_" + std::to_string(j)));
          GLIDER_ASSIGN_OR_RETURN(writers[j], node.OpenWriter());
        }
        GLIDER_ASSIGN_OR_RETURN(
            auto reader, nk::FileReader::Open(*ctx.store, InPath(ctx.worker_id)));
        nk::LineScanner scanner([&] { return reader->ReadChunk(); });
        std::string line;
        while (true) {
          GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
          if (!more) break;
          const std::size_t j = ReducerOf(SortRecordGenerator::KeyOf(line), r);
          buffers[j] += line;
          buffers[j].push_back('\n');
          if (buffers[j].size() >= 128 * 1024) {
            GLIDER_RETURN_IF_ERROR(writers[j]->Write(buffers[j]));
            buffers[j].clear();
          }
        }
        for (std::size_t j = 0; j < r; ++j) {
          if (!buffers[j].empty()) {
            GLIDER_RETURN_IF_ERROR(writers[j]->Write(buffers[j]));
          }
          GLIDER_RETURN_IF_ERROR(writers[j]->Close());
        }
        return Status::Ok();
      }));
  const double p1 = timer.Seconds();

  // P2: trigger each action's sort + in-storage write of the run. The
  // trigger is a tiny read stream; the heavy data never leaves storage.
  {
    GLIDER_ASSIGN_OR_RETURN(auto driver, cluster.NewInternalClient());
    std::vector<std::thread> triggers;
    std::vector<Status> statuses(r);
    for (std::size_t j = 0; j < r; ++j) {
      triggers.emplace_back([&, j] {
        statuses[j] = [&]() -> Status {
          GLIDER_ASSIGN_OR_RETURN(
              auto node, core::ActionNode::Lookup(
                             *driver, "/sorter_" + std::to_string(j)));
          GLIDER_ASSIGN_OR_RETURN(auto reader, node.OpenReader());
          while (true) {
            GLIDER_ASSIGN_OR_RETURN(auto chunk, reader->ReadChunk());
            if (chunk.empty()) break;
          }
          return reader->Close();
        }();
      });
    }
    for (auto& t : triggers) t.join();
    for (const auto& status : statuses) GLIDER_RETURN_IF_ERROR(status);
  }
  const double total = timer.Seconds();
  const auto delta = MetricsSnapshot::Take(*cluster.metrics()).Since(before);

  SortResult result;
  result.p1_seconds = p1;
  result.p2_seconds = total - p1;
  result.total_seconds = total;
  result.transfer_bytes = delta.faas_bytes;
  result.accesses = delta.accesses;

  GLIDER_ASSIGN_OR_RETURN(auto driver, cluster.NewInternalClient());
  GLIDER_ASSIGN_OR_RETURN(auto check, VerifySorted(*driver, r));
  result.verified = check.first;
  result.records = check.second;
  for (std::size_t j = 0; j < r; ++j) {
    (void)core::ActionNode::Delete(*driver, "/sorter_" + std::to_string(j));
  }
  Cleanup(*driver, params, /*tmp_files=*/false);
  return result;
}

}  // namespace glider::workloads
