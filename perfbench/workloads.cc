#include "workloads.h"

#include <array>
#include <charconv>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "faas/invoker.h"
#include "glider/client/action_node.h"
#include "nodekernel/client/file_streams.h"
#include "spans.h"
#include "workloads/generators.h"

namespace perfbench {

using glider::Buffer;
using glider::Status;
using glider::core::ActionNode;
using glider::nk::FileReader;
using glider::nk::FileWriter;
using glider::nk::NodeType;
using glider::nk::StoreClient;
using glider::testing::ClusterOptions;
using glider::testing::MiniCluster;

namespace {

constexpr std::size_t kMiB = 1 << 20;

ClusterOptions TcpCluster() {
  ClusterOptions options;
  options.use_tcp = true;
  return options;
}

// A FaaS-attributed client like MiniCluster::NewFaasClient, but with one
// stream operation in flight, for clients that read from actions: an
// ActionReader closed with reads still in flight can leave one parked on
// the server forever (a pipelined read dispatched after the channel was
// aborted, out of sequence), and Close() then waits on it.
glider::Result<std::unique_ptr<StoreClient>> ConnectActionReader(
    MiniCluster& cluster) {
  StoreClient::Options options;
  options.transport = &cluster.transport();
  options.metadata_address = cluster.metadata_address();
  options.metadata_partitions = cluster.metadata_addresses();
  options.data_link = glider::net::LinkModel::Unshaped(glider::LinkClass::kFaas,
                                                       cluster.metrics());
  options.chunk_size = cluster.options().chunk_size;
  options.inflight_window = 1;
  options.write_batch_chunks = cluster.options().write_batch_chunks;
  return StoreClient::Connect(std::move(options));
}

glider::Result<std::string> ReadAll(glider::core::ActionReader& reader) {
  std::string text;
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(auto chunk, reader.ReadChunk());
    if (chunk.empty()) break;
    text.append(glider::AsText(chunk.span()));
  }
  GLIDER_RETURN_IF_ERROR(reader.Close());
  return text;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return glider::SplitMix64(a * 0x9e3779b97f4a7c15ULL + b).Next();
}

// ---- invoke -----------------------------------------------------------------

class InvokeWorkload : public Workload {
 public:
  static constexpr std::size_t kKeys = 1024;
  static constexpr std::size_t kRequestBytes = 4096;
  static constexpr std::size_t kPayloads = 64;  // per client, cycled
  static constexpr std::size_t kPreloadBytes = 32 * kMiB;
  using Sums = std::array<std::int64_t, kKeys>;

  explicit InvokeWorkload(std::uint64_t seed) {
    glider::SplitMix64 rng(seed);
    preload_sums_.fill(0);
    preload_.reserve(kPreloadBytes);
    while (preload_.size() + 32 < kPreloadBytes) {
      AppendPair(rng, preload_, preload_sums_);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t p = 0; p < kPayloads; ++p) {
        Payload& payload = payloads_[c][p];
        payload.sums.fill(0);
        while (payload.text.size() + 32 <= kRequestBytes) {
          AppendPair(rng, payload.text, payload.sums);
        }
        // Pad to exactly 4 KiB with empty lines, which the merge skips.
        payload.text.resize(kRequestBytes, '\n');
      }
    }
  }

  Status Setup() override {
    GLIDER_ASSIGN_OR_RETURN(cluster_, MiniCluster::Start(TcpCluster()));
    GLIDER_ASSIGN_OR_RETURN(auto producer, cluster_->NewFaasClient());
    GLIDER_ASSIGN_OR_RETURN(
        auto node, ActionNode::Create(*producer, kPath, "glider.merge",
                                      /*interleave=*/true));
    GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
    GLIDER_RETURN_IF_ERROR(writer->Write(preload_));
    return writer->Close();
  }

  Status Connect() override {
    for (std::size_t c = 0; c < kClients; ++c) {
      GLIDER_ASSIGN_OR_RETURN(clients_[c], cluster_->NewFaasClient());
      GLIDER_ASSIGN_OR_RETURN(auto node, ActionNode::Lookup(*clients_[c], kPath));
      nodes_[c] = std::make_unique<ActionNode>(std::move(node));
      completed_[c].fill(0);
    }
    return Status::Ok();
  }

  Status Unit(std::size_t client, std::size_t index) override {
    const Payload& payload = payloads_[client][index % kPayloads];
    std::unique_ptr<glider::core::ActionWriter> writer;
    {
      Span span("glider.action.open");
      GLIDER_ASSIGN_OR_RETURN(writer, nodes_[client]->OpenWriter());
    }
    {
      Span span("glider.action.write");
      span.set_bytes(payload.text.size());
      GLIDER_RETURN_IF_ERROR(writer->Write(payload.text));
    }
    {
      Span span("glider.action.close");
      GLIDER_RETURN_IF_ERROR(writer->Close());
    }
    ++completed_[client][index % kPayloads];
    return Status::Ok();
  }

  // Reads the dictionary once and compares it with the sums of every pair
  // written: the preload plus each completed request.
  Status CheckFinal() override {
    Sums expected = preload_sums_;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t p = 0; p < kPayloads; ++p) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          expected[k] += static_cast<std::int64_t>(completed_[c][p]) *
                         payloads_[c][p].sums[k];
        }
      }
    }
    GLIDER_ASSIGN_OR_RETURN(auto reader_client, ConnectActionReader(*cluster_));
    GLIDER_ASSIGN_OR_RETURN(auto node, ActionNode::Lookup(*reader_client, kPath));
    GLIDER_ASSIGN_OR_RETURN(auto reader, node.OpenReader());
    GLIDER_ASSIGN_OR_RETURN(auto text, ReadAll(*reader));
    Sums actual;
    actual.fill(0);
    std::size_t lines = 0;
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t end = text.find('\n', pos);
      const std::string_view line(text.data() + pos,
                                  (end == std::string::npos ? text.size() : end) -
                                      pos);
      pos = end == std::string::npos ? text.size() : end + 1;
      const auto comma = line.find(',');
      std::uint64_t key = 0;
      std::int64_t sum = 0;
      if (comma == std::string_view::npos ||
          std::from_chars(line.data(), line.data() + comma, key).ec !=
              std::errc{} ||
          std::from_chars(line.data() + comma + 1, line.data() + line.size(),
                          sum)
                  .ec != std::errc{} ||
          key >= kKeys) {
        return Status::Internal("merge dictionary has a bad line");
      }
      actual[key] = sum;
      ++lines;
    }
    if (actual != expected) {
      return Status::Internal("merge dictionary differs from the expected sums (" +
                              std::to_string(lines) + " keys read)");
    }
    return Status::Ok();
  }

  double payload_bytes_per_unit() const override { return kRequestBytes; }
  double nominal_units_per_s() const override { return 7500; }

 private:
  static constexpr const char* kPath = "/merge";

  struct Payload {
    std::string text;
    Sums sums;
  };

  static void AppendPair(glider::SplitMix64& rng, std::string& out,
                         Sums& sums) {
    const std::uint64_t key = rng.NextBelow(kKeys);
    const std::uint64_t value = rng.NextBelow(1ull << 31);
    sums[key] += static_cast<std::int64_t>(value);
    out += std::to_string(key);
    out.push_back(',');
    out += std::to_string(value);
    out.push_back('\n');
  }

  std::string preload_;
  Sums preload_sums_{};
  std::array<std::array<Payload, kPayloads>, kClients> payloads_;
  std::array<std::unique_ptr<StoreClient>, kClients> clients_;
  std::array<std::unique_ptr<ActionNode>, kClients> nodes_;
  std::array<std::array<std::uint64_t, kPayloads>, kClients> completed_{};
};

// ---- files ------------------------------------------------------------------

class FilesWorkload : public Workload {
 public:
  static constexpr std::size_t kResident = 32;
  static constexpr std::size_t kFileBytes = 4 * kMiB;
  static constexpr std::size_t kWriteCall = 256 * 1024;

  // Resident file i holds the seeded base bytes rotated by Offset(i), so
  // every file differs without keeping 32 copies in memory.
  explicit FilesWorkload(std::uint64_t seed) : seed_(seed) {
    base_ = RandomBytes(seed, kFileBytes);
    for (std::size_t i = 0; i < kResident; ++i) {
      Checksum sum;
      const std::size_t offset = Offset(i);
      sum.Update(base_.data() + offset, kFileBytes - offset);
      sum.Update(base_.data(), offset);
      resident_sums_[i] = sum.Value();
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      new_data_[c] = RandomBytes(Mix(seed, c + 1), kFileBytes);
    }
  }

  Status Setup() override {
    ClusterOptions options = TcpCluster();
    options.active_servers = 0;
    GLIDER_ASSIGN_OR_RETURN(cluster_, MiniCluster::Start(options));
    GLIDER_ASSIGN_OR_RETURN(auto loader, cluster_->NewInternalClient());
    for (std::size_t i = 0; i < kResident; ++i) {
      GLIDER_RETURN_IF_ERROR(
          loader->CreateNode(ResidentPath(i), NodeType::kFile).status());
      GLIDER_ASSIGN_OR_RETURN(auto writer,
                              FileWriter::Open(*loader, ResidentPath(i)));
      const std::size_t offset = Offset(i);
      GLIDER_RETURN_IF_ERROR(writer->Write(
          glider::ByteSpan(base_.data() + offset, kFileBytes - offset)));
      GLIDER_RETURN_IF_ERROR(writer->Write(glider::ByteSpan(base_.data(), offset)));
      GLIDER_RETURN_IF_ERROR(writer->Close());
    }
    return Status::Ok();
  }

  Status Connect() override {
    for (std::size_t c = 0; c < kClients; ++c) {
      GLIDER_ASSIGN_OR_RETURN(clients_[c], cluster_->NewFaasClient());
    }
    return Status::Ok();
  }

  Status Unit(std::size_t client, std::size_t index) override {
    StoreClient& store = *clients_[client];
    const std::string path = "/new_" + std::to_string(client);
    {
      Span span("nodekernel.meta.create");
      GLIDER_RETURN_IF_ERROR(store.CreateNode(path, NodeType::kFile).status());
    }
    std::unique_ptr<FileWriter> writer;
    {
      Span span("nodekernel.meta.open");
      GLIDER_ASSIGN_OR_RETURN(writer, FileWriter::Open(store, path));
    }
    const std::vector<std::uint8_t>& data = new_data_[client];
    for (std::size_t off = 0; off < kFileBytes; off += kWriteCall) {
      Span span("nodekernel.data.write");
      span.set_bytes(kWriteCall);
      GLIDER_RETURN_IF_ERROR(
          writer->Write(glider::ByteSpan(data.data() + off, kWriteCall)));
    }
    {
      Span span("nodekernel.data.close");
      GLIDER_RETURN_IF_ERROR(writer->Close());
    }

    const std::size_t resident = Mix(seed_ ^ client, index) % kResident;
    std::unique_ptr<FileReader> reader;
    {
      Span span("nodekernel.meta.open");
      GLIDER_ASSIGN_OR_RETURN(reader, FileReader::Open(store, ResidentPath(resident)));
    }
    Checksum sum;
    std::uint64_t size = 0;
    while (true) {
      Buffer chunk;
      {
        Span span("nodekernel.data.read");
        GLIDER_ASSIGN_OR_RETURN(chunk, reader->ReadChunk());
        span.set_bytes(chunk.size());
      }
      if (chunk.empty()) break;
      sum.Update(chunk.data(), chunk.size());
      size += chunk.size();
    }
    {
      Span span("nodekernel.meta.delete");
      GLIDER_RETURN_IF_ERROR(store.Delete(path).status());
    }
    if (size != kFileBytes || sum.Value() != resident_sums_[resident]) {
      RecordCheckFailure(ResidentPath(resident) + " read back " +
                         std::to_string(size) + " bytes with a wrong checksum");
    }
    return Status::Ok();
  }

  // Every read was checked inside its unit.
  Status CheckFinal() override { return Status::Ok(); }

  double payload_bytes_per_unit() const override { return 2 * kFileBytes; }
  double nominal_units_per_s() const override { return 340; }

 private:
  static std::string ResidentPath(std::size_t i) {
    return "/resident_" + std::to_string(i);
  }
  static std::size_t Offset(std::size_t i) { return i * 131072 + i * 8; }

  static std::vector<std::uint8_t> RandomBytes(std::uint64_t seed,
                                               std::size_t size) {
    std::vector<std::uint8_t> bytes(size);
    glider::SplitMix64 rng(seed);
    for (std::size_t off = 0; off < size; off += 8) {
      const std::uint64_t word = rng.Next();
      std::memcpy(bytes.data() + off, &word, std::min<std::size_t>(8, size - off));
    }
    return bytes;
  }

  std::uint64_t seed_;
  std::vector<std::uint8_t> base_;
  std::array<std::uint64_t, kResident> resident_sums_{};
  std::array<std::vector<std::uint8_t>, kClients> new_data_;
  std::array<std::unique_ptr<StoreClient>, kClients> clients_;
};

// ---- shuffle ----------------------------------------------------------------

class ShuffleWorkload : public Workload {
 public:
  static constexpr std::size_t kMappers = 2;
  static constexpr std::size_t kSorters = 2;
  // Input partitions loaded at setup; job k of the run maps the two
  // partitions starting at 2k mod 32, so consecutive jobs sort new data.
  // 2 MiB partitions, as in examples/specs/sort_glider.spec: with 8 MiB
  // ones, job times spread twice as wide from run to run.
  static constexpr std::size_t kPartitions = 32;
  static constexpr std::size_t kPartitionBytes = 2 * kMiB;
  static constexpr std::size_t kShuffleBatch = 128 * 1024;

  explicit ShuffleWorkload(std::uint64_t seed) {
    for (std::size_t p = 0; p < kPartitions; ++p) {
      glider::workloads::SortRecordGenerator(Mix(seed, p))
          .Generate(kPartitionBytes, inputs_[p]);
      for (char ch : inputs_[p]) records_[p] += ch == '\n' ? 1 : 0;
      input_bytes_ += static_cast<double>(inputs_[p].size());
    }
  }

  Status Setup() override {
    ClusterOptions options = TcpCluster();
    options.active_servers = 2;
    GLIDER_ASSIGN_OR_RETURN(cluster_, MiniCluster::Start(options));
    GLIDER_ASSIGN_OR_RETURN(auto loader, cluster_->NewInternalClient());
    for (std::size_t p = 0; p < kPartitions; ++p) {
      GLIDER_RETURN_IF_ERROR(
          loader->CreateNode(InputPath(p), NodeType::kFile).status());
      GLIDER_ASSIGN_OR_RETURN(auto writer, FileWriter::Open(*loader, InputPath(p)));
      GLIDER_RETURN_IF_ERROR(writer->Write(inputs_[p]));
      GLIDER_RETURN_IF_ERROR(writer->Close());
    }
    return Status::Ok();
  }

  Status Connect() override {
    for (std::size_t c = 0; c < kClients; ++c) {
      GLIDER_ASSIGN_OR_RETURN(clients_[c], ConnectActionReader(*cluster_));
    }
    return Status::Ok();
  }

  bool lockstep() const override { return true; }

  Status Unit(std::size_t client, std::size_t index) override {
    StoreClient& store = *clients_[client];
    const std::uint64_t job_span = CurrentSpan();
    const std::size_t first = (index * kClients + client) * kMappers % kPartitions;
    std::uint64_t records = 0;
    for (std::size_t m = 0; m < kMappers; ++m) records += records_[first + m];
    job_records_[client] = records;
    for (std::size_t s = 0; s < kSorters; ++s) {
      Span span("glider.action.create");
      GLIDER_RETURN_IF_ERROR(
          ActionNode::Create(store, SorterPath(client, s), "glider.sorter",
                             /*interleave=*/true,
                             glider::AsBytes(OutputPath(client, s)))
              .status());
    }
    {
      Span span("faas.stage");
      const std::uint64_t stage_span = span.id();
      const std::int64_t stage_start = NowNs();
      glider::faas::Invoker invoker(*cluster_);
      GLIDER_RETURN_IF_ERROR(invoker.RunStage(
          kMappers, [&](glider::faas::WorkerContext& ctx) {
            RecordSpan("faas.spawn", stage_span, stage_start, NowNs());
            Span body("app.map", stage_span);
            return Map(client, first + ctx.worker_id, ctx);
          }));
    }
    // Trigger both sorts at once, as workloads::RunSortGlider does.
    std::array<Status, kSorters> statuses;
    std::array<std::uint64_t, kSorters> counts{};
    std::vector<std::thread> triggers;
    for (std::size_t s = 0; s < kSorters; ++s) {
      triggers.emplace_back([&, s] {
        statuses[s] = [&]() -> Status {
          std::unique_ptr<ActionNode> node;
          {
            Span span("nodekernel.meta.lookup", job_span);
            GLIDER_ASSIGN_OR_RETURN(auto found,
                                    ActionNode::Lookup(store, SorterPath(client, s)));
            node = std::make_unique<ActionNode>(std::move(found));
          }
          Span span("glider.action.reduce", job_span);
          GLIDER_ASSIGN_OR_RETURN(auto reader, node->OpenReader());
          GLIDER_ASSIGN_OR_RETURN(auto reply, ReadAll(*reader));
          if (std::from_chars(reply.data(), reply.data() + reply.size(), counts[s])
                  .ec != std::errc{}) {
            return Status::Internal("sorter replied '" + reply + "'");
          }
          return Status::Ok();
        }();
      });
    }
    for (auto& trigger : triggers) trigger.join();
    for (const auto& status : statuses) GLIDER_RETURN_IF_ERROR(status);
    for (std::size_t s = 0; s < kSorters; ++s) {
      Span span("glider.action.delete");
      GLIDER_RETURN_IF_ERROR(ActionNode::Delete(store, SorterPath(client, s)));
    }
    if (counts[0] + counts[1] != records) {
      RecordCheckFailure("sorters hold " + std::to_string(counts[0] + counts[1]) +
                         " records, input has " + std::to_string(records));
    }
    return Status::Ok();
  }

  // Each client's runs, read in range order, must be globally sorted and
  // hold every input record. The runs are deleted for the next round.
  Status CheckRound() override {
    for (std::size_t c = 0; c < kClients; ++c) {
      StoreClient& store = *clients_[c];
      std::string previous;
      std::uint64_t records = 0;
      for (std::size_t s = 0; s < kSorters; ++s) {
        GLIDER_ASSIGN_OR_RETURN(auto reader, FileReader::Open(store, OutputPath(c, s)));
        glider::nk::LineScanner scanner([&] { return reader->ReadChunk(); });
        std::string line;
        while (true) {
          GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
          if (!more) break;
          if (line < previous) {
            return Status::Internal(OutputPath(c, s) + " is out of order");
          }
          previous = line;
          ++records;
        }
        GLIDER_RETURN_IF_ERROR(store.Delete(OutputPath(c, s)).status());
      }
      if (records != job_records_[c]) {
        return Status::Internal("runs hold " + std::to_string(records) +
                                " records, input has " +
                                std::to_string(job_records_[c]));
      }
    }
    return Status::Ok();
  }

  Status CheckFinal() override { return Status::Ok(); }

  double payload_bytes_per_unit() const override {
    return input_bytes_ * kMappers / kPartitions;
  }
  double nominal_units_per_s() const override { return 56; }

 private:
  static std::string InputPath(std::size_t p) {
    return "/shuffle_in_" + std::to_string(p);
  }
  static std::string SorterPath(std::size_t client, std::size_t s) {
    return "/sorter_" + std::to_string(client) + "_" + std::to_string(s);
  }
  static std::string OutputPath(std::size_t client, std::size_t s) {
    return "/run_" + std::to_string(client) + "_" + std::to_string(s);
  }

  // One mapper: scatters its input partition by key range into the sorters.
  Status Map(std::size_t client, std::size_t partition,
             glider::faas::WorkerContext& ctx) {
    std::array<std::unique_ptr<glider::core::ActionWriter>, kSorters> writers;
    for (std::size_t s = 0; s < kSorters; ++s) {
      std::unique_ptr<ActionNode> node;
      {
        Span span("nodekernel.meta.lookup");
        GLIDER_ASSIGN_OR_RETURN(auto found,
                                ActionNode::Lookup(*ctx.store, SorterPath(client, s)));
        node = std::make_unique<ActionNode>(std::move(found));
      }
      Span span("glider.action.open");
      GLIDER_ASSIGN_OR_RETURN(writers[s], node->OpenWriter());
    }
    std::unique_ptr<FileReader> reader;
    {
      Span span("nodekernel.meta.open");
      GLIDER_ASSIGN_OR_RETURN(reader,
                              FileReader::Open(*ctx.store, InputPath(partition)));
    }
    glider::nk::LineScanner scanner([&]() -> glider::Result<Buffer> {
      Span span("nodekernel.data.read");
      auto chunk = reader->ReadChunk();
      if (chunk.ok()) span.set_bytes(chunk->size());
      return chunk;
    });
    std::array<std::string, kSorters> batches;
    auto ship = [&](std::size_t s) -> Status {
      Span span("glider.action.write");
      span.set_bytes(batches[s].size());
      GLIDER_RETURN_IF_ERROR(writers[s]->Write(batches[s]));
      batches[s].clear();
      return Status::Ok();
    };
    std::string line;
    while (true) {
      GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
      if (!more) break;
      const auto key = glider::workloads::SortRecordGenerator::KeyOf(line);
      const std::size_t s = static_cast<std::size_t>(
          (static_cast<unsigned __int128>(key) * kSorters) >> 64);
      batches[s] += line;
      batches[s].push_back('\n');
      if (batches[s].size() >= kShuffleBatch) GLIDER_RETURN_IF_ERROR(ship(s));
    }
    for (std::size_t s = 0; s < kSorters; ++s) {
      if (!batches[s].empty()) GLIDER_RETURN_IF_ERROR(ship(s));
      Span span("glider.action.close");
      GLIDER_RETURN_IF_ERROR(writers[s]->Close());
    }
    return Status::Ok();
  }

  std::array<std::string, kPartitions> inputs_;
  std::array<std::uint64_t, kPartitions> records_{};
  double input_bytes_ = 0;
  std::array<std::uint64_t, kClients> job_records_{};  // of each client's last job
  std::array<std::unique_ptr<StoreClient>, kClients> clients_;
};

}  // namespace

std::string Workload::check_failure() const {
  std::scoped_lock lock(check_mu_);
  return check_failure_;
}

void Workload::RecordCheckFailure(std::string what) {
  std::scoped_lock lock(check_mu_);
  if (check_failure_.empty()) check_failure_ = std::move(what);
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "invoke") return std::make_unique<InvokeWorkload>(seed);
  if (name == "files") return std::make_unique<FilesWorkload>(seed);
  if (name == "shuffle") return std::make_unique<ShuffleWorkload>(seed);
  return nullptr;
}

void Checksum::Update(const std::uint8_t* data, std::size_t size) {
  length_ += size;
  std::size_t i = 0;
  // Finish a word left partial by the previous piece.
  while (pending_bytes_ > 0 && i < size) {
    pending_ |= static_cast<std::uint64_t>(data[i++]) << (8 * pending_bytes_);
    if (++pending_bytes_ == 8) {
      Word(pending_);
      pending_ = 0;
      pending_bytes_ = 0;
    }
  }
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    Word(word);
  }
  for (; i < size; ++i) {
    pending_ |= static_cast<std::uint64_t>(data[i]) << (8 * pending_bytes_++);
  }
}

std::uint64_t Checksum::Value() const {
  const std::uint64_t a = a_ + pending_ + length_;
  return (b_ + a) * 0xbf58476d1ce4e5b9ULL ^ a;
}

}  // namespace perfbench
