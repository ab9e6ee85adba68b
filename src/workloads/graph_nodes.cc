// Builtin workload-graph node types. These re-express the Table 2 pipeline
// and Fig. 5 reduce drivers (formerly workloads/wordcount.cc and
// workloads/reduce.cc) as composable nodes, plus wrapper nodes embedding
// the still-monolithic sort/genomics drivers (a node can wrap a whole
// workload), and a request node for the open-loop load generator.
#include <atomic>
#include <charconv>
#include <mutex>

#include "faas/s3like.h"
#include "glider/client/action_node.h"
#include "workloads/actions.h"
#include "workloads/generators.h"
#include "workloads/genomics.h"
#include "workloads/graph.h"
#include "workloads/pair_merge.h"
#include "workloads/sort.h"

namespace glider::workloads {
namespace {

// Replaces every "{i}" in `pattern` with the decimal index.
std::string Expand(std::string pattern, std::size_t i) {
  const std::string needle = "{i}";
  const std::string digits = std::to_string(i);
  std::size_t pos = 0;
  while ((pos = pattern.find(needle, pos)) != std::string::npos) {
    pattern.replace(pos, needle.size(), digits);
    pos += digits.size();
  }
  return pattern;
}

// Parses a "key,sum" dictionary dump into entry count + value checksum.
void SummarizeDictionary(std::string_view text, std::uint64_t& entries,
                         std::int64_t& checksum) {
  entries = 0;
  checksum = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    const auto comma = line.find(',');
    if (comma != std::string_view::npos) {
      std::int64_t value = 0;
      std::from_chars(line.data() + comma + 1, line.data() + line.size(),
                      value);
      checksum += value;
      ++entries;
    }
    start = end + 1;
  }
}

// Streams `pairs` generated pair lines through `emit` in batches.
Status GeneratePairs(std::uint64_t seed, std::uint32_t distinct_keys,
                     std::size_t pairs,
                     const std::function<Status(std::string_view)>& emit) {
  PairGenerator gen(seed, distinct_keys);
  std::string batch;
  std::size_t produced = 0;
  while (produced < pairs) {
    batch.clear();
    const std::size_t step = std::min<std::size_t>(16'384, pairs - produced);
    gen.Generate(step, batch);
    produced += step;
    GLIDER_RETURN_IF_ERROR(emit(batch));
  }
  return Status::Ok();
}

// Counts the word occurrences of one line.
std::size_t CountWords(std::string_view line) {
  std::size_t words = 0;
  bool in_word = false;
  for (const char c : line) {
    const bool is_space = c == ' ' || c == '\t';
    if (!is_space && !in_word) ++words;
    in_word = !is_space;
  }
  return words;
}

Result<bool> Measured(const SpecSection& s) {
  return s.GetBoolOr("measured", true);
}

// --------------------------------------------------------------------------
// text.files: deterministic text inputs `<path>0..count-1` (setup node).
// Idempotent when skip_existing: reruns against a shared cluster reuse the
// files, so baseline+glider specs can share one deployment.

class TextFilesNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<TextFilesNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    GLIDER_ASSIGN_OR_RETURN(auto count, s.GetInt("count"));
    node->count_ = static_cast<std::size_t>(count);
    GLIDER_ASSIGN_OR_RETURN(auto bytes, s.GetInt("bytes_each"));
    node->bytes_each_ = static_cast<std::size_t>(bytes);
    GLIDER_ASSIGN_OR_RETURN(node->marker_rate_,
                            s.GetDoubleOr("marker_rate", 0.003));
    node->marker_ = s.GetStringOr("marker", "NEEDLE");
    GLIDER_ASSIGN_OR_RETURN(auto seed, s.GetIntOr("seed", 7));
    node->seed_ = static_cast<std::uint64_t>(seed);
    GLIDER_ASSIGN_OR_RETURN(node->skip_existing_,
                            s.GetBoolOr("skip_existing", true));
    node->mkdir_ = s.GetStringOr("mkdir", "");
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  TextFilesNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "text.files", measured) {}

  Status Run(GraphContext& ctx) override {
    GLIDER_ASSIGN_OR_RETURN(auto client, ctx.cluster->NewInternalClient());
    if (!mkdir_.empty()) {
      auto dir = client->CreateNode(mkdir_, nk::NodeType::kDirectory);
      if (!dir.ok() && dir.status().code() != StatusCode::kAlreadyExists) {
        return dir.status();
      }
    }
    for (std::size_t i = 0; i < count_; ++i) {
      const std::string path = Expand(path_, i);
      if (skip_existing_ && client->Lookup(path).ok()) continue;
      GLIDER_RETURN_IF_ERROR(
          client->CreateNode(path, nk::NodeType::kFile).status());
      TextGenerator gen(seed_ + i, marker_rate_, marker_);
      GLIDER_ASSIGN_OR_RETURN(auto writer, nk::FileWriter::Open(*client, path));
      std::string text;
      std::size_t written = 0;
      while (written < bytes_each_) {
        text.clear();
        const std::size_t step =
            std::min<std::size_t>(1 << 20, bytes_each_ - written);
        gen.Generate(step, text);
        GLIDER_RETURN_IF_ERROR(writer->Write(text));
        written += text.size();
      }
      GLIDER_RETURN_IF_ERROR(writer->Close());
      stats().bytes += written;
      ++stats().ops;
    }
    return Status::Ok();
  }

 private:
  std::string path_;
  std::size_t count_ = 0;
  std::size_t bytes_each_ = 0;
  double marker_rate_ = 0.003;
  std::string marker_;
  std::uint64_t seed_ = 7;
  bool skip_existing_ = true;
  std::string mkdir_;
};

// --------------------------------------------------------------------------
// action.create: deploys `count` action nodes `<path>` (with "{i}"
// expansion) of a registered action type; config passes through to
// onCreate, "{i}"-expanded per instance (multi-line configs via repeated
// `config =` keys in the spec).

class ActionCreateNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<ActionCreateNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    GLIDER_ASSIGN_OR_RETURN(node->action_type_, s.GetString("action"));
    GLIDER_ASSIGN_OR_RETURN(node->interleave_,
                            s.GetBoolOr("interleave", false));
    node->config_ = s.GetStringOr("config", "");
    GLIDER_ASSIGN_OR_RETURN(auto count, s.GetIntOr("count", 1));
    node->count_ = static_cast<std::size_t>(count);
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  ActionCreateNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "action.create", measured) {}

  Status Run(GraphContext& ctx) override {
    RegisterWorkloadActions();
    GLIDER_ASSIGN_OR_RETURN(auto client, ctx.cluster->NewInternalClient());
    for (std::size_t i = 0; i < count_; ++i) {
      const std::string config = Expand(config_, i);
      GLIDER_RETURN_IF_ERROR(
          core::ActionNode::Create(*client, Expand(path_, i), action_type_,
                                   interleave_, AsBytes(config))
              .status());
      ++stats().ops;
    }
    return Status::Ok();
  }

 private:
  std::string path_;
  std::string action_type_;
  bool interleave_ = false;
  std::string config_;
  std::size_t count_ = 1;
};

// --------------------------------------------------------------------------
// faas.generate_pairs: the Fig. 5 producer stage. `workers` FaaS functions
// each stream pairs_per_worker generated "key,value" lines into either
// per-worker files `<path>{i}` (target = file, the data-shipping baseline)
// or one shared interleaved action `<path>` (target = action, Glider).

class GeneratePairsNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<GeneratePairsNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(auto workers, s.GetInt("workers"));
    node->workers_ = static_cast<std::size_t>(workers);
    GLIDER_ASSIGN_OR_RETURN(auto pairs, s.GetInt("pairs_per_worker"));
    node->pairs_per_worker_ = static_cast<std::size_t>(pairs);
    GLIDER_ASSIGN_OR_RETURN(auto keys, s.GetIntOr("distinct_keys", 1024));
    node->distinct_keys_ = static_cast<std::uint32_t>(keys);
    GLIDER_ASSIGN_OR_RETURN(auto seed, s.GetIntOr("seed", 11));
    node->seed_ = static_cast<std::uint64_t>(seed);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    const std::string target = s.GetStringOr("target", "file");
    if (target == "file") {
      node->to_action_ = false;
    } else if (target == "action") {
      node->to_action_ = true;
    } else {
      return Status::InvalidArgument(s.Describe() +
                                     ": key 'target' must be file or action, "
                                     "got '" +
                                     target + "'");
    }
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  GeneratePairsNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "faas.generate_pairs", measured) {}

  Status Run(GraphContext& ctx) override {
    RegisterWorkloadActions();
    std::atomic<std::uint64_t> bytes{0};
    GLIDER_RETURN_IF_ERROR(RunFaasStage(
        ctx, workers_, /*internal_client=*/false,
        [&](std::size_t i, nk::StoreClient& store) -> Status {
          const auto emit_pairs = [&](auto& writer) {
            return GeneratePairs(seed_ + i, distinct_keys_, pairs_per_worker_,
                                 [&](std::string_view batch) {
                                   bytes += batch.size();
                                   return writer->Write(batch);
                                 });
          };
          if (to_action_) {
            GLIDER_ASSIGN_OR_RETURN(auto node,
                                    core::ActionNode::Lookup(store, path_));
            GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
            GLIDER_RETURN_IF_ERROR(emit_pairs(writer));
            return writer->Close();
          }
          const std::string path = Expand(path_, i);
          GLIDER_RETURN_IF_ERROR(
              store.CreateNode(path, nk::NodeType::kFile).status());
          GLIDER_ASSIGN_OR_RETURN(auto writer,
                                  nk::FileWriter::Open(store, path));
          GLIDER_RETURN_IF_ERROR(emit_pairs(writer));
          return writer->Close();
        }));
    stats().ops += workers_ * pairs_per_worker_;
    stats().bytes += bytes.load();
    return Status::Ok();
  }

 private:
  std::size_t workers_ = 0;
  std::size_t pairs_per_worker_ = 0;
  std::uint32_t distinct_keys_ = 1024;
  std::uint64_t seed_ = 11;
  std::string path_;
  bool to_action_ = false;
};

// --------------------------------------------------------------------------
// faas.reduce_files: the Fig. 5 baseline reduce stage. One FaaS worker
// ingests every `<input>{i}` file in full, aggregates through the merge
// action's kernel (PairMerge), and writes the dictionary to `output`.

class ReduceFilesNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<ReduceFilesNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->input_, s.GetString("input"));
    GLIDER_ASSIGN_OR_RETURN(auto inputs, s.GetInt("inputs"));
    node->inputs_ = static_cast<std::size_t>(inputs);
    GLIDER_ASSIGN_OR_RETURN(node->output_, s.GetString("output"));
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  ReduceFilesNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "faas.reduce_files", measured) {}

  Status Run(GraphContext& ctx) override {
    return RunFaasStage(
        ctx, 1, /*internal_client=*/false,
        [&](std::size_t, nk::StoreClient& store) -> Status {
          PairMerge sums;
          for (std::size_t i = 0; i < inputs_; ++i) {
            GLIDER_ASSIGN_OR_RETURN(
                auto reader, nk::FileReader::Open(store, Expand(input_, i)));
            GLIDER_ASSIGN_OR_RETURN(
                const std::uint64_t merged,
                sums.Add([&reader] { return reader->ReadChunk(); }));
            stats().ops += merged;
          }
          GLIDER_RETURN_IF_ERROR(
              store.CreateNode(output_, nk::NodeType::kFile).status());
          GLIDER_ASSIGN_OR_RETURN(auto writer,
                                  nk::FileWriter::Open(store, output_));
          GLIDER_RETURN_IF_ERROR(
              sums.WriteTo([&](std::string_view batch) {
                stats().bytes += batch.size();
                return writer->Write(batch);
              }));
          return writer->Close();
        });
  }

 private:
  std::string input_;
  std::size_t inputs_ = 0;
  std::string output_;
};

// --------------------------------------------------------------------------
// faas.count_lines: the Table 2 consumer stage. `workers` FaaS functions
// each scan `<input>{i}` — a raw file (source = file; lines filtered
// client-side on `marker` when set) or a filter-action proxy (source =
// action; the stream arrives pre-filtered). Exports matched-line and word
// counts, the invariants the [check] section compares across variants.

class CountLinesNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<CountLinesNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(auto workers, s.GetInt("workers"));
    node->workers_ = static_cast<std::size_t>(workers);
    GLIDER_ASSIGN_OR_RETURN(node->input_, s.GetString("input"));
    node->marker_ = s.GetStringOr("marker", "");
    node->raw_ = s.GetStringOr("raw", "");
    const std::string source = s.GetStringOr("source", "file");
    if (source == "file") {
      node->from_action_ = false;
    } else if (source == "action") {
      node->from_action_ = true;
    } else {
      return Status::InvalidArgument(s.Describe() +
                                     ": key 'source' must be file or action, "
                                     "got '" +
                                     source + "'");
    }
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  CountLinesNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "faas.count_lines", measured) {}

  Status Run(GraphContext& ctx) override {
    RegisterWorkloadActions();
    std::atomic<std::uint64_t> matched{0};
    std::atomic<std::uint64_t> words{0};
    std::atomic<std::uint64_t> input_bytes{0};
    GLIDER_RETURN_IF_ERROR(RunFaasStage(
        ctx, workers_, /*internal_client=*/false,
        [&](std::size_t i, nk::StoreClient& store) -> Status {
          // `raw` names the unfiltered input whose size is the bytes this
          // stage logically processed (for action sources the proxy hides
          // the raw file's size).
          if (!raw_.empty()) {
            GLIDER_ASSIGN_OR_RETURN(auto info, store.Lookup(Expand(raw_, i)));
            input_bytes += info.size;
          }
          std::uint64_t my_matched = 0;
          std::uint64_t my_words = 0;
          const auto scan = [&](auto& reader) -> Status {
            nk::LineScanner scanner([&] { return reader->ReadChunk(); });
            std::string line;
            while (true) {
              GLIDER_ASSIGN_OR_RETURN(auto more, scanner.NextLine(line));
              if (!more) break;
              if (!marker_.empty() &&
                  line.find(marker_) == std::string::npos) {
                continue;
              }
              ++my_matched;
              my_words += CountWords(line);
            }
            return Status::Ok();
          };
          const std::string path = Expand(input_, i);
          if (from_action_) {
            GLIDER_ASSIGN_OR_RETURN(auto node,
                                    core::ActionNode::Lookup(store, path));
            GLIDER_ASSIGN_OR_RETURN(auto reader, node.OpenReader());
            GLIDER_RETURN_IF_ERROR(scan(reader));
            GLIDER_RETURN_IF_ERROR(reader->Close());
          } else {
            GLIDER_ASSIGN_OR_RETURN(auto reader,
                                    nk::FileReader::Open(store, path));
            if (raw_.empty()) input_bytes += reader->size();
            GLIDER_RETURN_IF_ERROR(scan(reader));
          }
          matched += my_matched;
          words += my_words;
          return Status::Ok();
        }));
    stats().ops += matched.load();
    stats().bytes += input_bytes.load();
    ctx.ExportInt("matched", matched.load());
    ctx.ExportInt("words", words.load());
    ctx.ExportInt("input_bytes", input_bytes.load());
    return Status::Ok();
  }

 private:
  std::size_t workers_ = 0;
  std::string input_;
  std::string marker_;
  std::string raw_;
  bool from_action_ = false;
};

// --------------------------------------------------------------------------
// sink.dictionary: reads a "key,sum" dictionary from a file or action and
// exports entry count + value checksum (the Fig. 5 invariants).

class DictionarySinkNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<DictionarySinkNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    const std::string source = s.GetStringOr("source", "file");
    if (source == "file") {
      node->from_action_ = false;
    } else if (source == "action") {
      node->from_action_ = true;
    } else {
      return Status::InvalidArgument(s.Describe() +
                                     ": key 'source' must be file or action, "
                                     "got '" +
                                     source + "'");
    }
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  DictionarySinkNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "sink.dictionary", measured) {}

  Status Run(GraphContext& ctx) override {
    GLIDER_ASSIGN_OR_RETURN(auto client, ctx.cluster->NewInternalClient());
    std::string dict;
    if (from_action_) {
      GLIDER_ASSIGN_OR_RETURN(auto node,
                              core::ActionNode::Lookup(*client, path_));
      GLIDER_ASSIGN_OR_RETURN(auto reader, node.OpenReader());
      while (true) {
        GLIDER_ASSIGN_OR_RETURN(auto chunk, reader->ReadChunk());
        if (chunk.empty()) break;
        dict += chunk.ToString();
      }
      GLIDER_RETURN_IF_ERROR(reader->Close());
    } else {
      GLIDER_ASSIGN_OR_RETURN(auto value, client->GetValue(path_));
      dict = value.AsStringView();
    }
    std::uint64_t entries = 0;
    std::int64_t checksum = 0;
    SummarizeDictionary(dict, entries, checksum);
    stats().ops += entries;
    stats().bytes += dict.size();
    ctx.ExportInt("entries", entries);
    ctx.Export("checksum", std::to_string(checksum));
    return Status::Ok();
  }

 private:
  std::string path_;
  bool from_action_ = false;
};

// --------------------------------------------------------------------------
// file.delete: teardown. Deletes `count` nodes `<path>{i}` (files or action
// nodes); missing nodes are fine — teardown is idempotent.

class DeleteNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<DeleteNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    GLIDER_ASSIGN_OR_RETURN(auto count, s.GetIntOr("count", 1));
    node->count_ = static_cast<std::size_t>(count);
    GLIDER_ASSIGN_OR_RETURN(node->action_, s.GetBoolOr("action", false));
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  DeleteNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "file.delete", measured) {}

  Status Run(GraphContext& ctx) override {
    GLIDER_ASSIGN_OR_RETURN(auto client, ctx.cluster->NewInternalClient());
    for (std::size_t i = 0; i < count_; ++i) {
      const std::string path = Expand(path_, i);
      if (action_) {
        (void)core::ActionNode::Delete(*client, path);
      } else {
        (void)client->Delete(path);
      }
      ++stats().ops;
    }
    return Status::Ok();
  }

 private:
  std::string path_;
  std::size_t count_ = 1;
  bool action_ = false;
};

// --------------------------------------------------------------------------
// workload.sort / workload.genomics: wrapper nodes embedding the
// still-monolithic Fig. 7/Fig. 9 drivers (a graph node can wrap a whole
// workload). They need the in-process MiniCluster, so they refuse to run
// against a remote handle. Phase times and invariants land on the
// blackboard for the [check] section and the BENCH json.

Result<bool> VariantIsGlider(const SpecSection& s) {
  GLIDER_ASSIGN_OR_RETURN(auto variant, s.GetString("variant"));
  if (variant == "glider") return true;
  if (variant == "baseline") return false;
  return Status::InvalidArgument(s.Describe() +
                                 ": key 'variant' must be baseline or "
                                 "glider, got '" +
                                 variant + "'");
}

class SortWorkloadNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<SortWorkloadNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->glider_, VariantIsGlider(s));
    GLIDER_ASSIGN_OR_RETURN(
        auto workers,
        s.GetIntOr("workers", static_cast<long long>(node->params_.workers)));
    node->params_.workers = static_cast<std::size_t>(workers);
    GLIDER_ASSIGN_OR_RETURN(
        auto bytes, s.GetIntOr("bytes_per_partition",
                               static_cast<long long>(
                                   node->params_.bytes_per_partition)));
    node->params_.bytes_per_partition = static_cast<std::size_t>(bytes);
    GLIDER_ASSIGN_OR_RETURN(
        auto seed,
        s.GetIntOr("seed", static_cast<long long>(node->params_.seed)));
    node->params_.seed = static_cast<std::uint64_t>(seed);
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  SortWorkloadNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "workload.sort", measured) {}

  Status Run(GraphContext& ctx) override {
    testing::MiniCluster* mini = ctx.cluster->mini();
    if (mini == nullptr) {
      return Status::InvalidArgument(
          "workload.sort needs an in-process MiniCluster");
    }
    GLIDER_RETURN_IF_ERROR(SetupSortInput(*mini, params_));
    GLIDER_ASSIGN_OR_RETURN(auto result,
                            glider_ ? RunSortGlider(*mini, params_)
                                    : RunSortBaseline(*mini, params_));
    if (!result.verified) {
      return Status::Internal(
          "workload.sort: the output is not the input, globally sorted");
    }
    stats().ops += result.records;
    stats().bytes += result.transfer_bytes;
    ctx.Export("p1_seconds", std::to_string(result.p1_seconds));
    ctx.Export("p2_seconds", std::to_string(result.p2_seconds));
    ctx.Export("total_seconds", std::to_string(result.total_seconds));
    ctx.ExportInt("transfer_bytes", result.transfer_bytes);
    ctx.ExportInt("records", result.records);
    ctx.ExportInt("verified", result.verified ? 1 : 0);
    return Status::Ok();
  }

 private:
  bool glider_ = false;
  SortParams params_;
};

class GenomicsWorkloadNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<GenomicsWorkloadNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->glider_, VariantIsGlider(s));
    GenomicsParams& p = node->params_;
    GLIDER_ASSIGN_OR_RETURN(
        auto a, s.GetIntOr("fasta_chunks",
                           static_cast<long long>(p.fasta_chunks)));
    p.fasta_chunks = static_cast<std::size_t>(a);
    GLIDER_ASSIGN_OR_RETURN(
        auto q, s.GetIntOr("fastq_chunks",
                           static_cast<long long>(p.fastq_chunks)));
    p.fastq_chunks = static_cast<std::size_t>(q);
    GLIDER_ASSIGN_OR_RETURN(
        auto r, s.GetIntOr("reducers_per_chunk",
                           static_cast<long long>(p.reducers_per_chunk)));
    p.reducers_per_chunk = static_cast<std::size_t>(r);
    GLIDER_ASSIGN_OR_RETURN(
        auto records, s.GetIntOr("records_per_mapper",
                                 static_cast<long long>(
                                     p.records_per_mapper)));
    p.records_per_mapper = static_cast<std::size_t>(records);
    GLIDER_ASSIGN_OR_RETURN(
        auto stride, s.GetIntOr("sample_stride",
                                static_cast<long long>(p.sample_stride)));
    p.sample_stride = static_cast<std::size_t>(stride);
    GLIDER_ASSIGN_OR_RETURN(
        auto seed, s.GetIntOr("seed", static_cast<long long>(p.seed)));
    p.seed = static_cast<std::uint64_t>(seed);
    GLIDER_ASSIGN_OR_RETURN(auto latency,
                            s.GetIntOr("s3_op_latency_us", 15'000));
    node->s3_options_.op_latency = std::chrono::microseconds(latency);
    GLIDER_ASSIGN_OR_RETURN(
        auto scan, s.GetIntOr("s3_select_scan_bps",
                              static_cast<long long>(
                                  node->s3_options_.select_scan_bps)));
    node->s3_options_.select_scan_bps = static_cast<std::uint64_t>(scan);
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  GenomicsWorkloadNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "workload.genomics", measured) {}

  Status Run(GraphContext& ctx) override {
    testing::MiniCluster* mini = ctx.cluster->mini();
    if (mini == nullptr) {
      return Status::InvalidArgument(
          "workload.genomics needs an in-process MiniCluster");
    }
    faas::S3Like s3(s3_options_, mini->metrics());
    GLIDER_ASSIGN_OR_RETURN(auto result,
                            glider_ ? RunGenomicsGlider(*mini, s3, params_)
                                    : RunGenomicsBaseline(*mini, s3, params_));
    stats().ops += result.records_reduced;
    stats().bytes += result.transfer_bytes;
    ctx.Export("map_seconds", std::to_string(result.map_seconds));
    ctx.Export("ranges_seconds", std::to_string(result.ranges_seconds));
    ctx.Export("reduce_seconds", std::to_string(result.reduce_seconds));
    ctx.Export("total_seconds", std::to_string(result.total_seconds));
    ctx.ExportInt("transfer_bytes", result.transfer_bytes);
    ctx.ExportInt("variants", result.variants);
    ctx.ExportInt("records_reduced", result.records_reduced);
    return Status::Ok();
  }

 private:
  bool glider_ = false;
  GenomicsParams params_;
  faas::S3Like::Options s3_options_;
};

// --------------------------------------------------------------------------
// request.action_write: open-loop request node. Run() deploys the target
// action (idempotent); each RunRequest writes `bytes` of deterministic
// "key,value" lines to it through a fresh stream — the per-arrival unit of
// work the load generator paces.

class ActionWriteRequestNode : public WorkloadNode {
 public:
  static Result<std::unique_ptr<WorkloadNode>> Make(const SpecSection& s) {
    GLIDER_ASSIGN_OR_RETURN(auto measured, Measured(s));
    auto node = std::make_unique<ActionWriteRequestNode>(s.name(), measured);
    GLIDER_ASSIGN_OR_RETURN(node->path_, s.GetString("path"));
    node->action_type_ = s.GetStringOr("action", "glider.merge");
    GLIDER_ASSIGN_OR_RETURN(auto bytes, s.GetIntOr("bytes", 1024));
    node->bytes_ = static_cast<std::size_t>(bytes);
    GLIDER_ASSIGN_OR_RETURN(auto keys, s.GetIntOr("distinct_keys", 1024));
    node->distinct_keys_ = static_cast<std::uint32_t>(keys);
    return std::unique_ptr<WorkloadNode>(std::move(node));
  }

  ActionWriteRequestNode(std::string name, bool measured)
      : WorkloadNode(std::move(name), "request.action_write", measured) {}

  Status Run(GraphContext& ctx) override {
    RegisterWorkloadActions();
    GLIDER_ASSIGN_OR_RETURN(auto client, ctx.cluster->NewInternalClient());
    auto created = core::ActionNode::Create(*client, path_, action_type_,
                                            /*interleave=*/true);
    if (!created.ok() &&
        created.status().code() != StatusCode::kAlreadyExists) {
      return created.status();
    }
    return Status::Ok();
  }

  Status RunRequest(GraphContext&, nk::StoreClient& client,
                    std::uint64_t request_id) override {
    std::string payload;
    const std::string line =
        std::to_string(request_id % distinct_keys_) + ",1\n";
    while (payload.size() < bytes_) payload += line;
    GLIDER_ASSIGN_OR_RETURN(auto node,
                            core::ActionNode::Lookup(client, path_));
    GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
    GLIDER_RETURN_IF_ERROR(writer->Write(payload));
    return writer->Close();
  }

 private:
  std::string path_;
  std::string action_type_;
  std::size_t bytes_ = 1024;
  std::uint32_t distinct_keys_ = 1024;
};

}  // namespace

void RegisterBuiltinNodes() {
  static std::once_flag once;
  std::call_once(once, [] {
    NodeRegistry& r = NodeRegistry::Global();
    r.Register("text.files", TextFilesNode::Make);
    r.Register("action.create", ActionCreateNode::Make);
    r.Register("faas.generate_pairs", GeneratePairsNode::Make);
    r.Register("faas.reduce_files", ReduceFilesNode::Make);
    r.Register("faas.count_lines", CountLinesNode::Make);
    r.Register("sink.dictionary", DictionarySinkNode::Make);
    r.Register("file.delete", DeleteNode::Make);
    r.Register("workload.sort", SortWorkloadNode::Make);
    r.Register("workload.genomics", GenomicsWorkloadNode::Make);
    r.Register("request.action_write", ActionWriteRequestNode::Make);
  });
}

}  // namespace glider::workloads
