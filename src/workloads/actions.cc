#include "workloads/actions.h"

#include <algorithm>
#include <charconv>
#include <queue>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "glider/client/action_node.h"
#include "workloads/generators.h"

namespace glider::workloads {
namespace {

// Splits creation config into lines.
std::vector<std::string> ConfigLines(ByteSpan config) {
  std::vector<std::string> lines;
  std::istringstream in{std::string(AsText(config))};
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

// ---- MergeAction ------------------------------------------------------------

void MergeAction::onWrite(core::ActionInputStream& in, core::ActionContext&) {
  // Stray lines are skipped, like the paper's merge.
  (void)sums_.Add([&in] { return in.ReadChunk(); });
}

void MergeAction::onRead(core::ActionOutputStream& out, core::ActionContext&) {
  (void)sums_.WriteTo(
      [&out](std::string_view batch) { return out.Write(batch); });
  out.Close();
}

std::uint64_t MergeAction::StateBytes() const {
  return sums_.keys() * (sizeof(std::int64_t) * 2);
}

// ---- FilterAction -----------------------------------------------------------

void FilterAction::onCreate(core::ActionContext& ctx) {
  auto lines = ConfigLines(ctx.config());
  if (lines.size() >= 2) {
    backing_path_ = lines[0];
    token_ = lines[1];
  }
}

void FilterAction::onRead(core::ActionOutputStream& out,
                          core::ActionContext& ctx) {
  auto reader = nk::FileReader::Open(ctx.store(), backing_path_);
  if (!reader.ok()) {
    GLIDER_LOG(kWarn, "filter") << "backing file: " << reader.status().ToString();
    return;
  }
  nk::LineScanner scanner([&] { return (*reader)->ReadChunk(); });
  std::string line;
  std::string batch;
  while (true) {
    auto more = scanner.NextLine(line);
    if (!more.ok() || !*more) break;
    if (line.find(token_) == std::string::npos) continue;
    batch += line;
    batch.push_back('\n');
    if (batch.size() >= 32 * 1024) {
      if (!out.Write(batch).ok()) return;
      batch.clear();
    }
  }
  if (!batch.empty()) (void)out.Write(batch);
  out.Close();
}

// ---- NoopAction -------------------------------------------------------------

void NoopAction::onCreate(core::ActionContext& ctx) {
  if (!ctx.config().empty()) {
    read_bytes_ = std::stoull(std::string(AsText(ctx.config())));
  }
}

void NoopAction::onWrite(core::ActionInputStream& in, core::ActionContext&) {
  while (true) {
    auto chunk = in.ReadChunk();
    if (!chunk.ok() || chunk->empty()) break;
  }
}

void NoopAction::onRead(core::ActionOutputStream& out, core::ActionContext&) {
  Buffer zeros(read_chunk_);
  std::uint64_t remaining = read_bytes_;
  while (remaining > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, read_chunk_));
    if (!out.Write(ByteSpan(zeros.data(), n)).ok()) return;
    remaining -= n;
  }
  out.Close();
}

// ---- SorterAction -----------------------------------------------------------

void SorterAction::onCreate(core::ActionContext& ctx) {
  output_path_ = std::string(AsText(ctx.config()));
}

void SorterAction::onWrite(core::ActionInputStream& in, core::ActionContext&) {
  const Status added = run_.Add([&in] { return in.ReadChunk(); });
  if (!added.ok()) GLIDER_LOG(kWarn, "sorter") << added.ToString();
}

void SorterAction::onRead(core::ActionOutputStream& out,
                          core::ActionContext& ctx) {
  if (!sorted_written_) {
    run_.Sort();
    auto created = ctx.store().CreateNode(output_path_, nk::NodeType::kFile);
    if (!created.ok() &&
        created.status().code() != StatusCode::kAlreadyExists) {
      GLIDER_LOG(kWarn, "sorter") << created.status().ToString();
      return;
    }
    auto writer = nk::FileWriter::Open(ctx.store(), output_path_);
    if (!writer.ok()) return;
    if (!run_.WriteTo(**writer, ctx.store().options().chunk_size).ok()) return;
    if (!(*writer)->Close().ok()) return;
    sorted_written_ = true;
  }
  (void)out.Write(std::to_string(run_.records()) + "\n");
  out.Close();
}

std::uint64_t SorterAction::StateBytes() const { return run_.bytes(); }

// ---- SamplerAction ----------------------------------------------------------

void SamplerAction::onCreate(core::ActionContext& ctx) {
  auto lines = ConfigLines(ctx.config());
  if (!lines.empty()) prefix_ = lines[0];
  if (lines.size() >= 2) stride_ = std::stoul(lines[1]);
  if (lines.size() >= 3) manager_path_ = lines[2];
  if (stride_ == 0) stride_ = 1;
}

void SamplerAction::onWrite(core::ActionInputStream& in,
                            core::ActionContext& ctx) {
  const std::string path = prefix_ + "_" + std::to_string(next_file_++);
  auto created = ctx.store().CreateNode(path, nk::NodeType::kFile);
  if (!created.ok()) {
    GLIDER_LOG(kWarn, "sampler") << created.status().ToString();
    return;
  }
  auto writer = nk::FileWriter::Open(ctx.store(), path);
  if (!writer.ok()) return;

  // Stream-through: persist each chunk while sampling record positions.
  auto lines = in.Lines();
  std::string line;
  std::size_t i = 0;
  std::string batch;
  while (true) {
    auto more = lines.NextLine(line);
    if (!more.ok() || !*more) break;
    if (i++ % stride_ == 0) {
      samples_.push_back(AlignedReadGenerator::PosOf(line));
    }
    batch += line;
    batch.push_back('\n');
    if (batch.size() >= 256 * 1024) {
      if (!(*writer)->Write(batch).ok()) return;
      batch.clear();
    }
  }
  if (!batch.empty()) (void)(*writer)->Write(batch);
  if ((*writer)->Close().ok()) files_.push_back(path);
}

void SamplerAction::onRead(core::ActionOutputStream& out,
                           core::ActionContext& ctx) {
  // Push the samples to the manager action through an action-to-action
  // stream: the data never leaves the storage system.
  if (!manager_path_.empty()) {
    auto manager = core::ActionNode::Lookup(ctx.store(), manager_path_);
    if (manager.ok()) {
      auto writer = manager->OpenWriter();
      if (writer.ok()) {
        std::string payload;
        for (const auto pos : samples_) {
          payload += std::to_string(pos);
          payload.push_back('\n');
        }
        (void)(*writer)->Write(payload);
        (void)(*writer)->Close();
      }
    } else {
      GLIDER_LOG(kWarn, "sampler") << "manager: " << manager.status().ToString();
    }
  }
  std::string payload;
  if (manager_path_.empty()) {
    for (const auto pos : samples_) {
      payload += std::to_string(pos);
      payload.push_back('\n');
    }
  }
  for (const auto& file : files_) {
    payload += "F ";
    payload += file;
    payload.push_back('\n');
  }
  (void)out.Write(payload);
  out.Close();
}

std::uint64_t SamplerAction::StateBytes() const {
  std::uint64_t bytes = samples_.size() * sizeof(std::uint64_t);
  for (const auto& f : files_) bytes += f.size();
  return bytes;
}

// ---- ManagerAction ----------------------------------------------------------

void ManagerAction::onCreate(core::ActionContext& ctx) {
  if (!ctx.config().empty()) {
    num_ranges_ = std::stoul(std::string(AsText(ctx.config())));
  }
  if (num_ranges_ == 0) num_ranges_ = 1;
}

void ManagerAction::onWrite(core::ActionInputStream& in,
                            core::ActionContext&) {
  auto lines = in.Lines();
  std::string line;
  while (true) {
    auto more = lines.NextLine(line);
    if (!more.ok() || !*more) break;
    std::uint64_t pos = 0;
    auto r = std::from_chars(line.data(), line.data() + line.size(), pos);
    if (r.ec == std::errc{}) samples_.push_back(pos);
  }
}

void ManagerAction::onRead(core::ActionOutputStream& out,
                           core::ActionContext&) {
  std::sort(samples_.begin(), samples_.end());
  constexpr std::uint64_t kMax = 1ull << 63;
  std::string payload;
  for (std::size_t r = 0; r < num_ranges_; ++r) {
    // With no samples (degenerate input) fall back to even splits.
    const std::uint64_t lo =
        r == 0 ? 0
        : samples_.empty()
            ? kMax / num_ranges_ * r
            : samples_[samples_.size() * r / num_ranges_];
    const std::uint64_t hi =
        r + 1 == num_ranges_ ? kMax
        : samples_.empty()
            ? kMax / num_ranges_ * (r + 1)
            : samples_[samples_.size() * (r + 1) / num_ranges_];
    payload += std::to_string(lo);
    payload.push_back(',');
    payload += std::to_string(hi);
    payload.push_back('\n');
  }
  (void)out.Write(payload);
  out.Close();
}

std::uint64_t ManagerAction::StateBytes() const {
  return samples_.size() * sizeof(std::uint64_t);
}

// ---- ReaderAction -----------------------------------------------------------

void ReaderAction::onCreate(core::ActionContext& ctx) {
  auto lines = ConfigLines(ctx.config());
  if (!lines.empty()) {
    const auto comma = lines[0].find(',');
    if (comma != std::string::npos) {
      lo_ = std::stoull(lines[0].substr(0, comma));
      hi_ = std::stoull(lines[0].substr(comma + 1));
    }
  }
  files_.assign(lines.begin() + (lines.empty() ? 0 : 1), lines.end());
}

void ReaderAction::onRead(core::ActionOutputStream& out,
                          core::ActionContext& ctx) {
  // Gather the in-range records of every ephemeral file (storage-internal
  // reads), then stream them to the reducer as one sorted run.
  std::vector<std::string> records;
  for (const auto& file : files_) {
    auto reader = nk::FileReader::Open(ctx.store(), file);
    if (!reader.ok()) {
      GLIDER_LOG(kWarn, "reader") << file << ": " << reader.status().ToString();
      continue;
    }
    nk::LineScanner scanner([&] { return (*reader)->ReadChunk(); });
    std::string line;
    while (true) {
      auto more = scanner.NextLine(line);
      if (!more.ok() || !*more) break;
      const std::uint64_t pos = AlignedReadGenerator::PosOf(line);
      if (pos >= lo_ && pos < hi_) {
        records.push_back(std::move(line));
        line.clear();
      }
    }
  }
  std::sort(records.begin(), records.end());
  std::string batch;
  for (const auto& record : records) {
    batch += record;
    batch.push_back('\n');
    if (batch.size() >= 64 * 1024) {
      if (!out.Write(batch).ok()) return;
      batch.clear();
    }
  }
  if (!batch.empty()) (void)out.Write(batch);
  out.Close();
}

// ---- TreeMergeAction -----------------------------------------------------------

void TreeMergeAction::onCreate(core::ActionContext& ctx) {
  parent_path_ = std::string(AsText(ctx.config()));
}

void TreeMergeAction::onRead(core::ActionOutputStream& out,
                             core::ActionContext& ctx) {
  if (parent_path_.empty()) {
    // Root: serialize the final dictionary like a plain merge.
    MergeAction::onRead(out, ctx);
    return;
  }
  auto parent = core::ActionNode::Lookup(ctx.store(), parent_path_);
  if (!parent.ok()) {
    GLIDER_LOG(kWarn, "tree-merge") << parent.status().ToString();
    return;
  }
  auto writer = parent->OpenWriter();
  if (!writer.ok()) return;
  if (!sums_.WriteTo([&writer](std::string_view batch) {
             return (*writer)->Write(batch);
           }).ok() ||
      !(*writer)->Close().ok()) {
    return;
  }
  (void)out.Write(std::to_string(sums_.keys()) + "\n");
  out.Close();
}

// ---- QueryableIndexAction ------------------------------------------------------

void QueryableIndexAction::onWrite(core::ActionInputStream& in,
                                   core::ActionContext&) {
  auto lines = in.Lines();
  std::string line;
  while (true) {
    auto more = lines.NextLine(line);
    if (!more.ok() || !*more) break;
    if (line.starts_with("put ")) {
      const auto space = line.find(' ', 4);
      if (space != std::string::npos) {
        index_[line.substr(4, space - 4)] = line.substr(space + 1);
      }
    } else if (line.starts_with("get ")) {
      const std::string key = line.substr(4);
      auto it = index_.find(key);
      pending_answers_.push_back(it == index_.end()
                                     ? key + "!missing"
                                     : key + "=" + it->second);
    } else if (line == "count") {
      pending_answers_.push_back("count=" + std::to_string(index_.size()));
    }
  }
}

void QueryableIndexAction::onRead(core::ActionOutputStream& out,
                                  core::ActionContext&) {
  std::string payload;
  for (const auto& answer : pending_answers_) {
    payload += answer;
    payload.push_back('\n');
  }
  pending_answers_.clear();
  (void)out.Write(payload);
  out.Close();
}

std::uint64_t QueryableIndexAction::StateBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [key, value] : index_) bytes += key.size() + value.size();
  return bytes;
}

// ---- CheckpointMergeAction ----------------------------------------------------

void CheckpointMergeAction::onCreate(core::ActionContext& ctx) {
  checkpoint_path_ = std::string(AsText(ctx.config()));
  if (checkpoint_path_.empty()) return;
  auto saved = ctx.store().GetValue(checkpoint_path_);
  if (!saved.ok()) return;  // no checkpoint yet
  // The checkpoint is one chunk; its keys are distinct, so merging them
  // into the empty sums restores them.
  (void)sums_.Add(
      [&saved] { return Result<Buffer>(std::exchange(*saved, Buffer{})); });
}

void CheckpointMergeAction::onWrite(core::ActionInputStream& in,
                                    core::ActionContext& ctx) {
  auto lines = in.Lines();
  std::string line;
  while (true) {
    auto more = lines.NextLine(line);
    if (!more.ok() || !*more) break;
    if (line != "!checkpoint") {
      sums_.AddLine(line);
      continue;
    }
    std::string payload;
    (void)sums_.WriteTo([&payload](std::string_view batch) {
      payload += batch;
      return Status::Ok();
    });
    const Status saved =
        ctx.store().PutValue(checkpoint_path_, AsBytes(payload));
    if (!saved.ok()) {
      GLIDER_LOG(kWarn, "ckpt-merge") << saved.ToString();
    }
  }
}

// ---- registration -------------------------------------------------------------

GLIDER_REGISTER_ACTION("glider.merge", MergeAction);
GLIDER_REGISTER_ACTION("glider.filter", FilterAction);
GLIDER_REGISTER_ACTION("glider.noop", NoopAction);
GLIDER_REGISTER_ACTION("glider.sorter", SorterAction);
GLIDER_REGISTER_ACTION("glider.sampler", SamplerAction);
GLIDER_REGISTER_ACTION("glider.manager", ManagerAction);
GLIDER_REGISTER_ACTION("glider.reader", ReaderAction);
GLIDER_REGISTER_ACTION("glider.ckpt-merge", CheckpointMergeAction);
GLIDER_REGISTER_ACTION("glider.tree-merge", TreeMergeAction);
GLIDER_REGISTER_ACTION("glider.index", QueryableIndexAction);

void RegisterWorkloadActions() {
  // The static registrars above run at load time; this function only forces
  // the object file to be linked in.
}

}  // namespace glider::workloads
