#include "workloads/pair_merge.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace glider::workloads {
namespace {

constexpr std::size_t kBatchBytes = 64 * 1024;

}  // namespace

Result<std::uint64_t> PairMerge::Add(
    const nk::LineScanner::ChunkFn& next_chunk) {
  std::uint64_t merged = 0;
  std::string split;  // the open line's bytes from earlier chunks
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(const Buffer chunk, next_chunk());
    if (chunk.empty()) break;
    std::string_view text = chunk.AsStringView();
    std::size_t nl = text.find('\n');
    if (!split.empty()) {
      if (nl == std::string_view::npos) {
        split.append(text);
        continue;
      }
      split.append(text.substr(0, nl));
      merged += AddLine(split);
      split.clear();
      text.remove_prefix(nl + 1);
      nl = text.find('\n');
    }
    for (; nl != std::string_view::npos; nl = text.find('\n')) {
      merged += AddLine(text.substr(0, nl));
      text.remove_prefix(nl + 1);
    }
    split.assign(text);
  }
  if (!split.empty()) merged += AddLine(split);
  return merged;
}

bool PairMerge::AddLine(std::string_view line) {
  const std::size_t comma = line.find(',');
  if (comma == std::string_view::npos) return false;
  std::int64_t key = 0;
  std::int64_t value = 0;
  const char* end = line.data() + line.size();
  if (std::from_chars(line.data(), line.data() + comma, key).ec !=
          std::errc{} ||
      std::from_chars(line.data() + comma + 1, end, value).ec != std::errc{}) {
    return false;
  }
  sums_[key] += value;
  return true;
}

Status PairMerge::WriteTo(
    const std::function<Status(std::string_view)>& write) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> sorted(sums_.begin(),
                                                            sums_.end());
  std::sort(sorted.begin(), sorted.end());
  std::string batch;
  char digits[24];  // an int64 takes at most 20
  for (const auto& [key, sum] : sorted) {
    batch.append(digits, std::to_chars(digits, std::end(digits), key).ptr);
    batch.push_back(',');
    batch.append(digits, std::to_chars(digits, std::end(digits), sum).ptr);
    batch.push_back('\n');
    if (batch.size() >= kBatchBytes) {
      GLIDER_RETURN_IF_ERROR(write(batch));
      batch.clear();
    }
  }
  if (batch.empty()) return Status::Ok();
  return write(batch);
}

}  // namespace glider::workloads
