#include "workloads/record_run.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace glider::workloads {
namespace {

// Index entries hold 32-bit offsets and lengths.
constexpr std::size_t kMaxLength = std::numeric_limits<std::uint32_t>::max();

// The first 8 bytes as a big-endian integer, zero-padded: unequal prefixes
// order as the records do, and equal ones defer to the full comparison.
std::uint64_t PrefixOf(std::string_view record) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, record.data(), std::min<std::size_t>(record.size(), 8));
  std::uint64_t prefix = 0;
  for (const unsigned char b : bytes) prefix = prefix << 8 | b;
  return prefix;
}

}  // namespace

Status RecordRun::Add(const nk::LineScanner::ChunkFn& next_chunk) {
  // The open record's pieces: slices of the chunks it spans so far.
  std::vector<Buffer> split;
  std::size_t split_bytes = 0;
  while (true) {
    GLIDER_ASSIGN_OR_RETURN(const Buffer chunk, next_chunk());
    if (chunk.empty()) break;
    if (split_bytes + chunk.size() > kMaxLength) {
      return Status::InvalidArgument("record run: chunk or record over 4 GiB");
    }
    const std::string_view text = chunk.AsStringView();
    std::size_t pos = 0;
    std::size_t nl = text.find('\n');
    if (!split.empty() && nl != std::string_view::npos) {
      split.push_back(chunk.Slice(0, nl));
      split_bytes += nl;
      CloseSplit(split, split_bytes);
      pos = nl + 1;
      nl = text.find('\n', pos);
    }
    if (nl != std::string_view::npos) {
      // The chunk holds whole records: keep it and index them in place.
      const auto c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.push_back(chunk);
      for (; nl != std::string_view::npos; nl = text.find('\n', pos)) {
        Index(c, pos, nl - pos);
        pos = nl + 1;
      }
    }
    if (pos < text.size()) {
      split.push_back(chunk.Slice(pos));
      split_bytes += text.size() - pos;
    }
  }
  if (!split.empty()) CloseSplit(split, split_bytes);
  return Status::Ok();
}

void RecordRun::Index(std::uint32_t chunk, std::size_t offset,
                      std::size_t length) {
  index_.push_back(
      {PrefixOf(chunks_[chunk].AsStringView().substr(offset, length)), chunk,
       static_cast<std::uint32_t>(offset), static_cast<std::uint32_t>(length)});
  bytes_ += length + 1;
}

void RecordRun::CloseSplit(std::vector<Buffer>& pieces, std::size_t& bytes) {
  Buffer record;
  record.Reserve(bytes);
  for (const Buffer& piece : pieces) record.Append(piece.span());
  chunks_.push_back(std::move(record));
  Index(static_cast<std::uint32_t>(chunks_.size() - 1), 0, bytes);
  pieces.clear();
  bytes = 0;
}

std::string_view RecordRun::View(const Entry& entry) const {
  return chunks_[entry.chunk].AsStringView().substr(entry.offset,
                                                    entry.length);
}

void RecordRun::Sort() {
  // string_view compares through char_traits<char>, i.e. as unsigned
  // bytes and then by length: the order of std::string's operator<.
  std::sort(index_.begin(), index_.end(),
            [this](const Entry& a, const Entry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return View(a) < View(b);
            });
}

Status RecordRun::WriteTo(nk::FileWriter& writer,
                          std::size_t chunk_size) const {
  if (chunk_size == 0) {
    return Status::InvalidArgument("record run: zero chunk size");
  }
  std::vector<std::uint8_t> staging(chunk_size);
  std::size_t fill = 0;
  const auto flush_if_full = [&]() -> Status {
    if (fill < chunk_size) return Status::Ok();
    fill = 0;
    return writer.Write(ByteSpan(staging.data(), chunk_size));
  };
  for (const Entry& entry : index_) {
    std::string_view record = View(entry);
    while (!record.empty()) {
      const std::size_t n = std::min(record.size(), chunk_size - fill);
      std::memcpy(staging.data() + fill, record.data(), n);
      fill += n;
      record.remove_prefix(n);
      GLIDER_RETURN_IF_ERROR(flush_if_full());
    }
    staging[fill++] = '\n';
    GLIDER_RETURN_IF_ERROR(flush_if_full());
  }
  if (fill == 0) return Status::Ok();
  return writer.Write(ByteSpan(staging.data(), fill));
}

}  // namespace glider::workloads
