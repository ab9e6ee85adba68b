// The sort kernel of the Fig. 7 reduce (§7.3). Both sides of the figure sort
// through it: the sorter action over its shuffle streams, the baseline
// reducer over its intermediate files, so the two variants differ only in
// where the records travel, not in how they are sorted.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "nodekernel/client/file_streams.h"

namespace glider::workloads {

// A run of newline-delimited records held in the chunks they arrived in.
// A record is what nk::LineScanner yields: the bytes between two newlines
// (empty ones included), plus a final record without a newline.
//
// Add keeps each received chunk as it is and appends one 24-byte index
// entry per record; only a record split across chunks is copied, once,
// into a Buffer of its own. Sort orders the index, and WriteTo gathers the
// records through one reused staging buffer. Nothing is freed per record.
//
// Chunks are read only through const access: a stream chunk shares its
// frame's storage, and the mutable Buffer::data() would detach (copy) it.
class RecordRun {
 public:
  // Indexes every record of the stream `next_chunk` yields, up to its empty
  // end-of-stream chunk. A record split across chunks is carried only
  // within this call, so interleaved calls (one per stream, as the onWrite
  // turns of one interleaved action) may share a run.
  Status Add(const nk::LineScanner::ChunkFn& next_chunk);

  // Orders the records bytewise, exactly as std::string's operator<.
  void Sort();

  // Writes the records in index order, each followed by '\n'. Every write
  // but the last is exactly `chunk_size` bytes, so a FileWriter with that
  // chunk size sends each one straight from the staging buffer.
  Status WriteTo(nk::FileWriter& writer, std::size_t chunk_size) const;

  std::size_t records() const { return index_.size(); }
  // Record bytes plus one newline per record.
  std::uint64_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::uint64_t prefix;  // first 8 bytes, big-endian, zero-padded
    std::uint32_t chunk;
    std::uint32_t offset;
    std::uint32_t length;
  };
  static_assert(sizeof(Entry) == 24);

  // Indexes bytes [offset, offset + length) of chunks_[chunk] as a record.
  void Index(std::uint32_t chunk, std::size_t offset, std::size_t length);
  // Copies the pieces of a split record into one Buffer, indexes it and
  // empties `pieces` (`bytes` is their total size).
  void CloseSplit(std::vector<Buffer>& pieces, std::size_t& bytes);
  std::string_view View(const Entry& entry) const;

  std::vector<Buffer> chunks_;
  std::vector<Entry> index_;
  std::uint64_t bytes_ = 0;
};

}  // namespace glider::workloads
