// The pair-merge kernel of the Fig. 4/5 aggregation (§7.1). Both sides of
// Fig. 5 merge through it: the merge action over its write streams, the
// baseline reducer over its intermediate files, so the two variants differ
// only in where the pairs travel, not in how they are merged.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "nodekernel/client/file_streams.h"

namespace glider::workloads {

// Per-key sums of "key,value" lines. A pair line is two signed decimal
// integers split by a comma; every other line, the empty one included, is
// skipped. Lines are what nk::LineScanner yields: the bytes between two
// newlines, plus a final line without a newline.
class PairMerge {
 public:
  // Merges every pair line of the stream `next_chunk` yields, up to its
  // empty end-of-stream chunk, and returns how many it merged. Lines are
  // parsed where they lie in the chunks; only a line split across chunks is
  // copied. That line is carried only within this call, so interleaved
  // calls (one per stream, as the onWrite turns of one interleaved action)
  // may share the sums.
  Result<std::uint64_t> Add(const nk::LineScanner::ChunkFn& next_chunk);

  // Merges one line; false when it is not a pair line.
  bool AddLine(std::string_view line);

  // Passes "key,sum\n" for every key, keys ascending, to `write` in batches
  // of about 64 KiB. Stops at the first write that fails and returns it.
  Status WriteTo(const std::function<Status(std::string_view)>& write) const;

  std::size_t keys() const { return sums_.size(); }

 private:
  std::unordered_map<std::int64_t, std::int64_t> sums_;
};

}  // namespace glider::workloads
