// Fig. 7 workload: the distributed sort of §7.3. Two phases: map (P1)
// partitions records by key range, reduce (P2) sorts each range. The
// baseline ships the full dataset through intermediate files twice; Glider
// pushes the reduce into sorter actions that receive the shuffle streams
// directly and write the sorted runs from inside the storage system.
#pragma once

#include <cstdint>

#include "testing/cluster.h"
#include "workloads/stats.h"

namespace glider::workloads {

struct SortParams {
  std::size_t workers = 4;  // same count of mappers and reducers/actions
  std::size_t bytes_per_partition = 2 << 20;
  std::uint64_t seed = 23;
};

struct SortResult {
  double p1_seconds = 0;
  double p2_seconds = 0;
  double total_seconds = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t records = 0;  // records in the sorted output (invariant)
  bool verified = false;      // globally sorted, same multiset as the input
};

// Creates /sort/in_<i> input partitions (driver-side, unmeasured).
Status SetupSortInput(testing::MiniCluster& cluster, const SortParams& params);

Result<SortResult> RunSortBaseline(testing::MiniCluster& cluster,
                                   const SortParams& params);

Result<SortResult> RunSortGlider(testing::MiniCluster& cluster,
                                 const SortParams& params);

}  // namespace glider::workloads
