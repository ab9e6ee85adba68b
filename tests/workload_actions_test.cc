// Tests of the evaluation action library (workloads/actions.*) running on a
// live cluster: merge (and its PairMerge kernel), filter, noop, sorter (and
// its RecordRun sort kernel), sampler+manager (including the
// action-to-action stream), reader, and checkpointing merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "glider/client/action_node.h"
#include "testing/cluster.h"
#include "workloads/actions.h"
#include "workloads/generators.h"
#include "workloads/pair_merge.h"
#include "workloads/record_run.h"

namespace glider::workloads {
namespace {

class WorkloadActionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterWorkloadActions();
    testing::ClusterOptions options;
    options.data_servers = 1;
    options.active_servers = 1;
    options.slots_per_server = 16;
    options.chunk_size = 16 * 1024;
    auto cluster = testing::MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    auto client = cluster_->NewInternalClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  std::string ReadAll(core::ActionNode& node) {
    auto reader = node.OpenReader();
    EXPECT_TRUE(reader.ok());
    std::string out;
    while (true) {
      auto chunk = (*reader)->ReadChunk();
      EXPECT_TRUE(chunk.ok());
      if (!chunk.ok() || chunk->empty()) break;
      out += chunk->ToString();
    }
    EXPECT_TRUE((*reader)->Close().ok());
    return out;
  }

  Status WriteAll(core::ActionNode& node, std::string_view data) {
    GLIDER_ASSIGN_OR_RETURN(auto writer, node.OpenWriter());
    GLIDER_RETURN_IF_ERROR(writer->Write(data));
    return writer->Close();
  }

  std::unique_ptr<testing::MiniCluster> cluster_;
  std::unique_ptr<nk::StoreClient> client_;
};

// The records of `text` as nk::LineScanner yields them.
std::vector<std::string> SplitRecords(std::string_view text) {
  std::vector<std::string> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    records.emplace_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return records;
}

// `records` sorted as std::string, each followed by '\n'.
std::string ReferenceRun(std::vector<std::string> records) {
  std::sort(records.begin(), records.end());
  std::string run;
  for (const auto& record : records) {
    run += record;
    run.push_back('\n');
  }
  return run;
}

TEST_F(WorkloadActionsTest, MergeAggregatesAndToleratesJunk) {
  auto node = core::ActionNode::Create(*client_, "/m", "glider.merge");
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(WriteAll(*node, "5,5\nnot-a-pair\n5,-2\n-3,7\n").ok());
  EXPECT_EQ(ReadAll(*node), "-3,7\n5,3\n");
}

// The merge kernel against a std::map reference: signed pairs, junk and
// empty lines, a final line with and without '\n', cut into chunks at
// random offsets with many 1-byte chunks.
TEST(PairMergeTest, SumsLikeStdMapOverSplitChunks) {
  static constexpr std::string_view kJunk[] = {
      "not-a-pair", "x,1", "1,y", ",", ",5", "5,", "--3,1", "+4,1",
      " 6,1", "9223372036854775808,1", "1,-9223372036854775809"};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SplitMix64 rng(seed);
    std::map<std::int64_t, std::int64_t> reference;
    std::uint64_t pairs = 0;
    // Half the keys repeat (sums), half are mostly distinct (more than one
    // 64 KiB serialisation batch).
    const auto pair_line = [&] {
      const std::int64_t key =
          rng.NextBelow(2) == 0
              ? static_cast<std::int64_t>(rng.NextBelow(64)) - 32
              : static_cast<std::int64_t>(rng.NextBelow(1ull << 41)) -
                    (1ll << 40);
      const std::int64_t value =
          static_cast<std::int64_t>(rng.NextBelow(1ull << 33)) - (1ll << 32);
      reference[key] += value;
      ++pairs;
      return std::to_string(key) + "," + std::to_string(value);
    };
    std::string text;
    for (int i = 0; i < 8000; ++i) {
      const std::uint64_t pick = rng.NextBelow(8);
      if (pick == 0) {
        // An empty line.
      } else if (pick == 1) {
        text += kJunk[rng.NextBelow(std::size(kJunk))];
      } else {
        text += pair_line();
      }
      text.push_back('\n');
    }
    text += pair_line();
    if (seed % 2 == 0) text.push_back('\n');

    const Buffer whole(text);
    std::deque<Buffer> chunks;
    for (std::size_t off = 0; off < whole.size();) {
      const std::size_t pick = rng.NextBelow(4);
      const std::size_t n = pick < 2   ? 1
                            : pick < 3 ? 1 + rng.NextBelow(40)
                                       : 1 + rng.NextBelow(400);
      chunks.push_back(whole.Slice(off, std::min(n, whole.size() - off)));
      off += n;
    }
    PairMerge merge;
    auto merged = merge.Add([&chunks]() -> Result<Buffer> {
      if (chunks.empty()) return Buffer{};
      Buffer next = std::move(chunks.front());
      chunks.pop_front();
      return next;
    });
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*merged, pairs);
    EXPECT_EQ(merge.keys(), reference.size());

    std::string expected;
    for (const auto& [key, sum] : reference) {
      expected += std::to_string(key) + "," + std::to_string(sum) + "\n";
    }
    ASSERT_GT(expected.size(), 64u * 1024);
    std::string dictionary;
    std::size_t batches = 0;
    ASSERT_TRUE(merge
                    .WriteTo([&](std::string_view batch) {
                      dictionary += batch;
                      ++batches;
                      return Status::Ok();
                    })
                    .ok());
    EXPECT_GT(batches, 1u);
    EXPECT_TRUE(dictionary == expected);
  }
}

// Two streams feed one interleaved merge action in alternating pieces, so
// each onWrite turn waits mid-line while the other stream's chunk merges:
// a line split across chunks must be joined from its own stream's bytes.
TEST_F(WorkloadActionsTest, MergeJoinsSplitLinesWithinEachStream) {
  auto node = core::ActionNode::Create(*client_, "/mi", "glider.merge",
                                       /*interleave=*/true);
  ASSERT_TRUE(node.ok());
  // Every key is distinct, so StateBytes() (16 bytes a key) counts the
  // lines merged so far. Stream 0 holds keys >= 0, stream 1 keys < 0.
  SplitMix64 rng(9);
  std::map<std::int64_t, std::int64_t> reference;
  std::string streams[2];
  for (int s = 0; s < 2; ++s) {
    for (std::int64_t i = 0; streams[s].size() < 100 * 1024; ++i) {
      const std::int64_t key = s == 0 ? i : -1 - i;
      const auto value = static_cast<std::int64_t>(rng.NextBelow(1ull << 40));
      reference[key] = value;
      streams[s] += std::to_string(key) + "," + std::to_string(value) + "\n";
    }
  }
  streams[1].pop_back();  // the second stream ends without '\n'

  auto writer1 = node->OpenWriter();
  auto writer2 = node->OpenWriter();
  ASSERT_TRUE(writer1.ok());
  ASSERT_TRUE(writer2.ok());
  core::ActionWriter* writers[2] = {writer1->get(), writer2->get()};
  const std::size_t chunk = cluster_->options().chunk_size;
  // Lines ended within a stream's first n bytes.
  const auto ended = [](std::string_view stream, std::size_t n) {
    return static_cast<std::uint64_t>(
        std::count(stream.begin(), stream.begin() + n, '\n'));
  };
  constexpr std::size_t kPiece = 5 * 1024;
  std::size_t written[2] = {0, 0};
  while (written[0] < streams[0].size() || written[1] < streams[1].size()) {
    for (int s = 0; s < 2; ++s) {
      if (written[s] == streams[s].size()) continue;
      const std::string_view piece =
          std::string_view(streams[s]).substr(written[s], kPiece);
      ASSERT_TRUE(writers[s]->Write(piece).ok());
      written[s] += piece.size();
      // Whole chunks are sent as they fill; wait until both turns merged
      // every line those chunks end.
      const std::uint64_t sent =
          16 * (ended(streams[0], written[0] / chunk * chunk) +
                ended(streams[1], written[1] / chunk * chunk));
      std::uint64_t state = 0;
      for (int poll = 0; poll < 10'000 && state != sent; ++poll) {
        auto bytes = node->StateBytes();
        ASSERT_TRUE(bytes.ok());
        state = *bytes;
        if (state != sent) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      ASSERT_EQ(state, sent);
    }
  }
  for (core::ActionWriter* writer : writers) ASSERT_TRUE(writer->Close().ok());

  std::string expected;
  for (const auto& [key, sum] : reference) {
    expected += std::to_string(key) + "," + std::to_string(sum) + "\n";
  }
  EXPECT_TRUE(ReadAll(*node) == expected);
  auto state = node->StateBytes();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, 16 * reference.size());
}

TEST_F(WorkloadActionsTest, FilterProxiesBackingFile) {
  ASSERT_TRUE(client_->CreateNode("/data", nk::NodeType::kFile).ok());
  {
    auto writer = nk::FileWriter::Open(*client_, "/data");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Write("keep A\nskip B\nkeep C\n").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto node = core::ActionNode::Create(*client_, "/f", "glider.filter",
                                       /*interleave=*/false,
                                       AsBytes("/data\nkeep"));
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(ReadAll(*node), "keep A\nkeep C\n");
  // Stateless proxy: reading twice re-filters.
  EXPECT_EQ(ReadAll(*node), "keep A\nkeep C\n");
}

TEST_F(WorkloadActionsTest, NoopReadEmitsExactByteCount) {
  auto node = core::ActionNode::Create(*client_, "/n", "glider.noop",
                                       /*interleave=*/false,
                                       AsBytes("100000"));
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(ReadAll(*node).size(), 100'000u);
  ASSERT_TRUE(WriteAll(*node, std::string(50'000, 'x')).ok());  // discarded
  auto state = node->StateBytes();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, 0u);
}

TEST_F(WorkloadActionsTest, SorterSortsAndWritesRunInStorage) {
  auto node = core::ActionNode::Create(*client_, "/s", "glider.sorter",
                                       /*interleave=*/true,
                                       AsBytes("/sorted_out"));
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(WriteAll(*node, "ccc\naaa\n").ok());
  ASSERT_TRUE(WriteAll(*node, "bbb\n").ok());
  EXPECT_EQ(ReadAll(*node), "3\n");  // record count reply

  auto run = client_->GetValue("/sorted_out");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->ToString(), "aaa\nbbb\nccc\n");
}

TEST_F(WorkloadActionsTest, RecordRunSortsLikeStdStringOverSplitChunks) {
  // Bytes that stress the order: NUL, tab, DEL and the high half (which
  // must sort after ASCII, as unsigned chars). Half the records extend one
  // of a few 8-byte stems, so many share their index prefix.
  static constexpr unsigned char kAlphabet[] = {0x00, '\t', 'a',  'b',
                                                0x7f, 0x80, 0xfe, 0xff};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SplitMix64 rng(seed);
    const auto random_bytes = [&](std::size_t n) {
      std::string bytes;
      for (std::size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(
            kAlphabet[rng.NextBelow(sizeof(kAlphabet))]));
      }
      return bytes;
    };
    std::vector<std::string> stems;
    for (int i = 0; i < 4; ++i) stems.push_back(random_bytes(8));

    // Two streams. The second one's final '\n' becomes a 'z', so it ends
    // on a record with no newline.
    std::string streams[2];
    for (int i = 0; i < 4000; ++i) {
      const std::size_t length = rng.NextBelow(21);
      std::string record = rng.NextBelow(2) == 0
                               ? random_bytes(length)
                               : stems[rng.NextBelow(stems.size())].substr(
                                     0, length) +
                                     random_bytes(length > 8 ? length - 8 : 0);
      std::string& stream = streams[rng.NextBelow(2)];
      stream += record;
      stream.push_back('\n');
    }
    streams[1].back() = 'z';
    std::vector<std::string> records = SplitRecords(streams[0]);
    for (auto& record : SplitRecords(streams[1])) records.push_back(record);
    const std::string expected = ReferenceRun(records);

    // Each stream as slices of one shared Buffer (as stream chunks share
    // their frame), cut at random offsets with many 1-byte chunks.
    RecordRun run;
    for (const auto& stream : streams) {
      const Buffer whole(stream);
      std::deque<Buffer> chunks;
      for (std::size_t off = 0; off < whole.size();) {
        const std::size_t pick = rng.NextBelow(4);
        const std::size_t n = pick < 2   ? 1
                              : pick < 3 ? 1 + rng.NextBelow(40)
                                         : 1 + rng.NextBelow(400);
        chunks.push_back(whole.Slice(off, n));
        off += n;
      }
      ASSERT_TRUE(run.Add([&chunks]() -> Result<Buffer> {
                       if (chunks.empty()) return Buffer{};
                       Buffer next = std::move(chunks.front());
                       chunks.pop_front();
                       return next;
                     }).ok());
    }
    EXPECT_EQ(run.records(), records.size());
    EXPECT_EQ(run.bytes(), expected.size());
    run.Sort();

    // Once with the cluster's chunk size, once with one that does not
    // divide the output, so the last write is a partial staging buffer.
    constexpr std::size_t kOddChunk = 997;
    ASSERT_NE(expected.size() % kOddChunk, 0u);
    for (const std::size_t chunk_size :
         {cluster_->options().chunk_size, kOddChunk}) {
      const std::string path = "/run_" + std::to_string(seed) + "_" +
                               std::to_string(chunk_size);
      ASSERT_TRUE(client_->CreateNode(path, nk::NodeType::kFile).ok());
      auto writer = nk::FileWriter::Open(*client_, path);
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(run.WriteTo(**writer, chunk_size).ok());
      ASSERT_TRUE((*writer)->Close().ok());
      auto written = client_->GetValue(path);
      ASSERT_TRUE(written.ok());
      EXPECT_TRUE(written->ToString() == expected) << "chunk " << chunk_size;
    }
  }
}

TEST_F(WorkloadActionsTest, SorterMergesInterleavedStreamsIntoOneRun) {
  auto node = core::ActionNode::Create(*client_, "/si", "glider.sorter",
                                       /*interleave=*/true,
                                       AsBytes("/interleaved_run"));
  ASSERT_TRUE(node.ok());
  std::string streams[2];
  SortRecordGenerator(7).Generate(200 * 1024, streams[0]);
  SortRecordGenerator(8).Generate(200 * 1024, streams[1]);
  streams[1].pop_back();  // the second stream ends without '\n'

  // Both streams open at once, fed alternately in 5 KiB pieces. With the
  // cluster's 16 KiB chunks, records straddle chunks. After each piece the
  // test waits until the sorter has indexed every chunk sent so far: the
  // stat turn that reads StateBytes() runs only while both onWrite turns
  // wait on their streams, so each turn parks mid-record while the other
  // stream's next chunk is read into the same run.
  auto writer1 = node->OpenWriter();
  auto writer2 = node->OpenWriter();
  ASSERT_TRUE(writer1.ok());
  ASSERT_TRUE(writer2.ok());
  core::ActionWriter* writers[2] = {writer1->get(), writer2->get()};
  const std::size_t chunk = cluster_->options().chunk_size;
  // Bytes of the whole records (newlines included) in a stream's first n.
  const auto indexed = [](std::string_view stream, std::size_t n) {
    const std::size_t nl = stream.substr(0, n).rfind('\n');
    return nl == std::string_view::npos ? std::size_t{0} : nl + 1;
  };
  constexpr std::size_t kPiece = 5 * 1024;
  std::size_t written[2] = {0, 0};
  while (written[0] < streams[0].size() || written[1] < streams[1].size()) {
    for (int s = 0; s < 2; ++s) {
      if (written[s] == streams[s].size()) continue;
      const std::string_view piece =
          std::string_view(streams[s]).substr(written[s], kPiece);
      ASSERT_TRUE(writers[s]->Write(piece).ok());
      written[s] += piece.size();
      const std::uint64_t sent =
          indexed(streams[0], written[0] / chunk * chunk) +
          indexed(streams[1], written[1] / chunk * chunk);
      std::uint64_t state = 0;
      for (int poll = 0; poll < 10'000 && state != sent; ++poll) {
        auto bytes = node->StateBytes();
        ASSERT_TRUE(bytes.ok());
        state = *bytes;
        if (state != sent) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      ASSERT_EQ(state, sent);
    }
  }
  for (core::ActionWriter* writer : writers) ASSERT_TRUE(writer->Close().ok());

  std::vector<std::string> records = SplitRecords(streams[0]);
  for (auto& record : SplitRecords(streams[1])) records.push_back(record);
  const std::string reply = std::to_string(records.size()) + "\n";
  EXPECT_EQ(ReadAll(*node), reply);
  auto run = client_->GetValue("/interleaved_run");
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->ToString() == ReferenceRun(records));
  auto state = node->StateBytes();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, streams[0].size() + streams[1].size() + 1);

  // A second read answers the same count and does not write the run again.
  ASSERT_TRUE(client_->Delete("/interleaved_run").ok());
  EXPECT_EQ(ReadAll(*node), reply);
  EXPECT_FALSE(client_->Lookup("/interleaved_run").ok());

  // A sorter that received no writes leaves an empty run.
  auto empty = core::ActionNode::Create(*client_, "/se", "glider.sorter",
                                        /*interleave=*/true,
                                        AsBytes("/empty_run"));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(ReadAll(*empty), "0\n");
  auto info = client_->Lookup("/empty_run");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 0u);
}

TEST_F(WorkloadActionsTest, SamplerPersistsStreamsAndFeedsManager) {
  ASSERT_TRUE(core::ActionNode::Create(*client_, "/mgr", "glider.manager",
                                       /*interleave=*/true, AsBytes("2"))
                  .ok());
  auto sampler = core::ActionNode::Create(
      *client_, "/smp", "glider.sampler", /*interleave=*/true,
      AsBytes("/gtmp\n2\n/mgr"));
  ASSERT_TRUE(sampler.ok());

  // Two mapper streams.
  std::string records1, records2;
  AlignedReadGenerator(1, 0, 1000).Generate(50, records1);
  AlignedReadGenerator(2, 0, 1000).Generate(50, records2);
  ASSERT_TRUE(WriteAll(*sampler, records1).ok());
  ASSERT_TRUE(WriteAll(*sampler, records2).ok());

  // Trigger: pushes samples to the manager, returns the file list.
  const std::string listing = ReadAll(*sampler);
  EXPECT_NE(listing.find("F /gtmp_0"), std::string::npos);
  EXPECT_NE(listing.find("F /gtmp_1"), std::string::npos);

  // The persisted ephemeral files hold the full streams.
  auto file0 = client_->GetValue("/gtmp_0");
  ASSERT_TRUE(file0.ok());
  EXPECT_EQ(file0->ToString(), records1);

  // The manager received samples (action-to-action) and computes 2 ranges
  // covering the space contiguously.
  auto manager = core::ActionNode::Lookup(*client_, "/mgr");
  ASSERT_TRUE(manager.ok());
  const std::string ranges = ReadAll(*manager);
  std::istringstream in(ranges);
  std::string line;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> parsed;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    parsed.emplace_back(std::stoull(line.substr(0, comma)),
                        std::stoull(line.substr(comma + 1)));
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, 0u);
  EXPECT_EQ(parsed[0].second, parsed[1].first);  // contiguous
  EXPECT_EQ(parsed[1].second, 1ull << 63);
}

TEST_F(WorkloadActionsTest, ReaderMergesRangeScopedRecords) {
  // Two unsorted ephemeral files; the reader must return only records in
  // [100, 200), sorted.
  for (int f = 0; f < 2; ++f) {
    const std::string path = "/rf_" + std::to_string(f);
    ASSERT_TRUE(client_->CreateNode(path, nk::NodeType::kFile).ok());
    std::string records;
    AlignedReadGenerator(100 + f, 0, 300).Generate(100, records);
    auto writer = nk::FileWriter::Open(*client_, path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Write(records).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto node = core::ActionNode::Create(
      *client_, "/rdr", "glider.reader", /*interleave=*/false,
      AsBytes("100,200\n/rf_0\n/rf_1"));
  ASSERT_TRUE(node.ok());
  const std::string merged = ReadAll(*node);
  std::istringstream in(merged);
  std::string line, prev;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    const std::uint64_t pos = AlignedReadGenerator::PosOf(line);
    EXPECT_GE(pos, 100u);
    EXPECT_LT(pos, 200u);
    EXPECT_LE(prev, line);  // sorted
    prev = line;
    ++count;
  }
  EXPECT_GT(count, 20u);  // ~1/3 of 200 records fall in range
}

TEST_F(WorkloadActionsTest, CheckpointMergeSurvivesRecreation) {
  const auto config = AsBytes("/ckpt_kv");
  auto node = core::ActionNode::Create(*client_, "/cm", "glider.ckpt-merge",
                                       /*interleave=*/false, config);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(WriteAll(*node, "1,5\n!checkpoint\n2,9\n").ok());
  // 2,9 arrived after the checkpoint: present live...
  EXPECT_EQ(ReadAll(*node), "1,5\n2,9\n");
  // ...but lost across object re-creation; the checkpoint restores 1,5.
  ASSERT_TRUE(node->DeleteObject().ok());
  ASSERT_TRUE(client_->Delete("/cm").ok());
  auto revived = core::ActionNode::Create(*client_, "/cm", "glider.ckpt-merge",
                                          /*interleave=*/false, config);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(ReadAll(*revived), "1,5\n");
}

}  // namespace
}  // namespace glider::workloads
