// Unit tests of the S3-like object store and its SELECT emulation.
#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "faas/s3like.h"

namespace glider::faas {
namespace {

S3Like::Options FastOptions() {
  S3Like::Options options;
  options.op_latency = std::chrono::microseconds(0);
  options.select_scan_bps = 0;
  return options;
}

TEST(S3LikeTest, PutGetRoundTrip) {
  S3Like s3(FastOptions(), nullptr);
  ASSERT_TRUE(s3.Put("k", "value", nullptr).ok());
  auto got = s3.Get("k", nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "value");
  EXPECT_EQ(s3.Get("missing", nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST(S3LikeTest, OverwriteAdjustsStoredBytes) {
  auto metrics = std::make_shared<Metrics>();
  S3Like s3(FastOptions(), metrics);
  ASSERT_TRUE(s3.Put("k", "1234567890", nullptr).ok());
  EXPECT_EQ(metrics->StoredBytes(), 10);
  ASSERT_TRUE(s3.Put("k", "123", nullptr).ok());
  EXPECT_EQ(metrics->StoredBytes(), 3);
  ASSERT_TRUE(s3.Delete("k").ok());
  EXPECT_EQ(metrics->StoredBytes(), 0);
  EXPECT_EQ(s3.TotalStoredBytes(), 0u);
}

TEST(S3LikeTest, SelectLinesShipsOnlyMatches) {
  auto metrics = std::make_shared<Metrics>();
  S3Like s3(FastOptions(), metrics);
  ASSERT_TRUE(s3.Put("o", "keep 1\ndrop 2\nkeep 3\n", nullptr).ok());

  auto link = net::LinkModel::Unshaped(LinkClass::kFaas, metrics);
  auto out = s3.SelectLines(
      "o", [](std::string_view line) { return line.starts_with("keep"); },
      link);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "keep 1\nkeep 3\n");
  // Network carried only the matches; the scan covered the whole object.
  EXPECT_EQ(metrics->BytesReceived(LinkClass::kFaas), out->size());
  EXPECT_EQ(s3.ScannedBytes(), 21u);
}

TEST(S3LikeTest, SelectSampleEveryNth) {
  S3Like s3(FastOptions(), nullptr);
  std::string object;
  for (int i = 0; i < 10; ++i) object += "line" + std::to_string(i) + "\n";
  ASSERT_TRUE(s3.Put("o", object, nullptr).ok());
  auto sampled = s3.SelectSample("o", 3, nullptr);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(*sampled, "line0\nline3\nline6\nline9\n");
}

TEST(S3LikeTest, ScanBandwidthCostsTime) {
  S3Like::Options options = FastOptions();
  options.select_scan_bps = 10'000'000;  // 10 MB/s
  S3Like s3(options, nullptr);
  ASSERT_TRUE(s3.Put("big", std::string(1 << 20, 'x'), nullptr).ok());
  Stopwatch timer;
  ASSERT_TRUE(s3.SelectLines("big", [](std::string_view) { return false; },
                             nullptr)
                  .ok());
  EXPECT_GT(timer.Seconds(), 0.08);  // ~100 ms to scan 1 MiB at 10 MB/s
}

TEST(S3LikeTest, OpLatencyApplies) {
  S3Like::Options options = FastOptions();
  options.op_latency = std::chrono::microseconds(30'000);
  S3Like s3(options, nullptr);
  Stopwatch timer;
  ASSERT_TRUE(s3.Put("k", "v", nullptr).ok());
  EXPECT_GT(timer.Seconds(), 0.025);
}

TEST(S3LikeTest, ConcurrentPutsAreAtomic) {
  S3Like s3(FastOptions(), nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(s3.Put("key_" + std::to_string(t) + "_" +
                               std::to_string(i),
                           std::string(100, 'x'), nullptr)
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s3.TotalStoredBytes(), 8u * 50 * 100);
}

}  // namespace
}  // namespace glider::faas
