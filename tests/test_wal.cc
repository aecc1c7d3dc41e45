// Unit tests for the durable WAL codec (src/io/wal.h). The adversarial
// byte-level surface is additionally hammered by tests/fuzz/fuzz_wal.cc;
// these tests pin the round-trip semantics and each documented rejection.
#include "io/wal.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/types.h"
#include "temporal/edge_log.h"

namespace {

using platod2gl::DecodeWal;
using platod2gl::Edge;
using platod2gl::EdgeUpdate;
using platod2gl::EncodeWal;
using platod2gl::LoadWal;
using platod2gl::SaveWal;
using platod2gl::Status;
using platod2gl::StatusCode;
using platod2gl::TemporalEdgeLog;
using platod2gl::TimedUpdate;
using platod2gl::UpdateKind;

std::vector<TimedUpdate> SampleEntries() {
  std::vector<TimedUpdate> entries;
  entries.push_back({10, {UpdateKind::kInsert, Edge{1, 2, 1.5, 0}}});
  entries.push_back({11, {UpdateKind::kInPlaceUpdate, Edge{1, 2, 2.5, 0}}});
  entries.push_back({11, {UpdateKind::kInsert, Edge{3, 4, 0.25, 2}}});
  entries.push_back({15, {UpdateKind::kDelete, Edge{1, 2, 0.0, 0}}});
  return entries;
}

void ExpectSameEntries(const std::vector<TimedUpdate>& a,
                       const std::vector<TimedUpdate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << i;
    EXPECT_EQ(a[i].update.kind, b[i].update.kind) << i;
    EXPECT_EQ(a[i].update.edge.src, b[i].update.edge.src) << i;
    EXPECT_EQ(a[i].update.edge.dst, b[i].update.edge.dst) << i;
    EXPECT_EQ(a[i].update.edge.type, b[i].update.edge.type) << i;
    EXPECT_DOUBLE_EQ(a[i].update.edge.weight, b[i].update.edge.weight) << i;
  }
}

TEST(WalCodecTest, RoundTripsV2) {
  const auto entries = SampleEntries();
  const auto bytes = EncodeWal(entries, 2);
  std::vector<TimedUpdate> decoded;
  ASSERT_TRUE(DecodeWal(bytes, &decoded).ok());
  ExpectSameEntries(entries, decoded);
}

TEST(WalCodecTest, RoundTripsV1WithoutFooter) {
  const auto entries = SampleEntries();
  const auto v1 = EncodeWal(entries, 1);
  const auto v2 = EncodeWal(entries, 2);
  EXPECT_EQ(v1.size() + 4, v2.size());  // footer is the only difference
  std::vector<TimedUpdate> decoded;
  ASSERT_TRUE(DecodeWal(v1, &decoded).ok());
  ExpectSameEntries(entries, decoded);
}

TEST(WalCodecTest, RoundTripsEmptyLog) {
  const auto bytes = EncodeWal({}, 2);
  std::vector<TimedUpdate> decoded{SampleEntries()};  // must be cleared
  ASSERT_TRUE(DecodeWal(bytes, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(WalCodecTest, RejectsBadMagicVersionAndTruncation) {
  const auto good = EncodeWal(SampleEntries(), 2);
  std::vector<TimedUpdate> out;

  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeWal(bad_magic, &out).ok());

  auto bad_version = good;
  bad_version[4] = 9;
  EXPECT_FALSE(DecodeWal(bad_version, &out).ok());

  // Every truncation point must be rejected, never crash or misparse.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(DecodeWal(std::string_view(good).substr(0, n), &out).ok())
        << "length " << n;
  }
}

TEST(WalCodecTest, V2RejectsAnySingleBitFlip) {
  const auto good = EncodeWal(SampleEntries(), 2);
  std::vector<TimedUpdate> out;
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto corrupt = good;
    corrupt[i] ^= 0x01;
    const Status st = DecodeWal(corrupt, &out);
    EXPECT_FALSE(st.ok()) << "flip at byte " << i << " slipped through";
  }
}

TEST(WalCodecTest, RejectsLyingCountWithoutAllocating) {
  // Declare 2^56 entries over a near-empty payload: the count check must
  // fire before any reserve (a crash/OOM here is the v1-checkpoint bug
  // class the fuzz targets exist for).
  auto bytes = EncodeWal({}, 1);
  const std::uint64_t lie = 1ull << 56;
  std::memcpy(bytes.data() + 8, &lie, sizeof(lie));
  std::vector<TimedUpdate> out;
  EXPECT_FALSE(DecodeWal(bytes, &out).ok());
}

TEST(WalCodecTest, RejectsTrailingGarbageAndBadKind) {
  auto bytes = EncodeWal(SampleEntries(), 1);
  std::vector<TimedUpdate> out;

  auto padded = bytes;
  padded.push_back(static_cast<char>(0xAB));
  EXPECT_FALSE(DecodeWal(padded, &out).ok());

  auto bad_kind = bytes;
  bad_kind[16 + 8] = 0x7F;  // first entry's kind byte
  EXPECT_FALSE(DecodeWal(bad_kind, &out).ok());
}

class WalFileTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pd2gl_wal_test.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(WalFileTest, SaveThenLoadRestoresTheLog) {
  TemporalEdgeLog log;
  for (const auto& e : SampleEntries()) {
    ASSERT_TRUE(log.Append(e.timestamp, e.update).ok());
  }
  ASSERT_TRUE(SaveWal(log, path_).ok());

  TemporalEdgeLog restored;
  ASSERT_TRUE(LoadWal(path_, &restored).ok());
  ASSERT_EQ(restored.size(), log.size());
  EXPECT_EQ(restored.MinTimestamp(), log.MinTimestamp());
  EXPECT_EQ(restored.MaxTimestamp(), log.MaxTimestamp());
  EXPECT_EQ(restored.rejected(), 0u);
}

TEST_F(WalFileTest, LoadAppendsAfterExistingTail) {
  TemporalEdgeLog tail;
  ASSERT_TRUE(tail.AppendInsert(20, Edge{7, 8, 1.0, 0}).ok());
  ASSERT_TRUE(SaveWal(tail, path_).ok());

  TemporalEdgeLog log;
  ASSERT_TRUE(log.AppendInsert(15, Edge{1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(LoadWal(path_, &log).ok());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.MaxTimestamp(), 20u);
}

TEST_F(WalFileTest, LoadRejectsFileOlderThanLogTailUntouched) {
  TemporalEdgeLog old;
  ASSERT_TRUE(old.AppendInsert(5, Edge{1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(SaveWal(old, path_).ok());

  TemporalEdgeLog log;
  ASSERT_TRUE(log.AppendInsert(10, Edge{3, 4, 1.0, 0}).ok());
  const Status st = LoadWal(path_, &log);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(log.size(), 1u) << "a rejected load must leave the log untouched";
  EXPECT_EQ(log.rejected(), 0u);
}

TEST_F(WalFileTest, FailedSaveKeepsPreviousFile) {
  TemporalEdgeLog first;
  ASSERT_TRUE(first.AppendInsert(5, Edge{1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(SaveWal(first, path_).ok());

  // SaveWal writes <path>.tmp and renames it over <path>; a directory on
  // the tmp path makes the save fail before the old file is touched.
  const std::string tmp = path_ + ".tmp";
  std::filesystem::create_directory(tmp);
  TemporalEdgeLog second;
  ASSERT_TRUE(second.AppendInsert(9, Edge{3, 4, 1.0, 0}).ok());
  ASSERT_TRUE(second.AppendInsert(10, Edge{5, 6, 1.0, 0}).ok());
  EXPECT_FALSE(SaveWal(second, path_).ok());
  std::filesystem::remove(tmp);

  TemporalEdgeLog restored;
  ASSERT_TRUE(LoadWal(path_, &restored).ok());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.MaxTimestamp(), 5u);
}

TEST_F(WalFileTest, LoadMissingFileFails) {
  TemporalEdgeLog log;
  EXPECT_FALSE(LoadWal(path_ + ".does-not-exist", &log).ok());
}

}  // namespace
