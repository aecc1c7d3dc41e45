// Tests for the shared byte codec (src/io/bytes.h): the bounds-checked
// cursor, the one update-record layout that UpdateBatch, RepLogAppend and
// the WAL all embed, the CRC-32 footer, and the atomic file replace.
#include "io/bytes.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "io/wal.h"
#include "temporal/edge_log.h"

namespace platod2gl {
namespace {

// ---------------------------------------------------------------------------
// ByteReader

TEST(ByteReaderTest, CountWhoseByteSizeOverflowsIsRejected) {
  std::string bytes(8, '\0');
  ByteReader r(bytes);
  // 2^61 + 1 records of 8 bytes wrap size_t to exactly 8: a check written
  // as `count * size == remaining` would accept it.
  const std::uint64_t wrapping = (std::uint64_t{1} << 61) + 1;
  ASSERT_EQ(wrapping * 8, 8u);
  EXPECT_FALSE(r.CanHold(wrapping, 8));
  EXPECT_FALSE(r.HoldsExactly(wrapping, 8));
  std::vector<std::uint64_t> out;
  EXPECT_FALSE(r.GetArray(wrapping, &out));
  EXPECT_TRUE(out.empty()) << "a rejected count must not resize";
  EXPECT_FALSE(r.CanHold(std::numeric_limits<std::uint64_t>::max(), 29));
  EXPECT_EQ(r.remaining(), 8u) << "size checks consume nothing";
}

TEST(ByteReaderTest, TrailingBytesAreNotExact) {
  std::string bytes(9, '\x01');
  ByteReader r(bytes);
  EXPECT_TRUE(r.CanHold(1, 8));
  EXPECT_FALSE(r.HoldsExactly(1, 8));
  std::uint64_t v = 0;
  ASSERT_TRUE(r.Get(&v));
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReaderTest, ExactConsumptionThenEveryGetFails) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.Put<std::uint32_t>(7);
  w.Put<std::uint8_t>(9);
  ByteReader r(bytes);
  EXPECT_TRUE(r.HoldsExactly(1, 5));
  std::uint32_t a = 0;
  std::uint8_t b = 0;
  ASSERT_TRUE(r.Get(&a));
  ASSERT_TRUE(r.Get(&b));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 9u);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.HoldsExactly(0, 8));
  std::uint8_t more = 0;
  EXPECT_FALSE(r.Get(&more));
  EXPECT_TRUE(r.done());
}

TEST(ByteReaderTest, ShortGetConsumesNothing) {
  std::string bytes(3, '\x05');
  ByteReader r(bytes);
  std::uint32_t v = 0;
  EXPECT_FALSE(r.Get(&v));
  EXPECT_EQ(r.remaining(), 3u);
}

// ---------------------------------------------------------------------------
// The update record

/// The same updates must produce the same 29 record bytes wherever they
/// are embedded: in an UpdateBatch ('U' | count u32 | records), a
/// RepLogAppend ('L' | ver | shard | count | (seq u64, record)...) and a
/// WAL file (header 16 B | (ts u64, record)...).
TEST(UpdateRecordTest, SameBytesInUpdateBatchRepLogAndWal) {
  const std::vector<EdgeUpdate> table = {
      {UpdateKind::kInsert, Edge{1, 2, 1.5, 0}},
      {UpdateKind::kInPlaceUpdate, Edge{0, 0, 0.0, 7}},
      {UpdateKind::kDelete,
       Edge{~VertexId{0}, VertexId{1} << 40, -2.25, 0xFFFFFFFFu}},
      {UpdateKind::kInsert,
       Edge{42, 43, std::numeric_limits<double>::infinity(), 3}},
  };

  wire::RepLogAppend append;
  std::vector<TimedUpdate> wal;
  for (std::size_t i = 0; i < table.size(); ++i) {
    append.entries.push_back({100 + i, table[i]});
    wal.push_back({10 + i, table[i]});
  }
  const std::string batch_bytes = wire::EncodeUpdateBatch(table);
  const std::string rep_bytes = wire::EncodeRepLogAppend(append);
  const std::string wal_bytes = EncodeWal(wal, 1);

  for (std::size_t i = 0; i < table.size(); ++i) {
    std::string reference;
    ByteWriter w(&reference);
    PutUpdateRecord(w, table[i]);
    ASSERT_EQ(reference.size(), kUpdateRecordBytes);

    const std::size_t entry = 8 + kUpdateRecordBytes;
    EXPECT_EQ(batch_bytes.substr(5 + i * kUpdateRecordBytes,
                                 kUpdateRecordBytes),
              reference)
        << "UpdateBatch record " << i;
    EXPECT_EQ(rep_bytes.substr(10 + i * entry + 8, kUpdateRecordBytes),
              reference)
        << "RepLogAppend record " << i;
    EXPECT_EQ(wal_bytes.substr(16 + i * entry + 8, kUpdateRecordBytes),
              reference)
        << "WAL record " << i;

    EdgeUpdate back;
    ByteReader r(reference);
    ASSERT_TRUE(GetUpdateRecord(r, &back));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, table[i]);
  }
}

TEST(UpdateRecordTest, RejectsKindOutOfRangeAndTruncation) {
  std::string bytes;
  ByteWriter w(&bytes);
  PutUpdateRecord(w, {UpdateKind::kDelete, Edge{1, 2, 1.0, 0}});
  EdgeUpdate u;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    ByteReader r(std::string_view(bytes).substr(0, n));
    EXPECT_FALSE(GetUpdateRecord(r, &u)) << "length " << n;
  }
  bytes[0] = static_cast<char>(static_cast<int>(UpdateKind::kDelete) + 1);
  ByteReader r(bytes);
  EXPECT_FALSE(GetUpdateRecord(r, &u));
}

// ---------------------------------------------------------------------------
// CRC-32 footer

TEST(CrcFooterTest, RoundTripsAndRejectsAnyBitFlip) {
  std::string bytes = "PD2G some payload bytes";
  const std::string payload = bytes;
  AppendCrcFooter(&bytes);
  ASSERT_EQ(bytes.size(), payload.size() + kCrcFooterBytes);
  std::string_view body;
  ASSERT_TRUE(StripCrcFooter(bytes, &body));
  EXPECT_EQ(body, payload);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x04);
    EXPECT_FALSE(StripCrcFooter(corrupt, &body)) << "flip at byte " << i;
  }
  EXPECT_FALSE(StripCrcFooter("abc", &body));
}

// ---------------------------------------------------------------------------
// Files

class ByteFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("pd2g_bytes_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_.string() + ".tmp");
  }

  std::filesystem::path path_;
};

TEST_F(ByteFileTest, WriteThenReadRoundTripsAndLeavesNoTmp) {
  const std::string bytes("binary\0payload", 14);
  ASSERT_TRUE(WriteFile(path_.string(), bytes).ok());
  EXPECT_FALSE(std::filesystem::exists(path_.string() + ".tmp"));
  std::string back = "stale";
  ASSERT_TRUE(ReadFile(path_.string(), &back).ok());
  EXPECT_EQ(back, bytes);
}

TEST_F(ByteFileTest, ReadMissingFileIsNotFound) {
  std::string out;
  EXPECT_EQ(ReadFile(path_.string() + ".absent", &out).code(),
            StatusCode::kNotFound);
}

TEST_F(ByteFileTest, FailedWriteLeavesPreviousFileIntact) {
  ASSERT_TRUE(WriteFile(path_.string(), "previous").ok());
  // A directory squatting on the tmp path makes the write fail.
  std::filesystem::create_directory(path_.string() + ".tmp");
  EXPECT_FALSE(WriteFile(path_.string(), "replacement").ok());
  std::string back;
  ASSERT_TRUE(ReadFile(path_.string(), &back).ok());
  EXPECT_EQ(back, "previous");
}

}  // namespace
}  // namespace platod2gl
