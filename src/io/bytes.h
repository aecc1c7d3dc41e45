// The one byte codec behind every binary format in the repo: the RPC
// wire messages (dist/wire), the durable WAL (io/wal) and the graph and
// model checkpoints (io/checkpoint).
//
//  * ByteWriter appends little-endian PODs to a std::string (the
//    deployment is homogeneous x86, so a POD's memory image IS its
//    little-endian encoding).
//  * ByteReader is a bounds-checked cursor over a std::string_view:
//    every Get checks the remaining bytes first, and CanHold /
//    HoldsExactly check a declared count x record size against the
//    remaining bytes (overflow-safe) BEFORE the caller reserves anything,
//    so a lying length prefix can never drive an over-read or a huge
//    allocation.
//  * The 29-byte update record (kind u8 | type u32 | src u64 | dst u64 |
//    weight f64) shared by UpdateBatch, RepLogAppend and the WAL is
//    written and read in exactly one place: PutUpdateRecord /
//    GetUpdateRecord.
//  * A CRC-32 footer (common/crc32.h) over every preceding byte: the
//    integrity trailer of WAL v2, graph checkpoint v2 and model v2 files.
//  * ReadFile / WriteFile are the only file I/O of the binary formats.
//    WriteFile replaces a file atomically (write `<path>.tmp`, then
//    rename over `path`), so a failed save leaves the previous file
//    intact. No fsync: durability across power loss is out of scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace platod2gl {

/// Appends raw little-endian values to a borrowed string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void PutBytes(const void* data, std::size_t n) {
    if (n > 0) out_->append(static_cast<const char*>(data), n);
  }

  /// The elements only; callers write any length prefix themselves.
  template <typename T>
  void PutArray(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(values.data(), sizeof(T) * values.size());
  }

 private:
  std::string* out_;
};

/// Bounds-checked read cursor. A failed Get consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return GetBytes(out, sizeof(T));
  }

  bool GetBytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    if (n > 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Read `count` elements into *out (resized), bounds-checked before the
  /// resize.
  template <typename T>
  bool GetArray(std::uint64_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!CanHold(count, sizeof(T))) return false;
    out->resize(static_cast<std::size_t>(count));
    return GetBytes(out->data(), sizeof(T) * out->size());
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// True once every byte has been consumed (decoders reject trailing
  /// garbage with this).
  bool done() const { return pos_ == bytes_.size(); }

  /// `count` records of `record_bytes` each fit in the remaining bytes.
  /// Overflow-safe: a count whose product wraps size_t is rejected.
  bool CanHold(std::uint64_t count, std::size_t record_bytes) const {
    return record_bytes == 0 || count <= remaining() / record_bytes;
  }
  /// The remaining bytes are exactly `count` records of `record_bytes`
  /// (the record array is the whole rest of the payload).
  bool HoldsExactly(std::uint64_t count, std::size_t record_bytes) const {
    return CanHold(count, record_bytes) && count * record_bytes == remaining();
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Encoded size of one update record.
inline constexpr std::size_t kUpdateRecordBytes = 1 + 4 + 8 + 8 + 8;

void PutUpdateRecord(ByteWriter& w, const EdgeUpdate& u);
/// False on truncation or a kind byte outside UpdateKind's range; *u is
/// unspecified then.
bool GetUpdateRecord(ByteReader& r, EdgeUpdate* u);

inline constexpr std::size_t kCrcFooterBytes = 4;

/// Append the CRC-32 of every byte already in *bytes as a u32 footer.
void AppendCrcFooter(std::string* bytes);
/// If `bytes` ends in a CRC-32 footer that matches every byte before it,
/// point *body at those bytes and return true; false when the footer is
/// missing or does not match.
bool StripCrcFooter(std::string_view bytes, std::string_view* body);

/// Read the whole file into *out. NotFound when it cannot be opened,
/// DataLoss on a read error.
Status ReadFile(const std::string& path, std::string* out);
/// Replace `path` with `bytes`: write `<path>.tmp`, then rename it over
/// `path`. Unavailable on any failure, with `path` left as it was.
Status WriteFile(const std::string& path, std::string_view bytes);

}  // namespace platod2gl
