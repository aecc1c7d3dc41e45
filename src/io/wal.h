// Durable write-ahead-log codec for TemporalEdgeLog.
//
// dist/shard.h keeps its WAL as an in-memory TemporalEdgeLog; until now
// there was no on-disk form, so a process restart depended entirely on
// the last checkpoint. This codec gives the update series a durable,
// integrity-checked format mirroring io/checkpoint:
//
//   magic "PD2W" | version u32 (1 | 2)
//   count u64
//   count x entry: ts u64 | update record (io/bytes.h: kind u8 | type u32 |
//                  src u64 | dst u64 | w f64)
//   crc32 u32 footer (v2 only) over every preceding byte
//
// Safety properties the loaders guarantee (and the fuzz harness in
// tests/fuzz/fuzz_wal.cc hammers):
//  * the declared count is bounds-checked against the actual byte count
//    BEFORE any allocation — an absurd count in a truncated file cannot
//    trigger a multi-gigabyte reserve;
//  * v2 files verify the CRC-32 footer before any entry is decoded, so a
//    bit-rotted file is rejected with kDataLoss as a whole instead of
//    half-applied;
//  * every entry's kind byte is validated against UpdateKind's range;
//  * trailing garbage after the declared payload is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "temporal/edge_log.h"

namespace platod2gl {

/// Current on-disk WAL version (CRC-32 footer).
inline constexpr std::uint32_t kWalVersion = 2;

/// Serialise `entries` into the on-disk byte form. `version` must be 1 or
/// 2 (2 appends the CRC footer; 1 exists for back-compat tests).
std::string EncodeWal(const std::vector<TimedUpdate>& entries,
                      std::uint32_t version = kWalVersion);

/// Decode an in-memory WAL image into *out (cleared first). This is the
/// pure function the fuzz harness drives; LoadWal is a thin file wrapper.
Status DecodeWal(std::string_view bytes, std::vector<TimedUpdate>* out);

/// Write every entry of `log` to `path` (version 2). The image is built
/// in memory and replaces the file atomically (io/bytes.h WriteFile), so
/// a failed save leaves the previous WAL file intact.
Status SaveWal(const TemporalEdgeLog& log, const std::string& path);

/// Read a WAL file and append its entries, in order, into *log. The log's
/// monotonicity contract still applies: a decoded series with a time
/// regression is rejected with kDataLoss (a valid writer never produces
/// one) and *log is left untouched.
Status LoadWal(const std::string& path, TemporalEdgeLog* log);

}  // namespace platod2gl
