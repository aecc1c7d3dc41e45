#include "io/wal.h"

#include <cstring>
#include <limits>
#include <string>

#include "io/bytes.h"

namespace platod2gl {
namespace {

constexpr char kMagic[4] = {'P', 'D', '2', 'W'};
constexpr std::size_t kEntryBytes = 8 + kUpdateRecordBytes;  // ts + record
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // magic, version, count

}  // namespace

std::string EncodeWal(const std::vector<TimedUpdate>& entries,
                      std::uint32_t version) {
  std::string out;
  out.reserve(kHeaderBytes + entries.size() * kEntryBytes + kCrcFooterBytes);
  ByteWriter w(&out);
  w.Put(kMagic);
  w.Put(version);
  w.Put<std::uint64_t>(entries.size());
  for (const TimedUpdate& t : entries) {
    w.Put(t.timestamp);
    PutUpdateRecord(w, t.update);
  }
  if (version >= 2) AppendCrcFooter(&out);
  return out;
}

Status DecodeWal(std::string_view bytes, std::vector<TimedUpdate>* out) {
  out->clear();
  ByteReader r(bytes);
  char magic[4];
  if (!r.Get(&magic)) return Status::DataLoss("WAL: truncated header");
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::DataLoss("WAL: bad magic");
  }
  std::uint32_t version = 0;
  if (!r.Get(&version)) return Status::DataLoss("WAL: truncated header");
  if (version < 1 || version > kWalVersion) {
    return Status::InvalidArgument("WAL: unsupported version " +
                                   std::to_string(version));
  }
  if (version >= 2) {
    // Verify the footer over every preceding byte BEFORE decoding any
    // entry, mirroring the checkpoint v2 discipline: corrupt files are
    // rejected whole, never half-decoded.
    if (bytes.size() < kHeaderBytes + kCrcFooterBytes) {
      return Status::DataLoss("WAL: truncated footer");
    }
    std::string_view body;
    if (!StripCrcFooter(bytes, &body)) {
      return Status::DataLoss("WAL: CRC mismatch (corrupt or truncated)");
    }
    r = ByteReader(body.substr(sizeof(kMagic) + sizeof(version)));
  }
  std::uint64_t count = 0;
  if (!r.Get(&count)) return Status::DataLoss("WAL: truncated count");
  // Exact size check before any allocation: a lying count cannot force a
  // huge reserve or a partial decode.
  if (!r.HoldsExactly(count, kEntryBytes)) {
    return Status::DataLoss("WAL: entry count disagrees with payload size");
  }
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TimedUpdate t;
    r.Get(&t.timestamp);
    if (!GetUpdateRecord(r, &t.update)) {
      out->clear();
      return Status::DataLoss("WAL: invalid update kind in entry " +
                              std::to_string(i));
    }
    out->push_back(t);
  }
  return Status::Ok();
}

Status SaveWal(const TemporalEdgeLog& log, const std::string& path) {
  const std::vector<TimedUpdate> entries =
      log.Window(0, std::numeric_limits<std::uint64_t>::max());
  return WriteFile(path, EncodeWal(entries));
}

Status LoadWal(const std::string& path, TemporalEdgeLog* log) {
  std::string bytes;
  if (Status s = ReadFile(path, &bytes); !s.ok()) return s;
  std::vector<TimedUpdate> entries;
  if (Status s = DecodeWal(bytes, &entries); !s.ok()) return s;
  // Validate monotonicity before touching *log so a bad file leaves it
  // unchanged (Append would stop mid-way otherwise).
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].timestamp < entries[i - 1].timestamp) {
      return Status::DataLoss("WAL: timestamp regression at entry " +
                              std::to_string(i));
    }
  }
  if (!entries.empty() && !log->empty() &&
      entries.front().timestamp < log->MaxTimestamp()) {
    return Status::OutOfRange(
        "WAL: file starts before the log's current tail");
  }
  log->AppendBatch(entries);
  return Status::Ok();
}

}  // namespace platod2gl
