#include "io/bytes.h"

#include <cstdio>
#include <memory>

#include "common/crc32.h"

namespace platod2gl {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void PutUpdateRecord(ByteWriter& w, const EdgeUpdate& u) {
  w.Put(static_cast<std::uint8_t>(u.kind));
  w.Put(u.edge.type);
  w.Put(u.edge.src);
  w.Put(u.edge.dst);
  w.Put(u.edge.weight);
}

bool GetUpdateRecord(ByteReader& r, EdgeUpdate* u) {
  std::uint8_t kind = 0;
  if (!r.Get(&kind) || !r.Get(&u->edge.type) || !r.Get(&u->edge.src) ||
      !r.Get(&u->edge.dst) || !r.Get(&u->edge.weight) ||
      kind > static_cast<std::uint8_t>(UpdateKind::kDelete)) {
    return false;
  }
  u->kind = static_cast<UpdateKind>(kind);
  return true;
}

void AppendCrcFooter(std::string* bytes) {
  ByteWriter(bytes).Put(Crc32(bytes->data(), bytes->size()));
}

bool StripCrcFooter(std::string_view bytes, std::string_view* body) {
  if (bytes.size() < kCrcFooterBytes) return false;
  const std::string_view head = bytes.substr(0, bytes.size() - kCrcFooterBytes);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + head.size(), kCrcFooterBytes);
  if (stored != Crc32(head.data(), head.size())) return false;
  *body = head;
  return true;
}

Status ReadFile(const std::string& path, std::string* out) {
  out->clear();
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open " + path);
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out->append(buf, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::DataLoss("read failed: " + path);
  }
  return Status::Ok();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return Status::Unavailable("cannot open " + tmp + " for writing");
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) == bytes.size();
  const bool closed = std::fclose(f.release()) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace platod2gl
