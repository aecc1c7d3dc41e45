// Fuzz harness for the io/wal.cc durable-WAL decoder (libFuzzer ABI; see
// fuzz_driver.cc for the GCC fallback driver).
//
// DecodeWal is a pure in-memory function, so this harness feeds it raw
// bytes directly. Oracle: anything that decodes must re-encode to a byte
// stream that decodes to the same entries; entry counts are bounded by
// the input size (the count-vs-payload check), so a successful decode of
// a small input can never produce a huge vector.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "io/wal.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_wal oracle failed: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace platod2gl;
  std::vector<TimedUpdate> entries;
  const Status s = DecodeWal(
      std::string_view(reinterpret_cast<const char*>(data), size), &entries);
  if (!s.ok()) return 0;
  // A decoded entry consumed at least its wire width from the input.
  Require(entries.size() <= size / 37 + 1, "entry count exceeds input size");
  const std::string enc = EncodeWal(entries);
  std::vector<TimedUpdate> again;
  Require(DecodeWal(enc, &again).ok(), "re-decode failed");
  Require(again.size() == entries.size(), "round-trip entry count");
  for (std::size_t i = 0; i < again.size(); ++i) {
    Require(again[i].timestamp == entries[i].timestamp, "ts mismatch");
    Require(again[i].update.kind == entries[i].update.kind, "kind mismatch");
    Require(again[i].update.edge.src == entries[i].update.edge.src &&
                again[i].update.edge.dst == entries[i].update.edge.dst &&
                again[i].update.edge.type == entries[i].update.edge.type,
            "edge mismatch");
    // Weights compare bitwise: the file may legally carry NaN, for which
    // operator== is false even on identical bits.
    Require(std::memcmp(&again[i].update.edge.weight,
                        &entries[i].update.edge.weight, sizeof(double)) == 0,
            "weight bits mismatch");
  }
  return 0;
}
