#ifndef ERBIUM_DURABILITY_SERDE_H_
#define ERBIUM_DURABILITY_SERDE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/value.h"

namespace erbium {
namespace durability {

/// Little-endian binary encoding for the on-disk formats (WAL records and
/// snapshots) and the wire protocol's frames. Fixed-width integers are
/// written least-significant byte first regardless of host order, each
/// with one append; strings are u32-length-prefixed; Values are a one-byte
/// kind tag followed by the payload. Everything a record needs round-trips
/// through these helpers so the WAL reader and the fault-injection tests
/// agree byte-for-byte on the format.

void PutU8(uint8_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutF64(double v, std::string* out);
void PutString(const std::string& s, std::string* out);
void PutValue(const Value& v, std::string* out);
/// A key / row is a count-prefixed sequence of values.
void PutValues(const std::vector<Value>& values, std::string* out);

/// Deepest value nesting ReadValue will decode. A crafted record of
/// nested arrays costs ~5 bytes per level, so without a cap a CRC-valid
/// 64 MiB record could recurse millions of frames deep and overflow the
/// stack; real values are a handful of levels deep.
constexpr int kMaxValueDepth = 100;

/// Sequential decoder over a byte range. Every accessor fails with
/// Status::IOError once the input is exhausted or malformed; decoding
/// never reads past `size`, never trusts embedded counts beyond the
/// bytes actually present (a corrupted length cannot cause a huge
/// allocation), and never recurses past kMaxValueDepth (a corrupted
/// nesting cannot overflow the stack).
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<double> F64();
  Result<std::string> String();
  Result<Value> ReadValue();
  Result<std::vector<Value>> ReadValues();
  /// Decodes a count-prefixed value sequence straight into *out, which is
  /// resized to the count (existing elements are overwritten in place).
  Status ReadValuesInto(std::vector<Value>* out);

 private:
  Status Need(size_t n) const;
  /// The one value decoder: writes the next value into *out.
  Status ReadInto(Value* out, int depth);
  const char* p_;
  const char* end_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init/final xor
/// 0xFFFFFFFF) — the checksum guarding every WAL record payload, snapshot
/// body and wire frame. Computed slicing-by-8 (eight bytes per step
/// through eight 256-entry tables); the value equals the bytewise
/// algorithm's. Chains: Crc32(b, nb, Crc32(a, na)) == Crc32(a + b).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace durability
}  // namespace erbium

#endif  // ERBIUM_DURABILITY_SERDE_H_
