#include "durability/serde.h"

#include <cstring>

namespace erbium {
namespace durability {

namespace {

/// Value kind tags. Deliberately decoupled from TypeKind enumerator
/// values so in-memory refactors cannot silently change the disk format.
enum : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt64 = 2,
  kTagFloat64 = 3,
  kTagString = 4,
  kTagArray = 5,
  kTagStruct = 6,
};

/// Little-endian load of a fixed-width integer; compiles to one load on
/// little-endian hosts.
template <typename T>
T LoadLe(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Appends a fixed-width integer little-endian, in one append.
template <typename T>
void PutLe(T v, std::string* out) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out->append(bytes, sizeof(T));
}

/// The eight lookup tables of slicing-by-8 CRC-32: t[0] is the classic
/// bytewise table of the reflected polynomial, and t[k][i] is the CRC of
/// byte i followed by k zero bytes.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) { PutLe(v, out); }

void PutU64(uint64_t v, std::string* out) { PutLe(v, out); }

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case TypeKind::kNull:
      PutU8(kTagNull, out);
      return;
    case TypeKind::kBool:
      PutU8(kTagBool, out);
      PutU8(v.as_bool() ? 1 : 0, out);
      return;
    case TypeKind::kInt64:
      PutU8(kTagInt64, out);
      PutU64(static_cast<uint64_t>(v.as_int64()), out);
      return;
    case TypeKind::kFloat64:
      PutU8(kTagFloat64, out);
      PutF64(v.as_float64(), out);
      return;
    case TypeKind::kString:
      PutU8(kTagString, out);
      PutString(v.as_string(), out);
      return;
    case TypeKind::kArray: {
      PutU8(kTagArray, out);
      PutU32(static_cast<uint32_t>(v.array().size()), out);
      for (const Value& e : v.array()) PutValue(e, out);
      return;
    }
    case TypeKind::kStruct: {
      PutU8(kTagStruct, out);
      PutU32(static_cast<uint32_t>(v.struct_fields().size()), out);
      for (const auto& [name, field] : v.struct_fields()) {
        PutString(name, out);
        PutValue(field, out);
      }
      return;
    }
  }
}

void PutValues(const std::vector<Value>& values, std::string* out) {
  PutU32(static_cast<uint32_t>(values.size()), out);
  for (const Value& v : values) PutValue(v, out);
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::IOError("truncated record: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::U8() {
  ERBIUM_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(*p_++);
}

Result<uint32_t> ByteReader::U32() {
  ERBIUM_RETURN_NOT_OK(Need(4));
  uint32_t v = LoadLe<uint32_t>(p_);
  p_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  ERBIUM_RETURN_NOT_OK(Need(8));
  uint64_t v = LoadLe<uint64_t>(p_);
  p_ += 8;
  return v;
}

Result<double> ByteReader::F64() {
  ERBIUM_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::String() {
  ERBIUM_ASSIGN_OR_RETURN(uint32_t len, U32());
  ERBIUM_RETURN_NOT_OK(Need(len));
  std::string s(p_, p_ + len);
  p_ += len;
  return s;
}

Result<Value> ByteReader::ReadValue() {
  Value v;
  ERBIUM_RETURN_NOT_OK(ReadInto(&v, 0));
  return v;
}

Result<std::vector<Value>> ByteReader::ReadValues() {
  std::vector<Value> values;
  ERBIUM_RETURN_NOT_OK(ReadValuesInto(&values));
  return values;
}

Status ByteReader::ReadValuesInto(std::vector<Value>* out) {
  ERBIUM_ASSIGN_OR_RETURN(uint32_t count, U32());
  // Every value takes at least one tag byte.
  ERBIUM_RETURN_NOT_OK(Need(count));
  out->resize(count);
  for (Value& v : *out) {
    ERBIUM_RETURN_NOT_OK(ReadInto(&v, 0));
  }
  return Status::OK();
}

Status ByteReader::ReadInto(Value* out, int depth) {
  if (depth >= kMaxValueDepth) {
    return Status::IOError("value nesting deeper than " +
                           std::to_string(kMaxValueDepth) + " levels");
  }
  ERBIUM_ASSIGN_OR_RETURN(uint8_t tag, U8());
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagBool: {
      ERBIUM_ASSIGN_OR_RETURN(uint8_t b, U8());
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case kTagInt64: {
      ERBIUM_ASSIGN_OR_RETURN(uint64_t v, U64());
      *out = Value::Int64(static_cast<int64_t>(v));
      return Status::OK();
    }
    case kTagFloat64: {
      ERBIUM_ASSIGN_OR_RETURN(double v, F64());
      *out = Value::Float64(v);
      return Status::OK();
    }
    case kTagString: {
      // Built straight from the input bytes: no intermediate string.
      ERBIUM_ASSIGN_OR_RETURN(uint32_t len, U32());
      ERBIUM_RETURN_NOT_OK(Need(len));
      *out = Value::String(std::string(p_, len));
      p_ += len;
      return Status::OK();
    }
    case kTagArray: {
      ERBIUM_ASSIGN_OR_RETURN(uint32_t count, U32());
      // Every element takes at least one tag byte.
      ERBIUM_RETURN_NOT_OK(Need(count));
      Value::ArrayData elements(count);
      for (Value& e : elements) {
        ERBIUM_RETURN_NOT_OK(ReadInto(&e, depth + 1));
      }
      *out = Value::Array(std::move(elements));
      return Status::OK();
    }
    case kTagStruct: {
      ERBIUM_ASSIGN_OR_RETURN(uint32_t count, U32());
      ERBIUM_RETURN_NOT_OK(Need(count));
      Value::StructData fields(count);
      for (auto& [name, field] : fields) {
        ERBIUM_ASSIGN_OR_RETURN(name, String());
        ERBIUM_RETURN_NOT_OK(ReadInto(&field, depth + 1));
      }
      *out = Value::Struct(std::move(fields));
      return Status::OK();
    }
    default:
      return Status::IOError("unknown value tag " + std::to_string(tag));
  }
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& t = kCrc32Tables.t;
  const char* p = static_cast<const char*>(data);
  uint32_t crc = ~seed;
  // Slicing-by-8: fold eight bytes per step, then finish bytewise.
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo = LoadLe<uint32_t>(p) ^ crc;
    uint32_t hi = LoadLe<uint32_t>(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace durability
}  // namespace erbium
