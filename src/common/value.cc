#include "common/value.h"

#include <cmath>
#include <functional>
#include <new>

namespace erbium {

namespace {

/// Rank used to order values of different kinds; numeric kinds share a
/// rank so they compare by value.
int KindRank(TypeKind kind) {
  switch (kind) {
    case TypeKind::kNull:
      return 0;
    case TypeKind::kBool:
      return 1;
    case TypeKind::kInt64:
    case TypeKind::kFloat64:
      return 2;
    case TypeKind::kString:
      return 3;
    case TypeKind::kArray:
      return 4;
    case TypeKind::kStruct:
      return 5;
  }
  return 6;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

size_t CombineHash(size_t seed, size_t h) {
  // boost::hash_combine recipe.
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

Value::Block* Value::NewBlock(size_t payload_bytes, uint64_t size) {
  auto* b = static_cast<Block*>(::operator new(sizeof(Block) + payload_bytes));
  return new (b) Block{{1}, size};
}

Value Value::String(std::string_view v) {
  Value out;
  if (v.size() <= kInlineCapacity) {
    std::memcpy(out.bytes_, v.data(), v.size());
    out.bytes_[kLengthByte] = static_cast<unsigned char>(v.size());
    out.bytes_[kTagByte] = static_cast<uint8_t>(TypeKind::kString);
    return out;
  }
  Block* b = NewBlock(v.size(), v.size());
  std::memcpy(b->payload<char>(), v.data(), v.size());
  out.SetBlock(TypeKind::kString, b);
  return out;
}

Value Value::ArrayOfNulls(size_t n) {
  Value out;
  Block* b = nullptr;
  if (n > 0) {
    b = NewBlock(n * sizeof(Value), n);
    for (size_t i = 0; i < n; ++i) new (b->payload<Value>() + i) Value();
  }
  out.SetBlock(TypeKind::kArray, b);
  return out;
}

Value Value::Array(ArrayData elements) {
  Value out;
  Block* b = nullptr;
  if (!elements.empty()) {
    b = NewBlock(elements.size() * sizeof(Value), elements.size());
    for (size_t i = 0; i < elements.size(); ++i) {
      new (b->payload<Value>() + i) Value(std::move(elements[i]));
    }
  }
  out.SetBlock(TypeKind::kArray, b);
  return out;
}

Value Value::Struct(StructData fields) {
  Value out;
  Block* b = nullptr;
  if (!fields.empty()) {
    b = NewBlock(fields.size() * sizeof(StructField), fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      new (b->payload<StructField>() + i) StructField(std::move(fields[i]));
    }
  }
  out.SetBlock(TypeKind::kStruct, b);
  return out;
}

std::span<Value> Value::mutable_array() {
  assert(kind() == TypeKind::kArray);
  Block* b = block();
  if (b == nullptr) return {};
  assert(b->refs.load(std::memory_order_relaxed) == 1);
  return {b->payload<Value>(), b->size};
}

void Value::ReleaseBlock() noexcept {
  Block* b = block();
  if (b == nullptr) return;
  // A count of 1 is ours alone: no other holder can copy it concurrently.
  if (b->refs.load(std::memory_order_acquire) != 1 &&
      b->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  switch (kind()) {
    case TypeKind::kArray:
      for (size_t i = 0; i < b->size; ++i) b->payload<Value>()[i].~Value();
      break;
    case TypeKind::kStruct:
      for (size_t i = 0; i < b->size; ++i) {
        b->payload<StructField>()[i].~StructField();
      }
      break;
    default:
      break;
  }
  b->~Block();
  ::operator delete(b);
}

const Value* Value::FindField(std::string_view name) const {
  if (kind() != TypeKind::kStruct) return nullptr;
  for (const auto& [field_name, value] : struct_fields()) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

int Value::Compare(const Value& other) const {
  int rank = KindRank(kind());
  int other_rank = KindRank(other.kind());
  if (rank != other_rank) return rank < other_rank ? -1 : 1;

  switch (kind()) {
    case TypeKind::kNull:
      return 0;
    case TypeKind::kBool: {
      bool a = as_bool();
      bool b = other.as_bool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case TypeKind::kInt64:
    case TypeKind::kFloat64: {
      if (kind() == TypeKind::kInt64 && other.kind() == TypeKind::kInt64) {
        int64_t a = as_int64();
        int64_t b = other.as_int64();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      return CompareDoubles(AsFloat64(), other.AsFloat64());
    }
    case TypeKind::kString:
      return as_string().compare(other.as_string());
    case TypeKind::kArray: {
      ArrayView a = array();
      ArrayView b = other.array();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
    case TypeKind::kStruct: {
      StructView a = struct_fields();
      StructView b = other.struct_fields();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].first.compare(b[i].first);
        if (c != 0) return c;
        c = a[i].second.Compare(b[i].second);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (kind()) {
    case TypeKind::kNull:
      return 0x6e756c6cULL;
    case TypeKind::kBool:
      return as_bool() ? 0x74727565ULL : 0x66616c73ULL;
    case TypeKind::kInt64: {
      int64_t v = as_int64();
      // Hash integral values as doubles when exactly representable so
      // Int64(x) and Float64(x) collide, matching Compare().
      double d = static_cast<double>(v);
      if (static_cast<int64_t>(d) == v) {
        return std::hash<double>()(d);
      }
      return std::hash<int64_t>()(v);
    }
    case TypeKind::kFloat64:
      return std::hash<double>()(as_float64());
    case TypeKind::kString:
      return std::hash<std::string_view>()(as_string());
    case TypeKind::kArray: {
      size_t seed = 0x61727279ULL;
      for (const Value& v : array()) seed = CombineHash(seed, v.Hash());
      return seed;
    }
    case TypeKind::kStruct: {
      size_t seed = 0x73747263ULL;
      for (const auto& [name, v] : struct_fields()) {
        seed = CombineHash(seed, std::hash<std::string>()(name));
        seed = CombineHash(seed, v.Hash());
      }
      return seed;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case TypeKind::kNull:
      return "null";
    case TypeKind::kBool:
      return as_bool() ? "true" : "false";
    case TypeKind::kInt64:
      return std::to_string(as_int64());
    case TypeKind::kFloat64: {
      std::string s = std::to_string(as_float64());
      return s;
    }
    case TypeKind::kString: {
      std::string out = "'";
      out.append(as_string());
      out += '\'';
      return out;
    }
    case TypeKind::kArray: {
      std::string out = "[";
      ArrayView elements = array();
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out += ", ";
        out += elements[i].ToString();
      }
      out += "]";
      return out;
    }
    case TypeKind::kStruct: {
      std::string out = "{";
      StructView fields = struct_fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += fields[i].first + ": " + fields[i].second.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace erbium
