#ifndef ERBIUM_COMMON_VALUE_H_
#define ERBIUM_COMMON_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/type.h"

namespace erbium {

/// A runtime datum: null, bool, int64, float64, string, array of values,
/// or struct of named values, in 16 bytes.
///
/// Layout: byte 15 is a tag (the TypeKind, plus kHeapBit when bytes 0–7
/// hold a block pointer). Scalars sit in bytes 0–7. A string of up to
/// kInlineCapacity bytes sits in bytes 0–13 with its length in byte 14
/// (as in Umbra's strings, Neumann & Freitag, CIDR 2020). A longer string,
/// an array or a struct is one heap block: an atomic reference count and
/// a size, followed by the bytes, the element Values or the (name, Value)
/// fields. An empty array or struct has no block (a null pointer). A
/// block is immutable once a second Value shares it, so copying a Value
/// is at most one atomic increment regardless of nesting depth — rows
/// flow by value through the volcano executor.
class Value {
 public:
  /// Builders for Array()/Struct(); a built Value is read through the
  /// views below.
  using StructField = std::pair<std::string, Value>;
  using ArrayData = std::vector<Value>;
  using StructData = std::vector<StructField>;
  using ArrayView = std::span<const Value>;
  using StructView = std::span<const StructField>;

  /// Longest string held inline, without a heap block.
  static constexpr size_t kInlineCapacity = 14;

  /// Default-constructed Value is null.
  Value() noexcept { Clear(); }
  Value(const Value& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    Retain();
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.bytes_[kTagByte] = 0;
  }
  Value& operator=(const Value& other) noexcept {
    Value copy(other);  // retained before ours is released: other may
    Swap(copy);         // live inside our own block
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Value taken(std::move(other));
      Swap(taken);
    }
    return *this;
  }
  ~Value() {
    if (bytes_[kTagByte] & kHeapBit) ReleaseBlock();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Scalar(TypeKind::kBool, v); }
  static Value Int64(int64_t v) { return Scalar(TypeKind::kInt64, v); }
  static Value Float64(double v) { return Scalar(TypeKind::kFloat64, v); }
  static Value String(std::string_view v);
  static Value Array(ArrayData elements);
  static Value Struct(StructData fields);
  /// An array of `n` nulls in one fresh block, for producers that fill it
  /// in place through mutable_array() before copying the Value.
  static Value ArrayOfNulls(size_t n);

  TypeKind kind() const {
    return static_cast<TypeKind>(bytes_[kTagByte] & ~kHeapBit);
  }
  bool is_null() const { return kind() == TypeKind::kNull; }

  bool as_bool() const { return Load<bool>(TypeKind::kBool); }
  int64_t as_int64() const { return Load<int64_t>(TypeKind::kInt64); }
  double as_float64() const { return Load<double>(TypeKind::kFloat64); }
  /// The string's bytes; valid while this Value is alive and unchanged.
  std::string_view as_string() const {
    assert(kind() == TypeKind::kString);
    if (bytes_[kTagByte] & kHeapBit) {
      const Block* b = block();
      return {b->payload<char>(), b->size};
    }
    return {reinterpret_cast<const char*>(bytes_), bytes_[kLengthByte]};
  }
  ArrayView array() const {
    assert(kind() == TypeKind::kArray);
    const Block* b = block();
    return b == nullptr ? ArrayView()
                        : ArrayView(b->payload<Value>(), b->size);
  }
  StructView struct_fields() const {
    assert(kind() == TypeKind::kStruct);
    const Block* b = block();
    return b == nullptr ? StructView()
                        : StructView(b->payload<StructField>(), b->size);
  }
  /// The elements of an array this Value alone holds (see ArrayOfNulls).
  std::span<Value> mutable_array();

  /// Numeric coercion: int64 and float64 both convert; anything else is a
  /// programming error (call is_numeric-compatible kinds only).
  double AsFloat64() const {
    return kind() == TypeKind::kInt64 ? static_cast<double>(as_int64())
                                      : as_float64();
  }

  /// Struct field lookup by name; returns nullptr if absent or not a struct.
  const Value* FindField(std::string_view name) const;

  /// Total order over all values: nulls first, then by kind
  /// (bool < numeric < string < array < struct); int64/float64 compare
  /// numerically across kinds. Arrays/structs compare lexicographically.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric kinds hash by double value
  /// when integral-valued so that Int64(2) and Float64(2.0) collide).
  size_t Hash() const;

  /// Debug/display rendering: 'abc', [1, 2], {a: 1, b: 'x'}, null.
  std::string ToString() const;

 private:
  static constexpr size_t kLengthByte = 14;
  static constexpr size_t kTagByte = 15;
  static constexpr uint8_t kHeapBit = 0x80;

  /// Header of a heap block; the payload follows it.
  struct Block {
    std::atomic<uint64_t> refs;
    uint64_t size;  // bytes of a string, elements of an array or struct
    template <typename T>
    T* payload() {
      return reinterpret_cast<T*>(this + 1);
    }
    template <typename T>
    const T* payload() const {
      return reinterpret_cast<const T*>(this + 1);
    }
  };
  static_assert(sizeof(Block) % alignof(std::pair<std::string, int64_t>) ==
                0);

  /// A block with a count of 1 and room for `payload_bytes`; the caller
  /// constructs the payload.
  static Block* NewBlock(size_t payload_bytes, uint64_t size);

  void Clear() { std::memset(bytes_, 0, sizeof(bytes_)); }
  void Swap(Value& other) noexcept {
    unsigned char tmp[sizeof(bytes_)];
    std::memcpy(tmp, bytes_, sizeof(bytes_));
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    std::memcpy(other.bytes_, tmp, sizeof(bytes_));
  }

  template <typename T>
  static Value Scalar(TypeKind kind, T v) {
    Value out;
    std::memcpy(out.bytes_, &v, sizeof(v));
    out.bytes_[kTagByte] = static_cast<uint8_t>(kind);
    return out;
  }
  template <typename T>
  T Load([[maybe_unused]] TypeKind expected) const {
    assert(kind() == expected);
    T v;
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }

  /// Makes this Value own `b` (which may be null) as a `kind` value.
  void SetBlock(TypeKind kind, Block* b) {
    std::memcpy(bytes_, &b, sizeof(b));
    bytes_[kTagByte] = static_cast<uint8_t>(kind) | kHeapBit;
  }
  Block* block() const {
    Block* b;
    std::memcpy(&b, bytes_, sizeof(b));
    return b;
  }
  void Retain() const {
    if (bytes_[kTagByte] & kHeapBit) {
      if (Block* b = block()) b->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Drops this Value's reference; the last one destroys the block.
  void ReleaseBlock() noexcept;

  alignas(8) unsigned char bytes_[16];
};

static_assert(sizeof(Value) == 16);

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// A row is simply a vector of values; schemas live beside the data.
using Row = std::vector<Value>;

}  // namespace erbium

#endif  // ERBIUM_COMMON_VALUE_H_
