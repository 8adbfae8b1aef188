#include "storage/index.h"

namespace erbium {

void KeyIndex::Add(const Value* key, RowId id) {
  if (KeyHasNull(key, arity())) return;
  auto [entry, inserted] = keys_.FindOrInsert(HashKey(key, arity()), key);
  ++postings_;
  if (inserted) {
    heads_.push_back(Posting{id, kEnd});
    return;
  }
  Posting& head = heads_[entry];
  if (head.id == kNoRow) {  // revives a dead entry
    head.id = id;
    --dead_;
    return;
  }
  uint32_t node = free_;
  if (node == kEnd) {
    node = static_cast<uint32_t>(overflow_.size());
    overflow_.push_back(Posting{});
  } else {
    free_ = overflow_[node].next;
  }
  overflow_[node] = Posting{id, head.next};
  head.next = node;
}

void KeyIndex::Erase(const Value* key, RowId id) {
  uint32_t entry = keys_.Find(HashKey(key, arity()), key);
  if (entry == KeyTable::kNotFound) return;
  Posting& head = heads_[entry];
  uint32_t node;
  if (head.id == id) {
    node = head.next;
    if (node == kEnd) {
      head.id = kNoRow;
      ++dead_;
    } else {
      head = overflow_[node];
    }
  } else {
    uint32_t* link = &head.next;
    while (*link != kEnd && overflow_[*link].id != id) {
      link = &overflow_[*link].next;
    }
    node = *link;
    if (node == kEnd) return;  // (key, id) is not posted
    *link = overflow_[node].next;
  }
  if (node != kEnd) {
    overflow_[node].next = free_;
    free_ = node;
  }
  --postings_;
  constexpr size_t kMinDeadToCompact = 8;
  if (dead_ >= kMinDeadToCompact && dead_ * 2 >= keys_.size()) Compact();
}

const KeyIndex::Posting* KeyIndex::Head(const Value* key) const {
  uint32_t entry = keys_.Find(HashKey(key, arity()), key);
  if (entry == KeyTable::kNotFound || heads_[entry].id == kNoRow) {
    return nullptr;
  }
  return &heads_[entry];
}

void KeyIndex::Lookup(const Value* key, std::vector<RowId>* out) const {
  const Posting* head = Head(key);
  if (head == nullptr) return;
  out->push_back(head->id);
  for (uint32_t node = head->next; node != kEnd; node = overflow_[node].next) {
    out->push_back(overflow_[node].id);
  }
}

RowId KeyIndex::First(const Value* key) const {
  const Posting* head = Head(key);
  return head == nullptr ? kNoRow : head->id;
}

void KeyIndex::Compact() {
  const size_t live = keys_.size() - dead_;
  KeyTable keys(arity());
  keys.Reset(live);
  std::vector<Posting> heads;
  heads.reserve(live);
  std::vector<Posting> overflow;
  overflow.reserve(postings_ - live);
  for (uint32_t entry = 0; entry < keys_.size(); ++entry) {
    const Posting& head = heads_[entry];
    if (head.id == kNoRow) continue;
    keys.FindOrInsert(keys_.hash(entry), keys_.key(entry));
    heads.push_back(Posting{head.id, kEnd});
    for (uint32_t node = head.next; node != kEnd;
         node = overflow_[node].next) {
      overflow.push_back(Posting{overflow_[node].id, heads.back().next});
      heads.back().next = static_cast<uint32_t>(overflow.size() - 1);
    }
  }
  keys_ = std::move(keys);
  heads_ = std::move(heads);
  overflow_ = std::move(overflow);
  free_ = kEnd;
  dead_ = 0;
}

}  // namespace erbium
