#include "factorized/factorized.h"

#include <algorithm>

#include "exec/snapshot.h"
#include "storage/table.h"

namespace erbium {

FactorizedPair::FactorizedPair(std::string name,
                               std::vector<Column> left_columns,
                               std::vector<int> left_key,
                               std::vector<Column> right_columns,
                               std::vector<int> right_key)
    : name_(std::move(name)),
      left_columns_(std::move(left_columns)),
      right_columns_(std::move(right_columns)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      left_index_(left_key_.size()),
      right_index_(right_key_.size()) {
  Publish();  // version 1: empty pair
}

void FactorizedPair::Publish() {
  auto version = std::make_shared<PairVersion>();
  version->left = left_bank_.TakeSnapshot();
  version->right = right_bank_.TakeSnapshot();
  version->l2r = l2r_bank_.TakeSnapshot();
  version->r2l = r2l_bank_.TakeSnapshot();
  version->edge_count = edge_count_;
  std::lock_guard<std::mutex> lock(version_mu_);
  current_ = std::move(version);
}

void FactorizedPair::AddEdge(CowBank<std::vector<uint32_t>>* bank, size_t i,
                             uint32_t value) {
  auto list = std::make_shared<std::vector<uint32_t>>(*bank->Get(i));
  list->push_back(value);
  bank->Set(i, std::move(list));
}

void FactorizedPair::RemoveEdge(CowBank<std::vector<uint32_t>>* bank,
                                size_t i, uint32_t value) {
  auto list = std::make_shared<std::vector<uint32_t>>(*bank->Get(i));
  list->erase(std::find(list->begin(), list->end(), value));
  bank->Set(i, std::move(list));
}

const Row& FactorizedPair::left_row(size_t i) const {
  static const Row kDeadRow;
  const Row* r = left_bank_.Get(i);
  return r == nullptr ? kDeadRow : *r;
}

const Row& FactorizedPair::right_row(size_t i) const {
  static const Row kDeadRow;
  const Row* r = right_bank_.Get(i);
  return r == nullptr ? kDeadRow : *r;
}

Result<uint32_t> FactorizedPair::InsertLeft(Row row) {
  if (row.size() != left_columns_.size()) {
    return Status::InvalidArgument("left row arity mismatch in " + name_);
  }
  IndexKey key = GatherKey(row, left_key_);
  if (KeyHasNull(key.data(), key.size())) {
    return Status::ConstraintViolation("null left key in " + name_);
  }
  if (Find(left_index_, key) >= 0) {
    return Status::ConstraintViolation("duplicate left key in " + name_);
  }
  uint32_t index = static_cast<uint32_t>(left_bank_.size());
  left_index_.Add(key.data(), index);
  left_bank_.Append(std::make_shared<const Row>(std::move(row)));
  l2r_bank_.Append(std::make_shared<std::vector<uint32_t>>());
  Publish();
  return index;
}

Result<uint32_t> FactorizedPair::InsertRight(Row row) {
  if (row.size() != right_columns_.size()) {
    return Status::InvalidArgument("right row arity mismatch in " + name_);
  }
  IndexKey key = GatherKey(row, right_key_);
  if (KeyHasNull(key.data(), key.size())) {
    return Status::ConstraintViolation("null right key in " + name_);
  }
  if (Find(right_index_, key) >= 0) {
    return Status::ConstraintViolation("duplicate right key in " + name_);
  }
  uint32_t index = static_cast<uint32_t>(right_bank_.size());
  right_index_.Add(key.data(), index);
  right_bank_.Append(std::make_shared<const Row>(std::move(row)));
  r2l_bank_.Append(std::make_shared<std::vector<uint32_t>>());
  Publish();
  return index;
}

Status FactorizedPair::Connect(const IndexKey& left_key,
                               const IndexKey& right_key) {
  int64_t l = FindLeft(left_key);
  int64_t r = FindRight(right_key);
  if (l < 0 || r < 0) {
    return Status::NotFound("connect with unknown key in " + name_);
  }
  const std::vector<uint32_t>& edges = *l2r_bank_.Get(l);
  if (std::find(edges.begin(), edges.end(), static_cast<uint32_t>(r)) !=
      edges.end()) {
    return Status::AlreadyExists("edge already present in " + name_);
  }
  AddEdge(&l2r_bank_, l, static_cast<uint32_t>(r));
  AddEdge(&r2l_bank_, r, static_cast<uint32_t>(l));
  ++edge_count_;
  Publish();
  return Status::OK();
}

Status FactorizedPair::Disconnect(const IndexKey& left_key,
                                  const IndexKey& right_key) {
  int64_t l = FindLeft(left_key);
  int64_t r = FindRight(right_key);
  if (l < 0 || r < 0) {
    return Status::NotFound("disconnect with unknown key in " + name_);
  }
  const std::vector<uint32_t>& lr = *l2r_bank_.Get(l);
  if (std::find(lr.begin(), lr.end(), static_cast<uint32_t>(r)) == lr.end()) {
    return Status::NotFound("edge not present in " + name_);
  }
  RemoveEdge(&l2r_bank_, l, static_cast<uint32_t>(r));
  RemoveEdge(&r2l_bank_, r, static_cast<uint32_t>(l));
  --edge_count_;
  Publish();
  return Status::OK();
}

Status FactorizedPair::EraseLeft(const IndexKey& key) {
  int64_t l = FindLeft(key);
  if (l < 0) return Status::NotFound("no left row with given key in " + name_);
  for (uint32_t r : *l2r_bank_.Get(l)) {
    RemoveEdge(&r2l_bank_, r, static_cast<uint32_t>(l));
    --edge_count_;
  }
  l2r_bank_.Set(l, std::make_shared<std::vector<uint32_t>>());
  left_bank_.Set(l, nullptr);
  left_index_.Erase(key.data(), l);
  Publish();
  return Status::OK();
}

Status FactorizedPair::EraseRight(const IndexKey& key) {
  int64_t r = FindRight(key);
  if (r < 0) {
    return Status::NotFound("no right row with given key in " + name_);
  }
  for (uint32_t l : *r2l_bank_.Get(r)) {
    RemoveEdge(&l2r_bank_, l, static_cast<uint32_t>(r));
    --edge_count_;
  }
  r2l_bank_.Set(r, std::make_shared<std::vector<uint32_t>>());
  right_bank_.Set(r, nullptr);
  right_index_.Erase(key.data(), r);
  Publish();
  return Status::OK();
}

int64_t FactorizedPair::Find(const KeyIndex& index, const IndexKey& key) {
  if (key.size() != index.arity()) return -1;
  RowId id = index.First(key.data());
  return id == KeyIndex::kNoRow ? -1 : static_cast<int64_t>(id);
}

int64_t FactorizedPair::FindLeft(const IndexKey& key) const {
  return Find(left_index_, key);
}

int64_t FactorizedPair::FindRight(const IndexKey& key) const {
  return Find(right_index_, key);
}

Status FactorizedPair::UpdateLeft(const IndexKey& key, Row row) {
  int64_t l = FindLeft(key);
  if (l < 0) return Status::NotFound("no left row with given key in " + name_);
  if (row.size() != left_columns_.size()) {
    return Status::InvalidArgument("left row arity mismatch in " + name_);
  }
  if (!KeyEquals(GatherKey(row, left_key_).data(), key.data(), key.size())) {
    return Status::InvalidArgument(
        "key change not allowed through UpdateLeft in " + name_);
  }
  left_bank_.Set(l, std::make_shared<const Row>(std::move(row)));
  Publish();
  return Status::OK();
}

Status FactorizedPair::UpdateRight(const IndexKey& key, Row row) {
  int64_t r = FindRight(key);
  if (r < 0) {
    return Status::NotFound("no right row with given key in " + name_);
  }
  if (row.size() != right_columns_.size()) {
    return Status::InvalidArgument("right row arity mismatch in " + name_);
  }
  if (!KeyEquals(GatherKey(row, right_key_).data(), key.data(),
                 key.size())) {
    return Status::InvalidArgument(
        "key change not allowed through UpdateRight in " + name_);
  }
  right_bank_.Set(r, std::make_shared<const Row>(std::move(row)));
  Publish();
  return Status::OK();
}

size_t FactorizedPair::ApproximateDataBytes() const {
  std::shared_ptr<const PairVersion> version = PinVersion();
  size_t total = 0;
  for (size_t i = 0; i < version->left_slots(); ++i) {
    const Row* row = version->left_row(i);
    if (row == nullptr) continue;
    for (const Value& v : *row) total += ApproximateValueBytes(v);
    total += version->right_neighbors(i)->size() * sizeof(uint32_t);
  }
  for (size_t i = 0; i < version->right_slots(); ++i) {
    const Row* row = version->right_row(i);
    if (row == nullptr) continue;
    for (const Value& v : *row) total += ApproximateValueBytes(v);
    total += version->left_neighbors(i)->size() * sizeof(uint32_t);
  }
  return total;
}

// ---- FactorizedJoinScan ------------------------------------------------------

FactorizedJoinScan::FactorizedJoinScan(const FactorizedPair* pair,
                                       bool left_outer)
    : pair_(pair), left_outer_(left_outer) {
  output_ = pair->left_columns();
  output_.insert(output_.end(), pair->right_columns().begin(),
                 pair->right_columns().end());
}

Status FactorizedJoinScan::OpenImpl() {
  version_ = exec::ResolveVersion(pair_, &owned_pin_);
  left_index_ = 0;
  edge_index_ = 0;
  return Status::OK();
}

bool FactorizedJoinScan::NextImpl(Row* out) {
  while (left_index_ < version_->left_slots()) {
    const Row* left = version_->left_row(left_index_);
    if (left == nullptr) {
      ++left_index_;
      edge_index_ = 0;
      continue;
    }
    const std::vector<uint32_t>& edges =
        *version_->right_neighbors(left_index_);
    if (edges.empty() && left_outer_ && edge_index_ == 0) {
      *out = *left;
      out->resize(out->size() + pair_->right_columns().size(), Value::Null());
      ++left_index_;
      edge_index_ = 0;
      return true;
    }
    if (edge_index_ < edges.size()) {
      const Row* right = version_->right_row(edges[edge_index_]);
      *out = *left;
      out->insert(out->end(), right->begin(), right->end());
      ++edge_index_;
      return true;
    }
    ++left_index_;
    edge_index_ = 0;
  }
  return false;
}

// ---- FactorizedSideScan ------------------------------------------------------

FactorizedSideScan::FactorizedSideScan(const FactorizedPair* pair,
                                       bool left_side)
    : pair_(pair), left_side_(left_side) {
  output_ = left_side ? pair->left_columns() : pair->right_columns();
}

Status FactorizedSideScan::OpenImpl() {
  version_ = exec::ResolveVersion(pair_, &owned_pin_);
  index_ = 0;
  return Status::OK();
}

bool FactorizedSideScan::NextImpl(Row* out) {
  const size_t bound =
      left_side_ ? version_->left_slots() : version_->right_slots();
  while (index_ < bound) {
    size_t i = index_++;
    const Row* row =
        left_side_ ? version_->left_row(i) : version_->right_row(i);
    if (row != nullptr) {
      *out = *row;
      return true;
    }
  }
  return false;
}

// ---- FactorizedGroupAggregate ------------------------------------------------

FactorizedGroupAggregate::FactorizedGroupAggregate(
    const FactorizedPair* pair, std::vector<AggregateSpec> aggregates)
    : pair_(pair), aggregates_(std::move(aggregates)) {
  output_ = pair->left_columns();
  for (const AggregateSpec& spec : aggregates_) {
    output_.push_back(Column{spec.output_name, Type::Null(), true});
  }
}

Status FactorizedGroupAggregate::OpenImpl() {
  version_ = exec::ResolveVersion(pair_, &owned_pin_);
  left_index_ = 0;
  return Status::OK();
}

bool FactorizedGroupAggregate::NextImpl(Row* out) {
  while (left_index_ < version_->left_slots()) {
    size_t l = left_index_++;
    const Row* left = version_->left_row(l);
    if (left == nullptr) continue;
    std::vector<AggAccumulator> accumulators(aggregates_.size());
    for (uint32_t r : *version_->right_neighbors(l)) {
      const Row* right = version_->right_row(r);
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        const AggregateSpec& spec = aggregates_[i];
        Value v = spec.input ? spec.input->Eval(*right) : Value::Null();
        accumulators[i].Update(spec, v);
      }
    }
    *out = *left;
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      out->push_back(accumulators[i].Finalize(aggregates_[i]));
    }
    return true;
  }
  return false;
}

}  // namespace erbium
