#include "storage/table.h"

#include <algorithm>

namespace erbium {

namespace {

bool RowMatchesKey(const Row& row, const std::vector<int>& column_indexes,
                   const IndexKey& key) {
  for (size_t i = 0; i < column_indexes.size(); ++i) {
    if (!KeyEquals(&row[column_indexes[i]], &key[i], 1)) return false;
  }
  return true;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  inserts_ = metrics.counter("table." + name() + ".inserts");
  updates_ = metrics.counter("table." + name() + ".updates");
  deletes_ = metrics.counter("table." + name() + ".deletes");
  Publish();  // version 1: the empty table
}

Table::TableIndex::TableIndex(std::string name, std::vector<int> columns,
                              bool unique)
    : name(std::move(name)),
      columns(std::move(columns)),
      unique(unique),
      probes(obs::MetricsRegistry::Global().counter("index." + this->name +
                                                    ".probes")),
      entries(this->columns.size()) {}

const Row& Table::row(RowId id) const {
  static const Row kDeadRow;
  const Row* r = bank_.Get(id);
  return r != nullptr ? *r : kDeadRow;
}

bool Table::HasLiveDuplicate(const std::vector<int>& columns,
                             const IndexKey& key, RowId self) const {
  std::vector<RowId> ids;
  LookupEqual(columns, key, &ids);
  return std::any_of(ids.begin(), ids.end(),
                     [self](RowId id) { return id != self; });
}

void Table::Publish() {
  auto version = std::make_shared<TableVersion>();
  version->rows = bank_.TakeSnapshot();
  version->live_count = live_count_;
  version->epoch = ++epoch_;
  live_versions_.push_back(TrackedVersion{version->epoch, version});
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    current_ = std::move(version);
  }
  published_slots_.store(bank_.size(), std::memory_order_release);
  published_live_.store(live_count_, std::memory_order_release);

  // Epoch sweep: drop expired pins, then apply every queued erasure no
  // pinned version can still see. current_ is always tracked, so
  // min_live <= epoch_ and entries queued this mutation never apply yet.
  uint64_t min_live = epoch_;
  size_t kept = 0;
  for (TrackedVersion& tracked : live_versions_) {
    if (tracked.version.expired()) continue;
    min_live = std::min(min_live, tracked.epoch);
    live_versions_[kept++] = std::move(tracked);
  }
  live_versions_.resize(kept);
  if (pending_erases_.empty() || pending_erases_.front().epoch >= min_live) {
    return;
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  while (!pending_erases_.empty() &&
         pending_erases_.front().epoch < min_live) {
    PendingErase& pending = pending_erases_.front();
    pending.index->entries.Erase(pending.key.data(), pending.id);
    pending_erases_.pop_front();
  }
}

void Table::DeferErase(TableIndex* index, IndexKey key, RowId id) {
  if (KeyHasNull(key.data(), key.size())) return;  // never entered the index
  pending_erases_.push_back(PendingErase{epoch_, index, std::move(key), id});
}

Result<RowId> Table::Insert(Row row) {
  WriterCheck::Scope write_scope(&writer_check_, "Table (Insert)");
  ERBIUM_RETURN_NOT_OK(schema_.ValidateRow(row));
  // Check unique constraints against live working state before mutating
  // anything (the index alone may hold stale entries).
  for (const auto& index : indexes_) {
    if (!index->unique) continue;
    IndexKey key = GatherKey(row, index->columns);
    if (!KeyHasNull(key.data(), key.size()) &&
        HasLiveDuplicate(index->columns, key, KeyIndex::kNoRow)) {
      return Status::ConstraintViolation("duplicate key in unique index " +
                                         index->name + " of table " +
                                         name());
    }
  }
  RowId id = bank_.size();
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    for (const auto& index : indexes_) {
      index->entries.Add(GatherKey(row, index->columns).data(), id);
    }
  }
  bank_.Append(std::make_shared<const Row>(std::move(row)));
  ++live_count_;
  Publish();
  inserts_.Increment();
  return id;
}

Status Table::Update(RowId id, Row row) {
  WriterCheck::Scope write_scope(&writer_check_, "Table (Update)");
  const Row* old_row = bank_.Get(id);
  if (old_row == nullptr) {
    return Status::NotFound("update of dead or out-of-range row id " +
                            std::to_string(id) + " in table " + name());
  }
  ERBIUM_RETURN_NOT_OK(schema_.ValidateRow(row));
  for (const auto& index : indexes_) {
    if (!index->unique) continue;
    IndexKey new_key = GatherKey(row, index->columns);
    if (KeyHasNull(new_key.data(), new_key.size())) continue;
    if (RowMatchesKey(*old_row, index->columns, new_key)) continue;
    if (HasLiveDuplicate(index->columns, new_key, id)) {
      return Status::ConstraintViolation("duplicate key in unique index " +
                                         index->name + " of table " +
                                         name());
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    for (const auto& index : indexes_) {
      IndexKey new_key = GatherKey(row, index->columns);
      // Unchanged key: the existing entry stays valid; adding again would
      // post it twice for one live row.
      if (RowMatchesKey(*old_row, index->columns, new_key)) continue;
      index->entries.Add(new_key.data(), id);
      // Deferring outside the lock is fine (writer-only queue), but the
      // key was extracted from *old_row which Set() below invalidates.
      DeferErase(index.get(), GatherKey(*old_row, index->columns), id);
    }
  }
  bank_.Set(id, std::make_shared<const Row>(std::move(row)));
  Publish();
  updates_.Increment();
  return Status::OK();
}

Status Table::Delete(RowId id) {
  WriterCheck::Scope write_scope(&writer_check_, "Table (Delete)");
  const Row* old_row = bank_.Get(id);
  if (old_row == nullptr) {
    return Status::NotFound("delete of dead or out-of-range row id " +
                            std::to_string(id) + " in table " + name());
  }
  for (const auto& index : indexes_) {
    DeferErase(index.get(), GatherKey(*old_row, index->columns), id);
  }
  bank_.Set(id, nullptr);
  --live_count_;
  Publish();
  deletes_.Increment();
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names,
                          bool unique) {
  WriterCheck::Scope write_scope(&writer_check_, "Table (CreateIndex)");
  for (const auto& index : indexes_) {
    if (index->name == index_name) {
      return Status::AlreadyExists("index " + index_name + " already exists");
    }
  }
  std::vector<int> columns;
  for (const std::string& column_name : column_names) {
    int idx = schema_.ColumnIndex(column_name);
    if (idx < 0) {
      return Status::InvalidArgument("no column " + column_name +
                                     " in table " + name());
    }
    columns.push_back(idx);
  }
  auto index =
      std::make_unique<TableIndex>(index_name, std::move(columns), unique);
  for (RowId id = 0; id < bank_.size(); ++id) {
    const Row* r = bank_.Get(id);
    if (r == nullptr) continue;
    IndexKey key = GatherKey(*r, index->columns);
    if (unique && !KeyHasNull(key.data(), key.size())) {
      index->probes.Increment();
      if (index->entries.First(key.data()) != KeyIndex::kNoRow) {
        return Status::ConstraintViolation("duplicate key in unique index " +
                                           index_name + " of table " +
                                           name());
      }
    }
    index->entries.Add(key.data(), id);
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const Table::TableIndex* Table::FindIndex(
    const std::vector<int>& column_indexes) const {
  for (const auto& index : indexes_) {
    if (index->columns == column_indexes) return index.get();
  }
  return nullptr;
}

template <typename RowAt>
void Table::LookupRows(const std::vector<int>& column_indexes,
                       const IndexKey& key, size_t bound, const RowAt& row_at,
                       std::vector<RowId>* out) const {
  if (key.size() != column_indexes.size()) return;
  auto matches = [&](RowId id) {
    const Row* r = row_at(id);
    return r != nullptr && RowMatchesKey(*r, column_indexes, key);
  };
  const TableIndex* index = FindIndex(column_indexes);
  if (index == nullptr) {
    for (RowId id = 0; id < bound; ++id) {
      if (matches(id)) out->push_back(id);
    }
    return;
  }
  std::vector<RowId> candidates;
  index->probes.Increment();
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    index->entries.Lookup(key.data(), &candidates);
  }
  // Deferred erasure leaves stale candidates and can post one (key, id)
  // twice: dedupe, then verify liveness and the key itself against the
  // row view.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (RowId id : candidates) {
    if (matches(id)) out->push_back(id);
  }
}

void Table::LookupEqual(const std::vector<int>& column_indexes,
                        const IndexKey& key, std::vector<RowId>* out) const {
  LookupRows(
      column_indexes, key, bank_.size(),
      [this](RowId id) { return bank_.Get(id); }, out);
}

void Table::LookupEqualIn(const TableVersion& version,
                          const std::vector<int>& column_indexes,
                          const IndexKey& key, std::vector<RowId>* out) const {
  // The version filter makes the probe snapshot-exact: entries for rows
  // born after the pin fall outside its bound, tombstones are null, and
  // stale entries fail the key comparison.
  LookupRows(
      column_indexes, key, version.slot_count(),
      [&version](RowId id) { return version.row(id); }, out);
}

size_t ApproximateValueBytes(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return 1;
    case TypeKind::kBool:
      return 1;
    case TypeKind::kInt64:
    case TypeKind::kFloat64:
      return 8;
    case TypeKind::kString:
      return 16 + v.as_string().size();
    case TypeKind::kArray: {
      size_t total = 24;
      for (const Value& element : v.array()) {
        total += ApproximateValueBytes(element);
      }
      return total;
    }
    case TypeKind::kStruct: {
      size_t total = 24;
      for (const auto& [name, value] : v.struct_fields()) {
        total += name.size() + ApproximateValueBytes(value);
      }
      return total;
    }
  }
  return 0;
}

size_t Table::ApproximateDataBytes() const {
  std::shared_ptr<const TableVersion> version = PinVersion();
  size_t total = 0;
  for (RowId id = 0; id < version->slot_count(); ++id) {
    const Row* r = version->row(id);
    if (r == nullptr) continue;
    for (const Value& v : *r) total += ApproximateValueBytes(v);
  }
  return total;
}

}  // namespace erbium
