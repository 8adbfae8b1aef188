#include "durability/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "durability/serde.h"

namespace erbium {
namespace durability {

namespace {

constexpr char kMagic[] = "ERBSNP01";
constexpr size_t kMagicBytes = 8;
static_assert(kSnapshotHeaderBytes == kMagicBytes + 8);

void PutRow(const Row& row, std::string* out) { PutValues(row, out); }

void PutRows(const std::vector<Row>& rows, std::string* out) {
  PutU64(rows.size(), out);
  for (const Row& row : rows) PutRow(row, out);
}

Result<std::vector<Row>> ReadRows(ByteReader* reader) {
  ERBIUM_ASSIGN_OR_RETURN(uint64_t count, reader->U64());
  ERBIUM_RETURN_NOT_OK(
      count <= reader->remaining()
          ? Status::OK()
          : Status::IOError("snapshot row count exceeds file size"));
  std::vector<Row> rows(count);
  for (Row& row : rows) {
    ERBIUM_RETURN_NOT_OK(reader->ReadValuesInto(&row));
  }
  return rows;
}

}  // namespace

std::string EncodeSnapshot(const SnapshotData& data) {
  std::string payload;
  PutU64(data.last_lsn, &payload);
  PutString(data.ddl, &payload);
  PutString(data.spec_json, &payload);
  PutU32(static_cast<uint32_t>(data.tables.size()), &payload);
  for (const auto& table : data.tables) {
    PutString(table.name, &payload);
    PutRows(table.rows, &payload);
  }
  PutU32(static_cast<uint32_t>(data.pairs.size()), &payload);
  for (const auto& pair : data.pairs) {
    PutString(pair.name, &payload);
    PutRows(pair.left_rows, &payload);
    PutRows(pair.right_rows, &payload);
    PutU64(pair.edges.size(), &payload);
    for (const auto& [left, right] : pair.edges) {
      PutU64(left, &payload);
      PutU64(right, &payload);
    }
  }
  std::string out(kMagic, kMagicBytes);
  PutU32(static_cast<uint32_t>(payload.size()), &out);
  PutU32(Crc32(payload.data(), payload.size()), &out);
  out += payload;
  return out;
}

Result<SnapshotData> DecodeSnapshot(const std::string& bytes) {
  if (bytes.size() < kMagicBytes + 8 ||
      bytes.compare(0, kMagicBytes, kMagic) != 0) {
    return Status::IOError("not a snapshot file (bad magic)");
  }
  ByteReader header(bytes.data() + kMagicBytes, 8);
  ERBIUM_ASSIGN_OR_RETURN(uint32_t len, header.U32());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
  if (len > kMaxSnapshotPayloadBytes || bytes.size() - kMagicBytes - 8 != len) {
    return Status::IOError("snapshot payload length mismatch");
  }
  const char* payload = bytes.data() + kMagicBytes + 8;
  if (Crc32(payload, len) != crc) {
    return Status::IOError("snapshot checksum mismatch");
  }
  SnapshotData data;
  ByteReader reader(payload, len);
  ERBIUM_ASSIGN_OR_RETURN(data.last_lsn, reader.U64());
  ERBIUM_ASSIGN_OR_RETURN(data.ddl, reader.String());
  ERBIUM_ASSIGN_OR_RETURN(data.spec_json, reader.String());
  ERBIUM_ASSIGN_OR_RETURN(uint32_t table_count, reader.U32());
  for (uint32_t i = 0; i < table_count; ++i) {
    SnapshotData::TableImage table;
    ERBIUM_ASSIGN_OR_RETURN(table.name, reader.String());
    ERBIUM_ASSIGN_OR_RETURN(table.rows, ReadRows(&reader));
    data.tables.push_back(std::move(table));
  }
  ERBIUM_ASSIGN_OR_RETURN(uint32_t pair_count, reader.U32());
  for (uint32_t i = 0; i < pair_count; ++i) {
    SnapshotData::PairImage pair;
    ERBIUM_ASSIGN_OR_RETURN(pair.name, reader.String());
    ERBIUM_ASSIGN_OR_RETURN(pair.left_rows, ReadRows(&reader));
    ERBIUM_ASSIGN_OR_RETURN(pair.right_rows, ReadRows(&reader));
    ERBIUM_ASSIGN_OR_RETURN(uint64_t edge_count, reader.U64());
    if (edge_count > reader.remaining()) {
      return Status::IOError("snapshot edge count exceeds file size");
    }
    pair.edges.reserve(edge_count);
    for (uint64_t e = 0; e < edge_count; ++e) {
      ERBIUM_ASSIGN_OR_RETURN(uint64_t left, reader.U64());
      ERBIUM_ASSIGN_OR_RETURN(uint64_t right, reader.U64());
      pair.edges.emplace_back(left, right);
    }
    data.pairs.push_back(std::move(pair));
  }
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes inside snapshot payload");
  }
  return data;
}

SnapshotData CaptureSnapshot(const MappedDatabase& db, uint64_t last_lsn,
                             std::string ddl) {
  SnapshotData data;
  data.last_lsn = last_lsn;
  data.ddl = std::move(ddl);
  data.spec_json = db.mapping().spec().ToJson();
  for (const std::string& name : db.catalog().TableNames()) {
    if (name == MappedDatabase::kMappingCatalogTable) continue;
    const Table* table = db.catalog().GetTable(name);
    SnapshotData::TableImage image;
    image.name = name;
    image.rows.reserve(table->size());
    for (RowId id = 0; id < table->slot_count(); ++id) {
      if (table->IsLive(id)) image.rows.push_back(table->row(id));
    }
    data.tables.push_back(std::move(image));
  }
  for (const auto& def : db.mapping().pairs()) {
    const FactorizedPair* pair = db.pair(def.name);
    if (pair == nullptr) continue;
    SnapshotData::PairImage image;
    image.name = def.name;
    // Densely renumber live rows on both sides so edges can reference
    // positions in the stored arrays.
    std::unordered_map<uint64_t, uint64_t> left_dense;
    std::unordered_map<uint64_t, uint64_t> right_dense;
    for (size_t i = 0; i < pair->left_size(); ++i) {
      if (!pair->left_live(i)) continue;
      left_dense[i] = image.left_rows.size();
      image.left_rows.push_back(pair->left_row(i));
    }
    for (size_t i = 0; i < pair->right_size(); ++i) {
      if (!pair->right_live(i)) continue;
      right_dense[i] = image.right_rows.size();
      image.right_rows.push_back(pair->right_row(i));
    }
    for (size_t i = 0; i < pair->left_size(); ++i) {
      if (!pair->left_live(i)) continue;
      for (uint32_t r : pair->right_neighbors(i)) {
        if (!pair->right_live(r)) continue;
        image.edges.emplace_back(left_dense[i], right_dense[r]);
      }
    }
    data.pairs.push_back(std::move(image));
  }
  return data;
}

SnapshotData CaptureSnapshotFromPins(
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const TableVersion>>>& tables,
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const PairVersion>>>& pairs,
    uint64_t last_lsn, std::string ddl, std::string spec_json) {
  SnapshotData data;
  data.last_lsn = last_lsn;
  data.ddl = std::move(ddl);
  data.spec_json = std::move(spec_json);
  for (const auto& [name, version] : tables) {
    SnapshotData::TableImage image;
    image.name = name;
    image.rows.reserve(version->size());
    for (RowId id = 0; id < version->slot_count(); ++id) {
      const Row* row = version->row(id);
      if (row != nullptr) image.rows.push_back(*row);
    }
    data.tables.push_back(std::move(image));
  }
  for (const auto& [name, version] : pairs) {
    SnapshotData::PairImage image;
    image.name = name;
    std::unordered_map<uint64_t, uint64_t> left_dense;
    std::unordered_map<uint64_t, uint64_t> right_dense;
    for (size_t i = 0; i < version->left_slots(); ++i) {
      const Row* row = version->left_row(i);
      if (row == nullptr) continue;
      left_dense[i] = image.left_rows.size();
      image.left_rows.push_back(*row);
    }
    for (size_t i = 0; i < version->right_slots(); ++i) {
      const Row* row = version->right_row(i);
      if (row == nullptr) continue;
      right_dense[i] = image.right_rows.size();
      image.right_rows.push_back(*row);
    }
    for (size_t i = 0; i < version->left_slots(); ++i) {
      if (version->left_row(i) == nullptr) continue;
      for (uint32_t r : *version->right_neighbors(i)) {
        if (version->right_row(r) == nullptr) continue;
        image.edges.emplace_back(left_dense[i], right_dense[r]);
      }
    }
    data.pairs.push_back(std::move(image));
  }
  return data;
}

Status LoadIntoDatabase(const SnapshotData& data, MappedDatabase* db) {
  for (const auto& image : data.tables) {
    Table* table = db->catalog().GetTable(image.name);
    if (table == nullptr) {
      return Status::IOError("snapshot table '" + image.name +
                             "' does not exist under the recovered mapping");
    }
    for (const Row& row : image.rows) {
      ERBIUM_RETURN_NOT_OK(table->Insert(row).status());
    }
  }
  for (const auto& image : data.pairs) {
    FactorizedPair* pair = db->pair(image.name);
    if (pair == nullptr) {
      return Status::IOError("snapshot pair '" + image.name +
                             "' does not exist under the recovered mapping");
    }
    // Find the key positions from the compiled mapping so edges can be
    // reconnected by key.
    const PhysicalMapping::PairDef* def = nullptr;
    for (const auto& d : db->mapping().pairs()) {
      if (d.name == image.name) def = &d;
    }
    if (def == nullptr) {
      return Status::IOError("snapshot pair '" + image.name +
                             "' missing from the compiled mapping");
    }
    for (const Row& row : image.left_rows) {
      ERBIUM_RETURN_NOT_OK(pair->InsertLeft(row).status());
    }
    for (const Row& row : image.right_rows) {
      ERBIUM_RETURN_NOT_OK(pair->InsertRight(row).status());
    }
    auto key_of = [](const Row& row, const std::vector<int>& positions) {
      IndexKey key;
      key.reserve(positions.size());
      for (int p : positions) key.push_back(row[p]);
      return key;
    };
    for (const auto& [left, right] : image.edges) {
      if (left >= image.left_rows.size() || right >= image.right_rows.size()) {
        return Status::IOError("snapshot edge index out of range in pair '" +
                               image.name + "'");
      }
      ERBIUM_RETURN_NOT_OK(
          pair->Connect(key_of(image.left_rows[left], def->left_key),
                        key_of(image.right_rows[right], def->right_key)));
    }
  }
  return Status::OK();
}

std::string SnapshotPath(const std::string& dir, uint64_t gen) {
  return dir + "/snapshot-" + std::to_string(gen) + ".erbsnap";
}

std::vector<uint64_t> ListSnapshotGens(const std::string& dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr const char* kPrefix = "snapshot-";
    constexpr const char* kSuffix = ".erbsnap";
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= 9 + 8 || name.compare(name.size() - 8, 8, kSuffix) != 0)
      continue;
    std::string digits = name.substr(9, name.size() - 9 - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    // strtoull instead of stoull: a stray file whose digits overflow
    // uint64_t must be skipped, not abort Open with std::out_of_range.
    errno = 0;
    char* end = nullptr;
    unsigned long long gen = std::strtoull(digits.c_str(), &end, 10);
    if (errno == ERANGE || end != digits.c_str() + digits.size()) continue;
    gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Result<SnapshotData> LoadSnapshotFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) {
    return Status::IOError("cannot open snapshot " + path);
  }
  // One sized read: the string is allocated once at the file's size.
  const std::streamoff size = file.tellg();
  if (size < 0) {
    return Status::IOError("failed reading snapshot " + path);
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  file.seekg(0);
  file.read(bytes.data(), size);
  if (file.bad() || file.gcount() != size) {
    return Status::IOError("failed reading snapshot " + path);
  }
  return DecodeSnapshot(bytes);
}

}  // namespace durability
}  // namespace erbium
