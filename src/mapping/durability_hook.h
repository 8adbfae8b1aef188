#ifndef ERBIUM_MAPPING_DURABILITY_HOOK_H_
#define ERBIUM_MAPPING_DURABILITY_HOOK_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/value.h"
#include "storage/index.h"

namespace erbium {

/// Write-ahead-log sink for the logical CRUD choke points of a
/// MappedDatabase. The durability subsystem (src/durability) implements
/// this; keeping the interface here lets the mapping layer log every
/// applied mutation without depending on the durability library (which
/// itself depends on mapping for snapshot/recovery).
///
/// Contract: a Log* method is called exactly once per *successfully
/// applied* logical operation, after the in-memory apply and while the
/// operation's lock domain is still held. It writes the record and
/// returns its LSN without waiting for the record to become durable; the
/// choke point then releases the domain and calls WaitDurable(lsn)
/// before acknowledging the caller. A non-OK return from either step is
/// propagated to the caller as the operation's result — the in-memory
/// state holds the change, but the write was never acknowledged and is
/// not guaranteed to survive recovery (this is how simulated crashes
/// surface mid-operation).
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;

  virtual Result<uint64_t> LogInsertEntity(const std::string& class_name,
                                           const Value& entity) = 0;
  virtual Result<uint64_t> LogDeleteEntity(const std::string& class_name,
                                           const IndexKey& key) = 0;
  virtual Result<uint64_t> LogUpdateAttribute(const std::string& class_name,
                                              const IndexKey& key,
                                              const std::string& attr,
                                              const Value& value) = 0;
  virtual Result<uint64_t> LogInsertRelationship(const std::string& rel_name,
                                                 const IndexKey& left_key,
                                                 const IndexKey& right_key,
                                                 const Value& attrs) = 0;
  virtual Result<uint64_t> LogDeleteRelationship(const std::string& rel_name,
                                                 const IndexKey& left_key,
                                                 const IndexKey& right_key) = 0;

  /// Blocks until the record with this LSN (and so every earlier one) is
  /// as durable as the log's sync mode promises.
  virtual Status WaitDurable(uint64_t lsn) = 0;

  /// CHECKPOINT statement support (wired through the query engine):
  /// snapshot the database and truncate the log. Returns a one-line
  /// human-readable summary on success.
  virtual Result<std::string> Checkpoint() = 0;
};

}  // namespace erbium

#endif  // ERBIUM_MAPPING_DURABILITY_HOOK_H_
