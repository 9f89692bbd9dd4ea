#ifndef BLOCKOPTR_LEDGER_RWSET_H_
#define BLOCKOPTR_LEDGER_RWSET_H_

#include <optional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "statedb/versioned_store.h"

namespace blockoptr {

/// One key read during simulation/endorsement, with the committed version
/// observed at that time (nullopt when the key did not exist).
struct ReadItem {
  std::string key;
  std::optional<Version> version;
  /// Lazily cached interned id of `key` (ids are process-stable, so a
  /// cached value never goes stale; copies may carry it). Filled by the
  /// first id() call; excluded from equality. Not filled at creation, so
  /// range results that no id-reading pass visits are never interned.
  mutable KeyId cached_id = kInvalidKeyId;

  /// Interned id of `key`, interning on first use. Not thread-safe: call
  /// from the thread that owns the item.
  KeyId id() const {
    if (cached_id == kInvalidKeyId) {
      cached_id = GlobalKeyInterner().Intern(key);
    }
    return cached_id;
  }

  friend bool operator==(const ReadItem& a, const ReadItem& b) {
    return a.key == b.key && a.version == b.version;
  }
};

/// One key written (or deleted) by the transaction.
struct WriteItem {
  std::string key;
  std::string value;
  bool is_delete = false;
  /// Same contract as ReadItem::cached_id and ReadItem::id().
  mutable KeyId cached_id = kInvalidKeyId;

  KeyId id() const {
    if (cached_id == kInvalidKeyId) {
      cached_id = GlobalKeyInterner().Intern(key);
    }
    return cached_id;
  }

  friend bool operator==(const WriteItem& a, const WriteItem& b) {
    return a.key == b.key && a.value == b.value && a.is_delete == b.is_delete;
  }
};

/// A range query executed during endorsement: the bounds plus the exact
/// (key, version) results observed. Validation re-executes the range
/// against commit-time state; any difference is a *phantom read conflict*.
struct RangeQueryInfo {
  std::string start_key;
  std::string end_key;  // empty = unbounded
  std::vector<ReadItem> results;

  friend bool operator==(const RangeQueryInfo&, const RangeQueryInfo&) =
      default;
};

/// The read-write set produced by endorsing (simulating) a transaction.
/// This is the object Fabric's validators check and the primary artefact
/// BlockOptR's analysis consumes (paper §4.1 attribute 6). The analysis
/// reads RS(x)/WS(x)/RWS(x) as sorted KeyId sets, derived once per
/// transaction in its MetricsRow (blockopt/metrics); the string accessors
/// below re-sort and allocate on every call.
struct ReadWriteSet {
  std::vector<ReadItem> reads;
  std::vector<WriteItem> writes;
  std::vector<RangeQueryInfo> range_queries;

  // Items compare their recorded data only, never their cached ids.
  friend bool operator==(const ReadWriteSet&, const ReadWriteSet&) = default;

  /// All keys accessed (reads, writes, and range-query results), deduped,
  /// sorted. This is RWS(x) in the paper's formalization.
  std::vector<std::string> AccessedKeys() const;

  /// Keys in the read set (including range results): RS(x).
  std::vector<std::string> ReadKeys() const;

  /// Keys in the write set: WS(x).
  std::vector<std::string> WriteKeys() const;

  bool HasWriteTo(const std::string& key) const;
  bool HasReadOf(const std::string& key) const;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_LEDGER_RWSET_H_
