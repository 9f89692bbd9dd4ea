#ifndef BLOCKOPTR_COMMON_INTERNER_H_
#define BLOCKOPTR_COMMON_INTERNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace blockoptr {

/// Dense identifier for an interned state key. The data plane compares,
/// sorts, and intersects keys per transaction; doing that over 4-byte IDs
/// instead of namespaced strings ("<chaincode>~<key>", long shared
/// prefixes) is what makes the hot loops cache- and branch-friendly.
using KeyId = uint32_t;

/// Sentinel returned by Interner::Lookup for never-interned keys.
inline constexpr KeyId kInvalidKeyId = 0xFFFFFFFFu;

/// Append-only, thread-safe string-to-KeyId table.
///
/// IDs are assigned in first-intern order and never reused or freed, so a
/// KeyId (and the string_view returned by KeyForId) stays valid for the
/// process lifetime. Under the parallel experiment engine the *numeric*
/// assignment therefore varies run-to-run with thread interleaving —
/// which is why nothing exported may depend on ID values or ID sort
/// order, only on the key *sets* they denote (see DESIGN.md,
/// "Performance": the determinism-preservation argument).
///
/// Lookup, KeyForId and Intern of a known key take no lock: every RW-set
/// and store access on every shard thread goes through them. Key bytes
/// live in append-only chunks, the id -> key views in segments that never
/// move, and key -> id in an open-addressing table of atomic slots. Growth
/// publishes a table of twice the size and keeps the old ones alive for
/// readers still probing them; together they stay smaller than the
/// current one. Only inserting a new key takes `insert_mu_`.
class Interner {
 public:
  Interner();
  ~Interner();
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the ID for `key`, interning it on first sight.
  KeyId Intern(std::string_view key);

  /// Returns the ID for `key` without interning, or kInvalidKeyId when the
  /// key has never been interned. This is the read-side fast path: a key
  /// that was never interned was never written to any store.
  KeyId Lookup(std::string_view key) const;

  /// The interned string for a valid `id`. The view is stable for the
  /// process lifetime (storage is append-only).
  std::string_view KeyForId(KeyId id) const;

  size_t size() const;

 private:
  /// Slot word: the key hash's upper 32 bits, then id + 1 (0 = empty).
  struct Table {
    explicit Table(size_t capacity) : slots(capacity) {}
    std::vector<std::atomic<uint64_t>> slots;  // power-of-two size
  };

  /// Segment s holds the views of ids [B(2^s - 1), B(2^(s+1) - 1)),
  /// B = 2^kFirstSegmentBits; 33 - kFirstSegmentBits segments cover every
  /// id below 2^32.
  static constexpr int kFirstSegmentBits = 8;
  static constexpr int kSegments = 33 - kFirstSegmentBits;

  /// Segment index and offset of `id`'s view.
  static std::pair<int, size_t> Locate(KeyId id);
  /// Stores `id` in the first free slot of its probe sequence.
  static void Insert(Table& table, uint64_t hash, KeyId id);
  KeyId Find(const Table& table, std::string_view key, uint64_t hash) const;
  std::string_view CopyKey(std::string_view key);  // requires insert_mu_

  std::atomic<Table*> table_;
  std::atomic<std::string_view*> segments_[kSegments] = {};
  std::atomic<uint32_t> size_{0};

  std::mutex insert_mu_;  // guards the members below and all stores above
  std::vector<std::unique_ptr<Table>> tables_;  // the current one is last
  std::vector<std::unique_ptr<char[]>> chunks_;  // key bytes
  char* chunk_free_ = nullptr;
  size_t chunk_left_ = 0;
};

/// The process-wide key interner shared by every store, RW-set, and log
/// entry. A single table keeps IDs comparable across components.
Interner& GlobalKeyInterner();

/// The process-wide interner for non-key names — activities, invoker
/// clients, and organizations. Kept separate from the key table so
/// key-space resolution (key metrics) never sees name ids and
/// vice versa.
Interner& GlobalNameInterner();

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_INTERNER_H_
