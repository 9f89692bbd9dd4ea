#ifndef BLOCKOPTR_COMMON_INTERNER_H_
#define BLOCKOPTR_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

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
class Interner {
 public:
  Interner() = default;
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
  mutable std::shared_mutex mu_;
  // deque never relocates elements on push_back, so ids_ can key views
  // into keys_ and KeyForId can hand them out without copying.
  std::deque<std::string> keys_;
  std::unordered_map<std::string_view, KeyId> ids_;
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
