#ifndef BLOCKOPTR_COMMON_JSON_H_
#define BLOCKOPTR_COMMON_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace blockoptr {

/// A small self-contained JSON document model. BlockOptR saves the raw
/// blockchain as JSON before preprocessing (paper §4.1); this module gives
/// the library a dependency-free way to serialize/parse those snapshots.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;

  /// Object members, kept sorted by key in one flat vector so output is in
  /// key order (deterministic for golden-file tests) without a tree node
  /// per member. Unlike std::map, inserting a key may reallocate: it
  /// invalidates every reference and iterator into the object, so never
  /// write `obj[a] = obj[b]`.
  class Object {
   public:
    using value_type = std::pair<std::string, JsonValue>;
    using iterator = std::vector<value_type>::iterator;
    using const_iterator = std::vector<value_type>::const_iterator;

    Object() = default;
    /// Members in any order; of duplicate keys the last one wins.
    explicit Object(std::vector<value_type> members);

    /// The member named `key`, inserted as null if missing. Appending a
    /// key that sorts after every present key is O(1).
    JsonValue& operator[](std::string_view key);

    iterator find(std::string_view key);
    const_iterator find(std::string_view key) const;

    iterator begin() { return members_.begin(); }
    iterator end() { return members_.end(); }
    const_iterator begin() const { return members_.begin(); }
    const_iterator end() const { return members_.end(); }
    size_t size() const { return members_.size(); }
    bool empty() const { return members_.empty(); }
    void reserve(size_t n) { members_.reserve(n); }

   private:
    std::vector<value_type> members_;
  };

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}            // NOLINT
  JsonValue(bool b) : value_(b) {}                          // NOLINT
  JsonValue(double d) : value_(d) {}                        // NOLINT
  JsonValue(int i) : value_(static_cast<double>(i)) {}      // NOLINT
  JsonValue(int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(uint64_t i) : value_(static_cast<double>(i)) {} // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}      // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}        // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}              // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}             // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// Object field access; returns a shared null for missing keys.
  const JsonValue& operator[](std::string_view key) const;

  /// Serializes to compact JSON (no whitespace). Non-finite numbers, which
  /// JSON cannot represent, serialize as null.
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a JSON document. Numbers are stored as doubles. Documents
  /// nested deeper than kMaxParseDepth arrays/objects are rejected.
  static Result<JsonValue> Parse(std::string_view text);
  static constexpr int kMaxParseDepth = 512;

  /// Escapes a string for embedding in JSON (without surrounding quotes
  /// added — the quotes are included in the return value).
  static std::string QuoteString(std::string_view s);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_JSON_H_
