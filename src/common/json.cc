#include "common/json.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace blockoptr {

namespace {

const JsonValue& NullValue() {
  static const JsonValue* kNull = new JsonValue(nullptr);
  return *kNull;
}

/// The first of an object's sorted members whose key is not less than
/// `key`.
template <typename Members>
auto MemberLowerBound(Members& members, std::string_view key) {
  return std::lower_bound(
      members.begin(), members.end(), key,
      [](const auto& member, std::string_view k) { return member.first < k; });
}

/// The member named `key`, or `members.end()`.
template <typename Members>
auto FindMember(Members& members, std::string_view key) {
  auto it = MemberLowerBound(members, key);
  return it != members.end() && it->first == key ? it : members.end();
}

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Each level costs parser stack frames: cap the depth so hostile
        // input comes back as a Status instead of a stack overflow.
        if (depth_ == JsonValue::kMaxParseDepth) {
          return Fail("arrays/objects nested deeper than " +
                      std::to_string(JsonValue::kMaxParseDepth));
        }
        ++depth_;
        auto v = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue(std::move(*s));
      }
      case 't':
        return ParseLiteral("true", JsonValue(true));
      case 'f':
        return ParseLiteral("false", JsonValue(false));
      case 'n':
        return ParseLiteral("null", JsonValue(nullptr));
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseLiteral(std::string_view lit, JsonValue value) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("invalid literal");
    pos_ += lit.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid number");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("invalid number");
    return JsonValue(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Status::InvalidArgument("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs not needed for logs).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    Consume('[');
    JsonValue::Array arr;
    SkipWs();
    if (Consume(']')) return JsonValue(std::move(arr));
    for (;;) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.push_back(std::move(*v));
      SkipWs();
      if (Consume(']')) return JsonValue(std::move(arr));
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject() {
    Consume('{');
    // The members of all open objects share one stack, in input order; an
    // object takes its own, exactly sized, when it closes, and the Object
    // constructor sorts them once, so unsorted input costs O(n log n).
    const size_t first = members_.size();
    SkipWs();
    if (Consume('}')) return JsonValue(JsonValue::Object());
    for (;;) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' in object");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      members_.emplace_back(std::move(*key), std::move(*v));
      SkipWs();
      if (Consume('}')) {
        const auto begin = members_.begin() + static_cast<ptrdiff_t>(first);
        std::vector<JsonValue::Object::value_type> own(
            std::make_move_iterator(begin),
            std::make_move_iterator(members_.end()));
        members_.erase(begin, members_.end());
        return JsonValue(JsonValue::Object(std::move(own)));
      }
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::vector<JsonValue::Object::value_type> members_;
};

/// Appends `s` as a quoted JSON string: the one escaper behind both
/// QuoteString and DumpTo. Runs of bytes that need no escape are appended
/// whole; bytes >= 0x80 pass through untouched.
void AppendQuoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  size_t run = 0;  // first byte not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Integral values below 1e15 in magnitude print as "%lld", everything
/// else as "%.17g" (which round-trips every double). std::to_chars with a
/// format and precision is specified to produce exactly what printf
/// produces for the matching conversion in the "C" locale, so the text is
/// printf's without its format parsing or locale lookup. NaN and infinity
/// have no JSON spelling and serialize as null.
void AppendNumber(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-308
  std::to_chars_result r;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      17);
  }
  out.append(buf, r.ptr);
}

/// A newline followed by `spaces` spaces, sliced from one static buffer.
void AppendNewline(std::string& out, size_t spaces) {
  static constexpr auto kLine = [] {
    std::array<char, 129> line{};
    line[0] = '\n';
    for (size_t i = 1; i < line.size(); ++i) line[i] = ' ';
    return line;
  }();
  constexpr size_t kMaxSpaces = kLine.size() - 1;
  size_t n = std::min(spaces, kMaxSpaces);
  out.append(kLine.data(), 1 + n);
  for (spaces -= n; spaces > 0; spaces -= n) {
    n = std::min(spaces, kMaxSpaces);
    out.append(kLine.data() + 1, n);
  }
}

}  // namespace

JsonValue::Object::Object(std::vector<value_type> members)
    : members_(std::move(members)) {
  auto key_less = [](const value_type& a, const value_type& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(members_.begin(), members_.end(), key_less)) {
    std::stable_sort(members_.begin(), members_.end(), key_less);
  }
  // Keep the last of each run of equal keys, as repeated assignment would.
  auto kept = members_.begin();
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    auto next = std::next(it);
    if (next != members_.end() && next->first == it->first) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  members_.erase(kept, members_.end());
}

JsonValue& JsonValue::Object::operator[](std::string_view key) {
  if (members_.empty() || members_.back().first < key) {
    return members_.emplace_back(std::string(key), JsonValue()).second;
  }
  auto it = MemberLowerBound(members_, key);
  if (it == members_.end() || it->first != key) {
    it = members_.emplace(it, std::string(key), JsonValue());
  }
  return it->second;
}

JsonValue::Object::iterator JsonValue::Object::find(std::string_view key) {
  return FindMember(members_, key);
}

JsonValue::Object::const_iterator JsonValue::Object::find(
    std::string_view key) const {
  return FindMember(members_, key);
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  if (!is_object()) return NullValue();
  auto it = as_object().find(key);
  if (it == as_object().end()) return NullValue();
  return it->second;
}

std::string JsonValue::QuoteString(std::string_view s) {
  std::string out;
  AppendQuoted(out, s);
  return out;
}

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) AppendNewline(out, static_cast<size_t>(indent * d));
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    AppendNumber(out, as_number());
  } else if (is_string()) {
    AppendQuoted(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out += ',';
      newline(depth + 1);
      arr[i].DumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      AppendQuoted(out, k);
      out += indent > 0 ? ": " : ":";
      v.DumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(out, /*indent=*/2, /*depth=*/0);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace blockoptr
