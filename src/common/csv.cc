#include "common/csv.h"

#include <charconv>

namespace blockoptr {

namespace {

bool NeedsQuotes(std::string_view field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

/// Appends `field` escaped per RFC 4180: the one escaper behind
/// EscapeField, Field and EndField.
void AppendEscaped(std::string& out, std::string_view field) {
  if (!NeedsQuotes(field)) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (const auto& field : fields) Field(field);
  EndRow();
}

void CsvWriter::Field(std::string_view text) {
  BeginField();
  AppendEscaped(row_, text);
}

void CsvWriter::Field(uint64_t value) {
  BeginField();
  char buf[24];
  row_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void CsvWriter::Field(double value) {
  BeginField();
  // std::to_chars with a format and precision is specified to produce
  // printf's text for the matching conversion. "%.6f" of any double fits:
  // sign, 309 integer digits, point, 6 decimals.
  char buf[320];
  row_.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, 6)
                       .ptr);
}

void CsvWriter::BeginField() {
  if (fields_++ > 0) row_ += ',';
  field_start_ = row_.size();
}

void CsvWriter::EndField() {
  const std::string_view field = std::string_view(row_).substr(field_start_);
  if (!NeedsQuotes(field)) return;
  const std::string raw(field);
  row_.resize(field_start_);
  AppendEscaped(row_, raw);
}

void CsvWriter::EndRow() {
  row_ += '\n';
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
  row_.clear();
  fields_ = 0;
}

std::string CsvWriter::EscapeField(std::string_view field) {
  std::string out;
  AppendEscaped(out, field);
  return out;
}

Result<std::vector<std::vector<std::string>>> CsvReader::ParseDocument(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field.empty() && !field_started) {
          in_quotes = true;
          field_started = true;
        } else {
          return Status::InvalidArgument(
              "unexpected quote inside unquoted CSV field");
        }
        break;
      case ',':
        end_field();
        break;
      case '\r':
        // Swallow; `\r\n` handled by the `\n` branch.
        break;
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  // Final row without trailing newline.
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

Result<std::vector<std::string>> CsvReader::ParseLine(std::string_view line) {
  // Strip one trailing newline, then reject any remaining newline (even a
  // quoted one) — a "line" must be newline-free.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.find('\n') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    return Status::InvalidArgument("line contains embedded newlines");
  }
  auto doc = ParseDocument(line);
  if (!doc.ok()) return doc.status();
  if (doc->empty()) return std::vector<std::string>{};
  return std::move((*doc)[0]);
}

}  // namespace blockoptr
