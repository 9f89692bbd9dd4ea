#ifndef BLOCKOPTR_COMMON_CSV_H_
#define BLOCKOPTR_COMMON_CSV_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace blockoptr {

/// RFC-4180-style CSV writer. Fields containing commas, quotes, or newlines
/// are quoted, embedded quotes doubled. The blockchain-log and event-log
/// exporters (paper §4.1–4.2) use this to emit analysis-ready CSV.
///
/// A row is assembled in one reused buffer, each field escaped in place,
/// and reaches the stream whole when it ends: a row costs one stream write
/// and, once the buffer has grown, no allocation.
class CsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; escapes each field as needed.
  void WriteRow(const std::vector<std::string>& fields);

  /// Appends one field to the current row, escaped as needed.
  void Field(std::string_view text);
  void Field(uint64_t value);
  /// `value` with six decimals, the text of printf("%.6f").
  void Field(double value);

  /// Builds one field from pieces: BeginField, any number of Append calls,
  /// then EndField, which escapes the whole field in place.
  void BeginField();
  void Append(std::string_view piece) { row_ += piece; }
  void EndField();

  /// Ends the current row and writes it to the stream.
  void EndRow();

  /// Escapes one field per RFC 4180 (exposed for testing).
  static std::string EscapeField(std::string_view field);

 private:
  std::ostream& out_;
  std::string row_;          // the row being assembled
  size_t fields_ = 0;        // fields begun in the current row
  size_t field_start_ = 0;   // offset in row_ of the open field's text
};

/// Minimal CSV parser matching the writer's dialect. Parses quoted fields,
/// doubled quotes, and embedded newlines inside quotes.
class CsvReader {
 public:
  /// Parses an entire CSV document into rows of fields.
  static Result<std::vector<std::vector<std::string>>> ParseDocument(
      std::string_view text);

  /// Parses a single line that is known to contain no embedded newlines.
  static Result<std::vector<std::string>> ParseLine(std::string_view line);
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_CSV_H_
