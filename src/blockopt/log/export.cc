#include "blockopt/log/export.h"

#include "common/csv.h"

namespace blockoptr {

namespace {

/// One CSV field holding `parts` joined by '|'.
void JoinedField(CsvWriter& writer, const std::vector<std::string>& parts) {
  writer.BeginField();
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) writer.Append("|");
    writer.Append(parts[i]);
  }
  writer.EndField();
}

TxStatus StatusFromName(const std::string& name) {
  if (name == "VALID") return TxStatus::kValid;
  if (name == "MVCC_READ_CONFLICT") return TxStatus::kMvccReadConflict;
  if (name == "PHANTOM_READ_CONFLICT") return TxStatus::kPhantomReadConflict;
  if (name == "ENDORSEMENT_POLICY_FAILURE") {
    return TxStatus::kEndorsementPolicyFailure;
  }
  return TxStatus::kConfig;
}

TxType TypeFromName(const std::string& name) {
  if (name == "read") return TxType::kRead;
  if (name == "write") return TxType::kWrite;
  if (name == "update") return TxType::kUpdate;
  if (name == "range_read") return TxType::kRangeRead;
  return TxType::kDelete;
}

JsonValue::Array StringsToJson(const std::vector<std::string>& v) {
  JsonValue::Array arr;
  arr.reserve(v.size());
  for (const auto& s : v) arr.emplace_back(s);
  return arr;
}

std::vector<std::string> StringsFromJson(const JsonValue& v) {
  std::vector<std::string> out;
  if (!v.is_array()) return out;
  for (const auto& e : v.as_array()) {
    if (e.is_string()) out.push_back(e.as_string());
  }
  return out;
}

Status BadField(size_t entry, std::string_view field, std::string_view want) {
  return Status::InvalidArgument("log entry " + std::to_string(entry) +
                                 ": field '" + std::string(field) +
                                 "' is missing or not " + std::string(want));
}

}  // namespace

void WriteLogCsv(const BlockchainLog& log, std::ostream& out) {
  CsvWriter writer(out);
  writer.WriteRow({"commit_order", "client_timestamp", "activity", "args",
                   "endorsers", "invoker_client", "invoker_org", "read_keys",
                   "writes", "delete_keys", "status", "tx_type", "chaincode",
                   "block_num", "tx_pos", "commit_timestamp"});
  for (const auto& e : log.entries()) {
    writer.Field(e.commit_order);
    writer.Field(e.client_timestamp);
    writer.Field(e.activity);
    JoinedField(writer, e.args);
    JoinedField(writer, e.endorsers);
    writer.Field(e.invoker_client);
    writer.Field(e.invoker_org);
    JoinedField(writer, e.read_keys);
    writer.BeginField();
    for (size_t i = 0; i < e.writes.size(); ++i) {
      if (i > 0) writer.Append("|");
      writer.Append(e.writes[i].first);
      writer.Append("=");
      writer.Append(e.writes[i].second);
    }
    writer.EndField();
    JoinedField(writer, e.delete_keys);
    writer.Field(TxStatusName(e.status));
    writer.Field(TxTypeName(e.tx_type));
    writer.Field(e.chaincode);
    writer.Field(e.block_num);
    writer.Field(uint64_t{e.tx_pos});
    writer.Field(e.commit_timestamp);
    writer.EndRow();
  }
}

JsonValue LogToJson(const BlockchainLog& log) {
  constexpr size_t kFieldsPerEntry = 18;
  JsonValue::Array rows;
  rows.reserve(log.size());
  for (const auto& e : log.entries()) {
    // Keys go in in sorted order, so every insert is an O(1) append.
    JsonValue::Object row;
    row.reserve(kFieldsPerEntry);
    row["activity"] = JsonValue(e.activity);
    row["args"] = JsonValue(StringsToJson(e.args));
    row["block_num"] = JsonValue(e.block_num);
    row["chaincode"] = JsonValue(e.chaincode);
    row["client_timestamp"] = JsonValue(e.client_timestamp);
    row["commit_order"] = JsonValue(e.commit_order);
    row["commit_timestamp"] = JsonValue(e.commit_timestamp);
    row["delete_keys"] = JsonValue(StringsToJson(e.delete_keys));
    row["endorsers"] = JsonValue(StringsToJson(e.endorsers));
    row["invoker_client"] = JsonValue(e.invoker_client);
    row["invoker_org"] = JsonValue(e.invoker_org);
    JsonValue::Array ranges;
    ranges.reserve(e.range_bounds.size());
    for (const auto& [s, t] : e.range_bounds) {
      JsonValue::Object r;
      r.reserve(2);
      r["end"] = JsonValue(t);
      r["start"] = JsonValue(s);
      ranges.emplace_back(std::move(r));
    }
    row["range_bounds"] = JsonValue(std::move(ranges));
    row["read_keys"] = JsonValue(StringsToJson(e.read_keys));
    row["status"] = JsonValue(std::string(TxStatusName(e.status)));
    row["tx_id"] = JsonValue(e.tx_id);
    row["tx_pos"] = JsonValue(static_cast<uint64_t>(e.tx_pos));
    row["tx_type"] = JsonValue(std::string(TxTypeName(e.tx_type)));
    JsonValue::Array writes;
    writes.reserve(e.writes.size());
    for (const auto& [k, v] : e.writes) {
      JsonValue::Object w;
      w.reserve(2);
      w["key"] = JsonValue(k);
      w["value"] = JsonValue(v);
      writes.emplace_back(std::move(w));
    }
    row["writes"] = JsonValue(std::move(writes));
    rows.emplace_back(std::move(row));
  }
  JsonValue::Object doc;
  doc["entries"] = JsonValue(std::move(rows));
  return JsonValue(std::move(doc));
}

Result<BlockchainLog> ParseLogJson(const JsonValue& json) {
  if (!json.is_object() || !json["entries"].is_array()) {
    return Status::InvalidArgument("log JSON must have an 'entries' array");
  }
  const JsonValue::Array& rows = json["entries"].as_array();
  std::vector<BlockchainLogEntry> entries;
  entries.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& row = rows[i];
    if (!row.is_object()) {
      return Status::InvalidArgument("log entry " + std::to_string(i) +
                                     " must be an object");
    }
    // Check every scalar before reading it: a missing or mistyped field is
    // an error, not a std::bad_variant_access, and a count outside its
    // type's range is an error, not an out-of-range conversion.
    for (const char* field : {"activity", "invoker_client", "invoker_org",
                              "status", "tx_type", "chaincode"}) {
      if (!row[field].is_string()) return BadField(i, field, "a string");
    }
    for (const char* field : {"client_timestamp", "commit_timestamp"}) {
      if (!row[field].is_number()) return BadField(i, field, "a number");
    }
    constexpr double kTwoTo32 = 4294967296.0;
    constexpr double kTwoTo64 = 18446744073709551616.0;
    for (const auto& [field, limit] :
         {std::pair{"commit_order", kTwoTo64}, std::pair{"tx_id", kTwoTo64},
          std::pair{"block_num", kTwoTo64}, std::pair{"tx_pos", kTwoTo32}}) {
      const JsonValue& v = row[field];
      if (!v.is_number() || !(v.as_number() >= 0 && v.as_number() < limit)) {
        return BadField(i, field, "a non-negative integer");
      }
    }
    BlockchainLogEntry e;
    e.commit_order = static_cast<uint64_t>(row["commit_order"].as_number());
    e.client_timestamp = row["client_timestamp"].as_number();
    e.activity = row["activity"].as_string();
    e.args = StringsFromJson(row["args"]);
    e.endorsers = StringsFromJson(row["endorsers"]);
    e.invoker_client = row["invoker_client"].as_string();
    e.invoker_org = row["invoker_org"].as_string();
    e.read_keys = StringsFromJson(row["read_keys"]);
    if (row["writes"].is_array()) {
      for (const auto& w : row["writes"].as_array()) {
        if (!w["key"].is_string() || !w["value"].is_string()) {
          return BadField(i, "writes", "a list of {key, value} strings");
        }
        e.writes.emplace_back(w["key"].as_string(), w["value"].as_string());
      }
    }
    e.delete_keys = StringsFromJson(row["delete_keys"]);
    if (row["range_bounds"].is_array()) {
      for (const auto& r : row["range_bounds"].as_array()) {
        if (!r["start"].is_string() || !r["end"].is_string()) {
          return BadField(i, "range_bounds",
                          "a list of {start, end} strings");
        }
        e.range_bounds.emplace_back(r["start"].as_string(),
                                    r["end"].as_string());
      }
    }
    e.status = StatusFromName(row["status"].as_string());
    e.tx_type = TypeFromName(row["tx_type"].as_string());
    e.chaincode = row["chaincode"].as_string();
    e.tx_id = static_cast<uint64_t>(row["tx_id"].as_number());
    e.block_num = static_cast<uint64_t>(row["block_num"].as_number());
    e.tx_pos = static_cast<uint32_t>(row["tx_pos"].as_number());
    e.commit_timestamp = row["commit_timestamp"].as_number();
    entries.push_back(std::move(e));
  }
  return BlockchainLog(std::move(entries));
}

}  // namespace blockoptr
