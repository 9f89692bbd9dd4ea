#include "blockopt/log/blockchain_log.h"

#include <algorithm>

namespace blockoptr {

std::vector<std::string> BlockchainLogEntry::WriteKeys() const {
  std::vector<std::string> keys;
  keys.reserve(writes.size() + delete_keys.size());
  for (const auto& [k, v] : writes) {
    (void)v;
    keys.push_back(k);
  }
  for (const auto& k : delete_keys) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::string> BlockchainLogEntry::AccessedKeys() const {
  std::vector<std::string> keys = WriteKeys();
  keys.insert(keys.end(), read_keys.begin(), read_keys.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

BlockchainLogEntry BlockchainLog::EntryFromTransaction(const Block& block,
                                                       uint32_t tx_pos,
                                                       const Transaction& tx) {
  BlockchainLogEntry e;
  e.client_timestamp = tx.client_timestamp;
  e.activity = tx.activity;
  e.args = tx.args;
  e.endorsers = tx.endorsers;
  e.invoker_client = tx.invoker.client_id;
  e.invoker_org = tx.invoker.org;
  for (const auto& r : tx.rwset.reads) e.read_keys.push_back(r.key);
  for (const auto& rq : tx.rwset.range_queries) {
    e.range_bounds.emplace_back(rq.start_key, rq.end_key);
    for (const auto& r : rq.results) e.read_keys.push_back(r.key);
  }
  std::sort(e.read_keys.begin(), e.read_keys.end());
  e.read_keys.erase(std::unique(e.read_keys.begin(), e.read_keys.end()),
                    e.read_keys.end());
  for (const auto& w : tx.rwset.writes) {
    if (w.is_delete) {
      e.delete_keys.push_back(w.key);
    } else {
      e.writes.emplace_back(w.key, w.value);
    }
  }
  e.status = tx.status;
  e.tx_type = DeriveTxType(tx.rwset);
  e.chaincode = tx.chaincode;
  e.tx_id = tx.tx_id;
  e.block_num = block.block_num;
  e.tx_pos = tx_pos;
  e.commit_timestamp = tx.commit_timestamp;
  e.is_config = tx.is_config;
  return e;
}

}  // namespace blockoptr
