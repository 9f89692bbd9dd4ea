#ifndef BLOCKOPTR_BLOCKOPT_LOG_BLOCKCHAIN_LOG_H_
#define BLOCKOPTR_BLOCKOPT_LOG_BLOCKCHAIN_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ledger/ledger.h"
#include "ledger/transaction.h"

namespace blockoptr {

/// One row of the preprocessed blockchain log: the nine attributes of
/// paper §4.1 plus block coordinates used by the proximity metrics.
struct BlockchainLogEntry {
  // (1) Client timestamp: when the client generated the transaction.
  double client_timestamp = 0;
  // (2) Activity name A(x): the smart-contract function.
  std::string activity;
  // (3) Function arguments.
  std::vector<std::string> args;
  // (4) Endorsers: organizations whose signatures cover the payload.
  std::vector<std::string> endorsers;
  // (5) Invoker: client and organization.
  std::string invoker_client;
  std::string invoker_org;
  // (6) Read-write set. Reads include range-query results (RS(x));
  //     writes carry values for the delta-write analysis (WS(x)).
  std::vector<std::string> read_keys;
  std::vector<std::pair<std::string, std::string>> writes;  // key -> value
  std::vector<std::string> delete_keys;
  std::vector<std::pair<std::string, std::string>> range_bounds;
  // (7) Transaction status ST(x).
  TxStatus status = TxStatus::kValid;
  // (8) Transaction type TT(x), derived from the read-write set.
  TxType tx_type = TxType::kRead;
  // (9) Commit order: position in the cleaned log.
  uint64_t commit_order = 0;

  // Auxiliary attributes (available in the raw ledger data).
  std::string chaincode;
  uint64_t tx_id = 0;
  uint64_t block_num = 0;
  uint32_t tx_pos = 0;
  double commit_timestamp = 0;
  bool is_config = false;

  bool failed() const {
    return status == TxStatus::kMvccReadConflict ||
           status == TxStatus::kPhantomReadConflict ||
           status == TxStatus::kEndorsementPolicyFailure;
  }

  /// Write keys only (WS(x) as a key set).
  std::vector<std::string> WriteKeys() const;

  /// All accessed keys (RWS(x)).
  std::vector<std::string> AccessedKeys() const;
};

/// The preprocessed blockchain log: BlockOptR's primary analysis input.
class BlockchainLog {
 public:
  BlockchainLog() = default;
  explicit BlockchainLog(std::vector<BlockchainLogEntry> entries)
      : entries_(std::move(entries)) {}

  const std::vector<BlockchainLogEntry>& entries() const { return entries_; }
  std::vector<BlockchainLogEntry>& mutable_entries() { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const BlockchainLogEntry& operator[](size_t i) const { return entries_[i]; }

  /// Converts a committed transaction into a log row.
  static BlockchainLogEntry EntryFromTransaction(const Block& block,
                                                 uint32_t tx_pos,
                                                 const Transaction& tx);

 private:
  std::vector<BlockchainLogEntry> entries_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_LOG_BLOCKCHAIN_LOG_H_
