#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "ledger/block.h"
#include "ledger/ledger.h"
#include "ledger/rwset.h"
#include "ledger/transaction.h"

namespace blockoptr {
namespace {

ReadWriteSet MakeRwset(std::vector<std::string> reads,
                       std::vector<std::string> writes) {
  ReadWriteSet rw;
  for (auto& r : reads) rw.reads.push_back(ReadItem{r, Version{1, 0}});
  for (auto& w : writes) rw.writes.push_back(WriteItem{w, "v", false});
  return rw;
}

// ---------------------------------------------------------------------------
// ReadWriteSet helpers
// ---------------------------------------------------------------------------

TEST(RwsetTest, AccessedKeysDedupsAndSorts) {
  ReadWriteSet rw = MakeRwset({"b", "a"}, {"a", "c"});
  EXPECT_EQ(rw.AccessedKeys(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rw.ReadKeys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rw.WriteKeys(), (std::vector<std::string>{"a", "c"}));
}

TEST(RwsetTest, RangeResultsCountAsReads) {
  ReadWriteSet rw;
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.results.push_back(ReadItem{"k1", Version{1, 0}});
  rq.results.push_back(ReadItem{"k2", Version{1, 1}});
  rw.range_queries.push_back(rq);
  EXPECT_EQ(rw.ReadKeys(), (std::vector<std::string>{"k1", "k2"}));
  EXPECT_TRUE(rw.HasReadOf("k1"));
  EXPECT_FALSE(rw.HasReadOf("a"));
}

TEST(RwsetTest, HasWriteTo) {
  ReadWriteSet rw = MakeRwset({}, {"x"});
  EXPECT_TRUE(rw.HasWriteTo("x"));
  EXPECT_FALSE(rw.HasWriteTo("y"));
}

// ---------------------------------------------------------------------------
// Transaction type derivation (paper §4.1 attribute 8)
// ---------------------------------------------------------------------------

TEST(TxTypeTest, ReadOnly) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"k"}, {})), TxType::kRead);
}

TEST(TxTypeTest, BlindWriteIsWrite) {
  EXPECT_EQ(DeriveTxType(MakeRwset({}, {"k"})), TxType::kWrite);
}

TEST(TxTypeTest, WriteToUnreadKeyIsWrite) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"other"}, {"k"})), TxType::kWrite);
}

TEST(TxTypeTest, ReadModifyWriteIsUpdate) {
  EXPECT_EQ(DeriveTxType(MakeRwset({"k"}, {"k"})), TxType::kUpdate);
}

TEST(TxTypeTest, RangeQueryDominatesReads) {
  ReadWriteSet rw;
  rw.range_queries.push_back(RangeQueryInfo{"a", "z", {}});
  EXPECT_EQ(DeriveTxType(rw), TxType::kRangeRead);
}

TEST(TxTypeTest, DeleteDominatesEverything) {
  ReadWriteSet rw = MakeRwset({"k"}, {"k"});
  rw.writes.push_back(WriteItem{"d", "", true});
  rw.range_queries.push_back(RangeQueryInfo{"a", "z", {}});
  EXPECT_EQ(DeriveTxType(rw), TxType::kDelete);
}

TEST(TxTypeTest, NamesAreStable) {
  EXPECT_EQ(TxTypeName(TxType::kRangeRead), "range_read");
  EXPECT_EQ(TxStatusName(TxStatus::kMvccReadConflict), "MVCC_READ_CONFLICT");
}

// ---------------------------------------------------------------------------
// Blocks and the chained ledger
// ---------------------------------------------------------------------------

Transaction MakeTx(uint64_t id, const std::string& activity) {
  Transaction tx;
  tx.tx_id = id;
  tx.chaincode = "cc";
  tx.activity = activity;
  tx.invoker = Invoker{"Org1-client0", "Org1"};
  tx.rwset = MakeRwset({"k" + std::to_string(id)}, {"k" + std::to_string(id)});
  return tx;
}

TEST(BlockTest, HashIsContentSensitive) {
  Block b;
  b.transactions.push_back(MakeTx(1, "A"));
  uint64_t h1 = b.ComputeHash();
  b.transactions[0].activity = "B";
  EXPECT_NE(b.ComputeHash(), h1);
}

TEST(BlockTest, HashDependsOnPrevLink) {
  Block b;
  b.transactions.push_back(MakeTx(1, "A"));
  uint64_t h1 = b.ComputeHash();
  b.prev_hash = 12345;
  EXPECT_NE(b.ComputeHash(), h1);
}

TEST(LedgerTest, AppendAssignsNumbersAndLinks) {
  Ledger ledger;
  Block b1;
  b1.transactions.push_back(MakeTx(1, "A"));
  Block b2;
  b2.transactions.push_back(MakeTx(2, "B"));
  EXPECT_EQ(ledger.Append(std::move(b1)), 0u);
  EXPECT_EQ(ledger.Append(std::move(b2)), 1u);
  EXPECT_EQ(ledger.NumBlocks(), 2u);
  EXPECT_EQ(ledger.NumTransactions(), 2u);
  EXPECT_EQ(ledger.GetBlock(1).prev_hash, ledger.GetBlock(0).hash);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

TEST(LedgerTest, VerifyChainDetectsTampering) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) {
    Block b;
    b.transactions.push_back(MakeTx(static_cast<uint64_t>(i), "A"));
    ledger.Append(std::move(b));
  }
  // Tamper with a committed transaction through a const_cast — the exact
  // attack hash chaining exists to detect.
  auto& block = const_cast<Block&>(ledger.GetBlock(1));
  block.transactions[0].activity = "evil";
  Status st = ledger.VerifyChain();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
}

TEST(LedgerTest, ForEachTransactionVisitsCommitOrder) {
  Ledger ledger;
  for (int b = 0; b < 2; ++b) {
    Block block;
    for (int t = 0; t < 3; ++t) {
      block.transactions.push_back(
          MakeTx(static_cast<uint64_t>(b * 3 + t), "A"));
    }
    ledger.Append(std::move(block));
  }
  std::vector<uint64_t> ids;
  ledger.ForEachTransaction(
      [&](const Block&, const Transaction& tx) { ids.push_back(tx.tx_id); });
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(LedgerTest, AverageBlockSize) {
  Ledger ledger;
  for (int n : {2, 4}) {
    Block block;
    for (int t = 0; t < n; ++t) {
      block.transactions.push_back(MakeTx(static_cast<uint64_t>(t), "A"));
    }
    ledger.Append(std::move(block));
  }
  EXPECT_DOUBLE_EQ(ledger.AverageBlockSize(), 3.0);
}

TEST(LedgerTest, EmptyLedger) {
  Ledger ledger;
  EXPECT_EQ(ledger.NumBlocks(), 0u);
  EXPECT_DOUBLE_EQ(ledger.AverageBlockSize(), 0.0);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

// ---------------------------------------------------------------------------
// Cached key ids
// ---------------------------------------------------------------------------

TEST(RwsetTest, EqualityIgnoresCachedIds) {
  ReadWriteSet rw = MakeRwset({"idv~p"}, {"idv~q"});
  const Interner& interner = GlobalKeyInterner();
  EXPECT_EQ(interner.KeyForId(rw.reads[0].id()), "idv~p");
  EXPECT_EQ(interner.KeyForId(rw.writes[0].id()), "idv~q");
  EXPECT_EQ(rw.reads[0].cached_id, rw.reads[0].id());
  // A copy carries the filled ids and is independent of the original.
  ReadWriteSet copy = rw;
  EXPECT_EQ(copy.writes[0].cached_id, rw.writes[0].cached_id);
  copy.writes.push_back(WriteItem{"idv~s", "v", false});
  EXPECT_EQ(rw.writes.size(), 1u);
  EXPECT_FALSE(copy == rw);
  // operator== compares the recorded data, never the cached ids: a fresh
  // set (no ids filled) equals the original (ids filled).
  ReadWriteSet fresh = MakeRwset({"idv~p"}, {"idv~q"});
  EXPECT_EQ(fresh.reads[0].cached_id, kInvalidKeyId);
  EXPECT_TRUE(fresh == rw);
}

TEST(LedgerTest, FailedTransactionsAreStillAppended) {
  // Fabric appends every transaction regardless of validity — the
  // property that makes the ledger a complete analysis log (paper §4).
  Ledger ledger;
  Block block;
  Transaction ok = MakeTx(1, "A");
  Transaction failed = MakeTx(2, "B");
  failed.status = TxStatus::kMvccReadConflict;
  block.transactions.push_back(ok);
  block.transactions.push_back(failed);
  ledger.Append(std::move(block));
  EXPECT_EQ(ledger.NumTransactions(), 2u);
  EXPECT_EQ(ledger.GetBlock(0).transactions[1].status,
            TxStatus::kMvccReadConflict);
}

}  // namespace
}  // namespace blockoptr
