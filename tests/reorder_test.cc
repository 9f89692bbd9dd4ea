#include <gtest/gtest.h>

#include "fabric/validator.h"
#include "reorder/conflict_graph.h"
#include "reorder/fabricpp.h"
#include "reorder/fabricsharp.h"

namespace blockoptr {
namespace {

ReadWriteSet Rw(std::vector<std::string> reads,
                std::vector<std::string> writes,
                std::optional<Version> read_version = Version{0, 0}) {
  ReadWriteSet rw;
  for (auto& r : reads) rw.reads.push_back(ReadItem{r, read_version});
  for (auto& w : writes) rw.writes.push_back(WriteItem{w, "v", false});
  return rw;
}

Transaction Tx(uint64_t id, ReadWriteSet rw) {
  Transaction tx;
  tx.tx_id = id;
  tx.activity = "fn" + std::to_string(id);
  tx.endorsers = {"Org1", "Org2"};
  tx.rwset = std::move(rw);
  return tx;
}

// ---------------------------------------------------------------------------
// ConflictGraph
// ---------------------------------------------------------------------------

TEST(ConflictGraphTest, EdgeFromWriterToReader) {
  std::vector<ReadWriteSet> sets = {Rw({}, {"k"}), Rw({"k"}, {})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0], &sets[1]};
  ConflictGraph graph(ptrs);
  EXPECT_EQ(graph.InvalidatedBy(0), (std::vector<int>{1}));
  EXPECT_TRUE(graph.InvalidatedBy(1).empty());
}

TEST(ConflictGraphTest, NoSelfEdges) {
  std::vector<ReadWriteSet> sets = {Rw({"k"}, {"k"})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0]};
  ConflictGraph graph(ptrs);
  EXPECT_TRUE(graph.InvalidatedBy(0).empty());
}

TEST(ConflictGraphTest, SccFindsCycle) {
  // 0 writes a, reads b; 1 writes b, reads a -> 2-cycle.
  std::vector<ReadWriteSet> sets = {Rw({"b"}, {"a"}), Rw({"a"}, {"b"})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0], &sets[1]};
  ConflictGraph graph(ptrs);
  auto sccs = graph.StronglyConnectedComponents();
  bool has_cycle = false;
  for (const auto& scc : sccs) {
    if (scc.size() > 1) has_cycle = true;
  }
  EXPECT_TRUE(has_cycle);
}

TEST(ConflictGraphTest, BreakCyclesAbortsMinimally) {
  std::vector<ReadWriteSet> sets = {Rw({"b"}, {"a"}), Rw({"a"}, {"b"}),
                                    Rw({"z"}, {})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0], &sets[1], &sets[2]};
  ConflictGraph graph(ptrs);
  auto aborted = graph.BreakCycles();
  EXPECT_EQ(aborted.size(), 1u);
  EXPECT_LT(aborted[0], 2);  // one of the cycle members, never tx 2
}

TEST(ConflictGraphTest, SerializableOrderPutsReadersFirst) {
  // tx0 writes k; tx1 reads k. Reader must precede writer in the output.
  std::vector<ReadWriteSet> sets = {Rw({}, {"k"}), Rw({"k"}, {})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0], &sets[1]};
  ConflictGraph graph(ptrs);
  std::vector<bool> alive = {true, true};
  auto order = graph.SerializableOrder(alive);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(ConflictGraphTest, IndependentTxsKeepArrivalOrder) {
  std::vector<ReadWriteSet> sets = {Rw({}, {"a"}), Rw({}, {"b"}),
                                    Rw({}, {"c"})};
  std::vector<const ReadWriteSet*> ptrs = {&sets[0], &sets[1], &sets[2]};
  ConflictGraph graph(ptrs);
  std::vector<bool> alive = {true, true, true};
  EXPECT_EQ(graph.SerializableOrder(alive), (std::vector<int>{0, 1, 2}));
}

TEST(ConflictGraphTest, RepeatedKeysYieldOneEdgePerPair) {
  // tx0 reads k by point read and as a range result, tx1 returns k from
  // two range queries, tx2 writes k twice; tx0 also writes a, which tx2
  // reads, so tx0 and tx2 form a cycle. The graph must equal the one over
  // the same key sets without repeats.
  auto range = [](std::vector<std::string> keys) {
    RangeQueryInfo rq;
    for (auto& k : keys) rq.results.push_back(ReadItem{k, Version{0, 0}});
    return rq;
  };
  std::vector<ReadWriteSet> repeated = {Rw({"k"}, {"a"}), Rw({}, {}),
                                        Rw({"a"}, {"k", "k"})};
  repeated[0].range_queries.push_back(range({"j", "k"}));
  repeated[1].range_queries.push_back(range({"k"}));
  repeated[1].range_queries.push_back(range({"k", "l"}));
  std::vector<ReadWriteSet> once = {Rw({"j", "k"}, {"a"}), Rw({"k", "l"}, {}),
                                    Rw({"a"}, {"k"})};
  ConflictGraph graph({&repeated[0], &repeated[1], &repeated[2]});
  ConflictGraph reference({&once[0], &once[1], &once[2]});
  EXPECT_EQ(graph.InvalidatedBy(0), (std::vector<int>{2}));
  EXPECT_TRUE(graph.InvalidatedBy(1).empty());
  EXPECT_EQ(graph.InvalidatedBy(2), (std::vector<int>{0, 1}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(graph.InvalidatedBy(i), reference.InvalidatedBy(i)) << i;
  }
  const std::vector<int> aborted = graph.BreakCycles();
  EXPECT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted, reference.BreakCycles());
  std::vector<bool> alive(3, true);
  for (int v : aborted) alive[static_cast<size_t>(v)] = false;
  EXPECT_EQ(graph.SerializableOrder(alive), reference.SerializableOrder(alive));
}

// ---------------------------------------------------------------------------
// Fabric++-style intra-block reordering
// ---------------------------------------------------------------------------

EndorsementPolicy TwoOrgPolicy() { return EndorsementPolicy::Preset(3, 2); }

TEST(FabricPPTest, ReorderingSavesIntraBlockReader) {
  // Writer arrives before reader; without reordering the reader fails
  // validation; with Fabric++ it is placed first and succeeds.
  VersionedStore state;
  state.Apply("k", "v", false, Version{0, 0});

  auto make_batch = [] {
    std::vector<Transaction> batch;
    batch.push_back(Tx(1, Rw({"k"}, {"k"})));  // update (writer)
    batch.push_back(Tx(2, Rw({"k"}, {})));     // reader, would be stale
    return batch;
  };

  // Baseline: validate in arrival order.
  {
    VersionedStore s = state;
    Block block;
    block.block_num = 1;
    block.transactions = make_batch();
    auto stats = ValidateAndApplyBlock(block, s, TwoOrgPolicy());
    EXPECT_EQ(stats.mvcc_conflicts, 1u);
  }
  // With Fabric++ reordering.
  {
    VersionedStore s = state;
    FabricPPReorderer reorderer;
    auto batch = make_batch();
    reorderer.ProcessBatch(batch);
    Block block;
    block.block_num = 1;
    block.transactions = std::move(batch);
    auto stats = ValidateAndApplyBlock(block, s, TwoOrgPolicy());
    EXPECT_EQ(stats.mvcc_conflicts, 0u);
    EXPECT_EQ(stats.valid, 2u);
    EXPECT_EQ(reorderer.total_early_aborts(), 0u);
  }
}

TEST(FabricPPTest, CycleMembersAreEarlyAborted) {
  FabricPPReorderer reorderer;
  std::vector<Transaction> batch;
  batch.push_back(Tx(1, Rw({"b"}, {"a"})));
  batch.push_back(Tx(2, Rw({"a"}, {"b"})));
  reorderer.ProcessBatch(batch);
  int aborted = 0;
  for (const auto& tx : batch) {
    if (tx.pre_aborted) {
      ++aborted;
      EXPECT_EQ(tx.status, TxStatus::kMvccReadConflict);
    }
  }
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(reorderer.total_early_aborts(), 1u);
}

TEST(FabricPPTest, BatchSizeIsPreserved) {
  FabricPPReorderer reorderer;
  std::vector<Transaction> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back(Tx(i, Rw({"k" + std::to_string(i % 3)},
                             {"k" + std::to_string((i + 1) % 3)})));
  }
  reorderer.ProcessBatch(batch);
  EXPECT_EQ(batch.size(), 10u);
}

TEST(FabricPPTest, ExtraCostGrowsWithBatch) {
  FabricPPReorderer reorderer;
  EXPECT_GT(reorderer.ExtraBlockCost(100), reorderer.ExtraBlockCost(10));
}

// ---------------------------------------------------------------------------
// FabricSharp-style OCC reordering
// ---------------------------------------------------------------------------

TEST(FabricSharpTest, CrossBlockDoomedTxIsAbortedEarly) {
  FabricSharpReorderer reorderer(/*first_block_num=*/1);
  // Block 1: a transaction writes k.
  std::vector<Transaction> batch1;
  batch1.push_back(Tx(1, Rw({}, {"k"})));
  reorderer.ProcessBatch(batch1);
  EXPECT_FALSE(batch1[0].pre_aborted);

  // Block 2: a transaction that read k at the seed version is doomed.
  std::vector<Transaction> batch2;
  batch2.push_back(Tx(2, Rw({"k"}, {}, Version{0, 0})));
  reorderer.ProcessBatch(batch2);
  EXPECT_TRUE(batch2[0].pre_aborted);
  EXPECT_EQ(reorderer.cross_block_aborts(), 1u);
}

TEST(FabricSharpTest, FreshReadAgainstShadowSurvives) {
  FabricSharpReorderer reorderer(1);
  std::vector<Transaction> batch1;
  batch1.push_back(Tx(1, Rw({}, {"k"})));
  reorderer.ProcessBatch(batch1);

  // The shadow predicts version {1, 0} for k; a transaction endorsed
  // against the post-commit state reads exactly that.
  std::vector<Transaction> batch2;
  batch2.push_back(Tx(2, Rw({"k"}, {}, Version{1, 0})));
  reorderer.ProcessBatch(batch2);
  EXPECT_FALSE(batch2[0].pre_aborted);
  EXPECT_EQ(reorderer.cross_block_aborts(), 0u);
}

TEST(FabricSharpTest, ShadowPredictionMatchesValidator) {
  // End-to-end agreement: what the shadow predicts survives validation.
  VersionedStore state;
  EndorsementPolicy policy = TwoOrgPolicy();
  FabricSharpReorderer reorderer(1);

  std::vector<Transaction> batch1;
  batch1.push_back(Tx(1, Rw({}, {"k"})));
  reorderer.ProcessBatch(batch1);
  Block b1;
  b1.block_num = 1;
  b1.transactions = std::move(batch1);
  ValidateAndApplyBlock(b1, state, policy);
  ASSERT_EQ(b1.transactions[0].status, TxStatus::kValid);

  std::vector<Transaction> batch2;
  batch2.push_back(Tx(2, Rw({"k"}, {"k"}, Version{1, 0})));
  reorderer.ProcessBatch(batch2);
  ASSERT_FALSE(batch2[0].pre_aborted);
  Block b2;
  b2.block_num = 2;
  b2.transactions = std::move(batch2);
  auto stats = ValidateAndApplyBlock(b2, state, policy);
  EXPECT_EQ(stats.valid, 1u);
}

TEST(FabricSharpTest, PhantomInsertIntoRangeIsDetected) {
  FabricSharpReorderer reorderer(1);
  std::vector<Transaction> batch1;
  batch1.push_back(Tx(1, Rw({}, {"key5"})));
  reorderer.ProcessBatch(batch1);

  // A range read over [key0, key9) that did not see key5 is doomed.
  Transaction range_tx = Tx(2, {});
  RangeQueryInfo rq;
  rq.start_key = "key0";
  rq.end_key = "key9";
  range_tx.rwset.range_queries.push_back(rq);
  std::vector<Transaction> batch2{range_tx};
  reorderer.ProcessBatch(batch2);
  EXPECT_TRUE(batch2[0].pre_aborted);
}

/// Orders a block whose one transaction writes `shadow_key` (or deletes
/// it), then a block whose one transaction ran a single range query over
/// [start_key, end_key) that returned `results`. Returns whether
/// FabricSharp dooms that range reader.
bool RangeReaderDoomed(const std::string& shadow_key, bool deleted,
                       const std::string& start_key,
                       const std::string& end_key,
                       std::vector<ReadItem> results = {}) {
  FabricSharpReorderer reorderer(1);
  std::vector<Transaction> batch1{Tx(1, {})};
  batch1[0].rwset.writes.push_back(WriteItem{shadow_key, "v", deleted});
  reorderer.ProcessBatch(batch1);
  EXPECT_FALSE(batch1[0].pre_aborted);

  RangeQueryInfo rq;
  rq.start_key = start_key;
  rq.end_key = end_key;
  rq.results = std::move(results);
  std::vector<Transaction> batch2{Tx(2, {})};
  batch2[0].rwset.range_queries.push_back(std::move(rq));
  reorderer.ProcessBatch(batch2);
  return batch2[0].pre_aborted;
}

TEST(FabricSharpTest, RangePhantomIncludesTheStartKey) {
  EXPECT_TRUE(RangeReaderDoomed("key3", false, "key3", "key9"));
}

TEST(FabricSharpTest, RangePhantomExcludesTheEndKey) {
  EXPECT_FALSE(RangeReaderDoomed("key9", false, "key3", "key9"));
}

TEST(FabricSharpTest, RangePhantomWithEmptyEndKeyReachesTheLastKey) {
  EXPECT_TRUE(RangeReaderDoomed("zzz", false, "key3", ""));
  EXPECT_FALSE(RangeReaderDoomed("key29", false, "key3", ""));
}

TEST(FabricSharpTest, RangePhantomIgnoresAShadowDelete) {
  EXPECT_FALSE(RangeReaderDoomed("key5", true, "key3", "key9"));
}

TEST(FabricSharpTest, RangePhantomIgnoresAKeyJustBelowTheStart) {
  EXPECT_FALSE(RangeReaderDoomed("key29", false, "key3", "key9"));
}

TEST(FabricSharpTest, RangePhantomIgnoresAKeyTheRangeReturned) {
  // The shadow holds key5 at {1, 0}; the range returned it at that
  // version, so the reader is fresh.
  EXPECT_FALSE(RangeReaderDoomed("key5", false, "key3", "key9",
                                 {ReadItem{"key5", Version{1, 0}}}));
}

TEST(FabricSharpTest, RangePhantomIgnoresAnInvertedRange) {
  EXPECT_FALSE(RangeReaderDoomed("key5", false, "key9", "key3"));
}

TEST(FabricSharpTest, DeletedKeyReadAsAbsentSurvives) {
  FabricSharpReorderer reorderer(1);
  std::vector<Transaction> batch1;
  Transaction del = Tx(1, {});
  del.rwset.writes.push_back(WriteItem{"k", "", true});
  batch1.push_back(del);
  reorderer.ProcessBatch(batch1);

  std::vector<Transaction> batch2;
  batch2.push_back(Tx(2, Rw({"k"}, {}, std::nullopt)));
  reorderer.ProcessBatch(batch2);
  EXPECT_FALSE(batch2[0].pre_aborted);
}

TEST(FabricSharpTest, IntraBlockStillSerialized) {
  FabricSharpReorderer reorderer(1);
  std::vector<Transaction> batch;
  batch.push_back(Tx(1, Rw({}, {"k"})));             // writer
  batch.push_back(Tx(2, Rw({"k"}, {}, Version{0, 0})));  // reader
  reorderer.ProcessBatch(batch);
  // The reader must have been moved before the writer.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].tx_id, 2u);
  EXPECT_EQ(batch[1].tx_id, 1u);
  EXPECT_EQ(reorderer.intra_block_aborts(), 0u);
}

TEST(FabricSharpTest, CostsMoreThanFabricPP) {
  FabricSharpReorderer sharp;
  FabricPPReorderer pp;
  EXPECT_GT(sharp.ExtraBlockCost(300), pp.ExtraBlockCost(300));
}

}  // namespace
}  // namespace blockoptr
