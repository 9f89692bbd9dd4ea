#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "blockopt/metrics/metrics.h"
#include "common/interner.h"

namespace blockoptr {
namespace {

struct EntryBuilder {
  BlockchainLogEntry e;

  EntryBuilder(uint64_t order, const std::string& activity) {
    e.commit_order = order;
    e.activity = activity;
    e.client_timestamp = static_cast<double>(order) * 0.01;
    e.block_num = order / 10;  // 10 txs per block
    e.tx_pos = static_cast<uint32_t>(order % 10);
    e.invoker_client = "Org1-client0";
    e.invoker_org = "Org1";
    e.endorsers = {"Org1", "Org2"};
  }
  EntryBuilder& Reads(std::vector<std::string> keys) {
    e.read_keys = std::move(keys);
    return *this;
  }
  EntryBuilder& Writes(std::vector<std::pair<std::string, std::string>> w) {
    e.writes = std::move(w);
    return *this;
  }
  EntryBuilder& Status(TxStatus s) {
    e.status = s;
    return *this;
  }
  EntryBuilder& Type(TxType t) {
    e.tx_type = t;
    return *this;
  }
  EntryBuilder& Invoker(const std::string& client, const std::string& org) {
    e.invoker_client = client;
    e.invoker_org = org;
    return *this;
  }
  EntryBuilder& Endorsers(std::vector<std::string> orgs) {
    e.endorsers = std::move(orgs);
    return *this;
  }
  EntryBuilder& Deletes(std::vector<std::string> keys) {
    e.delete_keys = std::move(keys);
    return *this;
  }
  EntryBuilder& Ranges(
      std::vector<std::pair<std::string, std::string>> bounds) {
    e.range_bounds = std::move(bounds);
    return *this;
  }
  EntryBuilder& Time(double t) {
    e.client_timestamp = t;
    return *this;
  }
  BlockchainLogEntry Build() { return e; }
};

// ---------------------------------------------------------------------------
// Rate / failure metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, TransactionRateFromTimestamps) {
  std::vector<BlockchainLogEntry> entries;
  for (uint64_t i = 0; i < 101; ++i) {
    entries.push_back(EntryBuilder(i, "A").Time(i * 0.01).Build());
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.total_txs, 101u);
  EXPECT_NEAR(m.duration_s, 1.0, 1e-9);
  EXPECT_NEAR(m.tr, 101.0, 1.0);
}

TEST(MetricsTest, RateDistributionPerInterval) {
  std::vector<BlockchainLogEntry> entries;
  uint64_t order = 0;
  // 10 txs in second 0, 30 in second 1.
  for (int i = 0; i < 10; ++i) {
    entries.push_back(EntryBuilder(order++, "A").Time(0.05 * i).Build());
  }
  for (int i = 0; i < 30; ++i) {
    entries.push_back(
        EntryBuilder(order++, "A").Time(1.0 + 0.03 * i).Build());
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  ASSERT_GE(m.trd.size(), 2u);
  EXPECT_DOUBLE_EQ(m.trd[0], 10.0);
  EXPECT_DOUBLE_EQ(m.trd[1], 30.0);
}

TEST(MetricsTest, FailureBreakdownAndAlignment) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "A").Time(0.1).Build());
  entries.push_back(EntryBuilder(1, "A")
                        .Time(0.2)
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  entries.push_back(EntryBuilder(2, "A")
                        .Time(1.5)
                        .Status(TxStatus::kPhantomReadConflict)
                        .Build());
  entries.push_back(EntryBuilder(3, "A")
                        .Time(2.5)
                        .Status(TxStatus::kEndorsementPolicyFailure)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.failed_txs, 3u);
  EXPECT_EQ(m.mvcc_failures, 1u);
  EXPECT_EQ(m.phantom_failures, 1u);
  EXPECT_EQ(m.endorsement_failures, 1u);
  EXPECT_NEAR(m.SuccessRate(), 0.25, 1e-9);
  // frd is padded to the same length as trd.
  EXPECT_EQ(m.frd.size(), m.trd.size());
}

// ---------------------------------------------------------------------------
// Block size / significance metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, AverageBlockSize) {
  std::vector<BlockchainLogEntry> entries;
  for (uint64_t i = 0; i < 40; ++i) {
    entries.push_back(EntryBuilder(i, "A").Build());  // block = i / 10
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.num_blocks, 4u);
  EXPECT_DOUBLE_EQ(m.b_sizeavg, 10.0);
}

TEST(MetricsTest, EndorserSignificance) {
  std::vector<BlockchainLogEntry> entries;
  for (uint64_t i = 0; i < 10; ++i) {
    entries.push_back(
        EntryBuilder(i, "A")
            .Endorsers(i < 7 ? std::vector<std::string>{"Org1", "Org2"}
                             : std::vector<std::string>{"Org3", "Org4"})
            .Build());
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.endorser_sig["Org1"], 7u);
  EXPECT_EQ(m.endorser_sig["Org4"], 3u);
}

TEST(MetricsTest, InvokerSignificancePerClientAndOrg) {
  std::vector<BlockchainLogEntry> entries;
  for (uint64_t i = 0; i < 10; ++i) {
    entries.push_back(EntryBuilder(i, "A")
                          .Invoker(i < 8 ? "Org1-client0" : "Org2-client0",
                                   i < 8 ? "Org1" : "Org2")
                          .Build());
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.invoker_sig["Org1-client0"], 8u);
  EXPECT_EQ(m.invoker_org_sig["Org1"], 8u);
  EXPECT_EQ(m.invoker_org_sig["Org2"], 2u);
}

// ---------------------------------------------------------------------------
// Key metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, KeyFrequencyCountsFailuresOnly) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "A").Reads({"k"}).Build());
  entries.push_back(EntryBuilder(1, "A")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.key_freq["k"], 1u);
  EXPECT_EQ(m.key_activities["k"].size(), 1u);
}

TEST(MetricsTest, HotkeyThresholds) {
  std::vector<BlockchainLogEntry> entries;
  uint64_t order = 0;
  // 50 failures on "hot", 5 on "cold".
  for (int i = 0; i < 50; ++i) {
    entries.push_back(EntryBuilder(order++, "Vote")
                          .Reads({"hot"})
                          .Writes({{"hot", std::to_string(i)}})
                          .Status(TxStatus::kMvccReadConflict)
                          .Build());
  }
  for (int i = 0; i < 5; ++i) {
    entries.push_back(EntryBuilder(order++, "Other")
                          .Reads({"cold"})
                          .Status(TxStatus::kMvccReadConflict)
                          .Build());
  }
  MetricsOptions options;
  options.hotkey_min_failures = 30;
  options.hotkey_failure_fraction = 0.15;
  const BlockchainLog log(std::move(entries));
  auto m = ComputeMetrics(log, options);
  ASSERT_EQ(m.hot_keys.size(), 1u);
  EXPECT_EQ(m.hot_keys[0], "hot");

  // The rule's edges, shared by every caller: the larger of the floor and
  // the failure fraction, inclusive, ranked by failures, then key string.
  MetricsOptions strict = options;
  strict.hotkey_failure_fraction = 0.95;  // 52 of the 55 failures
  EXPECT_TRUE(ComputeMetrics(log, strict).hot_keys.empty());
  EXPECT_EQ(HotKeyThreshold(options, 100), 30u);
  EXPECT_EQ(HotKeyThreshold(options, 1000), 150u);
  EXPECT_EQ(HotKeys({{"a", 30}, {"b", 29}, {"c", 45}, {"d", 30}}, 30),
            (std::vector<std::string>{"c", "a", "d"}));
  // AggregateMetrics re-applies it to the summed counts: 800 failures
  // make the threshold 120, above the floor.
  LogMetrics left, right;
  left.failed_txs = right.failed_txs = 400;
  left.key_freq = {{"x", 100}, {"y", 50}};
  right.key_freq = {{"x", 30}, {"y", 50}};
  EXPECT_EQ(AggregateMetrics({left, right}, options).hot_keys,
            std::vector<std::string>{"x"});
}

TEST(MetricsTest, KeyAccessorStatsDistinguishReadersFromWriters) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "Play")
                        .Reads({"m"})
                        .Writes({{"m", "1"}})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  entries.push_back(EntryBuilder(1, "ViewMetaData")
                        .Reads({"m"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_TRUE(m.key_accessors["m"]["Play"].writes);
  EXPECT_FALSE(m.key_accessors["m"]["ViewMetaData"].writes);
  EXPECT_EQ(m.key_accessors["m"]["Play"].failures, 1u);
}

// ---------------------------------------------------------------------------
// Correlation metrics (corDV / corP / corPA)
// ---------------------------------------------------------------------------

TEST(MetricsTest, ConflictAttributionFindsTheLastWriter) {
  std::vector<BlockchainLogEntry> entries;
  // y writes k, then x fails reading k.
  entries.push_back(
      EntryBuilder(0, "Writer").Writes({{"k", "v1"}}).Build());
  entries.push_back(EntryBuilder(1, "Reader")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  ASSERT_EQ(m.conflicts.size(), 1u);
  const auto& c = m.conflicts[0];
  EXPECT_EQ(c.failed_activity, "Reader");
  EXPECT_EQ(c.cause_activity, "Writer");
  EXPECT_EQ(c.key, "k");
  EXPECT_EQ(c.distance, 1u);
  EXPECT_TRUE(c.reorderable);  // reader writes nothing
  EXPECT_FALSE(c.same_activity);
}

TEST(MetricsTest, MostRecentWriterWins) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "W1").Writes({{"k", "a"}}).Build());
  entries.push_back(EntryBuilder(1, "W2").Writes({{"k", "b"}}).Build());
  entries.push_back(EntryBuilder(2, "R")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  ASSERT_EQ(m.conflicts.size(), 1u);
  EXPECT_EQ(m.conflicts[0].cause_activity, "W2");
  EXPECT_EQ(m.conflicts[0].distance, 1u);
}

TEST(MetricsTest, FailedWritersDoNotBecomeCauses) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "GoodWriter").Writes({{"k", "a"}}).Build());
  entries.push_back(EntryBuilder(1, "BadWriter")
                        .Writes({{"k", "b"}})
                        .Status(TxStatus::kMvccReadConflict)
                        .Reads({"other"})
                        .Build());
  entries.push_back(EntryBuilder(2, "R")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  // BadWriter never committed its write, so the cause of R is GoodWriter.
  bool found = false;
  for (const auto& c : m.conflicts) {
    if (c.failed_activity == "R") {
      EXPECT_EQ(c.cause_activity, "GoodWriter");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsTest, IntraVsInterBlockClassification) {
  std::vector<BlockchainLogEntry> entries;
  // Orders 0 and 1 share block 0 (intra); order 10 is block 1 (inter).
  entries.push_back(EntryBuilder(0, "W").Writes({{"k", "a"}}).Build());
  entries.push_back(EntryBuilder(1, "R1")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  entries.push_back(EntryBuilder(10, "R2")
                        .Reads({"k"})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.intra_block_conflicts, 1u);
  EXPECT_EQ(m.inter_block_conflicts, 1u);
}

TEST(MetricsTest, NonReorderableWhenWriteSetsOverlap) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "Update")
                        .Reads({"k"})
                        .Writes({{"k", "v1"}})
                        .Build());
  entries.push_back(EntryBuilder(1, "Update")
                        .Reads({"k"})
                        .Writes({{"k", "v2"}})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  ASSERT_EQ(m.conflicts.size(), 1u);
  EXPECT_FALSE(m.conflicts[0].reorderable);
  EXPECT_TRUE(m.conflicts[0].same_activity);
  EXPECT_EQ(m.reorderable_conflicts, 0u);
}

TEST(MetricsTest, DeltaCandidateDetection) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "Play")
                        .Reads({"m"})
                        .Writes({{"m", "5|meta"}})
                        .Build());
  entries.push_back(EntryBuilder(1, "Play")
                        .Reads({"m"})
                        .Writes({{"m", "5|meta"}})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.delta_candidates, 1u);
  ASSERT_EQ(m.conflicts.size(), 1u);
  EXPECT_TRUE(m.conflicts[0].delta_candidate);
}

TEST(MetricsTest, NonCounterValuesAreNotDeltaCandidates) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "Upd")
                        .Reads({"k"})
                        .Writes({{"k", "abc"}})
                        .Build());
  entries.push_back(EntryBuilder(1, "Upd")
                        .Reads({"k"})
                        .Writes({{"k", "xyz"}})
                        .Status(TxStatus::kMvccReadConflict)
                        .Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.delta_candidates, 0u);
}

TEST(MetricsTest, PhantomCauseFoundViaRangeBounds) {
  std::vector<BlockchainLogEntry> entries;
  // A writer inserts "key5"; a range reader over [key0, key9) fails.
  entries.push_back(
      EntryBuilder(0, "Insert").Writes({{"key5", "v"}}).Build());
  BlockchainLogEntry range = EntryBuilder(1, "RangeRead")
                                 .Status(TxStatus::kPhantomReadConflict)
                                 .Build();
  range.range_bounds.emplace_back("key0", "key9");
  entries.push_back(range);
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  ASSERT_EQ(m.conflicts.size(), 1u);
  EXPECT_EQ(m.conflicts[0].cause_activity, "Insert");
  EXPECT_EQ(m.conflicts[0].key, "key5");
  EXPECT_TRUE(m.conflicts[0].reorderable);
}

TEST(MetricsTest, ActivityConflictAggregation) {
  std::vector<BlockchainLogEntry> entries;
  uint64_t order = 0;
  for (int i = 0; i < 3; ++i) {
    entries.push_back(EntryBuilder(order++, "W")
                          .Writes({{"k", "v" + std::to_string(i)}})
                          .Build());
    entries.push_back(EntryBuilder(order++, "R")
                          .Reads({"k"})
                          .Status(TxStatus::kMvccReadConflict)
                          .Build());
  }
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ((m.activity_conflicts[{"R", "W"}]), 3u);
}

TEST(MetricsTest, ActivityTxTypeCounts) {
  std::vector<BlockchainLogEntry> entries;
  entries.push_back(EntryBuilder(0, "Ship").Type(TxType::kUpdate).Build());
  entries.push_back(EntryBuilder(1, "Ship").Type(TxType::kUpdate).Build());
  entries.push_back(EntryBuilder(2, "Ship").Type(TxType::kRead).Build());
  auto m = ComputeMetrics(BlockchainLog(std::move(entries)), {});
  EXPECT_EQ(m.activity_tx_types["Ship"][TxType::kUpdate], 2u);
  EXPECT_EQ(m.activity_tx_types["Ship"][TxType::kRead], 1u);
}

TEST(MetricsTest, EmptyLogYieldsZeroMetrics) {
  auto m = ComputeMetrics(BlockchainLog(), {});
  EXPECT_EQ(m.total_txs, 0u);
  EXPECT_EQ(m.tr, 0);
  EXPECT_TRUE(m.conflicts.empty());
  EXPECT_TRUE(m.hot_keys.empty());
}

// ---------------------------------------------------------------------------
// Pane merge: Merge(right) must equal a single pass over both row ranges
// ---------------------------------------------------------------------------

void ExpectConflictsEqual(const std::vector<ConflictPair>& a,
                          const std::vector<ConflictPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("conflict " + std::to_string(i));
    EXPECT_EQ(a[i].failed_commit_order, b[i].failed_commit_order);
    EXPECT_EQ(a[i].cause_commit_order, b[i].cause_commit_order);
    EXPECT_EQ(a[i].failed_activity, b[i].failed_activity);
    EXPECT_EQ(a[i].cause_activity, b[i].cause_activity);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].distance, b[i].distance);
    EXPECT_EQ(a[i].same_block, b[i].same_block);
    EXPECT_EQ(a[i].reorderable, b[i].reorderable);
    EXPECT_EQ(a[i].same_activity, b[i].same_activity);
    EXPECT_EQ(a[i].delta_candidate, b[i].delta_candidate);
  }
}

/// Field-for-field, doubles compared exactly: the merged accumulator must
/// run the same arithmetic over the same values as the single pass.
void ExpectMetricsEqual(const LogMetrics& a, const LogMetrics& b) {
  EXPECT_EQ(a.total_txs, b.total_txs);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.tr, b.tr);
  EXPECT_EQ(a.trd, b.trd);
  EXPECT_EQ(a.failed_txs, b.failed_txs);
  EXPECT_EQ(a.mvcc_failures, b.mvcc_failures);
  EXPECT_EQ(a.phantom_failures, b.phantom_failures);
  EXPECT_EQ(a.endorsement_failures, b.endorsement_failures);
  EXPECT_EQ(a.tfr, b.tfr);
  EXPECT_EQ(a.frd, b.frd);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.b_sizeavg, b.b_sizeavg);
  EXPECT_EQ(a.endorser_sig, b.endorser_sig);
  EXPECT_EQ(a.invoker_sig, b.invoker_sig);
  EXPECT_EQ(a.invoker_org_sig, b.invoker_org_sig);
  EXPECT_EQ(a.key_freq, b.key_freq);
  EXPECT_EQ(a.key_activities, b.key_activities);
  EXPECT_EQ(a.hot_keys, b.hot_keys);
  ASSERT_EQ(a.key_accessors.size(), b.key_accessors.size());
  for (const auto& [key, accessors] : a.key_accessors) {
    auto it = b.key_accessors.find(key);
    ASSERT_NE(it, b.key_accessors.end()) << key;
    ASSERT_EQ(accessors.size(), it->second.size()) << key;
    for (const auto& [activity, stats] : accessors) {
      auto jt = it->second.find(activity);
      ASSERT_NE(jt, it->second.end()) << key << "/" << activity;
      EXPECT_EQ(stats.accesses, jt->second.accesses);
      EXPECT_EQ(stats.failures, jt->second.failures);
      EXPECT_EQ(stats.writes, jt->second.writes);
    }
  }
  ExpectConflictsEqual(a.conflicts, b.conflicts);
  EXPECT_EQ(a.activity_conflicts, b.activity_conflicts);
  EXPECT_EQ(a.intra_block_conflicts, b.intra_block_conflicts);
  EXPECT_EQ(a.inter_block_conflicts, b.inter_block_conflicts);
  EXPECT_EQ(a.adjacent_same_activity_conflicts,
            b.adjacent_same_activity_conflicts);
  EXPECT_EQ(a.delta_candidates, b.delta_candidates);
  EXPECT_EQ(a.reorderable_conflicts, b.reorderable_conflicts);
  EXPECT_EQ(a.activity_tx_types, b.activity_tx_types);
  EXPECT_EQ(a.num_activities, b.num_activities);
}

TEST(MetricsMergeTest, CrossPaneCauseResolvesAtMergeTime) {
  // Writer in the left pane, failed reader in the right pane: the pair
  // must appear after Merge, identical to the single pass.
  std::vector<BlockchainLogEntry> rows;
  rows.push_back(EntryBuilder(0, "Writer").Writes({{"pk", "v1"}}).Build());
  rows.push_back(EntryBuilder(1, "Reader")
                     .Reads({"pk"})
                     .Status(TxStatus::kMvccReadConflict)
                     .Build());

  MetricsAccumulator single;
  for (const auto& e : rows) single.OnEntry(e);

  MetricsAccumulator left, right;
  left.OnEntry(rows[0]);
  right.OnEntry(rows[1]);
  EXPECT_EQ(right.unresolved_prefix_size(), 1u);
  EXPECT_EQ(right.conflicts_detected(), 0u);
  left.Merge(right);
  EXPECT_EQ(left.unresolved_prefix_size(), 0u);
  EXPECT_EQ(left.conflicts_detected(), 1u);
  ExpectMetricsEqual(left.Snapshot(), single.Snapshot());
}

TEST(MetricsMergeTest, TombstoneMasksLeftWriterAcrossThreePanes) {
  // Pane 1 writes the key, pane 2 deletes it, a pane-3 reader fails: no
  // committed writer is live, so — exactly like the single pass — no
  // conflict pair may surface when the panes fold together.
  std::vector<BlockchainLogEntry> rows;
  rows.push_back(EntryBuilder(0, "Writer").Writes({{"mk", "v"}}).Build());
  rows.push_back(EntryBuilder(1, "Deleter").Deletes({"mk"}).Build());
  rows.push_back(EntryBuilder(2, "Reader")
                     .Reads({"mk"})
                     .Status(TxStatus::kMvccReadConflict)
                     .Build());

  MetricsAccumulator single;
  for (const auto& e : rows) single.OnEntry(e);
  ASSERT_EQ(single.conflicts_detected(), 0u);

  MetricsAccumulator p1, p2, p3;
  p1.OnEntry(rows[0]);
  p2.OnEntry(rows[1]);
  p3.OnEntry(rows[2]);
  MetricsAccumulator folded;
  folded.Merge(p1);
  folded.Merge(p2);
  folded.Merge(p3);
  EXPECT_EQ(folded.conflicts_detected(), 0u);
  ExpectMetricsEqual(folded.Snapshot(), single.Snapshot());
}

TEST(MetricsMergeTest, PhantomRangeHonorsCrossPaneDeletes) {
  // The left pane writes two keys in a queried range; the middle pane
  // deletes the later one. The right pane's phantom reader must resolve
  // to the surviving writer — ordering and masking both cross the seams.
  std::vector<BlockchainLogEntry> rows;
  rows.push_back(EntryBuilder(0, "InsertA").Writes({{"r3", "a"}}).Build());
  rows.push_back(EntryBuilder(1, "InsertB").Writes({{"r7", "b"}}).Build());
  rows.push_back(EntryBuilder(2, "Deleter").Deletes({"r7"}).Build());
  BlockchainLogEntry scan = EntryBuilder(3, "Scan")
                                .Status(TxStatus::kPhantomReadConflict)
                                .Ranges({{"r0", "r9"}})
                                .Build();
  rows.push_back(scan);

  MetricsAccumulator single;
  for (const auto& e : rows) single.OnEntry(e);
  ASSERT_EQ(single.conflicts_detected(), 1u);

  MetricsAccumulator left, mid, right;
  left.OnEntry(rows[0]);
  left.OnEntry(rows[1]);
  mid.OnEntry(rows[2]);
  right.OnEntry(rows[3]);
  MetricsAccumulator folded;
  folded.Merge(left);
  folded.Merge(mid);
  folded.Merge(right);
  ASSERT_EQ(folded.conflicts_detected(), 1u);
  LogMetrics fm = folded.Snapshot();
  EXPECT_EQ(fm.conflicts[0].cause_activity, "InsertA");
  EXPECT_EQ(fm.conflicts[0].key, "r3");
  ExpectMetricsEqual(fm, single.Snapshot());
}

TEST(MetricsMergeTest, EmptyPanesAreIdentityElements) {
  std::vector<BlockchainLogEntry> rows;
  rows.push_back(EntryBuilder(0, "W").Writes({{"ek", "1"}}).Build());
  rows.push_back(EntryBuilder(1, "R")
                     .Reads({"ek"})
                     .Status(TxStatus::kMvccReadConflict)
                     .Build());
  MetricsAccumulator single;
  for (const auto& e : rows) single.OnEntry(e);

  MetricsAccumulator pane;
  for (const auto& e : rows) pane.OnEntry(e);
  MetricsAccumulator folded, empty;
  folded.Merge(empty);  // empty right
  folded.Merge(pane);   // empty left
  folded.Merge(empty);
  ExpectMetricsEqual(folded.Snapshot(), single.Snapshot());
}

TEST(MetricsMergeTest, MergedAccumulatorKeepsFoldingRows) {
  // Postcondition check: after a merge the accumulator must behave like
  // the single pass for *future* rows too (frontier rebasing, tie-break
  // order, pending bookkeeping).
  std::vector<BlockchainLogEntry> rows;
  rows.push_back(EntryBuilder(0, "W1").Writes({{"fk", "1"}}).Build());
  rows.push_back(EntryBuilder(1, "W2").Writes({{"fk", "2"}}).Build());
  rows.push_back(EntryBuilder(2, "R1")
                     .Reads({"fk"})
                     .Status(TxStatus::kMvccReadConflict)
                     .Build());
  rows.push_back(EntryBuilder(3, "W3").Writes({{"gk", "x"}}).Build());
  rows.push_back(EntryBuilder(4, "R2")
                     .Reads({"fk", "gk"})
                     .Status(TxStatus::kMvccReadConflict)
                     .Build());

  MetricsAccumulator single;
  for (const auto& e : rows) single.OnEntry(e);

  MetricsAccumulator left, right;
  left.OnEntry(rows[0]);
  right.OnEntry(rows[1]);
  right.OnEntry(rows[2]);
  left.Merge(right);
  left.OnEntry(rows[3]);  // keep feeding after the merge
  left.OnEntry(rows[4]);
  ExpectMetricsEqual(left.Snapshot(), single.Snapshot());
}

/// Deterministic row-stream generator: valid writers (counter-like and
/// opaque values), deleters, MVCC/phantom/endorsement failures, range
/// scans, several activities/invokers/endorser sets over a small key
/// universe — enough collision pressure that causes regularly land in
/// earlier panes and deletes regularly mask them.
std::vector<BlockchainLogEntry> RandomRowStream(uint64_t seed, int n) {
  uint64_t lcg = seed;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  // Zero-padded so lexicographic key order == numeric order (range
  // bounds must satisfy start <= end, like real rwset range queries).
  auto key = [&](uint32_t i) {
    const uint32_t v = i % 12;
    return std::string("pk") + (v < 10 ? "0" : "") + std::to_string(v);
  };
  std::vector<BlockchainLogEntry> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto order = static_cast<uint64_t>(i);
    const uint32_t kind = next() % 10;
    const std::string activity = "Act" + std::to_string(next() % 4);
    EntryBuilder b(order, activity);
    b.Invoker("Org" + std::to_string(next() % 3) + "-client0",
              "Org" + std::to_string(next() % 3));
    b.Endorsers({"Org" + std::to_string(next() % 3)});
    if (kind < 4) {
      // Valid writer; half the time a counter-like value (delta-write
      // candidates must survive pane seams too).
      const uint32_t k = next();
      const std::string value = (next() % 2) ? std::to_string(next() % 3)
                                             : "opaque" + key(next());
      b.Reads({key(k)}).Writes({{key(k), value}});
      if (next() % 4 == 0) b.Writes({{key(k), value}, {key(k + 1), "w"}});
    } else if (kind < 5) {
      // Valid deleter (sometimes write+delete in one transaction).
      b.Deletes({key(next())});
      if (next() % 3 == 0) b.Writes({{key(next()), "v"}});
    } else if (kind < 8) {
      // MVCC-failed reader over 1-3 keys, sometimes writing too.
      std::vector<std::string> reads;
      const uint32_t nr = 1 + next() % 3;
      for (uint32_t r = 0; r < nr; ++r) reads.push_back(key(next()));
      b.Reads(std::move(reads)).Status(TxStatus::kMvccReadConflict);
      if (next() % 2) b.Writes({{key(next()), std::to_string(next() % 3)}});
    } else if (kind < 9) {
      // Phantom-failed range scan (bounds never wrap the key universe).
      const uint32_t lo = next() % 8;
      b.Ranges({{key(lo), key(lo + 3)}})
          .Status(TxStatus::kPhantomReadConflict);
    } else {
      b.Status(TxStatus::kEndorsementPolicyFailure);
    }
    rows.push_back(b.Build());
  }
  return rows;
}

TEST(MetricsMergeTest, RandomPanePartitionsEqualSinglePass) {
  // Property: for random row streams and random partitions into panes
  // (empty panes included), folding the panes left-to-right with Merge
  // is field-for-field identical to one accumulator fed every row.
  for (uint64_t seed : {11ull, 23ull, 47ull, 91ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<BlockchainLogEntry> rows = RandomRowStream(seed, 300);

    MetricsAccumulator single;
    for (const auto& e : rows) single.OnEntry(e);
    const LogMetrics expected = single.Snapshot();

    uint64_t lcg = seed * 977;
    auto next = [&lcg]() {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<uint32_t>(lcg >> 33);
    };
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      MetricsAccumulator folded;
      size_t pos = 0;
      while (pos < rows.size()) {
        // Pane sizes 0..24: zero-row panes must be identity elements.
        const size_t len =
            std::min<size_t>(next() % 25, rows.size() - pos);
        MetricsAccumulator pane;
        for (size_t i = pos; i < pos + len; ++i) pane.OnEntry(rows[i]);
        folded.Merge(pane);
        pos += len;
      }
      ExpectMetricsEqual(folded.Snapshot(), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Key sets: a row's RS(x), WS(x) and RWS(x) as KeyId sets
// ---------------------------------------------------------------------------

std::vector<std::string> IdsToKeys(const std::vector<KeyId>& ids) {
  const Interner& interner = GlobalKeyInterner();
  std::vector<std::string> keys;
  for (KeyId id : ids) keys.emplace_back(interner.KeyForId(id));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Each id set is sorted by id without duplicates and names exactly the
/// key set the string accessors report.
void ExpectKeySets(const MetricsRow& row,
                   const std::vector<std::string>& reads,
                   const std::vector<std::string>& writes,
                   const std::vector<std::string>& accessed) {
  for (const auto* ids : {&row.read_ids, &row.write_ids, &row.accessed_ids}) {
    EXPECT_EQ(std::adjacent_find(ids->begin(), ids->end(),
                                 std::greater_equal<KeyId>()),
              ids->end());
  }
  EXPECT_EQ(IdsToKeys(row.read_ids), reads);
  EXPECT_EQ(IdsToKeys(row.write_ids), writes);
  EXPECT_EQ(IdsToKeys(row.accessed_ids), accessed);
}

/// A random rwset over a small key universe: repeated point reads, range
/// results that repeat point reads and each other, writes and deletes.
ReadWriteSet RandomRwset(uint64_t& lcg) {
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  auto key = [&] { return "rowks~k" + std::to_string(next() % 30); };
  ReadWriteSet rw;
  const uint32_t items = next() % 40;
  for (uint32_t i = 0; i < items; ++i) {
    switch (next() % 4) {
      case 0:
        rw.reads.push_back(ReadItem{key(), Version{1, 0}});
        break;
      case 1:
        rw.writes.push_back(WriteItem{key(), "v", next() % 5 == 0});
        break;
      case 2:
        rw.range_queries.emplace_back();
        break;
      default:
        if (rw.range_queries.empty()) rw.range_queries.emplace_back();
        rw.range_queries.back().results.push_back(
            ReadItem{key(), Version{1, 1}});
        break;
    }
  }
  return rw;
}

TEST(RowKeySetProperty, RwsetIdSetsMirrorStringAccessors) {
  // Every rwset goes into a fresh row and into one row recycled across
  // all rounds: a refill must not keep anything of the previous rwset.
  uint64_t lcg = 4096;
  const Block block;
  MetricsRow recycled;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Transaction tx;
    tx.rwset = RandomRwset(lcg);
    const ReadWriteSet& rw = tx.rwset;
    MetricsRow fresh;
    RowFromTransactionInto(block, tx, fresh);
    RowFromTransactionInto(block, tx, recycled);
    for (const MetricsRow* row : {&fresh, &recycled}) {
      ExpectKeySets(*row, rw.ReadKeys(), rw.WriteKeys(), rw.AccessedKeys());
      std::vector<KeyId> value_writes, deletes;
      for (const WriteItem& w : rw.writes) {
        (w.is_delete ? deletes : value_writes).push_back(w.id());
      }
      EXPECT_EQ(row->value_write_ids, value_writes);
      EXPECT_EQ(row->delete_ids, deletes);
      EXPECT_EQ(row->range_bounds.size(), rw.range_queries.size());
    }
  }
}

TEST(RowKeySetTest, EntryIdSetsMirrorStringAccessors) {
  std::vector<BlockchainLogEntry> entries = RandomRowStream(5, 200);
  BlockchainLogEntry shared;
  shared.read_keys = {"rowks~r", "rowks~shared"};
  shared.writes = {{"rowks~w", "1"}, {"rowks~shared", "2"}};
  shared.delete_keys = {"rowks~d", "rowks~w"};
  entries.push_back(shared);
  for (const BlockchainLogEntry& e : entries) {
    SCOPED_TRACE("commit order " + std::to_string(e.commit_order));
    std::vector<std::string> reads = e.read_keys;
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    ExpectKeySets(RowFromEntry(e), reads, e.WriteKeys(), e.AccessedKeys());
  }
}

}  // namespace
}  // namespace blockoptr
