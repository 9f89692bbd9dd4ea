// Streaming-analysis engine tests: the online pipeline must agree with
// the batch pipeline wherever the two overlap.
//
//   - End-of-run streaming metrics == ComputeMetrics over the extracted
//     ledger log, field for field (equivalence by construction — both
//     run through MetricsAccumulator — but this guards the block-commit
//     feeding path: config handling, commit-order numbering, ordering).
//   - The incrementally maintained WindowedConflictGraph counts the edges
//     of a from-scratch ConflictGraph rebuild after every add.
//   - --stream-apply changes the regime mid-run through a real config
//     update transaction, visible in the ledger and the stream series.
//   - Every stream buffer stays within its configured bound.
//   - The hot_keys export lists the exact top of the batch Kfreq ranking,
//     ordered by failures, then key string — never by interner id.
//   - Stream export JSON is byte-identical between a serial loop and the
//     parallel sweep engine. Both run in one process and so share one
//     interner id assignment: that test cannot see an export that depends
//     on id order. The CI smoke steps compare exports written by separate
//     processes, which can.
#include "blockopt/stream/stream_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/stream/conflict_window.h"
#include "blockopt/stream/export.h"
#include "blockopt/stream/online_recommender.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "ledger/rwset.h"
#include "reorder/conflict_graph.h"
#include "stream_hot_keys.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

SyntheticConfig Workload(SyntheticWorkloadType type, int txs, double rate,
                         uint64_t seed = 1) {
  SyntheticConfig wl;
  wl.type = type;
  wl.num_txs = txs;
  wl.send_rate = rate;
  wl.num_orgs = 2;
  wl.seed = seed;
  return wl;
}

ExperimentConfig StreamingExperiment(SyntheticWorkloadType type, int txs,
                                     double rate, double window_s) {
  ExperimentConfig cfg =
      MakeSyntheticExperiment(Workload(type, txs, rate),
                              NetworkConfig::Defaults());
  cfg.stream.enabled = true;
  cfg.stream.window_s = window_s;
  return cfg;
}

// ---------------------------------------------------------------------------
// Streaming vs batch metric equivalence
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

/// Field-for-field (doubles compared exactly: both sides run the same
/// arithmetic over the same rows, so the contract is bit-identical).
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

/// Directed edges of a batch graph: its total adjacency size.
size_t EdgeTotal(const ConflictGraph& graph) {
  size_t edges = 0;
  for (size_t i = 0; i < graph.size(); ++i) {
    edges += graph.InvalidatedBy(static_cast<int>(i)).size();
  }
  return edges;
}

class StreamEquivalenceTest
    : public ::testing::TestWithParam<SyntheticWorkloadType> {};

TEST_P(StreamEquivalenceTest, CumulativeMatchesBatchPipeline) {
  ExperimentConfig cfg = StreamingExperiment(GetParam(), 600, 300, 2.0);
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_NE(out->stream, nullptr);

  LogMetrics batch =
      ComputeMetrics(ExtractBlockchainLog(out->ledger), MetricsOptions{});
  LogMetrics streaming = out->stream->CumulativeSnapshot();
  ExpectMetricsEqual(streaming, batch);

  // The engine saw every committed transaction exactly once.
  EXPECT_EQ(out->stream->entries_seen(), batch.total_txs);
  EXPECT_GT(out->stream->blocks_seen(), 0u);
  EXPECT_GT(out->stream->evaluations(), 0u);

  // Its conflict-graph window counts the edges a batch ConflictGraph
  // finds among the last transactions the engine saw.
  std::vector<const ReadWriteSet*> rwsets;
  for (const Block& block : out->ledger.blocks()) {
    for (const Transaction& tx : block.transactions) {
      if (!tx.is_config && tx.status != TxStatus::kConfig) {
        rwsets.push_back(&tx.rwset);
      }
    }
  }
  const WindowedConflictGraph& graph = out->stream->conflict_graph();
  ASSERT_EQ(graph.size(), std::min(rwsets.size(), graph.max_nodes()));
  rwsets.erase(rwsets.begin(), rwsets.end() - static_cast<long>(graph.size()));
  const ConflictGraph window(rwsets);
  EXPECT_EQ(graph.EdgeCount(), EdgeTotal(window));
  EXPECT_GT(graph.EdgeCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, StreamEquivalenceTest,
                         ::testing::Values(
                             SyntheticWorkloadType::kUniform,
                             SyntheticWorkloadType::kUpdateHeavy,
                             SyntheticWorkloadType::kRangeReadHeavy,
                             SyntheticWorkloadType::kInsertHeavy));

// ---------------------------------------------------------------------------
// Incremental conflict graph vs from-scratch rebuild
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random rwset mix over a small key universe, so
/// the graph has plenty of read-write overlap.
ReadWriteSet MakeRwSet(uint64_t& lcg) {
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  auto key = [&next] {
    std::string k = "k";
    k += std::to_string(next() % 12);
    return k;
  };
  ReadWriteSet rw;
  const int reads = 1 + static_cast<int>(next() % 3);
  for (int i = 0; i < reads; ++i) {
    rw.reads.push_back(ReadItem{key(), {}});
  }
  const int writes = static_cast<int>(next() % 3);
  for (int i = 0; i < writes; ++i) {
    rw.writes.push_back(WriteItem{key(), "v", false});
  }
  return rw;
}

/// The RS/WS id sets the streaming engine hands the graph: its metrics
/// row's.
MetricsRow RowOf(const ReadWriteSet& rw) {
  Transaction tx;
  tx.rwset = rw;
  MetricsRow row;
  RowFromTransactionInto(Block{}, tx, row);
  return row;
}

/// Feeds `steps` transactions of MakeRwSet(seed) to a window of
/// `max_nodes`; after every add, the window must hold the last
/// min(adds, max_nodes) transactions and count as many edges as a
/// ConflictGraph rebuilt from scratch over them.
void ExpectEdgeCountMatchesBatchAfterEveryAdd(size_t max_nodes, int steps,
                                              uint64_t seed) {
  uint64_t lcg = seed;
  std::vector<ReadWriteSet> all;
  WindowedConflictGraph inc(max_nodes);
  for (int step = 0; step < steps; ++step) {
    all.push_back(MakeRwSet(lcg));
    const MetricsRow row = RowOf(all.back());
    inc.AddNode(row.read_ids, row.write_ids);
    const size_t live = std::min(all.size(), max_nodes);
    ASSERT_EQ(inc.size(), live) << "step " << step;
    std::vector<const ReadWriteSet*> ptrs;
    for (size_t i = all.size() - live; i < all.size(); ++i) {
      ptrs.push_back(&all[i]);
    }
    ASSERT_EQ(inc.EdgeCount(), EdgeTotal(ConflictGraph(ptrs)))
        << "step " << step;
  }
  EXPECT_GT(inc.EdgeCount(), 0u);  // the mix does conflict
}

TEST(WindowedConflictGraphTest, MatchesBatchRebuildAfterEveryBlock) {
  // 20 "blocks" of 8 transactions in a window that never evicts.
  ExpectEdgeCountMatchesBatchAfterEveryAdd(4096, 160, 42);
}

TEST(WindowedConflictGraphTest, EvictionMatchesBatchOverWindowSuffix) {
  // A bounded window must count the edges among the most recent
  // `max_nodes` transactions only.
  ExpectEdgeCountMatchesBatchAfterEveryAdd(24, 120, 7);
}

// ---------------------------------------------------------------------------
// Online recommender event stream
// ---------------------------------------------------------------------------

LogMetrics BlockSizeMetrics(double tr, double b_sizeavg) {
  LogMetrics m;
  m.total_txs = 500;
  m.num_blocks = 5;
  m.tr = tr;
  m.b_sizeavg = b_sizeavg;
  return m;
}

TEST(OnlineRecommenderTest, EmitsAppearUpdateWithdraw) {
  OnlineRecommender rec(RecommenderOptions{}, 16);

  // Window 1: block size far off the rate -> advice appears.
  auto& active1 = rec.Evaluate(BlockSizeMetrics(100, 10), 0, 5);
  ASSERT_EQ(active1.size(), 1u);
  EXPECT_EQ(active1[0].type, RecommendationType::kBlockSizeAdaptation);
  EXPECT_EQ(active1[0].suggested_block_count, 100u);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].kind, RecommendationEventKind::kAppeared);
  EXPECT_EQ(rec.events()[0].window_start, 0.0);
  EXPECT_EQ(rec.events()[0].window_end, 5.0);

  // Window 2: still firing but the suggested count changed -> updated.
  rec.Evaluate(BlockSizeMetrics(200, 10), 5, 10);
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[1].kind, RecommendationEventKind::kUpdated);
  EXPECT_EQ(rec.events()[1].recommendation.suggested_block_count, 200u);

  // Window 3: identical advice -> no event.
  rec.Evaluate(BlockSizeMetrics(200, 10), 10, 15);
  EXPECT_EQ(rec.events().size(), 2u);

  // Window 4: block size tracks the rate again -> withdrawn, none active.
  auto& active4 = rec.Evaluate(BlockSizeMetrics(100, 100), 15, 20);
  EXPECT_TRUE(active4.empty());
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[2].kind, RecommendationEventKind::kWithdrawn);
  EXPECT_EQ(rec.events()[2].recommendation.type,
            RecommendationType::kBlockSizeAdaptation);
  EXPECT_EQ(rec.evaluations(), 4u);
}

TEST(OnlineRecommenderTest, EventBufferIsBounded) {
  OnlineRecommender rec(RecommenderOptions{}, 2);
  for (int i = 0; i < 6; ++i) {
    // Alternate fire / no-fire: every evaluation emits one event.
    rec.Evaluate(BlockSizeMetrics(100, i % 2 ? 100 : 10), i, i + 1);
  }
  EXPECT_LE(rec.events().size(), 2u);
  EXPECT_GT(rec.events_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Live apply: regime change mid-run
// ---------------------------------------------------------------------------

TEST(StreamApplyTest, BlockSizeAdaptationAppliedMidRun) {
  // Block count 50 against a 300 TPS send rate: block-size adaptation
  // fires in the first window and --stream-apply submits the config
  // update in-band.
  ExperimentConfig cfg =
      StreamingExperiment(SyntheticWorkloadType::kReadHeavy, 2500, 300, 1.0);
  cfg.network.block_cutting.max_tx_count = 50;
  cfg.stream.apply = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_NE(out->stream, nullptr);

  ASSERT_TRUE(out->stream->applied());
  EXPECT_EQ(out->stream->applied_recommendation().type,
            RecommendationType::kBlockSizeAdaptation);
  EXPECT_GT(out->stream->apply_time(), 0.0);
  EXPECT_LT(out->stream->apply_time(), out->sim_end_time);

  // The update travelled as a real config transaction...
  int config_block = -1;
  for (const auto& block : out->ledger.blocks()) {
    if (block.block_num == 0) continue;
    if (block.transactions.size() == 1 && block.transactions[0].is_config) {
      config_block = static_cast<int>(block.block_num);
    }
  }
  ASSERT_GT(config_block, 0);

  // ...and the block-size regime changes around it: capped at 50 before,
  // larger after (the suggested count tracks the ~300 TPS window rate).
  uint32_t max_before = 0, max_after = 0;
  for (const auto& block : out->ledger.blocks()) {
    if (block.block_num == 0) continue;
    if (!block.transactions.empty() && block.transactions[0].is_config) {
      continue;
    }
    auto size = static_cast<uint32_t>(block.transactions.size());
    if (block.block_num < static_cast<uint64_t>(config_block)) {
      max_before = std::max(max_before, size);
    } else {
      max_after = std::max(max_after, size);
    }
  }
  EXPECT_LE(max_before, 50u);
  EXPECT_GT(max_after, 50u);

  // The regime change is visible in the stream's own block-fill track.
  double fill_before = 0, fill_after = 0;
  for (const auto& p : out->stream->block_fill().points()) {
    if (p.t < out->stream->apply_time()) {
      fill_before = std::max(fill_before, p.v);
    } else {
      fill_after = std::max(fill_after, p.v);
    }
  }
  EXPECT_GT(fill_after, fill_before);

  // Even with a mid-run reconfiguration, streaming == batch.
  ExpectMetricsEqual(
      out->stream->CumulativeSnapshot(),
      ComputeMetrics(ExtractBlockchainLog(out->ledger), MetricsOptions{}));
}

TEST(StreamApplyTest, ObserveOnlyNeverApplies) {
  ExperimentConfig cfg =
      StreamingExperiment(SyntheticWorkloadType::kReadHeavy, 800, 300, 1.0);
  cfg.network.block_cutting.max_tx_count = 50;  // same trigger, apply off
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->stream->applied());
  for (const auto& block : out->ledger.blocks()) {
    if (block.block_num == 0) continue;  // genesis carries the config
    for (const auto& tx : block.transactions) {
      EXPECT_FALSE(tx.is_config);
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded window state
// ---------------------------------------------------------------------------

TEST(StreamEngineTest, AllBuffersStayWithinConfiguredBounds) {
  ExperimentConfig cfg =
      StreamingExperiment(SyntheticWorkloadType::kUpdateHeavy, 2000, 400,
                          0.5);
  cfg.stream.ring_capacity = 64;
  cfg.stream.pane_rows = 16;
  cfg.stream.conflict_window = 32;
  cfg.stream.max_events = 4;
  cfg.stream.series_capacity = 16;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  const StreamEngine& stream = *out->stream;

  EXPECT_EQ(stream.entries_seen(), 2000u);
  // Retained sealed panes never cover more rows than the ring budget.
  EXPECT_LE(stream.sealed_rows(), 64u);
  EXPECT_GT(stream.panes_sealed(), 0u);
  // 2000 txs through a 64-row evidence budget at this rate must have
  // folded still-in-window panes into the cumulative view early.
  EXPECT_GT(stream.ring_overflow(), 0u);
  EXPECT_LE(stream.conflict_graph().size(), 32u);
  EXPECT_LE(stream.recommender().events().size(), 4u);
  for (const TimeSeries* series : stream.AllSeries()) {
    EXPECT_LE(series->points().size(), 16u) << series->name();
  }
}

TEST(StreamEngineTest, FinalizeIsIdempotent) {
  ExperimentConfig cfg =
      StreamingExperiment(SyntheticWorkloadType::kUniform, 300, 300, 1.0);
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  const uint64_t evals = out->stream->evaluations();
  // RunExperiment already finalized; more calls must not re-evaluate.
  out->stream->Finalize(out->sim_end_time + 100);
  out->stream->Finalize(out->sim_end_time + 200);
  EXPECT_EQ(out->stream->evaluations(), evals);
}

// ---------------------------------------------------------------------------
// Hot-key exports: the exact Kfreq ranking
// ---------------------------------------------------------------------------

TEST(StreamExportTest, HotKeysAreTheBatchTopKfreq) {
  std::vector<ExperimentConfig> configs;
  for (auto type :
       {SyntheticWorkloadType::kUniform, SyntheticWorkloadType::kUpdateHeavy}) {
    configs.push_back(StreamingExperiment(type, 3000, 300, 2.0));
  }
  // A 12-key space: fewer failing keys than the export lists, and keys
  // that no failed transaction accessed, which must stay out.
  SyntheticConfig few_keys =
      Workload(SyntheticWorkloadType::kUpdateHeavy, 200, 300);
  few_keys.keyspace = 12;
  configs.push_back(
      MakeSyntheticExperiment(few_keys, NetworkConfig::Defaults()));
  configs.back().stream.enabled = true;

  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    auto out = RunExperiment(configs[i]);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_NE(out->stream, nullptr);
    ExpectHotKeyExportsMatchBatch(*out->stream, out->ledger);
  }
}

// ---------------------------------------------------------------------------
// Sweep determinism extends to stream exports
// ---------------------------------------------------------------------------

// The serial pass runs first, in this process, so the parallel pass
// reuses its interner ids: this cannot catch an export that depends on id
// order. The CI determinism steps compare exports of separate processes
// for that.
TEST(StreamSweepTest, ExportsIdenticalSerialVsParallel) {
  std::vector<ExperimentConfig> configs;
  for (auto type : {SyntheticWorkloadType::kUniform,
                    SyntheticWorkloadType::kUpdateHeavy,
                    SyntheticWorkloadType::kRangeReadHeavy}) {
    configs.push_back(StreamingExperiment(type, 400, 300, 1.0));
  }

  std::vector<std::string> serial;
  for (const auto& cfg : configs) {
    auto out = RunExperiment(cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    serial.push_back(StreamStateJson(*out->stream).Dump());
  }

  auto outputs = SweepRunner(SweepOptions{8}).Run(configs);
  ASSERT_EQ(outputs.size(), serial.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_TRUE(outputs[i].ok()) << outputs[i].status();
    EXPECT_EQ(StreamStateJson(*outputs[i]->stream).Dump(), serial[i])
        << "config " << i;
  }
}

}  // namespace
}  // namespace blockoptr
