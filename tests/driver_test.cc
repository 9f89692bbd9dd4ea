#include <gtest/gtest.h>

#include "driver/client_manager.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "driver/report.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// PerformanceReport
// ---------------------------------------------------------------------------

Transaction CommittedTx(TxStatus status, double sent, double committed) {
  Transaction tx;
  tx.status = status;
  tx.client_timestamp = sent;
  tx.commit_timestamp = committed;
  return tx;
}

TEST(ReportTest, CountsByStatus) {
  PerformanceReport report;
  report.RecordCommit(CommittedTx(TxStatus::kValid, 0.0, 1.0));
  report.RecordCommit(CommittedTx(TxStatus::kValid, 0.5, 1.5));
  report.RecordCommit(CommittedTx(TxStatus::kMvccReadConflict, 1.0, 2.0));
  report.RecordCommit(CommittedTx(TxStatus::kPhantomReadConflict, 1.0, 2.0));
  report.RecordCommit(
      CommittedTx(TxStatus::kEndorsementPolicyFailure, 1.0, 2.0));
  report.RecordEarlyAbort();
  report.Finish(2.0);

  EXPECT_EQ(report.total_committed(), 5u);
  EXPECT_EQ(report.successful(), 2u);
  EXPECT_EQ(report.mvcc_failures(), 1u);
  EXPECT_EQ(report.phantom_failures(), 1u);
  EXPECT_EQ(report.endorsement_failures(), 1u);
  EXPECT_EQ(report.early_aborts(), 1u);
  EXPECT_EQ(report.failed(), 3u);
  EXPECT_DOUBLE_EQ(report.SuccessRate(), 0.4);
  EXPECT_DOUBLE_EQ(report.Throughput(), 1.0);  // 2 successes over 2s
  EXPECT_DOUBLE_EQ(report.AvgLatency(), 1.0);
}

TEST(ReportTest, ConfigTransactionsDoNotCount) {
  PerformanceReport report;
  Transaction cfg = CommittedTx(TxStatus::kConfig, 0, 0);
  report.RecordCommit(cfg);
  EXPECT_EQ(report.total_committed(), 0u);
}

TEST(ReportTest, EmptyReportIsZero) {
  PerformanceReport report;
  EXPECT_DOUBLE_EQ(report.SuccessRate(), 0.0);
  EXPECT_DOUBLE_EQ(report.Throughput(), 0.0);
  EXPECT_DOUBLE_EQ(report.AvgLatency(), 0.0);
}

TEST(ReportTest, EmptyRunDurationIsZeroEvenAfterFinish) {
  // Finish() on a run that never recorded a commit must not produce a
  // negative duration (end_time - uninitialized first_send) or a bogus
  // throughput from dividing by it.
  PerformanceReport report;
  report.Finish(7.5);
  EXPECT_DOUBLE_EQ(report.duration(), 0.0);
  EXPECT_DOUBLE_EQ(report.Throughput(), 0.0);
}

TEST(ReportTest, EarlyAbortsAloneDoNotStartTheClock) {
  PerformanceReport report;
  report.RecordEarlyAbort();
  report.Finish(3.0);
  EXPECT_DOUBLE_EQ(report.duration(), 0.0);
  EXPECT_DOUBLE_EQ(report.Throughput(), 0.0);
}

TEST(ReportTest, DurationSpansEarliestSendToFinish) {
  PerformanceReport report;
  report.RecordCommit(CommittedTx(TxStatus::kValid, 2.0, 3.0));
  report.RecordCommit(CommittedTx(TxStatus::kValid, 0.5, 4.0));
  report.Finish(4.0);
  EXPECT_DOUBLE_EQ(report.duration(), 3.5);
}

TEST(ReportTest, PercentilesFromLatencies) {
  PerformanceReport report;
  for (int i = 1; i <= 100; ++i) {
    report.RecordCommit(CommittedTx(TxStatus::kValid, 0.0, i * 0.01));
  }
  report.Finish(1.0);
  EXPECT_NEAR(report.LatencyPercentile(50), 0.50, 0.011);
  EXPECT_NEAR(report.LatencyPercentile(99), 0.99, 0.011);
  EXPECT_NEAR(report.MaxLatency(), 1.0, 1e-9);
}

TEST(ReportTest, SummaryMentionsKeyNumbers) {
  PerformanceReport report;
  report.RecordCommit(CommittedTx(TxStatus::kValid, 0.0, 1.0));
  report.Finish(1.0);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("success=100.0%"), std::string::npos);
  EXPECT_NE(summary.find("committed=1"), std::string::npos);
}

TEST(RelativeImprovementTest, Directions) {
  EXPECT_DOUBLE_EQ(RelativeImprovement(100, 120), 0.2);
  EXPECT_DOUBLE_EQ(RelativeImprovement(100, 80), -0.2);
  // Lower-is-better (latency): a drop is an improvement.
  EXPECT_DOUBLE_EQ(RelativeImprovement(2.0, 1.0, true), 0.5);
  EXPECT_DOUBLE_EQ(RelativeImprovement(0, 5), 0.0);
}

// ---------------------------------------------------------------------------
// ClientManager
// ---------------------------------------------------------------------------

TEST(ClientManagerTest, NoSettingsIsIdentity) {
  SyntheticConfig wl;
  wl.num_txs = 50;
  Schedule s = GenerateSynthetic(wl);
  Schedule prepared = ClientManager::Prepare(s, ClientManagerSettings{});
  ASSERT_EQ(prepared.size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(prepared[i].function, s[i].function);
    EXPECT_DOUBLE_EQ(prepared[i].send_time, s[i].send_time);
  }
}

TEST(ClientManagerTest, ReorderingPreservesRateAndCount) {
  SyntheticConfig wl;
  wl.num_txs = 300;
  Schedule s = GenerateSynthetic(wl);
  ClientManagerSettings settings;
  settings.activities_last = {"Read", "RangeRead"};
  Schedule prepared = ClientManager::Prepare(s, settings);
  ASSERT_EQ(prepared.size(), s.size());
  EXPECT_NEAR(ScheduleRate(prepared), ScheduleRate(s), 2.0);
  // All reads must come after the last non-read.
  size_t last_other = 0, first_read = prepared.size();
  for (size_t i = 0; i < prepared.size(); ++i) {
    bool is_read = prepared[i].function == "Read" ||
                   prepared[i].function == "RangeRead";
    if (is_read) first_read = std::min(first_read, i);
    else last_other = std::max(last_other, i);
  }
  EXPECT_GT(first_read, last_other);
}

TEST(ClientManagerTest, RateCapSlowsSchedule) {
  SyntheticConfig wl;
  wl.num_txs = 300;
  wl.send_rate = 300;
  Schedule s = GenerateSynthetic(wl);
  ClientManagerSettings settings;
  settings.rate_cap_tps = 100;
  Schedule prepared = ClientManager::Prepare(s, settings);
  EXPECT_NEAR(ScheduleRate(prepared), 100.0, 1.0);
}

// ---------------------------------------------------------------------------
// RunExperiment
// ---------------------------------------------------------------------------

ExperimentConfig SmallExperiment(int num_txs = 300) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.chaincodes = {"genchain"};
  for (auto& [k, v] : SyntheticSeedState(wl)) {
    cfg.seeds.push_back(SeedEntry{"genchain", k, v});
  }
  cfg.schedule = GenerateSynthetic(wl);
  return cfg;
}

TEST(ExperimentTest, RunsToCompletion) {
  auto out = RunExperiment(SmallExperiment());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->report.total_committed() + out->report.early_aborts(), 300u);
  EXPECT_GT(out->report.SuccessRate(), 0.2);
  EXPECT_GT(out->ledger.NumBlocks(), 1u);
  EXPECT_TRUE(out->ledger.VerifyChain().ok());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentConfig cfg = SmallExperiment();
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->report.successful(), b->report.successful());
  EXPECT_EQ(a->report.mvcc_failures(), b->report.mvcc_failures());
  EXPECT_DOUBLE_EQ(a->report.AvgLatency(), b->report.AvgLatency());
  EXPECT_EQ(a->ledger.NumBlocks(), b->ledger.NumBlocks());
}

TEST(ExperimentTest, UnknownChaincodeInScheduleFails) {
  ExperimentConfig cfg = SmallExperiment(10);
  cfg.schedule[5].chaincode = "missing";
  auto out = RunExperiment(cfg);
  EXPECT_FALSE(out.ok());
}

TEST(ExperimentTest, UnknownRegistryNameFails) {
  ExperimentConfig cfg = SmallExperiment(10);
  cfg.chaincodes.push_back("not-registered");
  auto out = RunExperiment(cfg);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsNotFound());
}

TEST(ExperimentTest, UnknownSchedulerFails) {
  ExperimentConfig cfg = SmallExperiment(10);
  cfg.orderer_scheduler = "magic";
  auto out = RunExperiment(cfg);
  EXPECT_FALSE(out.ok());
}

TEST(ExperimentTest, NoOrganizationsFails) {
  ExperimentConfig cfg = SmallExperiment(10);
  cfg.network.num_orgs = 0;
  auto out = RunExperiment(cfg);
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status();
}

TEST(ExperimentTest, OrganizationWithoutClientFails) {
  ExperimentConfig cfg = SmallExperiment(10);
  cfg.network.num_orgs = 11;  // 10 clients round-robin: Org11 gets none
  auto out = RunExperiment(cfg);
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status();
}

TEST(ExperimentTest, FaultOnMissingTargetFails) {
  for (const char* spec : {"endorser-slow@org=9", "endorser-outage@org=5",
                           "node-crash@node=9"}) {
    ExperimentConfig cfg = SmallExperiment(10);
    auto plan = ParseFaultPlan(spec);
    ASSERT_TRUE(plan.ok()) << plan.status();
    cfg.faults = *plan;
    auto out = RunExperiment(cfg);
    EXPECT_TRUE(out.status().IsInvalidArgument()) << spec << ": "
                                                  << out.status();
  }
}

// Arrivals are queued one at a time, so the queue holds in-flight work
// only, not the 5,000 scheduled requests.
TEST(ExperimentTest, QueuePeakIsInFlightWorkNotWorkloadSize) {
  auto out = RunExperiment(SmallExperiment(5000));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_LT(out->queue_peak, 1000u);
}

// The ledger is handed over by move, so its vectors must be exact-size to
// be as compact as a copy.
TEST(ExperimentTest, LedgerVectorsAreExactSize) {
  auto out = RunExperiment(SmallExperiment(2000));
  ASSERT_TRUE(out.ok()) << out.status();
  size_t range_queries = 0;
  for (const Block& block : out->ledger.blocks()) {
    EXPECT_EQ(block.transactions.capacity(), block.transactions.size());
    for (const Transaction& tx : block.transactions) {
      for (const RangeQueryInfo& rq : tx.rwset.range_queries) {
        EXPECT_EQ(rq.results.capacity(), rq.results.size());
        ++range_queries;
      }
    }
  }
  EXPECT_GT(range_queries, 0u);
}

TEST(ExperimentTest, FabricPPSchedulerRuns) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.orderer_scheduler = "fabricpp";
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->report.total_committed(), 300u);
}

TEST(ExperimentTest, FabricSharpSchedulerRuns) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.orderer_scheduler = "fabricsharp";
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->report.total_committed(), 300u);
}

TEST(ExperimentTest, RateControlReducesFailures) {
  ExperimentConfig base = SmallExperiment(1500);
  auto baseline = RunExperiment(base);
  ASSERT_TRUE(baseline.ok());

  ExperimentConfig controlled = base;
  controlled.client_manager.rate_cap_tps = 100;
  auto capped = RunExperiment(controlled);
  ASSERT_TRUE(capped.ok());

  EXPECT_GT(capped->report.SuccessRate(), baseline->report.SuccessRate());
}

TEST(ExperimentTest, EndorsementCountsArePopulated) {
  auto out = RunExperiment(SmallExperiment());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->endorsement_counts.size(), 2u);  // both orgs under P3/2
  for (const auto& [org, count] : out->endorsement_counts) {
    (void)org;
    EXPECT_GT(count, 0u);
  }
}

}  // namespace
}  // namespace blockoptr
