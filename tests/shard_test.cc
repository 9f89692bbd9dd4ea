// Multi-channel sharding tests: the epoch-lockstep shard runner's
// determinism and error semantics, deterministic schedule partitioning and
// per-channel seeding, field-for-field identical exports for every
// --sim-threads value, the single-channel golden guard (no epoch machinery,
// no channel labels), fault+stream integration on a sharded run, and
// whole-experiment aggregation (report merge + LogMetrics aggregation).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "driver/channel_run.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "driver/presets.h"
#include "driver/sharded.h"
#include "sim/shard_runner.h"
#include "sim/simulator.h"
#include "stream_hot_keys.h"
#include "telemetry/export.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Simulator epoch primitives
// ---------------------------------------------------------------------------

TEST(SimulatorEpochTest, StepIfBeforeOnlyConsumesEventsInsideTheWindow) {
  Simulator sim;
  std::vector<double> fired;
  sim.ScheduleAt(1.0, [&]() { fired.push_back(1.0); });
  sim.ScheduleAt(3.0, [&]() { fired.push_back(3.0); });
  EXPECT_DOUBLE_EQ(sim.NextEventTime(), 1.0);
  EXPECT_TRUE(sim.StepIfBefore(2.0));
  ASSERT_EQ(fired.size(), 1u);
  // The 3.0s event is beyond the window: declined, and Now() must not
  // advance past the last executed event.
  EXPECT_FALSE(sim.StepIfBefore(2.0));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  EXPECT_DOUBLE_EQ(sim.NextEventTime(), 3.0);
  EXPECT_TRUE(sim.StepIfBefore(3.0));
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_FALSE(sim.StepIfBefore(100.0));  // drained
}

// A deterministic fake shard: processes one integer "event" per unit of
// sim time until `total` events are done.
class CountingShard : public Shard {
 public:
  explicit CountingShard(int total) : total_(total) {}

  Status AdvanceUntil(SimTime epoch_end) override {
    while (done_ < total_ && (done_ + 1) * 1.0 <= epoch_end) {
      ++done_;
      trace_.push_back(epoch_end);
    }
    return Status::OK();
  }
  bool done() const override { return done_ >= total_; }
  SimTime NextTime() const override {
    return done() ? std::numeric_limits<double>::infinity()
                  : (done_ + 1) * 1.0;
  }

  int done_count() const { return done_; }
  const std::vector<double>& trace() const { return trace_; }

 private:
  int total_;
  int done_ = 0;
  std::vector<double> trace_;
};

class FailingShard : public Shard {
 public:
  explicit FailingShard(std::string message) : message_(std::move(message)) {}
  Status AdvanceUntil(SimTime) override {
    return Status::Internal(message_);
  }
  bool done() const override { return false; }
  SimTime NextTime() const override { return 0.0; }

 private:
  std::string message_;
};

TEST(ShardRunnerTest, RunsAllShardsToCompletionForEveryThreadCount) {
  for (int threads : {1, 2, 8}) {
    std::vector<CountingShard> shards;
    shards.reserve(4);
    for (int i = 0; i < 4; ++i) shards.emplace_back(10 + i);
    std::vector<Shard*> ptrs;
    for (auto& s : shards) ptrs.push_back(&s);
    ShardRunnerOptions options;
    options.threads = threads;
    options.epoch_s = 2.0;
    ASSERT_TRUE(RunShards(ptrs, options, nullptr).ok()) << threads;
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(shards[i].done_count(), 10 + i) << threads;
    }
  }
}

TEST(ShardRunnerTest, EpochBoundarySequenceIsIdenticalSerialAndThreaded) {
  auto run = [](int threads) {
    std::vector<CountingShard> shards;
    shards.reserve(3);
    for (int i = 0; i < 3; ++i) shards.emplace_back(7 * (i + 1));
    std::vector<Shard*> ptrs;
    for (auto& s : shards) ptrs.push_back(&s);
    ShardRunnerOptions options;
    options.threads = threads;
    options.epoch_s = 1.5;
    std::vector<double> boundaries;
    EXPECT_TRUE(RunShards(ptrs, options,
                          [&](SimTime t) { boundaries.push_back(t); })
                    .ok());
    std::vector<std::vector<double>> traces;
    for (auto& s : shards) traces.push_back(s.trace());
    return std::make_pair(boundaries, traces);
  };
  auto serial = run(1);
  auto threaded = run(8);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
}

TEST(ShardRunnerTest, FastForwardSkipsEmptyEpochsDeterministically) {
  // One shard with its next event at t=1000: the runner must jump to the
  // covering epoch instead of iterating ~2000 boundaries of 0.5s each.
  class SparseShard : public Shard {
   public:
    Status AdvanceUntil(SimTime epoch_end) override {
      if (!fired_ && 1000.0 <= epoch_end) fired_ = true;
      return Status::OK();
    }
    bool done() const override { return fired_; }
    SimTime NextTime() const override {
      return fired_ ? std::numeric_limits<double>::infinity() : 1000.0;
    }
    bool fired_ = false;
  };
  SparseShard shard;
  ShardRunnerOptions options;
  options.epoch_s = 0.5;
  int boundaries = 0;
  ASSERT_TRUE(RunShards({&shard}, options, [&](SimTime) { ++boundaries; })
                  .ok());
  EXPECT_TRUE(shard.fired_);
  // First boundary at 0.5s, then a single jump to the covering epoch.
  EXPECT_LE(boundaries, 3);
}

TEST(ShardRunnerTest, LowestIndexedErrorWinsAndStopsTheRun) {
  CountingShard healthy(1000000);
  FailingShard bad1("first failure");
  FailingShard bad2("second failure");
  std::vector<Shard*> ptrs = {&healthy, &bad1, &bad2};
  ShardRunnerOptions options;
  options.threads = 3;
  options.epoch_s = 1.0;
  Status st = RunShards(ptrs, options, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("first failure"), std::string::npos);
}

TEST(ShardRunnerTest, RejectsNonPositiveEpochAndAcceptsEmptyShardList) {
  ShardRunnerOptions options;
  options.epoch_s = 0;
  CountingShard s(1);
  EXPECT_FALSE(RunShards({&s}, options, nullptr).ok());
  options.epoch_s = 1.0;
  EXPECT_TRUE(RunShards({}, options, nullptr).ok());
}

TEST(ShardRunnerTest, RejectsAnEpochTheFastForwardCannotCover) {
  // Past 9e18 epochs the runner can no longer jump to a covering epoch
  // and would step one epoch at a time: 36,000 s / 9e18 = 4e-15 s is the
  // shortest epoch the default max_time admits.
  CountingShard shard(1);
  ShardRunnerOptions options;
  for (double epoch : {1e-300, 1e-20, 1e-15}) {
    options.epoch_s = epoch;
    EXPECT_TRUE(RunShards({&shard}, options, nullptr).IsInvalidArgument())
        << epoch;
  }
  EXPECT_EQ(shard.done_count(), 0);  // rejected before the first epoch
  // The bound scales with max_time, and an admitted tiny epoch finishes.
  options.max_time = 2.0;
  options.epoch_s = 1e-18;
  ASSERT_TRUE(RunShards({&shard}, options, nullptr).ok());
  EXPECT_TRUE(shard.done());
}

TEST(ShardRunnerTest, MaxTimeGuardFailsStuckRuns) {
  class StuckShard : public Shard {
   public:
    Status AdvanceUntil(SimTime) override { return Status::OK(); }
    bool done() const override { return false; }
    SimTime NextTime() const override {
      return std::numeric_limits<double>::infinity();
    }
  };
  StuckShard shard;
  ShardRunnerOptions options;
  options.epoch_s = 1.0;
  options.max_time = 10.0;
  Status st = RunShards({&shard}, options, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("max_sim_time"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Partitioning + seeding
// ---------------------------------------------------------------------------

Schedule MakeSchedule(int n) {
  Schedule schedule;
  for (int i = 0; i < n; ++i) {
    ClientRequest req;
    req.send_time = i * 0.01;
    req.chaincode = "synthetic";
    req.function = "Write";
    schedule.push_back(req);
  }
  return schedule;
}

TEST(PartitionScheduleTest, BalancedSplitPreservesEveryRequestInOrder) {
  Schedule schedule = MakeSchedule(1000);
  auto parts = PartitionSchedule(schedule, 4, {});
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (const auto& p : parts) {
    total += p.size();
    for (size_t i = 1; i < p.size(); ++i) {
      EXPECT_LE(p[i - 1].send_time, p[i].send_time);
    }
  }
  EXPECT_EQ(total, schedule.size());
  // Balanced weights -> equal shares.
  for (const auto& p : parts) EXPECT_EQ(p.size(), 250u);
}

TEST(PartitionScheduleTest, WeightsSkewTheSplitProportionally) {
  Schedule schedule = MakeSchedule(700);
  auto parts = PartitionSchedule(schedule, 4, {4, 1, 1, 1});
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 400u);
  EXPECT_EQ(parts[1].size(), 100u);
  EXPECT_EQ(parts[2].size(), 100u);
  EXPECT_EQ(parts[3].size(), 100u);
}

TEST(PartitionScheduleTest, SingleChannelIsAPassThrough) {
  Schedule schedule = MakeSchedule(10);
  auto parts = PartitionSchedule(schedule, 1, {});
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 10u);
}

TEST(ChannelSeedTest, SeedsAreDistinctPerChannelAndDeterministic) {
  std::vector<uint64_t> seeds;
  for (int c = 0; c < 8; ++c) seeds.push_back(ChannelSeed(42, c));
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
    EXPECT_EQ(seeds[i], ChannelSeed(42, static_cast<int>(i)));
  }
  EXPECT_NE(ChannelSeed(42, 0), ChannelSeed(43, 0));
}

TEST(MinCouplingLatencyTest, DerivedFromTheLatencyModel) {
  LatencyModel latency;  // defaults
  double epoch = MinCouplingLatency(latency);
  EXPECT_GE(epoch, 1e-3);
  EXPECT_DOUBLE_EQ(epoch, std::max(latency.client_proposal_s +
                                       latency.network_delay_s +
                                       latency.endorse_exec_s,
                                   1e-3));
}

// ---------------------------------------------------------------------------
// End-to-end sharded experiments
// ---------------------------------------------------------------------------

ExperimentConfig ShardedExperiment(int num_txs, double rate, int channels,
                                   int sim_threads,
                                   const std::string& scheduler = "") {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  wl.send_rate = rate;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.channels = channels;
  cfg.sim_threads = sim_threads;
  cfg.enable_telemetry = true;
  cfg.orderer_scheduler = scheduler;
  return cfg;
}

std::string ReportKey(const PerformanceReport& r) {
  std::ostringstream os;
  os << r.Summary() << '|' << r.Throughput() << '|' << r.AvgLatency();
  return os.str();
}

TEST(ShardedExperimentTest, ExportsAreFieldIdenticalForEveryThreadCount) {
  // FabricSharp builds a conflict graph per block on each shard thread,
  // filling its rwset items' cached key ids as it goes.
  for (const std::string scheduler : {"", "fabricsharp"}) {
    SCOPED_TRACE("scheduler '" + scheduler + "'");
    std::vector<ExperimentOutput> runs;
    for (int threads : {1, 2, 8}) {
      auto out =
          RunExperiment(ShardedExperiment(1200, 300, 4, threads, scheduler));
      ASSERT_TRUE(out.ok()) << out.status();
      ASSERT_EQ(out->channels.size(), 4u);
      runs.push_back(std::move(*out));
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(ReportKey(runs[0].report), ReportKey(runs[i].report));
      EXPECT_EQ(runs[0].events_processed, runs[i].events_processed);
      EXPECT_EQ(runs[0].endorsement_counts, runs[i].endorsement_counts);
      for (size_t c = 0; c < 4; ++c) {
        const auto& a = runs[0].channels[c];
        const auto& b = runs[i].channels[c];
        EXPECT_EQ(ReportKey(a.report), ReportKey(b.report));
        EXPECT_EQ(a.events_processed, b.events_processed);
        EXPECT_DOUBLE_EQ(a.sim_end_time, b.sim_end_time);
        ASSERT_NE(a.telemetry, nullptr);
        ASSERT_NE(b.telemetry, nullptr);
        // Byte-identical telemetry: snapshot JSON and labeled Prometheus.
        EXPECT_EQ(TelemetrySnapshotJson(*a.telemetry).Dump(),
                  TelemetrySnapshotJson(*b.telemetry).Dump());
        std::ostringstream prom_a, prom_b;
        WritePrometheusText(*a.telemetry, prom_a, std::to_string(c));
        WritePrometheusText(*b.telemetry, prom_b, std::to_string(c));
        EXPECT_EQ(prom_a.str(), prom_b.str());
        // The ledgers themselves must match block-for-block.
        EXPECT_EQ(LogToJson(ExtractBlockchainLog(a.ledger)).Dump(),
                  LogToJson(ExtractBlockchainLog(b.ledger)).Dump());
      }
    }
  }
}

TEST(ShardedExperimentTest, TopLevelReportIsTheSumOfTheChannels) {
  auto out = RunExperiment(ShardedExperiment(1000, 300, 4, 2));
  ASSERT_TRUE(out.ok()) << out.status();
  uint64_t committed = 0, events = 0;
  double max_end = 0;
  for (const auto& ch : out->channels) {
    committed += ch.report.total_committed();
    events += ch.events_processed;
    max_end = std::max(max_end, ch.sim_end_time);
  }
  EXPECT_EQ(out->report.total_committed(), committed);
  EXPECT_EQ(out->report.total_committed(), 1000u);
  EXPECT_EQ(out->events_processed, events);
  EXPECT_DOUBLE_EQ(out->sim_end_time, max_end);
  // The merged ledger is intentionally empty: per-channel ledgers carry
  // the blocks.
  EXPECT_EQ(out->ledger.blocks().size(), 0u);
}

TEST(ShardedExperimentTest, SingleChannelBypassesTheEpochMachinery) {
  // channels=1 must take the classic path: no per-channel outputs, no
  // channel label, no coupling gauge — bit-identical to the pre-sharding
  // behaviour (the golden tests pin the actual values).
  ExperimentConfig cfg = ShardedExperiment(600, 300, 1, 4);
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->channels.empty());
  ASSERT_NE(out->telemetry, nullptr);
  std::ostringstream prom;
  WritePrometheusText(*out->telemetry, prom);
  EXPECT_EQ(prom.str().find("channel="), std::string::npos);
  EXPECT_EQ(prom.str().find("client_load_scale"), std::string::npos);

  // And it is deterministic run-to-run.
  auto again = RunExperiment(cfg);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ReportKey(out->report), ReportKey(again->report));
  EXPECT_EQ(out->events_processed, again->events_processed);
}

TEST(ShardedExperimentTest, MultiChannelExportsCarryTheCouplingGauge) {
  auto out = RunExperiment(ShardedExperiment(800, 300, 2, 2));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->channels.size(), 2u);
  ASSERT_NE(out->channels[0].telemetry, nullptr);
  std::ostringstream prom;
  WritePrometheusText(*out->channels[0].telemetry, prom, "0");
  EXPECT_NE(prom.str().find("channel_client_load_scale"),
            std::string::npos);
  EXPECT_NE(prom.str().find("channel=\"0\""), std::string::npos);
}

TEST(ShardedExperimentTest, FaultsAndStreamingAnalysisWorkPerChannel) {
  ExperimentConfig cfg = ShardedExperiment(1500, 300, 2, 2);
  auto plan = ParseFaultPlan("leader-crash");
  ASSERT_TRUE(plan.ok()) << plan.status();
  cfg.faults = *plan;
  cfg.stream.enabled = true;
  cfg.stream.window_s = 2.0;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->channels.size(), 2u);
  EXPECT_FALSE(out->fault_windows.empty());
  for (const auto& ch : out->channels) {
    EXPECT_FALSE(ch.fault_windows.empty());
    ASSERT_NE(ch.stream, nullptr);
    EXPECT_GT(ch.stream->blocks_seen(), 0u);
  }
  EXPECT_EQ(out->report.total_committed(), 1500u);

  // Fault runs stay deterministic across thread counts too.
  cfg.sim_threads = 8;
  auto threaded = RunExperiment(cfg);
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  EXPECT_EQ(ReportKey(out->report), ReportKey(threaded->report));
}

// Each channel's hot-key exports list that channel's exact Kfreq ranking,
// and every stream export is byte-identical for 1 and 4 threads. Both runs
// share this process's interner ids, so the ranking check, not the byte
// equality, is what rules out an export ordered by id.
TEST(ShardedExperimentTest, StreamHotKeysAreExactPerChannelAtEveryThreadCount) {
  std::vector<std::string> dumps;
  for (const int threads : {1, 4}) {
    ExperimentConfig cfg = ShardedExperiment(6000, 300, 4, threads);
    cfg.stream.enabled = true;
    auto out = RunExperiment(cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->channels.size(), 4u);
    std::string dump;
    for (size_t c = 0; c < out->channels.size(); ++c) {
      SCOPED_TRACE("sim_threads " + std::to_string(threads) + ", channel " +
                   std::to_string(c));
      const ExperimentOutput& ch = out->channels[c];
      ASSERT_NE(ch.stream, nullptr);
      ExpectHotKeyExportsMatchBatch(*ch.stream, ch.ledger);
      dump += StreamStateJson(*ch.stream).Dump() + '\n';
    }
    dumps.push_back(std::move(dump));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ShardedExperimentTest, ChannelWeightsSkewPerChannelLoad) {
  ExperimentConfig cfg = ShardedExperiment(700, 300, 4, 1);
  cfg.channel_weights = {4, 1, 1, 1};
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->channels.size(), 4u);
  EXPECT_EQ(out->channels[0].report.total_committed(), 400u);
  EXPECT_EQ(out->channels[1].report.total_committed(), 100u);
}

// Each channel's ring is the smaller of the requested ring and its own
// partition's event bound, so a ring sized for the whole run (as
// --trace-out requests), or for half of it, still loses nothing, and a
// ring below every channel's bound is kept as requested.
TEST(ShardedExperimentTest, WholeRunRingIsSizedPerChannel) {
  ExperimentConfig cfg = ShardedExperiment(2000, 300, 4, 2);
  const uint64_t whole_run = TxTraceEventBound(cfg);
  const std::vector<Schedule> parts =
      PartitionSchedule(cfg.schedule, cfg.channels, cfg.channel_weights);
  for (const uint64_t requested : {whole_run, whole_run / 2, uint64_t{256}}) {
    cfg.telemetry_options.txtrace.ring_capacity =
        static_cast<uint32_t>(requested);
    auto out = RunExperiment(cfg);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->channels.size(), parts.size());
    for (size_t c = 0; c < parts.size(); ++c) {
      const uint64_t bound = TxTraceEventBound(cfg, parts[c].size());
      const TxTraceRecorder* recorder = out->channels[c].telemetry->txtrace();
      ASSERT_NE(recorder, nullptr);
      // The recorder rounds its ring up to a power of two.
      EXPECT_EQ(recorder->options().ring_capacity,
                std::bit_ceil(std::min(requested, bound)))
          << "ring " << requested << ", channel " << c;
      if (requested >= bound) {
        EXPECT_EQ(recorder->events_evicted(), 0u)
            << "ring " << requested << ", channel " << c;
      }
    }
  }
}

TEST(ShardedExperimentTest, InvalidConfigsAreRejected) {
  ExperimentConfig cfg = ShardedExperiment(100, 300, 1, 1);
  EXPECT_FALSE(RunShardedExperiment(cfg).ok());
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

TEST(AggregateMetricsTest, SumsCountsAndRecomputesDerivedRates) {
  auto out = RunExperiment(ShardedExperiment(1000, 300, 4, 2));
  ASSERT_TRUE(out.ok()) << out.status();
  std::vector<LogMetrics> per_channel;
  for (const auto& ch : out->channels) {
    per_channel.push_back(
        ComputeMetrics(ExtractBlockchainLog(ch.ledger), MetricsOptions{}));
  }
  LogMetrics merged = AggregateMetrics(per_channel);
  uint64_t txs = 0, failed = 0, blocks = 0;
  double max_duration = 0;
  for (const auto& m : per_channel) {
    txs += m.total_txs;
    failed += m.failed_txs;
    blocks += m.num_blocks;
    max_duration = std::max(max_duration, m.duration_s);
  }
  EXPECT_EQ(merged.total_txs, txs);
  EXPECT_EQ(merged.total_txs, 1000u);
  EXPECT_EQ(merged.failed_txs, failed);
  EXPECT_EQ(merged.num_blocks, blocks);
  EXPECT_DOUBLE_EQ(merged.duration_s, max_duration);
  // Derived rates are recomputed from the merged totals, not averaged.
  if (max_duration > 0) {
    EXPECT_NEAR(merged.tr, txs / max_duration, 1e-9);
  }
  if (blocks > 0) {
    EXPECT_NEAR(merged.b_sizeavg, static_cast<double>(txs) / blocks, 1e-9);
  }
  EXPECT_TRUE(AggregateMetrics({}).total_txs == 0);
}

TEST(PerformanceReportMergeTest, CountersAndSpanCombineAcrossRealRuns) {
  // Two independent single-channel runs merged by hand must sum counters
  // and union the wall span, exactly as the sharded driver does.
  auto a = RunExperiment(ShardedExperiment(300, 300, 1, 1));
  auto b = RunExperiment(ShardedExperiment(500, 300, 1, 1));
  ASSERT_TRUE(a.ok() && b.ok());
  PerformanceReport merged = a->report;
  merged.Merge(b->report);
  EXPECT_EQ(merged.total_committed(),
            a->report.total_committed() + b->report.total_committed());
  EXPECT_EQ(merged.successful(),
            a->report.successful() + b->report.successful());
  EXPECT_EQ(merged.failed(), a->report.failed() + b->report.failed());
  EXPECT_GE(merged.duration(),
            std::max(a->report.duration(), b->report.duration()));
  EXPECT_NEAR(merged.AvgLatency(),
              (a->report.AvgLatency() * a->report.successful() +
               b->report.AvgLatency() * b->report.successful()) /
                  (a->report.successful() + b->report.successful()),
              1e-9);
}

TEST(PerformanceReportMergeTest, PerChannelTailsSurviveTheMerge) {
  auto out = RunExperiment(ShardedExperiment(1200, 300, 4, 2));
  ASSERT_TRUE(out.ok()) << out.status();
  const auto& tails = out->report.channel_tails();
  ASSERT_EQ(tails.size(), out->channels.size());
  for (size_t c = 0; c < out->channels.size(); ++c) {
    // Channel c's recorded tail must equal the quantiles its own leaf
    // report computes — the merged tracker pools every channel's samples,
    // so these are unrecoverable from the merged report itself.
    PerformanceReport leaf = out->channels[c].report;  // Percentile() sorts
    EXPECT_DOUBLE_EQ(tails[c].p50_s, leaf.LatencyPercentile(50)) << c;
    EXPECT_DOUBLE_EQ(tails[c].p95_s, leaf.LatencyPercentile(95)) << c;
    EXPECT_DOUBLE_EQ(tails[c].p99_s, leaf.LatencyPercentile(99)) << c;
    EXPECT_DOUBLE_EQ(tails[c].max_s, leaf.MaxLatency()) << c;
    EXPECT_EQ(tails[c].successful, leaf.successful()) << c;
    EXPECT_LE(tails[c].p50_s, tails[c].p95_s) << c;
    EXPECT_LE(tails[c].p95_s, tails[c].p99_s) << c;
    EXPECT_LE(tails[c].p99_s, tails[c].max_s) << c;
  }
  // A leaf (never-merged) report records no tails, and merging two
  // already-merged reports concatenates theirs instead of re-pooling.
  EXPECT_TRUE(out->channels[0].report.channel_tails().empty());
  PerformanceReport doubled = out->report;
  doubled.Merge(out->report);
  EXPECT_EQ(doubled.channel_tails().size(), 2 * tails.size());
}

}  // namespace
}  // namespace blockoptr
