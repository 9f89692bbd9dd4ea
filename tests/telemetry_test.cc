#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "sim/simulator.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/txtrace.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry reg;
  reg.counter("a.total").Increment();
  reg.counter("a.total").Increment(4);
  EXPECT_EQ(reg.counter("a.total").value(), 5u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(MetricsTest, RepeatedLookupReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& first = reg.counter("x");
  reg.counter("y").Increment();  // map growth must not invalidate `first`
  first.Increment();
  EXPECT_EQ(reg.counter("x").value(), 1u);
  EXPECT_EQ(&reg.counter("x"), &first);
}

TEST(MetricsTest, GaugeTracksExtremes) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.Set(3);
  g.Set(10);
  g.Set(5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.min(), 3.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
  g.Add(-7);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
}

TEST(MetricsTest, UntouchedGaugeIsAllZero) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.min(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);  // <= 1.0
  h.Observe(1.0);  // exactly on a bound -> that bucket, not the next
  h.Observe(1.5);  // <= 2.0
  h.Observe(100);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 103.0 / 4.0);
}

TEST(MetricsTest, EmptyHistogramMeanIsZero) {
  Histogram h(MetricsRegistry::RatioBounds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(MetricsTest, EmptyHistogramQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(MetricsTest, QuantileInterpolatesWithinABucket) {
  Histogram h({1.0, 2.0, 5.0});
  // 10 observations, all in the (1, 2] bucket.
  for (int i = 0; i < 10; ++i) h.Observe(1.5);
  // The q-th observation interpolates across the bucket's [1, 2] range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
  EXPECT_NEAR(h.Quantile(0.1), 1.1, 1e-9);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.Quantile(-1), h.Quantile(0));
  EXPECT_DOUBLE_EQ(h.Quantile(2), h.Quantile(1));
}

TEST(MetricsTest, QuantileFirstBucketInterpolatesFromZero) {
  Histogram h({4.0, 8.0});
  h.Observe(1);
  h.Observe(2);  // both land in the first bucket: [0, 4]
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);  // 0 + 4 * (1/2)
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
}

TEST(MetricsTest, QuantileInOverflowBucketClampsToLastBound) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(100);  // overflow bucket, unbounded above
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
  // A quantile resolved below the overflow bucket still interpolates.
  EXPECT_LE(h.Quantile(0.25), 1.0);
}

TEST(MetricsTest, GaugeSnapshotEmitsNullExtremesWhenNeverSet) {
  MetricsRegistry reg;
  reg.gauge("never.set");
  reg.gauge("set.to.zero").Set(0);
  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  // Never-set: min/max are null, so "absent" and "genuinely 0" differ.
  EXPECT_TRUE((*parsed)["gauges"]["never.set"]["min"].is_null());
  EXPECT_TRUE((*parsed)["gauges"]["never.set"]["max"].is_null());
  // Set-to-zero: real numeric extremes.
  EXPECT_TRUE((*parsed)["gauges"]["set.to.zero"]["min"].is_number());
  EXPECT_EQ((*parsed)["gauges"]["set.to.zero"]["max"].as_number(), 0);
}

TEST(MetricsTest, SnapshotJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("orderer.blocks_cut_total").Increment(3);
  reg.gauge("endorser.queue_depth").Set(0.25);
  reg.histogram("orderer.block_fill_ratio", MetricsRegistry::RatioBounds())
      .Observe(0.5);

  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["counters"]["orderer.blocks_cut_total"].as_number(), 3);
  EXPECT_EQ((*parsed)["gauges"]["endorser.queue_depth"]["value"].as_number(),
            0.25);
  const JsonValue& hist = (*parsed)["histograms"]["orderer.block_fill_ratio"];
  EXPECT_EQ(hist["count"].as_number(), 1);
  EXPECT_EQ(hist["buckets"].as_array().size(),
            hist["bounds"].as_array().size() + 1);
}

TEST(MetricsTest, EmptyRegistry) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  reg.counter("c");
  EXPECT_FALSE(reg.empty());
}

// ---------------------------------------------------------------------------
// The flight recorder's ring exports (--trace-out / --trace-csv) and
// critical-path table
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

/// `cfg` run with default telemetry and a ring that keeps the whole run,
/// as the CLI sizes it for --trace-out / --trace-csv.
ExperimentOutput RunFullyTraced(ExperimentConfig cfg) {
  cfg.enable_telemetry = true;
  cfg.telemetry_options.txtrace.ring_capacity =
      static_cast<uint32_t>(TxTraceEventBound(cfg));
  auto out = RunExperiment(cfg);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? std::move(*out) : ExperimentOutput{};
}

/// The ring's Chrome trace, parsed; `slices` gets every non-metadata event.
JsonValue ParsedRingTrace(const TxTraceRecorder& rec,
                          std::vector<JsonValue>* slices) {
  std::ostringstream out;
  WriteTxTraceRingChromeTrace(rec, out);
  auto parsed = JsonValue::Parse(out.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return JsonValue();
  for (const JsonValue& ev : (*parsed)["traceEvents"].as_array()) {
    if (ev["ph"].as_string() != "M") slices->push_back(ev);
  }
  return *parsed;
}

TEST(TraceRecorderTest, SpansAreStampedWithVirtualTime) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  const TxTraceRecorder& rec = *out.telemetry->txtrace();
  std::vector<JsonValue> slices;
  ParsedRingTrace(rec, &slices);
  // One slice per event, in ring order, on the transaction's thread: its
  // service time is a complete slice ending at the event's virtual time
  // (seconds map to microseconds), a zero-cost transition an instant.
  ASSERT_EQ(slices.size(), rec.events_appended());
  size_t i = 0;
  rec.ForEachRetained([&](uint64_t, const TxTraceEvent& ev) {
    const JsonValue& slice = slices[i++];
    const double dur = ev.dur;
    EXPECT_EQ(slice["tid"].as_number(), static_cast<double>(ev.tx_id));
    EXPECT_EQ(slice["ts"].as_number(), (ev.t - dur) * 1e6);
    EXPECT_EQ(slice["ph"].as_string(), dur > 0 ? "X" : "i");
    if (dur > 0) {
      EXPECT_EQ(slice["dur"].as_number(), dur * 1e6);
    }
  });
}

TEST(TraceRecorderTest, ChromeTraceExportIsValidAndComplete) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  std::vector<JsonValue> slices;
  JsonValue trace = ParsedRingTrace(*out.telemetry->txtrace(), &slices);
  EXPECT_EQ(trace["displayTimeUnit"].as_string(), "ms");
  // Process metadata leads, one process per simulated component.
  std::set<std::string> processes;
  for (const JsonValue& ev : trace["traceEvents"].as_array()) {
    if (ev["ph"].as_string() != "M") break;
    processes.insert(ev["args"]["name"].as_string());
  }
  EXPECT_EQ(processes.size() + slices.size(),
            trace["traceEvents"].as_array().size());
  for (const char* component :
       {"client/0", "peer/Org1/endorser", "orderer", "orderer/raft",
        "peer/Org2/validator", "ledger"}) {
    EXPECT_TRUE(processes.count(component)) << component;
  }
}

TEST(TraceRecorderTest, CsvExportHasHeaderAndRows) {
  Simulator sim;
  TxTraceOptions opt;
  opt.ring_capacity = 16;
  TxTraceRecorder rec(&sim, opt);
  for (uint64_t id = 1; id <= 40; ++id) rec.TxEvent(id, TxStage::kSubmit, 3);
  // The header, then one row per retained event: the last 16 of 40, oldest
  // first, each keyed by its append index.
  std::ostringstream out;
  WriteTxTraceRingCsv(rec, out);
  std::istringstream in(out.str());
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 17u);
  EXPECT_EQ(rows[0], "seq,tx_id,stage,t_s,dur_s,actor,block_seq,flags");
  EXPECT_EQ(rows[1], "24,25,submit,0.000000000,0.000000000,3,0,0");
  EXPECT_EQ(rows[16].rfind("39,40,", 0), 0u);
}

TEST(StageBreakdownTest, GroupsByCategoryInPipelineOrder) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  // One row per critical-path stage, in pipeline order, under the HTML
  // report's column headings; nothing without a committed transaction.
  const std::string table =
      FormatCriticalPathTable(out.telemetry->txtrace()->summary());
  EXPECT_EQ(table.rfind("stage       share  wait share", 0), 0u);
  size_t last = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    const size_t at = table.find(std::string("\n") + CriticalStageName(i));
    ASSERT_NE(at, std::string::npos) << CriticalStageName(i);
    EXPECT_GT(at, last);
    last = at;
  }
  EXPECT_EQ(FormatCriticalPathTable(TxTraceSummary{}), "");
}

// ---------------------------------------------------------------------------
// End-to-end: a traced experiment
// ---------------------------------------------------------------------------

TEST(TracedExperimentTest, CoversThePipelineStages) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  std::vector<JsonValue> slices;
  ParsedRingTrace(*out.telemetry->txtrace(), &slices);
  std::set<std::string> seen;
  for (const JsonValue& slice : slices) seen.insert(slice["name"].as_string());
  // A slice for every stage a healthy run produces.
  for (TxStage stage :
       {TxStage::kSubmit, TxStage::kProposalDone, TxStage::kEndorseStart,
        TxStage::kEndorseDone, TxStage::kCollect, TxStage::kAssembleDone,
        TxStage::kOrdererEnqueue, TxStage::kBlockCut, TxStage::kRaftPropose,
        TxStage::kRaftReplicate, TxStage::kRaftCommit,
        TxStage::kValidateStart, TxStage::kValidateDone, TxStage::kCommit}) {
    EXPECT_TRUE(seen.count(TxStageName(stage))) << TxStageName(stage);
  }
}

TEST(TracedExperimentTest, SpanLatencyMatchesLedgerLatencyExactly) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  std::map<uint64_t, double> submit_t, commit_t;
  out.telemetry->txtrace()->ForEachRetained(
      [&](uint64_t, const TxTraceEvent& ev) {
        if (ev.stage == TxStage::kSubmit) submit_t[ev.tx_id] = ev.t;
        if (ev.stage == TxStage::kCommit) commit_t[ev.tx_id] = ev.t;
      });
  size_t checked = 0;
  out.ledger.ForEachTransaction([&](const Block&, const Transaction& tx) {
    if (tx.is_config || tx.status != TxStatus::kValid) return;
    ASSERT_TRUE(submit_t.count(tx.tx_id)) << "tx " << tx.tx_id;
    ASSERT_TRUE(commit_t.count(tx.tx_id)) << "tx " << tx.tx_id;
    // Events are stamped with the same Simulator::Now() values the ledger
    // records, so this holds with exact double equality.
    EXPECT_EQ(submit_t[tx.tx_id], tx.client_timestamp);
    EXPECT_EQ(commit_t[tx.tx_id], tx.commit_timestamp);
    ++checked;
  });
  EXPECT_EQ(checked, out.report.successful());
  EXPECT_GT(checked, 0u);
}

TEST(TracedExperimentTest, ComponentMetricsArePopulated) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();

  MetricsRegistry& m = out->telemetry->metrics();
  EXPECT_EQ(m.counter("ledger.txs_committed_total").value(),
            out->report.total_committed());
  EXPECT_GT(m.counter("client.requests_total").value(), 0u);
  EXPECT_GT(m.counter("endorser.proposals_total").value(), 0u);
  EXPECT_GT(m.counter("orderer.blocks_cut_total").value(), 0u);
  EXPECT_GT(m.counter("raft.proposals_total").value(), 0u);
  EXPECT_GT(m.counter("raft.commits_total").value(), 0u);
  EXPECT_GT(m.counter("validator.blocks_validated_total").value(), 0u);
  EXPECT_GT(m.histogram("orderer.block_fill_ratio").count(), 0u);
  EXPECT_EQ(m.counter("validator.valid_total").value() > 0 ||
                m.counter("validator.mvcc_conflicts").value() > 0,
            true);

  auto parsed = JsonValue::Parse(m.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
}

TEST(TracedExperimentTest, TelemetryDoesNotPerturbTheSimulation) {
  ExperimentConfig cfg = SmallExperiment();
  auto off = RunExperiment(cfg);
  cfg.enable_telemetry = true;
  auto on = RunExperiment(cfg);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  // The traced run must be byte-identical in outcome: telemetry only
  // observes — the sampler's tick events read state but never change
  // component behavior or timing.
  EXPECT_EQ(off->report.Summary(), on->report.Summary());
  EXPECT_EQ(off->ledger.NumBlocks(), on->ledger.NumBlocks());
  EXPECT_DOUBLE_EQ(off->sim_end_time, on->sim_end_time);
  EXPECT_EQ(off->telemetry, nullptr);
}

TEST(TracedExperimentTest, NoSpanLeftOpenAtTheEnd) {
  ExperimentOutput out = RunFullyTraced(SmallExperiment());
  // Every transaction the run submitted closes with a commit or an early
  // abort.
  std::map<uint64_t, int> open;
  out.telemetry->txtrace()->ForEachRetained(
      [&](uint64_t, const TxTraceEvent& ev) {
        if (ev.stage == TxStage::kSubmit) ++open[ev.tx_id];
        if (ev.stage == TxStage::kCommit || ev.stage == TxStage::kEarlyAbort) {
          --open[ev.tx_id];
        }
      });
  EXPECT_EQ(open.size(), SmallExperiment().schedule.size());
  for (const auto& [tx_id, balance] : open) EXPECT_EQ(balance, 0) << tx_id;
}

TEST(TracedExperimentTest, RunSizedRingEvictsNothing) {
  // At 10k transactions the default 65,536-event ring evicts; the
  // run-sized one keeps a healthy run and a leader-crash run (whose new
  // leader re-proposes blocks) whole.
  ExperimentConfig healthy = SmallExperiment(10000);
  ExperimentConfig crashed = healthy;
  auto plan = ParseFaultPlan("leader-crash");
  ASSERT_TRUE(plan.ok()) << plan.status();
  crashed.faults = *plan;
  for (const ExperimentConfig& cfg : {healthy, crashed}) {
    ExperimentOutput out = RunFullyTraced(cfg);
    const TxTraceRecorder& rec = *out.telemetry->txtrace();
    EXPECT_EQ(rec.events_evicted(), 0u);
    EXPECT_LE(rec.events_appended(), TxTraceEventBound(cfg));
  }
  healthy.enable_telemetry = true;
  auto out = RunExperiment(healthy);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->telemetry->txtrace()->events_evicted(), 0u);
}

}  // namespace
}  // namespace blockoptr
