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
#include "driver/presets.h"
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
  Histogram h(Histogram::RatioBounds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
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
  reg.histogram("orderer.block_fill_ratio", Histogram::RatioBounds())
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
  auto parsed = JsonValue::Parse(reg.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["counters"].as_object().empty());
  EXPECT_TRUE((*parsed)["gauges"].as_object().empty());
  EXPECT_TRUE((*parsed)["histograms"].as_object().empty());
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

/// The config `blockoptr run --txs=N --rate=R --block-count=B
/// --metrics-out=F` builds (uniform workload, seed 1).
ExperimentConfig CliExperiment(int num_txs, double rate = 300,
                               uint32_t block_count = 300) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  wl.send_rate = rate;
  NetworkConfig net = NetworkConfig::Defaults();
  net.seed = 42;
  net.block_cutting.max_tx_count = block_count;
  net.block_cutting.timeout_s = 1.0;
  ExperimentConfig cfg = MakeSyntheticExperiment(wl, net);
  cfg.enable_telemetry = true;
  return cfg;
}

ExperimentOutput RunOk(const ExperimentConfig& cfg) {
  auto out = RunExperiment(cfg);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? std::move(*out) : ExperimentOutput{};
}

std::set<std::string> CounterNames(const MetricsRegistry& m) {
  std::set<std::string> names;
  for (const auto& [name, c] : m.counters()) names.insert(name);
  return names;
}

TEST(TracedExperimentTest, ComponentMetricsArePopulated) {
  ExperimentConfig cfg = SmallExperiment();
  cfg.enable_telemetry = true;
  const ExperimentOutput out = RunOk(cfg);
  ASSERT_NE(out.telemetry, nullptr);

  // Each counter equals the number the run already keeps.
  const MetricsRegistry& m = out.telemetry->metrics();
  auto counter = [&m](const std::string& name) {
    auto it = m.counters().find(name);
    EXPECT_NE(it, m.counters().end()) << name;
    return it == m.counters().end() ? ~uint64_t{0} : it->second.value();
  };
  const PerformanceReport& report = out.report;
  const uint64_t blocks = out.ledger.NumBlocks() - 1;  // past genesis
  uint64_t proposals = 0;
  for (const auto& [org, n] : out.endorsement_counts) proposals += n;
  ASSERT_GT(blocks, 0u);
  EXPECT_EQ(counter("client_manager.scheduled_total"), cfg.schedule.size());
  EXPECT_EQ(counter("client.requests_total"), cfg.schedule.size());
  EXPECT_EQ(counter("endorser.proposals_total"), proposals);
  EXPECT_EQ(counter("orderer.txs_submitted_total"), report.total_committed());
  EXPECT_EQ(counter("ledger.txs_committed_total"), report.total_committed());
  EXPECT_EQ(counter("ledger.blocks_total"), blocks);
  for (const char* name :
       {"orderer.blocks_cut_total", "raft.proposals_total",
        "raft.commits_total", "validator.blocks_validated_total",
        "peer.Org1.blocks_applied_total", "peer.Org2.blocks_applied_total"}) {
    EXPECT_EQ(counter(name), blocks) << name;
  }
  EXPECT_EQ(counter("peer.Org1.txs_applied_total"), report.total_committed());
  EXPECT_EQ(counter("validator.valid_total"), report.successful());
  EXPECT_EQ(counter("validator.mvcc_conflicts"), report.mvcc_failures());
  EXPECT_EQ(counter("validator.phantom_conflicts"),
            report.phantom_failures());
  EXPECT_EQ(counter("validator.endorsement_failures"),
            report.endorsement_failures());
  EXPECT_EQ(counter("raft.elections_total"), 1u);
  EXPECT_GT(counter("raft.messages_total"), 0u);
  EXPECT_EQ(m.histograms().at("orderer.block_fill_ratio").count(), blocks);

  // Station gauges: the extremes are the waits jobs met, the value is the
  // backlog left when the last transaction committed.
  const Gauge& endorsers = m.gauges().at("endorser.queue_depth");
  EXPECT_EQ(endorsers.min(), 0.0);
  EXPECT_GT(endorsers.max(), 0.0);
  EXPECT_EQ(endorsers.value(), 0.0);

  auto parsed = JsonValue::Parse(m.SnapshotJson().Dump());
  ASSERT_TRUE(parsed.ok());
}

TEST(TracedExperimentTest, MetricFamiliesAppearOnceTheirEventHappened) {
  // A run without transactions has only the client manager's count.
  const ExperimentOutput empty = RunOk(CliExperiment(0));
  ASSERT_NE(empty.telemetry, nullptr);
  const MetricsRegistry& none = empty.telemetry->metrics();
  EXPECT_EQ(CounterNames(none),
            std::set<std::string>{"client_manager.scheduled_total"});
  EXPECT_EQ(none.counters().at("client_manager.scheduled_total").value(), 0u);
  EXPECT_TRUE(none.histograms().empty());

  // One transaction: every family of a healthy run, validator outcomes
  // included at zero; no election beyond the first, no abort, no outage.
  const ExperimentOutput one = RunOk(CliExperiment(1));
  ASSERT_NE(one.telemetry, nullptr);
  const MetricsRegistry& m = one.telemetry->metrics();
  const std::set<std::string> expected = {
      "client.requests_total", "client_manager.scheduled_total",
      "endorser.proposals_total", "ledger.blocks_total",
      "ledger.txs_committed_total", "orderer.blocks_cut_total",
      "orderer.txs_submitted_total", "peer.Org1.blocks_applied_total",
      "peer.Org1.txs_applied_total", "peer.Org2.blocks_applied_total",
      "peer.Org2.txs_applied_total", "raft.commits_total",
      "raft.elections_total", "raft.messages_total", "raft.proposals_total",
      "validator.blocks_validated_total", "validator.endorsement_failures",
      "validator.mvcc_conflicts", "validator.phantom_conflicts",
      "validator.valid_total"};
  EXPECT_EQ(CounterNames(m), expected);
  EXPECT_EQ(m.counters().at("validator.mvcc_conflicts").value(), 0u);
  std::set<std::string> gauges;
  for (const auto& [name, g] : m.gauges()) gauges.insert(name);
  EXPECT_EQ(gauges, (std::set<std::string>{
                        "client.queue_depth", "endorser.queue_depth",
                        "orderer.queue_depth", "peer.Org1.validator_backlog_s",
                        "peer.Org2.validator_backlog_s",
                        "sim.events_processed", "sim.queue_peak"}));

  // A delivered block brings every validator.* counter even when none of
  // its transactions is valid: with Org2's endorser down, the one
  // transaction fails the endorsement policy.
  ExperimentConfig refused = CliExperiment(1);
  auto plan = ParseFaultPlan("endorser-outage@t=0,dur=10,org=2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  refused.faults = *plan;
  const ExperimentOutput failed = RunOk(refused);
  ASSERT_NE(failed.telemetry, nullptr);
  const auto& counters = failed.telemetry->metrics().counters();
  EXPECT_EQ(counters.at("validator.valid_total").value(), 0u);
  EXPECT_EQ(counters.at("validator.endorsement_failures").value(), 1u);

  // The client manager's counters appear once it reordered or capped.
  ExperimentConfig managed = CliExperiment(300);
  managed.client_manager.activities_last = {"Read"};
  managed.client_manager.rate_cap_tps = 100;
  const ExperimentOutput shaped = RunOk(managed);
  ASSERT_NE(shaped.telemetry, nullptr);
  const MetricsRegistry& cm = shaped.telemetry->metrics();
  EXPECT_EQ(cm.counters().at("client_manager.scheduled_total").value(), 300u);
  EXPECT_EQ(cm.counters().at("client_manager.reordered_runs_total").value(),
            1u);
  EXPECT_EQ(cm.counters().at("client_manager.rate_capped_runs_total").value(),
            1u);
  EXPECT_EQ(cm.gauges().at("client_manager.rate_cap_tps").value(), 100.0);
}

TEST(TracedExperimentTest, LeaderCrashCountsTheSecondElection) {
  ExperimentConfig cfg = CliExperiment(10000);
  auto plan = ParseFaultPlan("leader-crash@t=0.5,dur=0.5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  cfg.faults = *plan;
  const ExperimentOutput out = RunOk(cfg);
  ASSERT_NE(out.telemetry, nullptr);
  EXPECT_EQ(
      out.telemetry->metrics().counters().at("raft.elections_total").value(),
      2u);
}

TEST(TracedExperimentTest, EndorserOutageCountsDropsAndEarlyAborts) {
  // Both endorsers black-holed for 3 s: every proposal of those seconds
  // goes to two down endorsers and the transaction early-aborts.
  ExperimentConfig cfg = CliExperiment(3000);
  auto plan = ParseFaultPlan(
      "endorser-outage@t=2,dur=3,org=1;endorser-outage@t=2,dur=3,org=2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  cfg.faults = *plan;
  const ExperimentOutput out = RunOk(cfg);
  ASSERT_NE(out.telemetry, nullptr);
  const auto& counters = out.telemetry->metrics().counters();
  EXPECT_EQ(out.report.early_aborts(), 902u);
  EXPECT_EQ(counters.at("client.early_aborts_total").value(), 902u);
  EXPECT_EQ(counters.at("endorser.outage_drops_total").value(), 1804u);
  EXPECT_EQ(counters.at("client.requests_total").value(),
            out.report.total_committed() + out.report.early_aborts());
}

TEST(TracedExperimentTest, LateConfigUpdateCountsAtTheOrderer) {
  // The stream engine's block-size update is ordered late in the run: the
  // orderer accepted it and cut its block, which never committed.
  ExperimentConfig cfg = CliExperiment(600, 1000, 50);
  cfg.stream.enabled = true;
  cfg.stream.apply = true;
  cfg.stream.window_s = 2;
  const ExperimentOutput out = RunOk(cfg);
  ASSERT_NE(out.telemetry, nullptr);
  const auto& counters = out.telemetry->metrics().counters();
  EXPECT_EQ(counters.at("orderer.config_txs_total").value(), 1u);
  EXPECT_EQ(counters.at("orderer.blocks_cut_total").value(),
            counters.at("ledger.blocks_total").value() + 1);
  EXPECT_EQ(counters.at("ledger.blocks_total").value(),
            out.ledger.NumBlocks() - 1);
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
