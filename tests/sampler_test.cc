// Continuous-monitoring subsystem tests: TimeSeries downsampling, the
// Sampler's windowed sources, bottleneck attribution on constructed
// endorser-/orderer-bound scenarios, evidence-cited recommendations, and
// the byte-determinism of every export (JSON / Prometheus / HTML) across
// `--jobs` values.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "blockopt/recommend/evidence.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "sim/simulator.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "telemetry/sampler.h"
#include "telemetry/timeseries.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, StoresRawSamplesBelowCapacity) {
  TimeSeries ts("s", 8);
  for (int i = 0; i < 5; ++i) ts.Record(i + 1.0, i * 10.0);
  ASSERT_EQ(ts.points().size(), 5u);
  EXPECT_EQ(ts.samples_per_point(), 1u);
  EXPECT_EQ(ts.raw_count(), 5u);
  EXPECT_DOUBLE_EQ(ts.points()[2].t, 3.0);
  EXPECT_DOUBLE_EQ(ts.points()[2].v, 20.0);
  EXPECT_DOUBLE_EQ(ts.Max(), 40.0);
  EXPECT_DOUBLE_EQ(ts.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(ts.Last(), 40.0);
}

TEST(TimeSeriesTest, DownsamplesBeyondCapacityWithoutLosingTheMean) {
  TimeSeries ts("s", 8);
  // 64 samples of a constant series: the mean and the last value must
  // survive three rounds of pair-merging exactly.
  for (int i = 0; i < 64; ++i) ts.Record(i + 1.0, 5.0);
  EXPECT_LE(ts.points().size(), 8u);
  EXPECT_GE(ts.samples_per_point(), 8u);
  EXPECT_EQ(ts.raw_count(), 64u);
  EXPECT_DOUBLE_EQ(ts.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(ts.Max(), 5.0);
  EXPECT_DOUBLE_EQ(ts.Last(), 5.0);
  // Timestamps stay monotonically increasing through merges.
  for (size_t i = 1; i < ts.points().size(); ++i) {
    EXPECT_GT(ts.points()[i].t, ts.points()[i - 1].t);
  }
}

TEST(TimeSeriesTest, TinyOrOddCapacityIsClampedToEven) {
  TimeSeries a("a", 0);
  for (int i = 0; i < 10; ++i) a.Record(i + 1.0, 1.0);
  EXPECT_LE(a.points().size(), 2u);
  TimeSeries b("b", 5);  // rounds up to 6
  for (int i = 0; i < 6; ++i) b.Record(i + 1.0, 1.0);
  EXPECT_EQ(b.points().size(), 6u);
}

TEST(TimeSeriesTest, LongestWindowAboveFindsTheHotStretch) {
  TimeSeries ts("util", 16);
  const double values[] = {0.1, 0.9, 0.95, 0.9, 0.1, 0.9, 0.1};
  for (int i = 0; i < 7; ++i) ts.Record(i + 1.0, values[i]);
  auto w = ts.LongestWindowAbove(0.8);
  ASSERT_TRUE(w.found);
  // Points 2..4 qualify; the window's left edge is the preceding point.
  EXPECT_DOUBLE_EQ(w.start, 1.0);
  EXPECT_DOUBLE_EQ(w.end, 4.0);
  EXPECT_DOUBLE_EQ(w.peak, 0.95);
  EXPECT_NEAR(w.mean, (0.9 + 0.95 + 0.9) / 3, 1e-12);
}

TEST(TimeSeriesTest, WindowStartingAtTheFirstPointBeginsAtZero) {
  TimeSeries ts("util", 16);
  ts.Record(1.0, 0.9);
  ts.Record(2.0, 0.9);
  ts.Record(3.0, 0.1);
  auto w = ts.LongestWindowAbove(0.8);
  ASSERT_TRUE(w.found);
  EXPECT_DOUBLE_EQ(w.start, 0.0);
  EXPECT_DOUBLE_EQ(w.end, 2.0);
}

TEST(TimeSeriesTest, NoWindowWhenEverythingIsBelowThreshold) {
  TimeSeries ts("util", 16);
  ts.Record(1.0, 0.2);
  ts.Record(2.0, 0.3);
  EXPECT_FALSE(ts.LongestWindowAbove(0.8).found);
  EXPECT_FALSE(TimeSeries("empty", 16).LongestWindowAbove(0.0).found);
}

TEST(TimeSeriesTest, ToJsonCarriesResolutionAndBothAxes) {
  TimeSeries ts("s", 8);
  ts.Record(0.5, 1.0);
  ts.Record(1.0, 2.0);
  JsonValue j = ts.ToJson();
  EXPECT_EQ(j["samples_per_point"].as_number(), 1);
  ASSERT_EQ(j["t"].as_array().size(), 2u);
  ASSERT_EQ(j["v"].as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(j["t"].as_array()[1].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(j["v"].as_array()[1].as_number(), 2.0);
}

// ---------------------------------------------------------------------------
// Sampler on a bare simulator
// ---------------------------------------------------------------------------

TEST(SamplerTest, RateGaugeAndWindowMeanSourcesSampleWindowedValues) {
  Simulator sim;
  Sampler sampler(&sim, SamplerConfig{1.0, 64});
  uint64_t commits = 0;
  double depth = 0;
  double fill_sum = 0;
  uint64_t fills = 0;
  sampler.AddRate("tps", [&] { return commits; });
  sampler.AddGauge("depth", [&] { return depth; });
  sampler.AddWindowMean("fill", [&] { return fill_sum; },
                        [&] { return fills; });
  // Window 1: 3 commits, depth 2, one fill of 0.5. Window 2: idle.
  sim.ScheduleAt(0.4, [&] {
    commits = 3;
    depth = 2;
    fill_sum = 0.5;
    fills = 1;
  });
  sampler.Start();
  while (sim.Now() < 2.5 && sim.Step()) {
  }
  EXPECT_GE(sampler.ticks(), 2u);
  ASSERT_EQ(sampler.series().size(), 3u);
  const TimeSeries& tps = sampler.series()[0];
  ASSERT_GE(tps.points().size(), 2u);
  EXPECT_DOUBLE_EQ(tps.points()[0].t, 1.0);
  EXPECT_DOUBLE_EQ(tps.points()[0].v, 3.0);  // 3 commits / 1 s
  EXPECT_DOUBLE_EQ(tps.points()[1].v, 0.0);  // idle window
  EXPECT_DOUBLE_EQ(sampler.series()[1].points()[0].v, 2.0);
  EXPECT_DOUBLE_EQ(sampler.series()[2].points()[0].v, 0.5);
  // Window with no fill observations records 0, not a division artifact.
  EXPECT_DOUBLE_EQ(sampler.series()[2].points()[1].v, 0.0);
}

TEST(SamplerTest, DisabledSamplerRegistersAndSchedulesNothing) {
  Simulator sim;
  Sampler sampler(&sim, SamplerConfig{0.0, 64});
  EXPECT_FALSE(sampler.enabled());
  uint64_t n = 0;
  sampler.AddRate("r", [&] { return n; });
  sampler.AddGauge("g", [] { return 1.0; });
  sampler.Start();
  EXPECT_EQ(sim.num_pending(), 0u);
  EXPECT_TRUE(sampler.series().empty());
  EXPECT_EQ(sampler.ticks(), 0u);
}

TEST(SamplerTest, StationTrackMeasuresUtilizationWithinBounds) {
  Simulator sim;
  ServiceStation station(&sim, "st", 1);
  Sampler sampler(&sim, SamplerConfig{1.0, 64});
  sampler.AddStation("st", station_stage::kEndorse, &station);
  // Two jobs of 0.3 s back to back: ~0.6 busy in the first window.
  sim.ScheduleAt(0.0, [&] {
    station.Submit(0.3, [] {});
    station.Submit(0.3, [] {});
  });
  sampler.Start();
  while (sim.Now() < 1.5 && sim.Step()) {
  }
  ASSERT_EQ(sampler.stations().size(), 1u);
  const auto& track = sampler.stations()[0];
  ASSERT_GE(track.utilization.points().size(), 1u);
  EXPECT_NEAR(track.utilization.points()[0].v, 0.6, 1e-9);
  EXPECT_GE(track.service_mean_s.points()[0].v, 0.0);
  for (const auto& p : track.utilization.points()) {
    EXPECT_GE(p.v, 0.0);
    EXPECT_LE(p.v, 1.0);
  }
}

TEST(SamplerTest, FinalizeIsIdempotent) {
  // Regression: a second Finalize() (driver + defensive caller) must not
  // clobber the snapshotted whole-run station totals — the first call
  // nulls the station pointers, so re-running the snapshot loop would
  // either crash or zero the totals.
  Simulator sim;
  ServiceStation station(&sim, "st", 1);
  Sampler sampler(&sim, SamplerConfig{1.0, 64});
  sampler.AddStation("st", station_stage::kEndorse, &station);
  sim.ScheduleAt(0.0, [&] { station.Submit(0.4, [] {}); });
  sampler.Start();
  // The sampler's tick re-arms itself forever; run for a bounded span.
  while (sim.Now() < 2.5 && sim.Step()) {
  }

  EXPECT_FALSE(sampler.finalized());
  sampler.Finalize();
  EXPECT_TRUE(sampler.finalized());
  const auto& track = sampler.stations()[0];
  const double busy = track.total_busy_s;
  const uint64_t jobs = track.total_jobs;
  EXPECT_GT(busy, 0.0);
  EXPECT_EQ(jobs, 1u);

  sampler.Finalize();  // second call: no-op
  EXPECT_EQ(sampler.stations()[0].total_busy_s, busy);
  EXPECT_EQ(sampler.stations()[0].total_jobs, jobs);
  EXPECT_EQ(sampler.stations()[0].station, nullptr);
}

// ---------------------------------------------------------------------------
// Sampled experiments + bottleneck attribution
// ---------------------------------------------------------------------------

ExperimentConfig SampledExperiment(int num_txs, double rate) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  wl.send_rate = rate;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.enable_telemetry = true;
  return cfg;
}

TEST(SampledExperimentTest, SamplerRecordsPipelineAndStationSeries) {
  auto out = RunExperiment(SampledExperiment(300, 300));
  ASSERT_TRUE(out.ok()) << out.status();
  const Sampler* sampler = out->telemetry->sampler();
  ASSERT_NE(sampler, nullptr);
  EXPECT_GT(sampler->ticks(), 0u);

  bool saw_tps = false;
  for (const auto& s : sampler->series()) {
    if (s.name() == "pipeline.commit_tps") {
      saw_tps = true;
      EXPECT_FALSE(s.empty());
      EXPECT_GT(s.Max(), 0.0);
    }
  }
  EXPECT_TRUE(saw_tps);

  bool saw_endorser = false;
  bool saw_orderer = false;
  for (const auto& track : sampler->stations()) {
    if (track.name == "peer/Org1/endorser") saw_endorser = true;
    if (track.name == "orderer") saw_orderer = true;
    for (const auto& p : track.utilization.points()) {
      EXPECT_GE(p.v, 0.0);
      EXPECT_LE(p.v, 1.0);
    }
  }
  EXPECT_TRUE(saw_endorser);
  EXPECT_TRUE(saw_orderer);
}

TEST(SampledExperimentTest, SamplerDoesNotPerturbTheRunOutcome) {
  ExperimentConfig cfg = SampledExperiment(300, 300);
  cfg.enable_telemetry = false;
  auto off = RunExperiment(cfg);
  cfg.enable_telemetry = true;
  cfg.telemetry_options = TelemetryOptions::SamplerOnly();
  auto sampled = RunExperiment(cfg);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(off->report.Summary(), sampled->report.Summary());
  EXPECT_EQ(off->ledger.NumBlocks(), sampled->ledger.NumBlocks());
  EXPECT_DOUBLE_EQ(off->sim_end_time, sampled->sim_end_time);
}

TEST(BottleneckTest, NamesTheEndorserInAnEndorserBoundScenario) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  // Crank chaincode execution cost so endorsement saturates while the
  // orderer stays comfortable.
  cfg.network.latency.endorse_exec_s = 0.05;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  EXPECT_TRUE(report.saturated);
  EXPECT_EQ(report.bottleneck_stage, station_stage::kEndorse);
  EXPECT_NE(report.bottleneck_station.find("endorser"), std::string::npos);
  EXPECT_GT(report.bottleneck_utilization, kSaturationThreshold);
  EXPECT_GT(report.window_end, report.window_start);
  EXPECT_NE(report.summary.find("saturated"), std::string::npos);
  EXPECT_NE(FormatBottleneckTable(report).find("endorser"),
            std::string::npos);
}

TEST(BottleneckTest, NamesTheOrdererInAnOrdererBoundScenario) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  cfg.network.latency.order_per_tx_s = 0.02;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  EXPECT_TRUE(report.saturated);
  EXPECT_EQ(report.bottleneck_stage, station_stage::kOrder);
  EXPECT_EQ(report.bottleneck_station, "orderer");
}

TEST(BottleneckTest, CriticalPathConfirmsTheEndorserBoundVerdict) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  cfg.network.latency.endorse_exec_s = 0.05;
  cfg.telemetry_options.txtrace.enabled = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  // With the flight recorder on, the verdict carries causal-chain
  // evidence: the endorse stage dominates the committed-latency partition,
  // agreeing with the utilization-based attribution.
  EXPECT_EQ(report.critical_path_stage, "endorse");
  EXPECT_GT(report.critical_path_share, 0.5);
  ASSERT_EQ(report.critical_path.size(),
            static_cast<size_t>(kNumCriticalStages));
  double sum = 0;
  for (const auto& s : report.critical_path) sum += s.share;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NE(report.summary.find("critical path"), std::string::npos);
  EXPECT_NE(report.summary.find("'endorse'"), std::string::npos);
}

TEST(BottleneckTest, CriticalPathConfirmsTheOrdererBoundVerdict) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  cfg.network.latency.order_per_tx_s = 0.02;
  cfg.telemetry_options.txtrace.enabled = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  EXPECT_EQ(report.critical_path_stage, "order");
  EXPECT_GT(report.critical_path_share, 0.5);
  EXPECT_NE(report.summary.find("critical path"), std::string::npos);
}

TEST(BottleneckTest, EvidenceWindowFormattingIsStable) {
  EXPECT_EQ(FormatEvidenceWindow(40.0, 80.0), "[40.0s,80.0s]");
}

TEST(EvidenceTest, RecommendationsCiteTheObservedWindow) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  cfg.network.latency.endorse_exec_s = 0.05;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);

  Recommendation rec;
  rec.type = RecommendationType::kEndorserRestructuring;
  rec.detail = "restructure the endorsement policy";
  rec.orgs = {"Org1"};
  std::vector<Recommendation> recs = {rec};
  AttachTelemetryEvidence(recs, report);
  // The rationale now names the station, its utilization, and the
  // observed evidence window.
  EXPECT_NE(recs[0].detail.find("observed:"), std::string::npos);
  EXPECT_NE(recs[0].detail.find("endorser"), std::string::npos);
  EXPECT_NE(recs[0].detail.find("util"), std::string::npos);
  EXPECT_NE(recs[0].detail.find("s]"), std::string::npos);

  std::string evidence = TelemetryEvidenceFor(rec, report);
  EXPECT_NE(evidence.find("Org1"), std::string::npos);
}

TEST(EvidenceTest, RecommendationsCiteTheCriticalPathShare) {
  ExperimentConfig cfg = SampledExperiment(400, 200);
  cfg.network.latency.endorse_exec_s = 0.05;
  cfg.telemetry_options.txtrace.enabled = true;
  auto out = RunExperiment(cfg);
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);

  Recommendation rec;
  rec.type = RecommendationType::kEndorserRestructuring;
  rec.detail = "restructure the endorsement policy";
  rec.orgs = {"Org1"};
  // The flight recorder's causal-chain partition backs the rationale: the
  // evidence now quantifies how much committed latency the cited stage
  // owns, not just how busy its station looked.
  std::string evidence = TelemetryEvidenceFor(rec, report);
  EXPECT_NE(evidence.find("critical-path share"), std::string::npos);

  std::vector<Recommendation> recs = {rec};
  AttachTelemetryEvidence(recs, report);
  EXPECT_NE(recs[0].detail.find("critical-path share"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism + exports
// ---------------------------------------------------------------------------

TEST(SamplerDeterminismTest, ExportsAreIdenticalSerialVsEightJobs) {
  std::vector<ExperimentConfig> configs;
  for (double rate : {150.0, 300.0}) {
    configs.push_back(SampledExperiment(200, rate));
  }
  auto serial = SweepRunner(SweepOptions{1}).Run(configs);
  auto parallel = SweepRunner(SweepOptions{8}).Run(configs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    BottleneckReport a =
        ComputeBottleneckReport(*serial[i]->telemetry,
                                serial[i]->sim_end_time);
    BottleneckReport b =
        ComputeBottleneckReport(*parallel[i]->telemetry,
                                parallel[i]->sim_end_time);
    // Full snapshot — metrics, every time series, bottleneck attribution —
    // must be byte-identical regardless of worker-thread count.
    EXPECT_EQ(TelemetrySnapshotJson(*serial[i]->telemetry, &a).Dump(),
              TelemetrySnapshotJson(*parallel[i]->telemetry, &b).Dump());

    std::ostringstream prom_a, prom_b;
    WritePrometheusText(*serial[i]->telemetry, prom_a);
    WritePrometheusText(*parallel[i]->telemetry, prom_b);
    EXPECT_EQ(prom_a.str(), prom_b.str());
  }
}

TEST(ExportTest, MetricsJsonCarriesTimeseriesAndBottleneckSections) {
  auto out = RunExperiment(SampledExperiment(300, 300));
  ASSERT_TRUE(out.ok()) << out.status();
  BottleneckReport report =
      ComputeBottleneckReport(*out->telemetry, out->sim_end_time);
  auto parsed = JsonValue::Parse(
      TelemetrySnapshotJson(*out->telemetry, &report).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  EXPECT_TRUE(root["counters"].is_object());
  EXPECT_TRUE(root["timeseries"]["series"].is_object());
  EXPECT_TRUE(
      root["timeseries"]["series"]["pipeline.commit_tps"]["t"].is_array());
  EXPECT_TRUE(root["timeseries"]["stations"].is_object());
  EXPECT_TRUE(root["bottleneck"]["summary"].is_string());
  EXPECT_TRUE(root["bottleneck"]["stations"].is_array());
}

TEST(ExportTest, PrometheusTextIsWellFormed) {
  auto out = RunExperiment(SampledExperiment(300, 300));
  ASSERT_TRUE(out.ok()) << out.status();
  std::ostringstream prom;
  WritePrometheusText(*out->telemetry, prom);
  std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE blockoptr_"), std::string::npos);
  EXPECT_NE(text.find("blockoptr_ledger_txs_committed_total"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text.find("blockoptr_ts_pipeline_commit_tps"),
            std::string::npos);
  // No unsanitized characters: every line is `name value`, `name{...}
  // value`, or a comment.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("blockoptr_", 0), 0u) << line;
  }
}

TEST(ExportTest, HtmlReportIsSelfContainedAndDeterministic) {
  auto render = [](const ExperimentOutput& out) {
    BottleneckReport report =
        ComputeBottleneckReport(*out.telemetry, out.sim_end_time);
    std::ostringstream html;
    WriteHtmlReport(html, "test run", {{"transactions", "300"}},
                    *out.telemetry, report);
    return html.str();
  };
  auto a = RunExperiment(SampledExperiment(300, 300));
  auto b = RunExperiment(SampledExperiment(300, 300));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::string html = render(*a);
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("pipeline.commit_tps"), std::string::npos);
  EXPECT_NE(html.find("test run"), std::string::npos);
  EXPECT_EQ(html.substr(html.size() - 8), "</html>\n");
  // No external assets or scripts — the file must stand alone.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // Same run config -> byte-identical report.
  EXPECT_EQ(html, render(*b));
}

}  // namespace
}  // namespace blockoptr
