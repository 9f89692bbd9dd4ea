// Flight-recorder overhead A/B: what per-transaction causal tracing costs.
//
// Runs the full pipeline (RunExperiment) on the paper's 10k-tx synthetic
// workload in three profiles:
//
//   BM_E2E_TxTraceBaseline — no Telemetry object at all (the shipping
//                            fast path; shared baseline with the
//                            telemetry-overhead suite)
//   BM_E2E_TxTraceOff      — Telemetry constructed, flight recorder
//                            disabled (every hook site is a cached-null
//                            check; the zero-cost-when-disabled claim)
//   BM_E2E_TxTraceOn       — flight recorder only (the profile behind
//                            --txtrace: ring appends at every stage
//                            transition + per-commit chain extraction)
//
// CI gates Off/Baseline <= 1.02 (disabled hooks are free) and
// On/Off <= 1.15 (recording stays cheap enough to leave on for tail
// hunts). main() prints an explicit interleaved A/B so the ratios are
// robust against frequency-scaling drift, and `--json-out=PATH` dumps the
// suite as BENCH_txtrace.json (schema blockoptr-bench-v1) for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace blockoptr {
namespace {

ExperimentConfig MakeConfig(int num_txs, bool telemetry, bool txtrace) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.enable_telemetry = telemetry;
  // Off = the causal-tracing profile with the recorder switched back off:
  // event metrics and the sampler stay disabled either way, so On - Off
  // isolates the recorder and Off - Baseline the disabled hook checks.
  cfg.telemetry_options = TelemetryOptions::TxTraceOnly();
  cfg.telemetry_options.txtrace.enabled = txtrace;
  return cfg;
}

void RunProfile(benchmark::State& state, bool telemetry, bool txtrace) {
  const int n = static_cast<int>(state.range(0));
  const ExperimentConfig cfg = MakeConfig(n, telemetry, txtrace);
  for (auto _ : state) {
    auto out = RunExperiment(cfg);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}

void BM_E2E_TxTraceBaseline(benchmark::State& state) {
  RunProfile(state, /*telemetry=*/false, /*txtrace=*/false);
}
void BM_E2E_TxTraceOff(benchmark::State& state) {
  RunProfile(state, /*telemetry=*/true, /*txtrace=*/false);
}
void BM_E2E_TxTraceOn(benchmark::State& state) {
  RunProfile(state, /*telemetry=*/true, /*txtrace=*/true);
}

BENCHMARK(BM_E2E_TxTraceBaseline)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2E_TxTraceOff)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2E_TxTraceOn)->Arg(10000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Explicit interleaved A/B: recorder-on vs recorder-off
// ---------------------------------------------------------------------------

double MeasureTxPerSec(const ExperimentConfig& cfg) {
  const auto start = std::chrono::steady_clock::now();
  auto out = RunExperiment(cfg);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!out.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 out.status().ToString().c_str());
    std::exit(1);
  }
  benchmark::DoNotOptimize(out->report);
  return static_cast<double>(cfg.schedule.size()) / elapsed.count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Alternates off/on runs so drift (frequency scaling, cache state) hits
/// both sides equally, then compares medians. The printed overheads are
/// the numbers the CI ratio gates are judged against.
void PrintInterleavedAB(int num_txs, int rounds) {
  const ExperimentConfig baseline = MakeConfig(num_txs, false, false);
  const ExperimentConfig off = MakeConfig(num_txs, true, false);
  const ExperimentConfig on = MakeConfig(num_txs, true, true);
  std::vector<double> base_tps, off_tps, on_tps;
  for (int r = 0; r < rounds; ++r) {
    base_tps.push_back(MeasureTxPerSec(baseline));
    off_tps.push_back(MeasureTxPerSec(off));
    on_tps.push_back(MeasureTxPerSec(on));
  }
  const double a = Median(base_tps);
  const double b = Median(off_tps);
  const double c = Median(on_tps);
  std::printf("\ninterleaved A/B at %d txs (%d rounds, median): "
              "baseline %.0f tx/s, txtrace-off %.0f tx/s, "
              "txtrace-on %.0f tx/s -> disabled-hook overhead %.1f%%, "
              "recording overhead %.1f%%\n",
              num_txs, rounds, a, b, c, 100.0 * (a - b) / a,
              100.0 * (b - c) / b);
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) {
  std::string json_out = blockoptr::bench::ParseJsonOutFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  blockoptr::bench::JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty()) reporter.WriteJson(json_out, "txtrace");
  blockoptr::PrintInterleavedAB(/*num_txs=*/10000, /*rounds=*/5);
  benchmark::Shutdown();
  return 0;
}
