// Telemetry-overhead A/B: what the continuous monitor costs.
//
// Runs the full pipeline (RunExperiment) on the paper's 10k-tx synthetic
// workload in three telemetry profiles:
//
//   BM_E2E_TelemetryOff   — the shipping fast path (no Telemetry at all)
//   BM_E2E_SamplerOnly    — continuous sampler only (the always-on
//                           monitoring profile: time series + bottleneck
//                           inputs, no flight recorder, no event metrics)
//   BM_E2E_FullTelemetry  — flight recorder + event metrics + sampler (the
//                           default profile behind every observability
//                           flag)
//
// The acceptance budget is SamplerOnly within 5% of TelemetryOff
// throughput, and CI gates FullTelemetry/TelemetryOff <= 1.35. main()
// prints an explicit interleaved A/B so the ratio is robust against
// frequency-scaling drift, and `--json-out=PATH` dumps the
// suite as BENCH_telemetry.json (schema blockoptr-bench-v1) for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace blockoptr {
namespace {

ExperimentConfig MakeConfig(int num_txs, bool telemetry,
                            TelemetryOptions options) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.enable_telemetry = telemetry;
  cfg.telemetry_options = options;
  return cfg;
}

void RunProfile(benchmark::State& state, bool telemetry,
                TelemetryOptions options) {
  const int n = static_cast<int>(state.range(0));
  const ExperimentConfig cfg = MakeConfig(n, telemetry, options);
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

void BM_E2E_TelemetryOff(benchmark::State& state) {
  RunProfile(state, false, TelemetryOptions{});
}
void BM_E2E_SamplerOnly(benchmark::State& state) {
  RunProfile(state, true, TelemetryOptions::SamplerOnly());
}
void BM_E2E_FullTelemetry(benchmark::State& state) {
  RunProfile(state, true, TelemetryOptions{});
}

BENCHMARK(BM_E2E_TelemetryOff)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2E_SamplerOnly)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2E_FullTelemetry)->Arg(10000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Explicit interleaved A/B: sampler-on vs telemetry-off
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

/// Alternates off/sampler runs so drift (frequency scaling, cache state)
/// hits both sides equally, then compares medians. The printed overhead is
/// the number the <=5% acceptance budget is judged against.
void PrintInterleavedAB(int num_txs, int rounds) {
  const ExperimentConfig off =
      MakeConfig(num_txs, false, TelemetryOptions{});
  const ExperimentConfig sampled =
      MakeConfig(num_txs, true, TelemetryOptions::SamplerOnly());
  std::vector<double> off_tps, sampled_tps;
  for (int r = 0; r < rounds; ++r) {
    off_tps.push_back(MeasureTxPerSec(off));
    sampled_tps.push_back(MeasureTxPerSec(sampled));
  }
  const double a = Median(off_tps);
  const double b = Median(sampled_tps);
  std::printf("\ninterleaved A/B at %d txs (%d rounds, median): "
              "telemetry-off %.0f tx/s, sampler-only %.0f tx/s -> "
              "overhead %.1f%%\n",
              num_txs, rounds, a, b, 100.0 * (a - b) / a);
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) {
  std::string json_out = blockoptr::bench::ParseJsonOutFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  blockoptr::bench::JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty()) reporter.WriteJson(json_out, "telemetry");
  blockoptr::PrintInterleavedAB(/*num_txs=*/10000, /*rounds=*/5);
  benchmark::Shutdown();
  return 0;
}
