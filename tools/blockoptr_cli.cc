// blockoptr — command-line front end for the BlockOptR pipeline.
//
// Runs a workload on the simulated Fabric network, extracts the blockchain
// log, derives metrics, prints the recommendation report, and (optionally)
// applies the recommendations and re-runs — the complete paper workflow
// from one command. Analysis-ready artefacts (CSV / JSON / XES / DOT) can
// be exported for external tools.
//
// Examples:
//   blockoptr run --workload=synthetic --type=rangeread --rate=300
//   blockoptr run --workload=drm --apply --jobs=4
//   blockoptr run --workload=lap --rate=10 --out-xes=lap.xes --mine
//   blockoptr run --workload=synthetic --orgs=4 --policy=P1 --autotune
//   blockoptr sweep --set=table3 --jobs=0
//   blockoptr sweep --block-counts=50,300,1000 --jobs=4
#include <concepts>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "blockopt/apply/optimizer.h"
#include "blockopt/eventlog/event_log.h"
#include "blockopt/eventlog/xes_export.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/autotune.h"
#include "blockopt/recommend/evidence.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/recommend/report.h"
#include "blockopt/stream/export.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "mining/alpha_miner.h"
#include "mining/conformance.h"
#include "mining/dot_export.h"
#include "workload/event_log_csv.h"
#include "workload/lap_log.h"
#include "workload/synthetic.h"
#include "workload/usecase.h"

namespace blockoptr {
namespace {

struct CliArgs {
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::strtod(it->second.c_str(),
                                                      nullptr);
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : static_cast<int>(std::strtol(it->second.c_str(), nullptr,
                                              10));
  }
};

int Usage() {
  std::printf(
      "usage: blockoptr run [options]\n"
      "       blockoptr sweep [options]\n"
      "\n"
      "workload selection:\n"
      "  --workload=synthetic|scm|drm|ehr|dv|lap|csv  (default synthetic)\n"
      "  --csv=FILE       external event log (with --workload=csv); columns\n"
      "                   case,activity[,resource,amount,type]\n"
      "  --type=uniform|read|insert|update|rangeread  synthetic mix\n"
      "  --txs=N          transactions (default 10000)\n"
      "  --rate=R         send rate in TPS (default 300)\n"
      "  --key-skew=X     synthetic key skew factor (default 1)\n"
      "  --tx-skew=F      fraction of txs through Org1 (default 0)\n"
      "  --seed=N         workload/network seed (default 1)\n"
      "\n"
      "network configuration (paper Table 2):\n"
      "  --orgs=N         organizations (default 2)\n"
      "  --policy=P1|P2|P3|P4 or a policy expression (default P3)\n"
      "  --block-count=N  orderer batch size (default 300)\n"
      "  --block-timeout=S  batch timeout seconds (default 1)\n"
      "  --endorser-skew=W  endorser distribution skew (default 0)\n"
      "  --scheduler=fabricpp|fabricsharp   orderer reordering baseline\n"
      "\n"
      "multi-channel sharding (parallel per-channel event cores):\n"
      "  --channels=N     shard the experiment into N Fabric channels\n"
      "                   (default 1 = classic single-channel run); the\n"
      "                   workload is partitioned deterministically and\n"
      "                   channels couple through the shared clients\n"
      "  --sim-threads=K  worker threads advancing channels in lockstep\n"
      "                   (default 1, 0 = all cores; exports are\n"
      "                   field-for-field identical for every K)\n"
      "  --sim-epoch=S    lockstep epoch in sim seconds (default: derived\n"
      "                   from the latency model's coupling latency)\n"
      "  --channel-weights=A,B,...  relative per-channel load (skewed\n"
      "                   channel traffic; default balanced)\n"
      "  multi-channel observability exports write one suffixed file per\n"
      "  channel (prom.txt -> prom-0.txt, each labeled channel=\"N\")\n"
      "\n"
      "fault injection (deterministic, scheduled in sim time):\n"
      "  --faults=SPEC    semicolon-separated fault events, each a preset\n"
      "                   name plus optional @key=value,... overrides\n"
      "                   (keys: t, dur, node, org, factor, period,\n"
      "                   offset). presets: leader-crash, node-crash,\n"
      "                   endorser-outage, endorser-slow, burst, diurnal,\n"
      "                   hotkey-shift. examples:\n"
      "                     --faults=leader-crash@t=10,dur=5\n"
      "                     --faults=\"endorser-slow@org=2,factor=8;"
      "burst@t=30,dur=5\"\n"
      "\n"
      "analysis / actions:\n"
      "  --autotune       derive thresholds from the log (vs paper defaults)\n"
      "  --apply          apply the recommendations and re-run: one what-if\n"
      "                   run per recommendation plus the combined run\n"
      "  --jobs=N         worker threads for sweep / what-if re-runs\n"
      "                   (default 1 = serial, 0 = all cores; results are\n"
      "                   identical for every N)\n"
      "  --mine           mine the process model (Alpha) and report fitness\n"
      "  --out-log=F.csv  export the blockchain log as CSV\n"
      "  --out-json=F     export the blockchain log as JSON\n"
      "  --out-xes=F      export the event log as XES (ProM/Disco)\n"
      "  --out-dot=F      export the mined Petri net as Graphviz DOT\n"
      "\n"
      "observability (any of these enables telemetry for the run):\n"
      "  --trace-out=F      export Chrome trace-event JSON (open in\n"
      "                     Perfetto / chrome://tracing)\n"
      "  --trace-csv=F      export the span dump as CSV\n"
      "  --metrics-out=F    export metrics + time series + bottleneck\n"
      "                     attribution as JSON\n"
      "  --prom-out=F       export Prometheus text exposition\n"
      "  --report-out=F     export a self-contained HTML report (inline\n"
      "                     SVG charts + bottleneck attribution)\n"
      "  --sample-period=S  continuous-sampler period in sim seconds\n"
      "                     (default 0.5; 0 disables the sampler)\n"
      "  --txtrace          per-transaction flight recorder: packed\n"
      "                     lifecycle events, critical-path extraction,\n"
      "                     tail-latency exemplars (p50/p95/p99/max per\n"
      "                     window) in the JSON/Prometheus/HTML exports\n"
      "  --txtrace-out=F    export the exemplar causal chains as Chrome\n"
      "                     trace-event JSON with flow arrows (implies\n"
      "                     --txtrace; open in Perfetto)\n"
      "  --txtrace-ring=N   flight-recorder ring capacity in events\n"
      "                     (default 65536, rounded to a power of two;\n"
      "                     implies --txtrace)\n"
      "  --txtrace-window=S exemplar window in sim seconds (default 5;\n"
      "                     implies --txtrace)\n"
      "\n"
      "streaming analysis (online, fed at block-commit time):\n"
      "  --stream-analysis  derive the blockchain log incrementally and\n"
      "                     re-evaluate all nine recommendations over a\n"
      "                     sliding window while the run is in flight;\n"
      "                     adds a `stream` section to --metrics-out /\n"
      "                     --prom-out / --report-out\n"
      "  --stream-window=S  evaluation window in sim seconds (default 5;\n"
      "                     implies --stream-analysis)\n"
      "  --stream-apply     apply the first applicable system-level\n"
      "                     recommendation mid-run via a config update\n"
      "                     transaction (implies --stream-analysis)\n"
      "\n"
      "sweep mode (runs a batch of experiments, optionally in parallel):\n"
      "  --set=table3       the paper's 15 Table 3 experiments (default)\n"
      "  --set=channels     the multi-channel presets (balanced, hot-key\n"
      "                     contention, skewed channel load, 8-channel)\n"
      "  --rates=A,B,...    sweep the send rate over the base config\n"
      "  --block-counts=A,B,...  sweep the orderer batch size\n"
      "  all `run` workload/network/stream flags set the sweep's base\n"
      "  config; --jobs=N picks the worker threads (rows identical for\n"
      "  every N); --trace-out/--metrics-out/--prom-out/--report-out write\n"
      "  one suffixed file per sweep point (metrics.json -> metrics-3.json\n"
      "  for point 3)\n");
  return 2;
}

Result<SyntheticWorkloadType> ParseType(const std::string& name) {
  if (name == "uniform") return SyntheticWorkloadType::kUniform;
  if (name == "read") return SyntheticWorkloadType::kReadHeavy;
  if (name == "insert") return SyntheticWorkloadType::kInsertHeavy;
  if (name == "update") return SyntheticWorkloadType::kUpdateHeavy;
  if (name == "rangeread") return SyntheticWorkloadType::kRangeReadHeavy;
  return Status::InvalidArgument("unknown workload type '" + name + "'");
}

Result<EndorsementPolicy> ParsePolicyFlag(const std::string& text,
                                          int num_orgs) {
  if (text.size() == 2 && text[0] == 'P' && text[1] >= '1' && text[1] <= '4') {
    return EndorsementPolicy::Preset(text[1] - '0', num_orgs);
  }
  return EndorsementPolicy::Parse(text);
}

Result<ExperimentConfig> BuildExperiment(const CliArgs& args) {
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.network.num_orgs = args.GetInt("orgs", 2);
  cfg.network.seed = static_cast<uint64_t>(args.GetInt("seed", 1)) + 41;
  cfg.network.endorser_dist_skew = args.GetDouble("endorser-skew", 0);
  cfg.network.block_cutting.max_tx_count =
      static_cast<uint32_t>(args.GetInt("block-count", 300));
  cfg.network.block_cutting.timeout_s = args.GetDouble("block-timeout", 1.0);
  auto policy =
      ParsePolicyFlag(args.Get("policy", "P3"), cfg.network.num_orgs);
  if (!policy.ok()) return policy.status();
  cfg.network.endorsement_policy = *policy;
  cfg.orderer_scheduler = args.Get("scheduler", "");
  if (args.Has("faults")) {
    auto plan = ParseFaultPlan(args.Get("faults", ""));
    if (!plan.ok()) return plan.status();
    cfg.faults = std::move(*plan);
  }

  cfg.channels = args.GetInt("channels", 1);
  if (cfg.channels < 1) {
    return Status::InvalidArgument("--channels must be >= 1");
  }
  cfg.sim_threads = args.GetInt("sim-threads", 1);
  cfg.epoch_s = args.GetDouble("sim-epoch", 0);
  for (const auto& field : Split(args.Get("channel-weights", ""), ',')) {
    if (field.empty()) continue;
    cfg.channel_weights.push_back(std::strtod(field.c_str(), nullptr));
  }

  const std::string workload = args.Get("workload", "synthetic");
  const int txs = args.GetInt("txs", 10000);
  const double rate = args.GetDouble("rate", 300);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  if (workload == "synthetic") {
    SyntheticConfig wl;
    auto type = ParseType(args.Get("type", "uniform"));
    if (!type.ok()) return type.status();
    wl.type = *type;
    wl.num_txs = txs;
    wl.send_rate = rate;
    wl.key_skew = args.GetDouble("key-skew", 1.0);
    wl.tx_dist_skew = args.GetDouble("tx-skew", 0);
    wl.num_orgs = cfg.network.num_orgs;
    wl.seed = seed;
    cfg.chaincodes = {"genchain"};
    for (auto& [k, v] : SyntheticSeedState(wl)) {
      cfg.seeds.push_back(SeedEntry{"genchain", k, v});
    }
    cfg.schedule = GenerateSynthetic(wl);
    return cfg;
  }

  UseCaseConfig uc;
  uc.num_txs = txs;
  uc.send_rate = rate;
  uc.seed = seed;
  if (workload == "scm") {
    cfg.chaincodes = {"scm"};
    cfg.schedule = GenerateScmWorkload(uc);
  } else if (workload == "drm") {
    cfg.chaincodes = {"drm"};
    for (auto& [k, v] : DrmSeedState()) {
      cfg.seeds.push_back(SeedEntry{"drm", k, v});
    }
    cfg.schedule = GenerateDrmWorkload(uc);
  } else if (workload == "ehr") {
    cfg.chaincodes = {"ehr"};
    for (auto& [k, v] : EhrSeedState()) {
      cfg.seeds.push_back(SeedEntry{"ehr", k, v});
    }
    cfg.schedule = GenerateEhrWorkload(uc);
  } else if (workload == "dv") {
    cfg.chaincodes = {"dv"};
    for (auto& [k, v] : DvSeedState()) {
      cfg.seeds.push_back(SeedEntry{"dv", k, v});
    }
    cfg.schedule = GenerateDvWorkload(uc);
  } else if (workload == "lap") {
    LapLogConfig lc;
    lc.num_events = txs;
    lc.num_applications = std::max(1, txs / 10);
    lc.seed = seed;
    cfg.chaincodes = {"lap"};
    cfg.schedule = LapScheduleFromLog(GenerateLapEventLog(lc), rate);
  } else if (workload == "csv") {
    if (!args.Has("csv")) {
      return Status::InvalidArgument("--workload=csv requires --csv=FILE");
    }
    auto events = LoadEventLogCsv(args.Get("csv", ""));
    if (!events.ok()) return events.status();
    cfg.chaincodes = {"lap"};
    cfg.schedule = LapScheduleFromLog(*events, rate);
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return cfg;
}

/// Opens `path`, lets `write` fill it and flushes it. If the file cannot be
/// opened or any write fails (a full disk, say), prints
/// "error: cannot write '<path>'" and returns false.
template <typename WriteFn>
  requires std::invocable<WriteFn&, std::ostream&>
bool WriteFileOrFail(const std::string& path, WriteFn&& write) {
  std::ofstream out(path);
  if (out) write(out);
  if (!out.flush()) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

bool WriteFileOrFail(const std::string& path, const std::string& content) {
  return WriteFileOrFail(path, [&](std::ostream& out) { out << content; });
}

/// Whether the run needs telemetry, and with which aspects.
/// Any txtrace flag turns the flight recorder on; --txtrace-out /
/// --txtrace-ring / --txtrace-window imply --txtrace.
bool WantsTxTrace(const CliArgs& args) {
  return args.Has("txtrace") || args.Has("txtrace-out") ||
         args.Has("txtrace-ring") || args.Has("txtrace-window");
}

bool WantsTelemetry(const CliArgs& args) {
  return args.Has("trace-out") || args.Has("trace-csv") ||
         args.Has("metrics-out") || args.Has("prom-out") ||
         args.Has("report-out") || args.Has("sample-period") ||
         WantsTxTrace(args);
}

TelemetryOptions TelemetryOptionsFromArgs(const CliArgs& args) {
  TelemetryOptions opts;
  opts.sample_period_s = args.GetDouble("sample-period", 0.5);
  opts.txtrace.enabled = WantsTxTrace(args);
  opts.txtrace.ring_capacity =
      static_cast<uint32_t>(args.GetInt("txtrace-ring", 1 << 16));
  opts.txtrace.window_s = args.GetDouble("txtrace-window", 5.0);
  return opts;
}

/// Any stream flag turns the engine on; --stream-window/--stream-apply
/// imply --stream-analysis so users don't have to spell out all three.
StreamOptions StreamOptionsFromArgs(const CliArgs& args) {
  StreamOptions opts;
  opts.enabled = args.Has("stream-analysis") || args.Has("stream-window") ||
                 args.Has("stream-apply");
  opts.window_s = args.GetDouble("stream-window", 5.0);
  opts.apply = args.Has("stream-apply");
  return opts;
}

void PrintStreamSummary(const StreamEngine& stream) {
  std::printf(
      "streaming analysis: %llu blocks / %llu txs seen, %llu window "
      "evaluations (window %.1fs), %zu active recommendation(s), "
      "%zu event(s)\n",
      static_cast<unsigned long long>(stream.blocks_seen()),
      static_cast<unsigned long long>(stream.entries_seen()),
      static_cast<unsigned long long>(stream.evaluations()),
      stream.options().window_s, stream.recommender().active().size(),
      stream.recommender().events().size());
  if (stream.applied()) {
    std::printf("  applied mid-run at t=%.2fs: %s\n",
                stream.apply_time(),
                std::string(RecommendationTypeName(
                                stream.applied_recommendation().type))
                    .c_str());
  }
  std::printf("\n");
}

/// "metrics.json" + index 3 -> "metrics-3.json" (suffix appended when the
/// basename has no extension). Used by sweep mode's per-point exports.
std::string SuffixedPath(const std::string& path, size_t index) {
  size_t slash = path.find_last_of('/');
  size_t dot = path.find_last_of('.');
  std::string suffix = "-" + std::to_string(index);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// The `--apply` what-if pass shared by the single- and multi-channel run
/// paths: each recommendation alone, then all combined, deltas vs `base`.
int ApplyWhatIf(const CliArgs& args, const ExperimentConfig& cfg,
                const PerformanceReport& base,
                const std::vector<Recommendation>& recs) {
  if (recs.empty()) {
    std::printf("nothing to apply\n");
    return 0;
  }
  WhatIfOptions options;
  options.jobs = args.GetInt("jobs", 1);
  auto whatif = EvaluateWhatIf(cfg, recs, options);
  if (!whatif.ok()) {
    std::fprintf(stderr, "apply error: %s\n",
                 whatif.status().ToString().c_str());
    return 1;
  }
  std::printf("\nwhat-if: each recommendation applied alone "
              "(jobs=%d):\n",
              ThreadPool::ResolveThreads(options.jobs));
  for (const auto& entry : whatif->individual) {
    std::printf("  %-28s success %+0.1f%%, latency %+0.1f%%, "
                "throughput %+0.1f%%\n",
                std::string(RecommendationTypeName(
                                entry.recommendation.type))
                    .c_str(),
                100 * RelativeImprovement(base.SuccessRate(),
                                          entry.report.SuccessRate()),
                100 * RelativeImprovement(base.AvgLatency(),
                                          entry.report.AvgLatency(), true),
                100 * RelativeImprovement(base.Throughput(),
                                          entry.report.Throughput()));
  }
  const PerformanceReport& combined = whatif->combined;
  std::printf("\nafter applying all recommendations:\n%s\n",
              combined.Summary().c_str());
  std::printf("success %+0.1f%%, latency %+0.1f%%, throughput %+0.1f%%\n",
              100 * RelativeImprovement(base.SuccessRate(),
                                        combined.SuccessRate()),
              100 * RelativeImprovement(base.AvgLatency(),
                                        combined.AvgLatency(), true),
              100 * RelativeImprovement(base.Throughput(),
                                        combined.Throughput()));
  return 0;
}

/// Run-mode output for sharded experiments (`--channels > 1`): per-channel
/// summaries and bottleneck attribution naming the saturated channel,
/// whole-experiment recommendations over the aggregated per-channel
/// metrics, and per-channel suffixed exports ("prom.txt" -> "prom-0.txt"
/// for channel 0, each Prometheus line labeled channel="N").
int MultiChannelRunCommand(const CliArgs& args, const ExperimentConfig& cfg,
                           const ExperimentOutput& out) {
  std::printf("%s\n", out.report.Summary().c_str());
  std::printf("per-channel breakdown (%zu channels, sim-threads=%d):\n",
              out.channels.size(), cfg.sim_threads);
  for (size_t c = 0; c < out.channels.size(); ++c) {
    std::printf("  channel %zu: %s\n", c,
                out.channels[c].report.Summary().c_str());
  }
  // Per-channel tails survive the merge (channel_tails is captured as
  // each channel folds in), so a channel whose p99 is far above the
  // pooled quantile is visible here.
  if (!out.report.channel_tails().empty()) {
    std::printf("per-channel tail latency:\n");
    const auto& tails = out.report.channel_tails();
    for (size_t c = 0; c < tails.size(); ++c) {
      std::printf("  channel %zu: p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs "
                  "(%llu successful)\n",
                  c, tails[c].p50_s, tails[c].p95_s, tails[c].p99_s,
                  tails[c].max_s,
                  static_cast<unsigned long long>(tails[c].successful));
    }
  }
  std::printf("\n");
  if (!out.fault_windows.empty()) {
    std::printf("injected faults (per channel):\n");
    for (const auto& w : out.fault_windows) {
      std::printf("  %-24s %s\n", w.name.c_str(),
                  FormatEvidenceWindow(w.start, w.end).c_str());
    }
    std::printf("\n");
  }

  // Per-channel bottleneck attribution. The saturated channel is the one
  // whose hottest station shows the highest utilization.
  std::vector<BottleneckReport> bottlenecks(out.channels.size());
  int hottest = -1;
  double hottest_util = -1;
  for (size_t c = 0; c < out.channels.size(); ++c) {
    const auto& ch = out.channels[c];
    if (!ch.telemetry) continue;
    bottlenecks[c] = ComputeBottleneckReport(*ch.telemetry, ch.sim_end_time,
                                             &ch.fault_windows);
    const auto* top = bottlenecks[c].Top();
    if (top != nullptr && top->utilization > hottest_util) {
      hottest_util = top->utilization;
      hottest = static_cast<int>(c);
    }
  }
  if (hottest >= 0) {
    std::printf("bottleneck attribution by channel:\n");
    for (size_t c = 0; c < out.channels.size(); ++c) {
      if (!out.channels[c].telemetry) continue;
      std::printf("  channel %zu: %s\n", c, bottlenecks[c].summary.c_str());
    }
    std::printf("=> hottest channel: channel %d (%s at %.0f%% "
                "utilization)\n\n",
                hottest, bottlenecks[hottest].bottleneck_station.c_str(),
                100 * hottest_util);
  }
  for (size_t c = 0; c < out.channels.size(); ++c) {
    if (out.channels[c].stream) {
      std::printf("channel %zu ", c);
      PrintStreamSummary(*out.channels[c].stream);
    }
  }

  // Cross-channel hot-key aggregation: the per-channel space-saving
  // sketches merge into one experiment-level view (summed counts, union
  // error bounds), so a key hammered from several channels at once
  // surfaces even when no single channel ranks it first.
  {
    const StreamEngine* first = nullptr;
    for (const auto& ch : out.channels) {
      if (ch.stream) {
        first = ch.stream.get();
        break;
      }
    }
    if (first != nullptr) {
      SpaceSavingTopK merged(first->hot_keys().capacity());
      for (const auto& ch : out.channels) {
        if (ch.stream) merged.Merge(ch.stream->hot_keys());
      }
      const auto entries = merged.Entries();
      if (!entries.empty()) {
        std::printf("cross-channel hot keys (failure-involved, merged "
                    "sketch):\n");
        const Interner& interner = GlobalKeyInterner();
        size_t shown = 0;
        for (const SpaceSavingTopK::Counter& c : entries) {
          std::printf("  %-24s count<=%llu (error bound %llu)\n",
                      std::string(interner.KeyForId(c.id)).c_str(),
                      static_cast<unsigned long long>(c.count),
                      static_cast<unsigned long long>(c.error));
          if (++shown == 8) break;
        }
        std::printf("\n");
      }
    }
  }

  // Whole-experiment recommendations: per-channel logs are analyzed
  // independently, then merged into one experiment-level LogMetrics.
  std::vector<BlockchainLog> logs;
  std::vector<LogMetrics> per_channel;
  logs.reserve(out.channels.size());
  per_channel.reserve(out.channels.size());
  for (const auto& ch : out.channels) {
    logs.push_back(ExtractBlockchainLog(ch.ledger));
    per_channel.push_back(ComputeMetrics(logs.back(), MetricsOptions{}));
  }
  LogMetrics metrics = AggregateMetrics(per_channel);
  RecommenderOptions options;
  if (args.Has("autotune")) {
    options = AutoTuneThresholds(metrics, options);
    std::printf("auto-tuned thresholds: Rt1=%.0f Et=%.2f It=%.2f\n\n",
                options.rt1, options.et, options.it);
  }
  auto recs = Recommend(metrics, options);
  if (hottest >= 0) {
    // Evidence windows come from the saturated channel's telemetry.
    AttachTelemetryEvidence(recs, bottlenecks[hottest]);
  }
  std::printf("%s\n", FormatRecommendationReport(metrics, recs).c_str());

  // ---- per-channel exports (path -> path-<channel>) --------------------
  for (size_t c = 0; c < out.channels.size(); ++c) {
    const auto& ch = out.channels[c];
    const std::string tag = std::to_string(c);
    if (ch.telemetry) {
      if (args.Has("trace-out")) {
        std::string path = SuffixedPath(args.Get("trace-out", ""), c);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        ch.telemetry->tracer().WriteChromeTrace(f);
        std::printf("wrote Chrome trace (open in Perfetto): %s\n",
                    path.c_str());
      }
      if (args.Has("trace-csv")) {
        std::string path = SuffixedPath(args.Get("trace-csv", ""), c);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        ch.telemetry->tracer().WriteCsv(f);
        std::printf("wrote span CSV: %s\n", path.c_str());
      }
      if (args.Has("txtrace-out") && ch.telemetry->txtrace() != nullptr) {
        std::string path = SuffixedPath(args.Get("txtrace-out", ""), c);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        WriteTxTraceChromeTrace(ch.telemetry->txtrace()->summary(), f);
        std::printf("wrote txtrace exemplar chains: %s\n", path.c_str());
      }
      if (args.Has("metrics-out")) {
        std::string path = SuffixedPath(args.Get("metrics-out", ""), c);
        JsonValue snapshot =
            TelemetrySnapshotJson(*ch.telemetry, &bottlenecks[c]);
        snapshot.as_object()["channel"] =
            JsonValue(static_cast<int64_t>(c));
        if (ch.stream) {
          snapshot.as_object()["stream"] = StreamStateJson(*ch.stream);
        }
        if (!WriteFileOrFail(path, snapshot.DumpPretty())) return 1;
        std::printf("wrote metrics snapshot: %s\n", path.c_str());
      }
      if (args.Has("prom-out")) {
        std::string path = SuffixedPath(args.Get("prom-out", ""), c);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        WritePrometheusText(*ch.telemetry, f, tag);
        if (ch.stream) AppendStreamPrometheus(*ch.stream, f);
        std::printf("wrote Prometheus exposition: %s\n", path.c_str());
      }
      if (args.Has("report-out")) {
        std::string path = SuffixedPath(args.Get("report-out", ""), c);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        char num[64];
        HtmlSummaryRows rows;
        rows.emplace_back("channel",
                          tag + " of " + std::to_string(out.channels.size()));
        std::snprintf(num, sizeof(num), "%.1f tps",
                      ch.report.Throughput());
        rows.emplace_back("throughput", num);
        std::snprintf(num, sizeof(num), "%.1f%%",
                      100 * ch.report.SuccessRate());
        rows.emplace_back("success rate", num);
        std::snprintf(num, sizeof(num), "%.3f s", ch.report.AvgLatency());
        rows.emplace_back("avg latency", num);
        if (c < out.report.channel_tails().size()) {
          std::snprintf(num, sizeof(num), "%.3f s",
                        out.report.channel_tails()[c].p99_s);
          rows.emplace_back("p99 latency", num);
        }
        std::snprintf(num, sizeof(num), "%.1f s", ch.sim_end_time);
        rows.emplace_back("sim end time", num);
        WriteHtmlReport(f, "BlockOptR run report: channel " + tag, rows,
                        *ch.telemetry, bottlenecks[c],
                        ch.stream ? StreamHtmlSection(*ch.stream)
                                  : std::string());
        std::printf("wrote HTML report: %s\n", path.c_str());
      }
    }
    if (args.Has("out-log")) {
      std::string path = SuffixedPath(args.Get("out-log", ""), c);
      if (!WriteFileOrFail(path,
                           [&](std::ostream& f) { WriteLogCsv(logs[c], f); })) {
        return 1;
      }
      std::printf("wrote blockchain log CSV: %s\n", path.c_str());
    }
    if (args.Has("out-json")) {
      std::string path = SuffixedPath(args.Get("out-json", ""), c);
      if (!WriteFileOrFail(path, LogToJson(logs[c]).DumpPretty())) return 1;
      std::printf("wrote blockchain log JSON: %s\n", path.c_str());
    }
    if (args.Has("out-xes") || args.Has("mine") || args.Has("out-dot")) {
      auto ev = EventLog::FromBlockchainLog(logs[c], EventLogOptions{});
      if (!ev.ok()) {
        std::fprintf(stderr, "event-log error (channel %zu): %s\n", c,
                     ev.status().ToString().c_str());
        return 1;
      }
      if (args.Has("out-xes")) {
        std::string path = SuffixedPath(args.Get("out-xes", ""), c);
        if (!WriteFileOrFail(path, [&](std::ostream& f) { WriteXes(*ev, f); })) {
          return 1;
        }
        std::printf("wrote XES event log: %s\n", path.c_str());
      }
      if (args.Has("mine") || args.Has("out-dot")) {
        PetriNet net = AlphaMiner::Mine(ev->Traces());
        if (args.Has("mine")) {
          auto fit = ReplayTraces(net, ev->Traces());
          std::printf("channel %zu mined Petri net: %zu transitions, "
                      "%zu places; fitness %.3f over %llu traces\n",
                      c, net.num_transitions(), net.num_places(),
                      fit.Fitness(),
                      static_cast<unsigned long long>(fit.traces_replayed));
        }
        if (args.Has("out-dot")) {
          std::string path = SuffixedPath(args.Get("out-dot", ""), c);
          if (!WriteFileOrFail(path, PetriNetToDot(net))) return 1;
          std::printf("wrote DOT model: %s\n", path.c_str());
        }
      }
    }
  }

  // Experiment-level flight-recorder view: the per-channel summaries merge
  // into one (count-weighted quantiles, union exemplars), written at the
  // unsuffixed path alongside the per-channel dumps.
  if (args.Has("txtrace-out")) {
    TxTraceSummary merged;
    bool any = false;
    for (const auto& ch : out.channels) {
      if (!ch.telemetry || ch.telemetry->txtrace() == nullptr) continue;
      if (!any) {
        merged = ch.telemetry->txtrace()->summary();
        any = true;
      } else {
        merged.Merge(ch.telemetry->txtrace()->summary());
      }
    }
    if (any) {
      const std::string path = args.Get("txtrace-out", "");
      std::ofstream f(path);
      if (!f) {
        std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
        return 1;
      }
      WriteTxTraceChromeTrace(merged, f);
      std::printf("wrote merged txtrace exemplar chains: %s\n",
                  path.c_str());
    }
  }

  if (args.Has("apply")) return ApplyWhatIf(args, cfg, out.report, recs);
  return 0;
}

int RunCommand(const CliArgs& args) {
  auto cfg = BuildExperiment(args);
  if (!cfg.ok()) {
    std::fprintf(stderr, "error: %s\n", cfg.status().ToString().c_str());
    return 1;
  }
  cfg->enable_telemetry = WantsTelemetry(args);
  cfg->telemetry_options = TelemetryOptionsFromArgs(args);
  cfg->stream = StreamOptionsFromArgs(args);

  std::printf("running %zu transactions on %d orgs (policy %s)...\n",
              cfg->schedule.size(), cfg->network.num_orgs,
              cfg->network.endorsement_policy.ToString().c_str());
  auto out = RunExperiment(*cfg);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  if (!out->channels.empty()) {
    return MultiChannelRunCommand(args, *cfg, *out);
  }
  std::printf("%s\n\n", out->report.Summary().c_str());
  if (!out->fault_windows.empty()) {
    std::printf("injected faults:\n");
    for (const auto& w : out->fault_windows) {
      std::printf("  %-24s %s\n", w.name.c_str(),
                  FormatEvidenceWindow(w.start, w.end).c_str());
    }
    std::printf("\n");
  }
  std::optional<BottleneckReport> bottleneck;
  if (out->telemetry) {
    std::printf("per-stage latency breakdown (from lifecycle spans):\n%s\n",
                out->report.StageBreakdownTable().c_str());
    bottleneck = ComputeBottleneckReport(*out->telemetry, out->sim_end_time,
                                         &out->fault_windows);
    std::string table = FormatBottleneckTable(*bottleneck);
    if (!table.empty()) {
      std::printf("bottleneck attribution (sampled every %.2fs):\n%s",
                  out->telemetry->sampler()->period(), table.c_str());
    }
    std::printf("=> %s\n\n", bottleneck->summary.c_str());
  }
  if (out->stream) PrintStreamSummary(*out->stream);

  BlockchainLog log = ExtractBlockchainLog(out->ledger);
  LogMetrics metrics = ComputeMetrics(log, MetricsOptions{});
  RecommenderOptions options;
  if (args.Has("autotune")) {
    options = AutoTuneThresholds(metrics, options);
    std::printf("auto-tuned thresholds: Rt1=%.0f Et=%.2f It=%.2f\n\n",
                options.rt1, options.et, options.it);
  }
  auto recs = Recommend(metrics, options);
  if (bottleneck) {
    // Every recommendation cites its observed evidence window.
    AttachTelemetryEvidence(recs, *bottleneck);
  }
  std::printf("%s\n", FormatRecommendationReport(metrics, recs).c_str());

  // ---- exports ---------------------------------------------------------
  if (args.Has("trace-out")) {
    std::ofstream f(args.Get("trace-out", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot write --trace-out\n");
      return 1;
    }
    out->telemetry->tracer().WriteChromeTrace(f);
    std::printf("wrote Chrome trace (open in Perfetto): %s\n",
                args.Get("trace-out", "").c_str());
  }
  if (args.Has("trace-csv")) {
    std::ofstream f(args.Get("trace-csv", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot write --trace-csv\n");
      return 1;
    }
    out->telemetry->tracer().WriteCsv(f);
    std::printf("wrote span CSV: %s\n", args.Get("trace-csv", "").c_str());
  }
  if (args.Has("txtrace-out") && out->telemetry->txtrace() != nullptr) {
    std::ofstream f(args.Get("txtrace-out", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot write --txtrace-out\n");
      return 1;
    }
    WriteTxTraceChromeTrace(out->telemetry->txtrace()->summary(), f);
    std::printf("wrote txtrace exemplar chains (open in Perfetto): %s\n",
                args.Get("txtrace-out", "").c_str());
  }
  if (args.Has("metrics-out")) {
    JsonValue snapshot = TelemetrySnapshotJson(
        *out->telemetry, bottleneck ? &*bottleneck : nullptr);
    if (out->stream) {
      snapshot.as_object()["stream"] = StreamStateJson(*out->stream);
    }
    if (!WriteFileOrFail(args.Get("metrics-out", ""), snapshot.DumpPretty())) {
      return 1;
    }
    std::printf("wrote metrics snapshot: %s\n",
                args.Get("metrics-out", "").c_str());
  }
  if (args.Has("prom-out")) {
    std::ofstream f(args.Get("prom-out", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot write --prom-out\n");
      return 1;
    }
    WritePrometheusText(*out->telemetry, f);
    if (out->stream) AppendStreamPrometheus(*out->stream, f);
    std::printf("wrote Prometheus exposition: %s\n",
                args.Get("prom-out", "").c_str());
  }
  if (args.Has("report-out")) {
    std::ofstream f(args.Get("report-out", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot write --report-out\n");
      return 1;
    }
    char num[64];
    HtmlSummaryRows rows;
    std::snprintf(num, sizeof(num), "%zu", cfg->schedule.size());
    rows.emplace_back("transactions", num);
    std::snprintf(num, sizeof(num), "%.1f tps",
                  out->report.Throughput());
    rows.emplace_back("throughput", num);
    std::snprintf(num, sizeof(num), "%.1f%%",
                  100 * out->report.SuccessRate());
    rows.emplace_back("success rate", num);
    std::snprintf(num, sizeof(num), "%.3f s", out->report.AvgLatency());
    rows.emplace_back("avg latency", num);
    std::snprintf(num, sizeof(num), "%.3f s",
                  out->report.LatencyPercentile(99));
    rows.emplace_back("p99 latency", num);
    std::snprintf(num, sizeof(num), "%.1f s", out->sim_end_time);
    rows.emplace_back("sim end time", num);
    WriteHtmlReport(f, "BlockOptR run report", rows, *out->telemetry,
                    *bottleneck,
                    out->stream ? StreamHtmlSection(*out->stream)
                                : std::string());
    std::printf("wrote HTML report: %s\n",
                args.Get("report-out", "").c_str());
  }
  if (args.Has("out-log")) {
    if (!WriteFileOrFail(args.Get("out-log", ""),
                         [&](std::ostream& f) { WriteLogCsv(log, f); })) {
      return 1;
    }
    std::printf("wrote blockchain log CSV: %s\n",
                args.Get("out-log", "").c_str());
  }
  if (args.Has("out-json")) {
    if (!WriteFileOrFail(args.Get("out-json", ""),
                         LogToJson(log).DumpPretty())) {
      return 1;
    }
    std::printf("wrote blockchain log JSON: %s\n",
                args.Get("out-json", "").c_str());
  }

  std::optional<EventLog> events;
  if (args.Has("out-xes") || args.Has("mine") || args.Has("out-dot")) {
    auto ev = EventLog::FromBlockchainLog(log, EventLogOptions{});
    if (!ev.ok()) {
      std::fprintf(stderr, "event-log error: %s\n",
                   ev.status().ToString().c_str());
      return 1;
    }
    events = std::move(*ev);
  }
  if (args.Has("out-xes")) {
    if (!WriteFileOrFail(args.Get("out-xes", ""),
                         [&](std::ostream& f) { WriteXes(*events, f); })) {
      return 1;
    }
    std::printf("wrote XES event log: %s\n", args.Get("out-xes", "").c_str());
  }
  if (args.Has("mine") || args.Has("out-dot")) {
    PetriNet net = AlphaMiner::Mine(events->Traces());
    if (args.Has("mine")) {
      auto fit = ReplayTraces(net, events->Traces());
      std::printf("mined Petri net: %zu transitions, %zu places; fitness "
                  "%.3f over %llu traces\n",
                  net.num_transitions(), net.num_places(), fit.Fitness(),
                  static_cast<unsigned long long>(fit.traces_replayed));
    }
    if (args.Has("out-dot")) {
      if (!WriteFileOrFail(args.Get("out-dot", ""), PetriNetToDot(net))) {
        return 1;
      }
      std::printf("wrote DOT model: %s\n", args.Get("out-dot", "").c_str());
    }
  }

  // ---- apply: per-recommendation what-if + combined rerun --------------
  if (args.Has("apply")) return ApplyWhatIf(args, *cfg, out->report, recs);
  return 0;
}

// ---------------------------------------------------------------------------
// sweep mode: a batch of experiments through the parallel engine
// ---------------------------------------------------------------------------

struct SweepCase {
  std::string label;
  ExperimentConfig config;
};

Result<std::vector<SweepCase>> BuildSweepCases(const CliArgs& args) {
  std::vector<SweepCase> cases;
  if (args.Has("rates") || args.Has("block-counts")) {
    for (const auto& field : Split(args.Get("rates", ""), ',')) {
      if (field.empty()) continue;
      CliArgs point = args;
      point.flags["rate"] = field;
      BLOCKOPTR_ASSIGN_OR_RETURN(auto cfg, BuildExperiment(point));
      cases.push_back(SweepCase{"send rate " + field, std::move(cfg)});
    }
    for (const auto& field : Split(args.Get("block-counts", ""), ',')) {
      if (field.empty()) continue;
      CliArgs point = args;
      point.flags["block-count"] = field;
      BLOCKOPTR_ASSIGN_OR_RETURN(auto cfg, BuildExperiment(point));
      cases.push_back(SweepCase{"block count " + field, std::move(cfg)});
    }
    if (cases.empty()) {
      return Status::InvalidArgument(
          "--rates / --block-counts given but no values parsed");
    }
    return cases;
  }
  const std::string set = args.Get("set", "table3");
  if (set == "channels") {
    for (const auto& def : ChannelExperiments(args.GetInt("txs", 10000))) {
      auto cfg = MakeChannelExperiment(def);
      cfg.sim_threads = args.GetInt("sim-threads", 1);
      cfg.epoch_s = args.GetDouble("sim-epoch", 0);
      cases.push_back(SweepCase{def.label, std::move(cfg)});
    }
    return cases;
  }
  if (set != "table3") {
    return Status::InvalidArgument("unknown sweep set '" + set +
                                   "' (supported: table3, channels)");
  }
  for (const auto& def : Table3Experiments(args.GetInt("txs", 10000))) {
    cases.push_back(SweepCase{
        def.label, MakeSyntheticExperiment(def.workload, def.network)});
  }
  return cases;
}

int SweepCommand(const CliArgs& args) {
  auto cases = BuildSweepCases(args);
  if (!cases.ok()) {
    std::fprintf(stderr, "error: %s\n", cases.status().ToString().c_str());
    return 1;
  }
  const int jobs = args.GetInt("jobs", 1);
  const bool telemetry = WantsTelemetry(args);
  const StreamOptions stream_opts = StreamOptionsFromArgs(args);

  std::vector<ExperimentConfig> configs;
  configs.reserve(cases->size());
  for (const auto& c : *cases) {
    configs.push_back(c.config);
    if (telemetry) {
      configs.back().enable_telemetry = true;
      configs.back().telemetry_options = TelemetryOptionsFromArgs(args);
    }
    configs.back().stream = stream_opts;
  }

  // Progress goes to stderr: stdout carries only the result table, which
  // is byte-identical for every --jobs value and therefore diffable.
  std::fprintf(stderr, "sweeping %zu experiments (jobs=%d)...\n",
               configs.size(), ThreadPool::ResolveThreads(jobs));
  auto outputs = SweepRunner(SweepOptions{jobs}).Run(configs);

  std::printf("%-28s %10s %9s %11s  %s\n", "experiment", "tput(tps)",
              "success", "latency(s)", "recommendations");
  std::printf("%-28s %10s %9s %11s  %s\n", "----------", "---------",
              "-------", "----------", "---------------");
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!outputs[i].ok()) {
      std::fprintf(stderr, "%-28s failed: %s\n", (*cases)[i].label.c_str(),
                   outputs[i].status().ToString().c_str());
      return 1;
    }
    const auto& report = outputs[i]->report;
    std::vector<Recommendation> recs;
    if (!outputs[i]->channels.empty()) {
      // Sharded case: aggregate the per-channel logs into one
      // experiment-level LogMetrics before recommending.
      std::vector<LogMetrics> per_channel;
      per_channel.reserve(outputs[i]->channels.size());
      for (const auto& ch : outputs[i]->channels) {
        per_channel.push_back(
            ComputeMetrics(ExtractBlockchainLog(ch.ledger), MetricsOptions{}));
      }
      recs = Recommend(AggregateMetrics(per_channel), RecommenderOptions{});
    } else {
      recs = RecommendFromLog(ExtractBlockchainLog(outputs[i]->ledger),
                              RecommenderOptions{});
    }
    std::printf("%-28s %10.1f %8.1f%% %11.3f  %s\n",
                (*cases)[i].label.c_str(), report.Throughput(),
                100 * report.SuccessRate(), report.AvgLatency(),
                RecommendationNames(recs).c_str());
    // Per-point observability exports ("metrics.json" -> "metrics-3.json"
    // for point 3). Progress lines go to stderr so stdout stays diffable.
    if (outputs[i]->telemetry != nullptr) {
      if (args.Has("trace-out")) {
        std::string path = SuffixedPath(args.Get("trace-out", ""), i + 1);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        outputs[i]->telemetry->tracer().WriteChromeTrace(f);
        std::fprintf(stderr, "wrote Chrome trace: %s\n", path.c_str());
      }
      if (args.Has("txtrace-out") &&
          outputs[i]->telemetry->txtrace() != nullptr) {
        std::string path = SuffixedPath(args.Get("txtrace-out", ""), i + 1);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        WriteTxTraceChromeTrace(outputs[i]->telemetry->txtrace()->summary(),
                                f);
        std::fprintf(stderr, "wrote txtrace exemplar chains: %s\n",
                     path.c_str());
      }
      if (args.Has("metrics-out")) {
        std::string path = SuffixedPath(args.Get("metrics-out", ""), i + 1);
        BottleneckReport bottleneck = ComputeBottleneckReport(
            *outputs[i]->telemetry, outputs[i]->sim_end_time,
            &outputs[i]->fault_windows);
        JsonValue snapshot =
            TelemetrySnapshotJson(*outputs[i]->telemetry, &bottleneck);
        if (outputs[i]->stream) {
          snapshot.as_object()["stream"] =
              StreamStateJson(*outputs[i]->stream);
        }
        if (!WriteFileOrFail(path, snapshot.DumpPretty())) return 1;
        std::fprintf(stderr, "wrote metrics snapshot: %s\n", path.c_str());
      }
      if (args.Has("prom-out")) {
        std::string path = SuffixedPath(args.Get("prom-out", ""), i + 1);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        WritePrometheusText(*outputs[i]->telemetry, f);
        if (outputs[i]->stream) {
          AppendStreamPrometheus(*outputs[i]->stream, f);
        }
        std::fprintf(stderr, "wrote Prometheus exposition: %s\n",
                     path.c_str());
      }
      if (args.Has("report-out")) {
        std::string path = SuffixedPath(args.Get("report-out", ""), i + 1);
        std::ofstream f(path);
        if (!f) {
          std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
          return 1;
        }
        BottleneckReport bottleneck = ComputeBottleneckReport(
            *outputs[i]->telemetry, outputs[i]->sim_end_time,
            &outputs[i]->fault_windows);
        char num[64];
        HtmlSummaryRows rows;
        rows.emplace_back("experiment", (*cases)[i].label);
        std::snprintf(num, sizeof(num), "%.1f tps", report.Throughput());
        rows.emplace_back("throughput", num);
        std::snprintf(num, sizeof(num), "%.1f%%",
                      100 * report.SuccessRate());
        rows.emplace_back("success rate", num);
        std::snprintf(num, sizeof(num), "%.3f s", report.AvgLatency());
        rows.emplace_back("avg latency", num);
        std::snprintf(num, sizeof(num), "%.1f s",
                      outputs[i]->sim_end_time);
        rows.emplace_back("sim end time", num);
        WriteHtmlReport(f, "BlockOptR sweep: " + (*cases)[i].label, rows,
                        *outputs[i]->telemetry, bottleneck,
                        outputs[i]->stream
                            ? StreamHtmlSection(*outputs[i]->stream)
                            : std::string());
        std::fprintf(stderr, "wrote HTML report: %s\n", path.c_str());
      }
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2 || (std::strcmp(argv[1], "run") != 0 &&
                   std::strcmp(argv[1], "sweep") != 0)) {
    return Usage();
  }
  CliArgs args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return Usage();
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  if (std::strcmp(argv[1], "sweep") == 0) return SweepCommand(args);
  return RunCommand(args);
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) { return blockoptr::Main(argc, argv); }
