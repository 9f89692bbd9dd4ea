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
#include <algorithm>
#include <concepts>
#include <cstdint>
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
      "observability (any of these enables telemetry for the run, which\n"
      "includes the per-transaction flight recorder):\n"
      "  --trace-out=F      export every flight-recorder event as Chrome\n"
      "                     trace-event JSON, one slice per event and one\n"
      "                     process per simulated component (open in\n"
      "                     Perfetto / chrome://tracing)\n"
      "  --trace-csv=F      export every flight-recorder event as CSV\n"
      "                     (seq,tx_id,stage,t_s,dur_s,actor,block_seq,\n"
      "                     flags); with either flag the ring is raised to\n"
      "                     hold the whole run\n"
      "  --metrics-out=F    export metrics + time series + bottleneck\n"
      "                     attribution as JSON\n"
      "  --prom-out=F       export Prometheus text exposition\n"
      "  --report-out=F     export a self-contained HTML report (inline\n"
      "                     SVG charts + bottleneck attribution)\n"
      "  --sample-period=S  continuous-sampler period in sim seconds\n"
      "                     (default 0.5; 0 disables the sampler)\n"
      "  --txtrace          enable telemetry without exporting a file: the\n"
      "                     flight recorder's packed lifecycle events give\n"
      "                     the critical-path table and tail-latency\n"
      "                     exemplars (p50/p95/p99/max per window) in the\n"
      "                     JSON/Prometheus/HTML exports\n"
      "  --txtrace-out=F    export the exemplar causal chains as Chrome\n"
      "                     trace-event JSON with flow arrows (implies\n"
      "                     --txtrace; open in Perfetto)\n"
      "  --txtrace-ring=N   flight-recorder ring capacity in events\n"
      "                     (default 65536, rounded to a power of two, at\n"
      "                     most 2^30; implies --txtrace)\n"
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
      "  every N); every `run` export flag writes one suffixed file per\n"
      "  sweep point (metrics.json -> metrics-3.json for point 3), and per\n"
      "  channel of a sharded point (metrics-3-0.json, metrics-3-1.json)\n");
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

/// --txs (default 10000); a negative count is an error.
Result<int> TxsFlag(const CliArgs& args) {
  const int txs = args.GetInt("txs", 10000);
  if (txs < 0) {
    return Status::InvalidArgument("--txs must be >= 0 (is " +
                                   std::to_string(txs) + ")");
  }
  return txs;
}

/// The `flag` value (`fallback` when absent) if it is > 0, else an error.
Result<double> PositiveDoubleFlag(const CliArgs& args, const char* flag,
                                  double fallback) {
  const double value = args.GetDouble(flag, fallback);
  if (!(value > 0)) {
    return Status::InvalidArgument("--" + std::string(flag) +
                                   " must be > 0 (is " +
                                   args.Get(flag, "") + ")");
  }
  return value;
}

Result<ExperimentConfig> BuildExperiment(const CliArgs& args) {
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.network.num_orgs = args.GetInt("orgs", 2);
  cfg.network.seed = static_cast<uint64_t>(args.GetInt("seed", 1)) + 41;
  cfg.network.endorser_dist_skew = args.GetDouble("endorser-skew", 0);
  const int block_count = args.GetInt("block-count", 300);
  if (block_count < 1) {
    return Status::InvalidArgument("--block-count must be >= 1 (is " +
                                   std::to_string(block_count) + ")");
  }
  cfg.network.block_cutting.max_tx_count = static_cast<uint32_t>(block_count);
  BLOCKOPTR_ASSIGN_OR_RETURN(cfg.network.block_cutting.timeout_s,
                             PositiveDoubleFlag(args, "block-timeout", 1.0));
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
  BLOCKOPTR_ASSIGN_OR_RETURN(const int txs, TxsFlag(args));
  BLOCKOPTR_ASSIGN_OR_RETURN(const double rate,
                             PositiveDoubleFlag(args, "rate", 300));
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

/// Whether the run needs telemetry: any observability flag turns it on,
/// flight recorder included.
bool WantsTelemetry(const CliArgs& args) {
  return args.Has("trace-out") || args.Has("trace-csv") ||
         args.Has("metrics-out") || args.Has("prom-out") ||
         args.Has("report-out") || args.Has("sample-period") ||
         args.Has("txtrace") || args.Has("txtrace-out") ||
         args.Has("txtrace-ring") || args.Has("txtrace-window");
}

/// Telemetry options for `cfg` (whose schedule, network and stream options
/// are already set). --trace-out and --trace-csv export every recorded
/// event, so they raise the ring to the run's event bound; a bound past
/// the recorder's limit saturates, and ChannelRun::Setup rejects it.
TelemetryOptions TelemetryOptionsFromArgs(const CliArgs& args,
                                          const ExperimentConfig& cfg) {
  TelemetryOptions opts;
  opts.sample_period_s = args.GetDouble("sample-period", 0.5);
  opts.txtrace.ring_capacity =
      static_cast<uint32_t>(args.GetInt("txtrace-ring", 1 << 16));
  opts.txtrace.window_s = args.GetDouble("txtrace-window", 5.0);
  if (args.Has("trace-out") || args.Has("trace-csv")) {
    const uint64_t bound = std::min<uint64_t>(TxTraceEventBound(cfg),
                                              UINT32_MAX);
    opts.txtrace.ring_capacity = std::max(
        opts.txtrace.ring_capacity, static_cast<uint32_t>(bound));
  }
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
/// basename has no extension).
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

/// `flag`'s path with each of `suffixes` appended in turn: the per-point
/// and per-channel export names ("metrics.json" + {3, 1} ->
/// "metrics-3-1.json").
std::string ExportPath(const CliArgs& args, const char* flag,
                       const std::vector<size_t>& suffixes) {
  std::string path = args.Get(flag, "");
  for (size_t s : suffixes) path = SuffixedPath(path, s);
  return path;
}

/// The `--apply` what-if pass: each recommendation alone, then all
/// combined, deltas vs `base`.
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

/// A run's channels: a sharded run's per-channel outputs, or the run
/// itself — a single-channel run is its own only channel.
std::vector<ExperimentOutput*> Channels(ExperimentOutput& out) {
  std::vector<ExperimentOutput*> channels;
  if (out.channels.empty()) {
    channels.push_back(&out);
  } else {
    for (auto& ch : out.channels) channels.push_back(&ch);
  }
  return channels;
}

/// BlockOptR's analysis of one experiment, shared by `run` and `sweep`.
struct Analysis {
  std::vector<ExperimentOutput*> channels;
  std::vector<BlockchainLog> logs;  // per channel
  /// Per channel; set for the channels that recorded telemetry.
  std::vector<std::optional<BottleneckReport>> bottlenecks;
  /// The channel whose top station is the most utilized (the saturated
  /// channel); -1 when no channel sampled any station.
  int hottest = -1;
  LogMetrics metrics;  // experiment-level
  RecommenderOptions options;
  std::vector<Recommendation> recs;
};

/// Per channel: blockchain log -> metrics, plus the bottleneck report when
/// telemetry ran. Several channels' metrics merge into one experiment-level
/// LogMetrics; then thresholds (auto-tuned on request), the nine rules,
/// and evidence windows from the hottest channel's telemetry.
Analysis Analyze(ExperimentOutput& out, bool autotune) {
  Analysis a;
  a.channels = Channels(out);
  std::vector<LogMetrics> per_channel;
  double hottest_util = -1;
  for (size_t c = 0; c < a.channels.size(); ++c) {
    const ExperimentOutput& ch = *a.channels[c];
    a.logs.push_back(ExtractBlockchainLog(ch.ledger));
    per_channel.push_back(ComputeMetrics(a.logs.back(), MetricsOptions{}));
    auto& bottleneck = a.bottlenecks.emplace_back();
    if (!ch.telemetry) continue;
    bottleneck = ComputeBottleneckReport(*ch.telemetry, ch.sim_end_time,
                                         &ch.fault_windows);
    const StationAttribution* top = bottleneck->Top();
    if (top != nullptr && top->utilization > hottest_util) {
      hottest_util = top->utilization;
      a.hottest = static_cast<int>(c);
    }
  }
  a.metrics = per_channel.size() == 1 ? std::move(per_channel.front())
                                      : AggregateMetrics(per_channel);
  if (autotune) a.options = AutoTuneThresholds(a.metrics, a.options);
  a.recs = Recommend(a.metrics, a.options);
  if (a.hottest >= 0) {
    AttachTelemetryEvidence(a.recs, *a.bottlenecks[a.hottest]);
  }
  return a;
}

/// `run`'s summary ahead of the recommendation report. One channel: the
/// report, faults, critical-path and bottleneck tables. Several: the
/// merged report, per-channel breakdown and tails, faults, per-channel
/// bottleneck verdicts naming the hottest channel. Either way, each
/// channel's streaming summary.
void PrintRunSummary(const ExperimentOutput& out, const Analysis& a,
                     int sim_threads) {
  const size_t n = a.channels.size();
  std::printf("%s\n", out.report.Summary().c_str());
  if (n > 1) {
    std::printf("per-channel breakdown (%zu channels, sim-threads=%d):\n", n,
                sim_threads);
    for (size_t c = 0; c < n; ++c) {
      std::printf("  channel %zu: %s\n", c,
                  a.channels[c]->report.Summary().c_str());
    }
    // Per-channel tails survive the merge (channel_tails is captured as
    // each channel folds in), so a channel whose p99 is far above the
    // pooled quantile is visible here.
    const auto& tails = out.report.channel_tails();
    if (!tails.empty()) std::printf("per-channel tail latency:\n");
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
    std::printf("injected faults%s:\n", n > 1 ? " (per channel)" : "");
    for (const auto& w : out.fault_windows) {
      std::printf("  %-24s %s\n", w.name.c_str(),
                  FormatEvidenceWindow(w.start, w.end).c_str());
    }
    std::printf("\n");
  }
  if (n == 1 && out.telemetry) {
    const BottleneckReport& bottleneck = *a.bottlenecks.front();
    if (const TxTraceRecorder* rec = out.telemetry->txtrace()) {
      std::printf("critical-path breakdown (flight recorder):\n%s\n",
                  FormatCriticalPathTable(rec->summary()).c_str());
    }
    std::string table = FormatBottleneckTable(bottleneck);
    if (!table.empty()) {
      std::printf("bottleneck attribution (sampled every %.2fs):\n%s",
                  out.telemetry->sampler()->period(), table.c_str());
    }
    std::printf("=> %s\n\n", bottleneck.summary.c_str());
  } else if (n > 1 && a.hottest >= 0) {
    std::printf("bottleneck attribution by channel:\n");
    for (size_t c = 0; c < n; ++c) {
      if (!a.bottlenecks[c]) continue;
      std::printf("  channel %zu: %s\n", c, a.bottlenecks[c]->summary.c_str());
    }
    const BottleneckReport& hottest = *a.bottlenecks[a.hottest];
    std::printf("=> hottest channel: channel %d (%s at %.0f%% "
                "utilization)\n\n",
                a.hottest, hottest.bottleneck_station.c_str(),
                100 * hottest.Top()->utilization);
  }
  for (size_t c = 0; c < n; ++c) {
    if (!a.channels[c]->stream) continue;
    if (n > 1) std::printf("channel %zu ", c);
    PrintStreamSummary(*a.channels[c]->stream);
  }
}

/// Where one run output's exports go and how they are labelled.
struct ExportTarget {
  /// Appended to every export path (ExportPath); a sharded experiment's
  /// channel c adds c.
  std::vector<size_t> suffixes;
  /// Set for a channel of a sharded experiment: the Prometheus
  /// channel="N" label, the metrics-JSON "channel" field and the
  /// "channel N" prefix of the mining line.
  std::optional<size_t> channel;
  std::string html_title;
  HtmlSummaryRows html_rows;  // leading rows of the HTML summary table
  bool html_p99 = true;       // a p99 latency row (sweep reports have none)
  /// Progress ("wrote ...", mining) lines: stdout for `run`, stderr for
  /// `sweep`, whose stdout is only the result table.
  FILE* progress = stdout;
};

/// The HTML report's summary table: the target's leading rows, then the
/// channel's throughput, success rate, latencies and simulated end time.
HtmlSummaryRows HtmlRows(const ExportTarget& target, ExperimentOutput& ch) {
  HtmlSummaryRows rows = target.html_rows;
  char num[64];
  std::snprintf(num, sizeof(num), "%.1f tps", ch.report.Throughput());
  rows.emplace_back("throughput", num);
  std::snprintf(num, sizeof(num), "%.1f%%", 100 * ch.report.SuccessRate());
  rows.emplace_back("success rate", num);
  std::snprintf(num, sizeof(num), "%.3f s", ch.report.AvgLatency());
  rows.emplace_back("avg latency", num);
  if (target.html_p99) {
    std::snprintf(num, sizeof(num), "%.3f s", ch.report.LatencyPercentile(99));
    rows.emplace_back("p99 latency", num);
  }
  std::snprintf(num, sizeof(num), "%.1f s", ch.sim_end_time);
  rows.emplace_back("sim end time", num);
  return rows;
}

/// Writes every export flag for one channel output, each file through
/// WriteFileOrFail. False on the first failure.
bool WriteChannelExports(const CliArgs& args, ExperimentOutput& ch,
                         const BlockchainLog& log,
                         const std::optional<BottleneckReport>& bottleneck,
                         const ExportTarget& target) {
  // Writes `flag`'s file with `fill` when the flag is set.
  auto write = [&](const char* flag, const char* what, auto&& fill) {
    if (!args.Has(flag)) return true;
    const std::string path = ExportPath(args, flag, target.suffixes);
    if (!WriteFileOrFail(path, fill)) return false;
    std::fprintf(target.progress, "wrote %s: %s\n", what, path.c_str());
    return true;
  };
  if (ch.telemetry) {
    const Telemetry& t = *ch.telemetry;
    const TxTraceRecorder* rec = t.txtrace();
    const bool ok =
        (rec == nullptr ||
         (write("trace-out", "Chrome trace (open in Perfetto)",
                [&](std::ostream& f) {
                  WriteTxTraceRingChromeTrace(*rec, f);
                }) &&
          write("trace-csv", "trace event CSV",
                [&](std::ostream& f) { WriteTxTraceRingCsv(*rec, f); }) &&
          write("txtrace-out", "txtrace exemplar chains (open in Perfetto)",
                [&](std::ostream& f) {
                  WriteTxTraceChromeTrace(rec->summary(), f);
                }))) &&
        write("metrics-out", "metrics snapshot",
              [&](std::ostream& f) {
                JsonValue snapshot = TelemetrySnapshotJson(t, &*bottleneck);
                if (target.channel) {
                  snapshot.as_object()["channel"] =
                      JsonValue(static_cast<int64_t>(*target.channel));
                }
                if (ch.stream) {
                  snapshot.as_object()["stream"] =
                      StreamStateJson(*ch.stream);
                }
                f << snapshot.DumpPretty();
              }) &&
        write("prom-out", "Prometheus exposition",
              [&](std::ostream& f) {
                WritePrometheusText(
                    t, f,
                    target.channel ? std::to_string(*target.channel) : "");
                if (ch.stream) AppendStreamPrometheus(*ch.stream, f);
              }) &&
        write("report-out", "HTML report", [&](std::ostream& f) {
          WriteHtmlReport(
              f, target.html_title, HtmlRows(target, ch), t, *bottleneck,
              ch.stream ? StreamHtmlSection(*ch.stream) : std::string());
        });
    if (!ok) return false;
  }
  if (!write("out-log", "blockchain log CSV",
             [&](std::ostream& f) { WriteLogCsv(log, f); }) ||
      !write("out-json", "blockchain log JSON",
             [&](std::ostream& f) { f << LogToJson(log).DumpPretty(); })) {
    return false;
  }
  if (!args.Has("out-xes") && !args.Has("mine") && !args.Has("out-dot")) {
    return true;
  }
  const std::string channel_prefix =
      target.channel ? "channel " + std::to_string(*target.channel) + " "
                     : "";
  auto events = EventLog::FromBlockchainLog(log, EventLogOptions{});
  if (!events.ok()) {
    std::fprintf(stderr, "%sevent-log error: %s\n", channel_prefix.c_str(),
                 events.status().ToString().c_str());
    return false;
  }
  if (!write("out-xes", "XES event log",
             [&](std::ostream& f) { WriteXes(*events, f); })) {
    return false;
  }
  if (!args.Has("mine") && !args.Has("out-dot")) return true;
  PetriNet net = AlphaMiner::Mine(events->Traces());
  if (args.Has("mine")) {
    auto fit = ReplayTraces(net, events->Traces());
    std::fprintf(target.progress,
                 "%smined Petri net: %zu transitions, %zu places; fitness "
                 "%.3f over %llu traces\n",
                 channel_prefix.c_str(), net.num_transitions(),
                 net.num_places(), fit.Fitness(),
                 static_cast<unsigned long long>(fit.traces_replayed));
  }
  return write("out-dot", "DOT model",
               [&](std::ostream& f) { f << PetriNetToDot(net); });
}

/// Writes every export of one analyzed experiment: each channel's files
/// (channel c of a sharded experiment adds suffix c, its channel label,
/// ": channel c" to the HTML title and a "channel c of N" row), then, for
/// several channels, the merged flight-recorder view (count-weighted
/// quantiles, union exemplars) at the experiment's own --txtrace-out path.
bool WriteExports(const CliArgs& args, const Analysis& a,
                  const ExportTarget& experiment) {
  const size_t n = a.channels.size();
  for (size_t c = 0; c < n; ++c) {
    ExportTarget target = experiment;
    if (n > 1) {
      target.suffixes.push_back(c);
      target.channel = c;
      target.html_title += ": channel " + std::to_string(c);
      target.html_rows.emplace_back(
          "channel", std::to_string(c) + " of " + std::to_string(n));
    }
    if (!WriteChannelExports(args, *a.channels[c], a.logs[c],
                             a.bottlenecks[c], target)) {
      return false;
    }
  }
  if (n == 1 || !args.Has("txtrace-out")) return true;
  std::optional<TxTraceSummary> merged;
  for (const ExperimentOutput* ch : a.channels) {
    if (!ch->telemetry || ch->telemetry->txtrace() == nullptr) continue;
    const TxTraceSummary& summary = ch->telemetry->txtrace()->summary();
    if (merged) {
      merged->Merge(summary);
    } else {
      merged = summary;
    }
  }
  if (!merged) return true;
  const std::string path =
      ExportPath(args, "txtrace-out", experiment.suffixes);
  if (!WriteFileOrFail(path, [&](std::ostream& f) {
        WriteTxTraceChromeTrace(*merged, f);
      })) {
    return false;
  }
  std::fprintf(experiment.progress,
               "wrote merged txtrace exemplar chains: %s\n", path.c_str());
  return true;
}

int RunCommand(const CliArgs& args) {
  auto cfg = BuildExperiment(args);
  if (!cfg.ok()) {
    std::fprintf(stderr, "error: %s\n", cfg.status().ToString().c_str());
    return 1;
  }
  cfg->enable_telemetry = WantsTelemetry(args);
  cfg->stream = StreamOptionsFromArgs(args);
  cfg->telemetry_options = TelemetryOptionsFromArgs(args, *cfg);

  std::printf("running %zu transactions on %d orgs (policy %s)...\n",
              cfg->schedule.size(), cfg->network.num_orgs,
              cfg->network.endorsement_policy.ToString().c_str());
  auto out = RunExperiment(*cfg);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  const Analysis a = Analyze(*out, args.Has("autotune"));
  PrintRunSummary(*out, a, cfg->sim_threads);
  if (args.Has("autotune")) {
    std::printf("auto-tuned thresholds: Rt1=%.0f Et=%.2f It=%.2f\n\n",
                a.options.rt1, a.options.et, a.options.it);
  }
  std::printf("%s\n", FormatRecommendationReport(a.metrics, a.recs).c_str());

  ExportTarget target;
  target.html_title = "BlockOptR run report";
  if (a.channels.size() == 1) {
    target.html_rows.emplace_back("transactions",
                                  std::to_string(cfg->schedule.size()));
  }
  if (!WriteExports(args, a, target)) return 1;
  if (args.Has("apply")) return ApplyWhatIf(args, *cfg, out->report, a.recs);
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
  BLOCKOPTR_ASSIGN_OR_RETURN(const int txs, TxsFlag(args));
  if (set == "channels") {
    for (const auto& def : ChannelExperiments(txs)) {
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
  for (const auto& def : Table3Experiments(txs)) {
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
    ExperimentConfig& cfg = configs.emplace_back(c.config);
    cfg.stream = stream_opts;
    if (telemetry) {
      cfg.enable_telemetry = true;
      cfg.telemetry_options = TelemetryOptionsFromArgs(args, cfg);
    }
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
      std::fprintf(stderr, "error: %s failed: %s\n",
                   (*cases)[i].label.c_str(),
                   outputs[i].status().ToString().c_str());
      return 1;
    }
    const auto& report = outputs[i]->report;
    const Analysis a = Analyze(*outputs[i], /*autotune=*/false);
    std::printf("%-28s %10.1f %8.1f%% %11.3f  %s\n",
                (*cases)[i].label.c_str(), report.Throughput(),
                100 * report.SuccessRate(), report.AvgLatency(),
                RecommendationNames(a.recs).c_str());
    // Point i's exports carry suffix i ("metrics.json" -> "metrics-3.json"
    // for point 3, "metrics-3-1.json" for channel 1 of a sharded point 3).
    // Progress lines go to stderr so stdout stays diffable.
    ExportTarget target;
    target.suffixes = {i + 1};
    target.html_title = "BlockOptR sweep: " + (*cases)[i].label;
    target.html_rows.emplace_back("experiment", (*cases)[i].label);
    target.html_p99 = false;
    target.progress = stderr;
    if (!WriteExports(args, a, target)) return 1;
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
