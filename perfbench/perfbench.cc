// The repository benchmark: drives the BlockOptR library through the same
// public calls `blockoptr run` makes (RunExperiment -> ExtractBlockchainLog
// -> ComputeMetrics [-> AggregateMetrics] -> Recommend -> exports + mining),
// times each call from outside, checks the outputs, and prints every metric
// by name and unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions (spans around every
// public call, kept in memory and written to --trace-out at exit), then runs
// the off-pipeline probes once (validator replay, conflict graph, standalone
// stream replay, shard variants, exports where the workload has none) and
// reports the per-layer metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--txs N] [--trace-out FILE]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blockopt/eventlog/event_log.h"
#include "blockopt/eventlog/xes_export.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/stream/stream_engine.h"
#include "common/json.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "fabric/validator.h"
#include "mining/alpha_miner.h"
#include "mining/conformance.h"
#include "reorder/conflict_graph.h"
#include "statedb/versioned_store.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads. All use the paper's Table 2 network defaults (2 orgs, P3,
// block count 300, 300 TPS) and differ in the layers they stress; the
// reasons are recorded in BENCHMARK.json and perfbench/README.md.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  SyntheticWorkloadType type;
  double key_skew;
  const char* scheduler;
  bool stream;
  int channels;
  int sim_threads;
  bool exports;
};

constexpr Workload kWorkloads[] = {
    {"batch-export", SyntheticWorkloadType::kUniform, 1.0, "", false, 1, 1,
     true},
    {"stream-hotkey", SyntheticWorkloadType::kUpdateHeavy, 2.0, "fabricsharp",
     true, 1, 1, false},
    {"sharded-4ch", SyntheticWorkloadType::kUniform, 1.0, "", false, 4, 2,
     false},
};

/// Transactions per workload: under 1 s per repetition, and export sizes
/// (CSV ~4.9 MiB, XES ~6.3 MiB, JSON ~19 MiB) about 20% clear of the
/// power-of-two steps at which their string buffers double, so peak memory
/// does not jump between seeds.
constexpr int kTxs = 25000;

/// The ExperimentConfig `blockoptr run` builds for the same flags.
ExperimentConfig MakeConfig(const Workload& w, int txs, uint64_t seed) {
  SyntheticConfig wl;
  wl.type = w.type;
  wl.num_txs = txs;
  wl.send_rate = 300;
  wl.key_skew = w.key_skew;
  wl.num_orgs = 2;
  wl.seed = seed;
  NetworkConfig net = NetworkConfig::Defaults();
  net.num_orgs = 2;
  net.seed = seed + 41;
  net.block_cutting.max_tx_count = 300;
  net.block_cutting.timeout_s = 1.0;
  net.endorsement_policy = EndorsementPolicy::Preset(3, net.num_orgs);
  ExperimentConfig cfg = MakeSyntheticExperiment(wl, net);
  cfg.orderer_scheduler = w.scheduler;
  cfg.stream.enabled = w.stream;
  cfg.channels = w.channels;
  cfg.sim_threads = w.sim_threads;
  return cfg;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Recording is off in untraced
// repetitions, where a Scope costs one branch.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
  double duration() const { return end_s - start_s; }
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(
          Span{name, log_.open_.empty() ? -1 : log_.open_.back(), Now(), 0});
      log_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      log_.spans_[static_cast<size_t>(index_)].end_s = Now();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per span name over spans [first, end): summed duration and summed self
/// time (duration minus the part its children cover; children of one span
/// run one after another, so their durations do not overlap).
struct LayerTimes {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
};

LayerTimes SumLayers(const std::vector<Span>& spans, size_t first) {
  LayerTimes t;
  std::vector<double> child(spans.size(), 0.0);
  for (size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child[static_cast<size_t>(spans[i].parent)] += spans[i].duration();
    }
  }
  for (size_t i = first; i < spans.size(); ++i) {
    t.total[spans[i].name] += spans[i].duration();
    t.self[spans[i].name] += spans[i].duration() - child[i];
  }
  return t;
}

/// Chrome trace-event JSON (opens in Perfetto).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string parent =
        s.parent < 0 ? "" : spans[static_cast<size_t>(s.parent)].name;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"parent_name\":\"%s\"}}%s\n",
                  s.name.c_str(), s.start_s * 1e6, s.duration() * 1e6, i,
                  s.parent, parent.c_str(),
                  i + 1 < spans.size() ? "," : "");
    f << line;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// The pipeline.
// ---------------------------------------------------------------------------

/// A single-channel run is its own only channel.
std::vector<const ExperimentOutput*> Channels(const ExperimentOutput& out) {
  std::vector<const ExperimentOutput*> chans;
  if (out.channels.empty()) {
    chans.push_back(&out);
  } else {
    for (const auto& ch : out.channels) chans.push_back(&ch);
  }
  return chans;
}

uint64_t BlockCount(const ExperimentOutput& out) {
  uint64_t blocks = 0;
  for (const ExperimentOutput* ch : Channels(out)) {
    blocks += ch->ledger.NumBlocks();
  }
  return blocks;
}

struct Exports {
  std::string csv;
  std::string json;
  std::string xes;
  size_t cases = 0;
  double fitness = 0;
};

struct Analysis {
  std::vector<BlockchainLog> logs;
  std::vector<Recommendation> recs;
  size_t rows = 0;
};

struct PipelineRun {
  ExperimentOutput out;
  Analysis analysis;
  std::vector<Exports> exports;  // one per log when the workload exports
  double run_s = 0;              // RunExperiment
  double recs_s = 0;             // RunExperiment call -> Recommend returns
  double total_s = 0;            // RunExperiment call -> last call returns
};

/// Extract -> metrics (per channel, then aggregate when sharded) ->
/// recommend, as `blockoptr run` does.
Analysis Analyze(const ExperimentOutput& out, SpanLog& spans) {
  Analysis a;
  std::vector<LogMetrics> per_channel;
  for (const ExperimentOutput* ch : Channels(out)) {
    {
      SpanLog::Scope s(spans, "blockopt.log.extract");
      a.logs.push_back(ExtractBlockchainLog(ch->ledger));
    }
    SpanLog::Scope s(spans, "blockopt.metrics.compute");
    per_channel.push_back(ComputeMetrics(a.logs.back(), MetricsOptions{}));
  }
  for (const auto& log : a.logs) a.rows += log.size();
  LogMetrics metrics;
  if (out.channels.empty()) {
    metrics = std::move(per_channel.front());
  } else {
    SpanLog::Scope s(spans, "blockopt.metrics.aggregate");
    metrics = AggregateMetrics(per_channel);
  }
  SpanLog::Scope s(spans, "blockopt.recommend");
  a.recs = Recommend(metrics, RecommenderOptions{});
  return a;
}

/// Every export of `blockoptr run --out-log --out-json --out-xes --mine`,
/// into in-memory streams.
Result<Exports> RunExports(const BlockchainLog& log, SpanLog& spans) {
  Exports e;
  {
    SpanLog::Scope s(spans, "export.csv");
    std::ostringstream os;
    WriteLogCsv(log, os);
    e.csv = std::move(os).str();
  }
  {
    SpanLog::Scope s(spans, "export.json");
    e.json = LogToJson(log).DumpPretty();
  }
  auto ev = [&] {
    SpanLog::Scope s(spans, "blockopt.eventlog.build");
    return EventLog::FromBlockchainLog(log, EventLogOptions{});
  }();
  if (!ev.ok()) return ev.status();
  e.cases = ev->num_cases();
  {
    SpanLog::Scope s(spans, "export.xes");
    std::ostringstream os;
    WriteXes(*ev, os);
    e.xes = std::move(os).str();
  }
  const PetriNet net = [&] {
    SpanLog::Scope s(spans, "mining.alpha");
    return AlphaMiner::Mine(ev->Traces());
  }();
  SpanLog::Scope s(spans, "mining.replay");
  e.fitness = ReplayTraces(net, ev->Traces()).Fitness();
  return e;
}

Result<PipelineRun> RunPipeline(const Workload& w, const ExperimentConfig& cfg,
                                SpanLog& spans) {
  PipelineRun run;
  SpanLog::Scope root(spans, "pipeline");
  const double t0 = Now();
  {
    SpanLog::Scope s(spans, "driver.run_experiment");
    auto out = RunExperiment(cfg);
    if (!out.ok()) return out.status();
    run.out = std::move(*out);
  }
  run.run_s = Now() - t0;
  run.analysis = Analyze(run.out, spans);
  run.recs_s = Now() - t0;
  if (w.exports) {
    for (const auto& log : run.analysis.logs) {
      auto e = RunExports(log, spans);
      if (!e.ok()) return e.status();
      run.exports.push_back(std::move(*e));
    }
  }
  run.total_s = Now() - t0;
  return run;
}

// ---------------------------------------------------------------------------
// Output checks (outside every timed region).
// ---------------------------------------------------------------------------

/// Report counts, block count, and the fired recommendations with their
/// details: identical across repetitions and thread counts of a workload.
std::string Fingerprint(const ExperimentOutput& out,
                        const std::vector<Recommendation>& recs) {
  const PerformanceReport& r = out.report;
  std::ostringstream f;
  f << "committed=" << r.total_committed() << " valid=" << r.successful()
    << " mvcc=" << r.mvcc_failures() << " phantom=" << r.phantom_failures()
    << " endorsement=" << r.endorsement_failures()
    << " early_aborts=" << r.early_aborts() << " blocks=" << BlockCount(out);
  for (const auto& rec : recs) {
    f << " | " << RecommendationTypeName(rec.type) << ": " << rec.detail;
  }
  return f.str();
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

void CheckExports(const BlockchainLog& log, const Exports& e,
                  std::vector<std::string>& errors) {
  auto json = JsonValue::Parse(e.json);
  if (!json.ok() || !json->is_object() || !(*json)["entries"].is_array() ||
      (*json)["entries"].as_array().size() != log.size()) {
    errors.push_back("JSON export does not re-parse to " +
                     std::to_string(log.size()) + " entries");
  }
  const size_t csv_rows = CountOf(e.csv, "\n");
  if (csv_rows != log.size() + 1) {
    errors.push_back("CSV export has " + std::to_string(csv_rows) +
                     " lines for " + std::to_string(log.size()) + " entries");
  }
  const size_t traces = CountOf(e.xes, "<trace>");
  if (traces != e.cases) {
    errors.push_back("XES export has " + std::to_string(traces) +
                     " traces for " + std::to_string(e.cases) + " cases");
  }
  if (!(e.fitness >= 0 && e.fitness <= 1)) {
    errors.push_back("mining fitness out of [0, 1]");
  }
}

std::vector<std::string> CheckRun(const ExperimentConfig& cfg,
                                  const PipelineRun& run) {
  std::vector<std::string> errors;
  const PerformanceReport& r = run.out.report;
  if (r.total_committed() + r.early_aborts() != cfg.schedule.size()) {
    errors.push_back("conservation: committed " +
                     std::to_string(r.total_committed()) + " + early aborts " +
                     std::to_string(r.early_aborts()) + " != scheduled " +
                     std::to_string(cfg.schedule.size()));
  }
  std::map<TxStatus, uint64_t> status;
  for (const auto& log : run.analysis.logs) {
    for (const auto& e : log.entries()) ++status[e.status];
  }
  if (run.analysis.rows != r.total_committed() ||
      status[TxStatus::kValid] != r.successful() ||
      status[TxStatus::kMvccReadConflict] != r.mvcc_failures() ||
      status[TxStatus::kPhantomReadConflict] != r.phantom_failures() ||
      status[TxStatus::kEndorsementPolicyFailure] != r.endorsement_failures()) {
    errors.push_back("log entry/status counts differ from the report");
  }
  for (size_t i = 0; i < run.exports.size(); ++i) {
    CheckExports(run.analysis.logs[i], run.exports[i], errors);
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Off-pipeline probes of the traced run.
// ---------------------------------------------------------------------------

struct ValidatorProbe {
  double seconds = 0;
  uint64_t txs = 0;
  uint64_t mismatches = 0;
};

/// Replays ValidateAndApplyBlock over each channel's own ledger onto a
/// freshly seeded store; the replayed statuses must equal the recorded ones.
ValidatorProbe ProbeValidator(const ExperimentConfig& cfg,
                              const ExperimentOutput& out, SpanLog& spans) {
  ValidatorProbe p;
  SpanLog::Scope s(spans, "fabric.validate");
  for (const ExperimentOutput* ch : Channels(out)) {
    VersionedStore state;
    uint32_t seeded = 0;
    for (const auto& seed : cfg.seeds) {
      state.Apply(seed.chaincode + "~" + seed.key, seed.value,
                  /*is_delete=*/false, Version{0, seeded++});
    }
    for (const Block& recorded : ch->ledger.blocks()) {
      Block block = recorded;
      for (auto& tx : block.transactions) {
        if (!tx.is_config && !tx.pre_aborted) tx.status = TxStatus::kValid;
      }
      const double t = Now();
      ValidateAndApplyBlock(block, state, ch->network.endorsement_policy);
      p.seconds += Now() - t;
      p.txs += block.transactions.size();
      for (size_t i = 0; i < block.transactions.size(); ++i) {
        if (block.transactions[i].status != recorded.transactions[i].status) {
          ++p.mismatches;
        }
      }
    }
  }
  return p;
}

/// ConflictGraph construction over each committed block's rwsets.
double ProbeConflictGraph(const ExperimentOutput& out, SpanLog& spans) {
  SpanLog::Scope s(spans, "reorder.conflict_graph");
  double seconds = 0;
  std::vector<const ReadWriteSet*> rwsets;
  for (const ExperimentOutput* ch : Channels(out)) {
    for (const Block& block : ch->ledger.blocks()) {
      rwsets.clear();
      for (const auto& tx : block.transactions) {
        if (!tx.is_config) rwsets.push_back(&tx.rwset);
      }
      const double t = Now();
      ConflictGraph graph(rwsets);
      seconds += Now() - t;
    }
  }
  return seconds;
}

struct StreamProbe {
  double feed_s = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_pct = 0;
  uint64_t evaluations = 0;
  uint64_t pane_merges = 0;
  uint64_t ring_overflow = 0;
  bool matches_in_run = true;
};

/// The highest of these percentiles that still has >= 10 samples beyond it.
double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1 - p / 100) >= 10) return p;
  }
  return 50;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Feeds each channel's ledger through a standalone StreamEngine with the
/// CLI's --stream-analysis options, block by block, then Finalize.
StreamProbe ProbeStream(const ExperimentOutput& out, SpanLog& spans) {
  StreamProbe p;
  std::vector<double> per_block;
  StreamOptions opts;
  opts.enabled = true;
  SpanLog::Scope s(spans, "stream.feed");
  for (const ExperimentOutput* ch : Channels(out)) {
    const double start = Now();
    StreamEngine engine(opts);
    for (const Block& block : ch->ledger.blocks()) {
      const double t = Now();
      engine.OnBlockCommit(block);
      per_block.push_back((Now() - t) * 1e6);
    }
    engine.Finalize(ch->sim_end_time);
    p.feed_s += Now() - start;
    p.evaluations += engine.evaluations();
    p.pane_merges += engine.pane_merges();
    p.ring_overflow += engine.ring_overflow();
    if (ch->stream && (ch->stream->evaluations() != engine.evaluations() ||
                       ch->stream->entries_seen() != engine.entries_seen())) {
      p.matches_in_run = false;
    }
  }
  std::sort(per_block.begin(), per_block.end());
  p.p50_us = Percentile(per_block, 50);
  p.tail_pct = TailPercentile(per_block.size());
  p.tail_us = Percentile(per_block, p.tail_pct);
  return p;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int txs = 0;  // 0 = the workload's own size
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--txs") {
      args.txs = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0 && args.txs >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread, and the threads it starts, to `count` of
/// `cpus` starting at `first` (wrapping). Repetition i runs on CPUs from
/// i on: on a shared VM one vCPU measured up to 1.4x slower, and a
/// run left where the scheduler first put it inherits that vCPU's speed,
/// while a rotating run measures all of them in equal parts.
void PinRotating(const std::vector<int>& cpus, size_t first, size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

/// Resets the kernel's peak-RSS mark of this process to its current RSS, so
/// the next PeakRssMb() covers only what ran since. False where the kernel
/// does not support it; the peak then spans the whole process.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--txs N] [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int txs = args.txs > 0 ? args.txs : kTxs;
  SpanLog spans;
  const std::vector<int> cpus = AllowedCpus();
  const size_t threads = static_cast<size_t>(std::max(1, w->sim_threads));

  // Repetitions: a warm-up phase (checked, not timed; repetitions in the
  // first seconds of a process measured up to 1.5x slower), then at least
  // `min_reps` measured ones for --seconds. Each repetition first builds
  // the config afresh, so set-up is sampled across the whole run like the
  // pipeline. With tracing, every second measured repetition is traced.
  const double warmup_s = std::min(3.0, args.seconds);
  const int min_reps = args.trace ? 4 : 3;
  ExperimentConfig cfg;
  std::vector<double> setup_s, run_s, recs_s, untraced_total_s,
      traced_total_s;
  std::vector<double> peak_rss_mb;  // per repetition, pipeline only
  std::vector<LayerTimes> traced_layers;
  std::vector<double> coverage;
  PipelineRun last_traced;
  std::string fingerprint;
  int attempted = 0;
  int failed = 0;
  const double start = Now();
  double measure_start = 0;
  bool measuring = false;
  int measured = 0;
  for (;;) {
    const double now = Now();
    if (!measuring && attempted > 0 && now - start >= warmup_s) {
      measuring = true;
      measure_start = now;
    }
    if (measuring && measured >= min_reps &&
        now - measure_start >= args.seconds) {
      break;
    }
    const bool traced = args.trace && measuring && measured % 2 == 1;
    if (measuring) ++measured;
    spans.set_enabled(traced);
    PinRotating(cpus, static_cast<size_t>(attempted), threads);
    {
      cfg = ExperimentConfig();  // frees the previous one, untimed
      SpanLog::Scope s(spans, "workload.generate");
      const double t = Now();
      cfg = MakeConfig(*w, txs, args.seed);
      if (measuring) setup_s.push_back(Now() - t);
    }
    const size_t first_span = spans.spans().size();
    const bool rss_reset = ResetPeakRss();
    auto run = RunPipeline(*w, cfg, spans);
    const double rss_mb = PeakRssMb();
    spans.set_enabled(false);
    ++attempted;
    if (!run.ok()) {
      ++failed;
      std::fprintf(stderr, "rep %d: %s\n", attempted,
                   run.status().ToString().c_str());
      continue;
    }
    std::vector<std::string> errors = CheckRun(cfg, *run);
    const std::string fp = Fingerprint(run->out, run->analysis.recs);
    if (fingerprint.empty()) fingerprint = fp;
    if (fp != fingerprint) {
      errors.push_back("fingerprint differs from the first repetition: " + fp);
    }
    if (traced) {
      LayerTimes layers = SumLayers(spans.spans(), first_span);
      const double root = layers.total["pipeline"];
      coverage.push_back(root > 0 ? 1 - layers.self["pipeline"] / root : 0);
      if (coverage.back() < 0.95) {
        errors.push_back("top-level spans cover only " +
                         std::to_string(coverage.back()) + " of the pipeline");
      }
      traced_layers.push_back(std::move(layers));
    }
    if (!errors.empty()) {
      ++failed;
      for (const auto& e : errors) {
        std::fprintf(stderr, "rep %d: %s\n", attempted, e.c_str());
      }
      continue;
    }
    std::printf("rep %d%s: run %.4f s, recs %.4f s, pipeline %.4f s\n",
                attempted,
                traced ? " (traced)" : measuring ? "" : " (warm-up)",
                run->run_s, run->recs_s, run->total_s);
    if (!measuring) continue;
    run_s.push_back(run->run_s);
    recs_s.push_back(run->recs_s);
    if (rss_reset) peak_rss_mb.push_back(rss_mb);
    (traced ? traced_total_s : untraced_total_s).push_back(run->total_s);
    if (traced) last_traced = std::move(*run);
  }
  const double n_txs = static_cast<double>(cfg.schedule.size());
  std::printf("workload %s: %d txs, seed %llu, %d repetitions (%d measured, "
              "%d failed)\n",
              w->name, txs, static_cast<unsigned long long>(args.seed),
              attempted, measured, failed);
  std::printf("fingerprint: %s\n", fingerprint.c_str());

  std::vector<Metric> metrics;
  bool correct = failed == 0 && !untraced_total_s.empty();
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"pipeline_tx_per_s", n_txs / Median(untraced_total_s), "tx/s"},
        {"time_to_recs_s", Median(recs_s), "s"},
        {"peak_rss_mb",
         peak_rss_mb.empty() ? PeakRssMb() : Median(peak_rss_mb), "MB"},
    };
  } else if (!traced_layers.empty()) {
    // Per-layer times: median over the traced repetitions.
    auto layer = [&](const std::string& name) {
      std::vector<double> v;
      for (auto& l : traced_layers) v.push_back(l.total[name]);
      return Median(v);
    };
    const ExperimentOutput& out = last_traced.out;
    const PerformanceReport& r = out.report;
    const double committed = static_cast<double>(r.total_committed());
    const double blocks = static_cast<double>(BlockCount(out));
    const double run_median = Median(run_s);
    const double fired = static_cast<double>(last_traced.analysis.recs.size());

    // Probes, once, on the last traced repetition's output.
    PinRotating(cpus, 0, cpus.size());
    spans.set_enabled(true);
    SpanLog::Scope probes(spans, "probes");
    const ValidatorProbe vp = ProbeValidator(cfg, out, spans);
    const double graph_s = ProbeConflictGraph(out, spans);
    const StreamProbe sp = ProbeStream(out, spans);
    std::vector<std::string> errors;
    if (vp.mismatches != 0) {
      errors.push_back("validator replay: " + std::to_string(vp.mismatches) +
                       " status mismatches");
    }
    if (!sp.matches_in_run) {
      errors.push_back("stream replay differs from the in-run engine");
    }

    // Exports: measured in the pipeline when the workload has them, else
    // here, off the pipeline.
    double json_s = layer("export.json"), csv_s = layer("export.csv"),
           xes_s = layer("export.xes"), ev_s = layer("blockopt.eventlog.build"),
           alpha_s = layer("mining.alpha"),
           replay_s = layer("mining.replay");
    double json_b = 0, csv_b = 0, xes_b = 0, fitness = 0;
    std::vector<Exports> exports = std::move(last_traced.exports);
    if (!w->exports) {
      const size_t first = spans.spans().size();
      for (const auto& log : last_traced.analysis.logs) {
        auto e = RunExports(log, spans);
        if (!e.ok()) {
          errors.push_back("probe exports: " + e.status().ToString());
          continue;
        }
        CheckExports(log, *e, errors);
        exports.push_back(std::move(*e));
      }
      LayerTimes probe = SumLayers(spans.spans(), first);
      json_s = probe.total["export.json"];
      csv_s = probe.total["export.csv"];
      xes_s = probe.total["export.xes"];
      ev_s = probe.total["blockopt.eventlog.build"];
      alpha_s = probe.total["mining.alpha"];
      replay_s = probe.total["mining.replay"];
    }
    for (const auto& e : exports) {
      json_b += static_cast<double>(e.json.size());
      csv_b += static_cast<double>(e.csv.size());
      xes_b += static_cast<double>(e.xes.size());
      fitness += e.fitness / static_cast<double>(exports.size());
    }
    exports.clear();

    // Shard variants: the same schedule with one worker thread, and with
    // one channel. For a one-channel, one-thread workload both variants
    // are the workload itself, so its own median stands in and the
    // speedups are 1.
    double serial_s = run_median, one_channel_s = run_median;
    if (cfg.channels > 1) {
      const std::string threaded_fp =
          Fingerprint(out, last_traced.analysis.recs);
      ExperimentConfig serial = cfg;
      serial.sim_threads = 1;
      ExperimentConfig one = cfg;
      one.channels = 1;
      one.sim_threads = 1;
      auto timed_run = [&](const char* name, const ExperimentConfig& c,
                           double& seconds) {
        SpanLog::Scope s(spans, name);
        const double t = Now();
        auto o = RunExperiment(c);
        seconds = Now() - t;
        return o;
      };
      auto o = timed_run("shard.serial", serial, serial_s);
      if (!o.ok()) {
        errors.push_back("serial variant: " + o.status().ToString());
      } else {
        SpanLog off;
        const std::string fp = Fingerprint(*o, Analyze(*o, off).recs);
        if (fp != threaded_fp) {
          errors.push_back("sim_threads=1 fingerprint differs: " + fp);
        }
      }
      o = timed_run("shard.one_channel", one, one_channel_s);
      if (!o.ok()) {
        errors.push_back("1-channel variant: " + o.status().ToString());
      }
    }
    for (const auto& e : errors) std::fprintf(stderr, "traced: %s\n", e.c_str());
    correct = correct && errors.empty();

    const double rows = static_cast<double>(r.total_committed());
    metrics = {
        {"workload.generate_s", Median(setup_s), "s"},
        {"driver.run_experiment_s", layer("driver.run_experiment"), "s"},
        {"sim.events_per_tx",
         static_cast<double>(out.events_processed) / n_txs, "events/tx"},
        {"sim.events_per_s",
         static_cast<double>(out.events_processed) /
             layer("driver.run_experiment"),
         "events/s"},
        {"sim.queue_peak", static_cast<double>(out.queue_peak), "count"},
        {"fabric.blocks", blocks, "count"},
        {"fabric.txs_per_block", committed / blocks, "tx/block"},
        {"fabric.mvcc_failures", static_cast<double>(r.mvcc_failures()),
         "count"},
        {"fabric.phantom_failures", static_cast<double>(r.phantom_failures()),
         "count"},
        {"fabric.endorsement_failures",
         static_cast<double>(r.endorsement_failures()), "count"},
        {"fabric.early_aborts", static_cast<double>(r.early_aborts()),
         "count"},
        {"fabric.valid_ratio", static_cast<double>(r.successful()) / committed,
         "valid/committed"},
        {"fabric.validate_s", vp.seconds, "s"},
        {"fabric.validate_ns_per_tx",
         vp.seconds * 1e9 / static_cast<double>(vp.txs), "ns/tx"},
        {"reorder.conflict_graph_s", graph_s, "s"},
        {"blockopt.log.extract_s", layer("blockopt.log.extract"), "s"},
        {"blockopt.metrics.compute_s",
         layer("blockopt.metrics.compute") +
             layer("blockopt.metrics.aggregate"),
         "s"},
        {"blockopt.metrics.ns_per_row",
         layer("blockopt.metrics.compute") * 1e9 / rows, "ns/row"},
        {"blockopt.recommend_s", layer("blockopt.recommend"), "s"},
        {"blockopt.recommend.fired",
         fired, "count"},
        {"blockopt.eventlog.build_s", ev_s, "s"},
        {"mining.alpha_s", alpha_s, "s"},
        {"mining.replay_s", replay_s, "s"},
        {"mining.fitness", fitness, "ratio"},
        {"export.json_s", json_s, "s"},
        {"export.json_bytes", json_b, "bytes"},
        {"export.csv_s", csv_s, "s"},
        {"export.csv_bytes", csv_b, "bytes"},
        {"export.xes_s", xes_s, "s"},
        {"export.xes_bytes", xes_b, "bytes"},
        {"stream.feed_s", sp.feed_s, "s"},
        {"stream.commit_p50_us", sp.p50_us, "us"},
        {"stream.commit_tail_us", sp.tail_us, "us"},
        {"stream.evaluations", static_cast<double>(sp.evaluations), "count"},
        {"stream.pane_merges", static_cast<double>(sp.pane_merges), "count"},
        {"stream.ring_overflow", static_cast<double>(sp.ring_overflow),
         "count"},
        {"shard.serial_s", serial_s, "s"},
        {"shard.parallel_speedup", serial_s / run_median, "x"},
        {"shard.speedup_vs_1ch", one_channel_s / run_median, "x"},
        {"trace.overhead_ratio",
         Median(traced_total_s) / Median(untraced_total_s), "x"},
        {"trace.span_coverage", Median(coverage), "ratio"},
    };
    std::printf("stream.commit_tail_us is the p%g of %zu per-block times\n",
                sp.tail_pct, static_cast<size_t>(blocks));

    // Self time per pipeline layer, median over traced repetitions.
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, unused] : traced_layers.front().self) {
      std::vector<double> v;
      for (auto& l : traced_layers) v.push_back(l.self[name]);
      self.emplace_back(Median(v), name);
    }
    std::sort(self.rbegin(), self.rend());
    const double pipeline = Median(traced_total_s);
    std::printf("self time per layer (median of %zu traced repetitions):\n",
                traced_layers.size());
    for (const auto& [seconds, name] : self) {
      std::printf("  %-28s %10.4f s %6.1f%%\n", name.c_str(), seconds,
                  100 * seconds / pipeline);
    }
  } else {
    correct = false;
  }
  if (args.trace && !args.trace_out.empty() &&
      !WriteSpans(spans.spans(), args.trace_out)) {
    std::fprintf(stderr, "cannot write spans to '%s'\n",
                 args.trace_out.c_str());
    return 1;
  }

  for (const auto& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      std::fprintf(stderr, "%s is not finite\n", metrics[i].name.c_str());
      metrics[i].value = 0;
      correct = false;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) { return blockoptr::Main(argc, argv); }
