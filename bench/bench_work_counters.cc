// Exact work counters of RunExperiment: heap allocations and bytes
// allocated per transaction, simulator events per transaction and the
// event queue's peak depth, on the three perfbench workload configurations
// at 25k transactions and seed 1, plus batch-export's with full telemetry
// (the profile every CLI telemetry flag runs). Unlike timings these repeat
// exactly for one toolchain and standard library, so CI gates them tightly
// against the committed bench/baselines/BENCH_work.json:
//
//   bench_work_counters [--json-out=F] [--baseline=F]
//
// With --baseline, exits 1 when the baseline was taken at another size or
// seed, a baseline workload is missing, or any of its counters exceeds the
// baseline value by more than 2%.
//
// Allocations are counted by counting_new.h's replaced global operator
// new, so this binary must not link another allocation hook.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "counting_new.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "workload/synthetic.h"

namespace blockoptr {
namespace {

constexpr int kTxs = 25000;
constexpr uint64_t kSeed = 1;
/// A counter more than this fraction above its baseline fails the check.
constexpr double kTolerance = 0.02;

/// The perfbench workloads (perfbench/perfbench.cc), as far as
/// RunExperiment sees them: the paper's Table 2 network, 300 TPS. perfbench
/// runs with telemetry off; the telemetry entry pins what the default
/// TelemetryOptions add on top.
struct Workload {
  const char* name;
  SyntheticWorkloadType type;
  double key_skew;
  const char* scheduler;
  bool stream;
  int channels;
  int sim_threads;
  bool telemetry;
};

constexpr Workload kWorkloads[] = {
    {"batch-export", SyntheticWorkloadType::kUniform, 1.0, "", false, 1, 1,
     false},
    {"stream-hotkey", SyntheticWorkloadType::kUpdateHeavy, 2.0,
     "fabricsharp", true, 1, 1, false},
    {"sharded-4ch", SyntheticWorkloadType::kUniform, 1.0, "", false, 4, 2,
     false},
    {"batch-export+telemetry", SyntheticWorkloadType::kUniform, 1.0, "",
     false, 1, 1, true},
};

/// The ExperimentConfig `blockoptr run --txs=25000 --seed=1` builds for the
/// workload's flags.
ExperimentConfig MakeConfig(const Workload& w) {
  SyntheticConfig wl;
  wl.type = w.type;
  wl.num_txs = kTxs;
  wl.send_rate = 300;
  wl.key_skew = w.key_skew;
  wl.num_orgs = 2;
  wl.seed = kSeed;
  NetworkConfig net = NetworkConfig::Defaults();
  net.num_orgs = 2;
  net.seed = kSeed + 41;
  net.block_cutting.max_tx_count = 300;
  net.block_cutting.timeout_s = 1.0;
  net.endorsement_policy = EndorsementPolicy::Preset(3, net.num_orgs);
  ExperimentConfig cfg = MakeSyntheticExperiment(wl, net);
  cfg.orderer_scheduler = w.scheduler;
  cfg.stream.enabled = w.stream;
  cfg.channels = w.channels;
  cfg.sim_threads = w.sim_threads;
  cfg.enable_telemetry = w.telemetry;
  return cfg;
}

/// Counter name -> value for one workload's RunExperiment call.
Result<JsonValue::Object> Measure(const Workload& w) {
  const ExperimentConfig cfg = MakeConfig(w);
  const uint64_t allocations = counting_new::allocations.load();
  const uint64_t bytes = counting_new::bytes.load();
  auto out = RunExperiment(cfg);
  const double n = static_cast<double>(kTxs);
  JsonValue::Object counters;
  counters["allocations_per_tx"] =
      static_cast<double>(counting_new::allocations.load() - allocations) / n;
  counters["bytes_per_tx"] =
      static_cast<double>(counting_new::bytes.load() - bytes) / n;
  if (!out.ok()) return out.status();
  counters["events_per_tx"] = static_cast<double>(out->events_processed) / n;
  counters["queue_peak"] = static_cast<uint64_t>(out->queue_peak);
  return counters;
}

/// Compares `current` against the baseline file; prints one line per
/// counter and returns false when any counter regressed past kTolerance.
bool CheckAgainstBaseline(const JsonValue& current, const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto baseline = JsonValue::Parse(buf.str());
  if (!in || !baseline.ok() || !baseline->is_object() ||
      !(*baseline)["workloads"].is_object()) {
    std::fprintf(stderr, "error: cannot read baseline '%s'\n", path.c_str());
    return false;
  }
  auto equals = [](const JsonValue& v, double x) {
    return v.is_number() && v.as_number() == x;
  };
  if (!equals((*baseline)["txs"], kTxs) ||
      !equals((*baseline)["seed"], static_cast<double>(kSeed))) {
    std::fprintf(stderr, "error: baseline '%s' was not taken at %d txs, "
                 "seed %llu\n", path.c_str(), kTxs,
                 static_cast<unsigned long long>(kSeed));
    return false;
  }
  const JsonValue::Object& now = current["workloads"].as_object();
  bool ok = true;
  for (const auto& [name, base] : (*baseline)["workloads"].as_object()) {
    auto it = now.find(name);
    if (it == now.end() || !base.is_object()) {
      std::printf("FAIL %s: missing from this run or the baseline\n",
                  name.c_str());
      ok = false;
      continue;
    }
    for (const auto& [counter, value] : base.as_object()) {
      const JsonValue& got = it->second[counter];
      const double limit =
          value.is_number() ? value.as_number() * (1 + kTolerance) : -1;
      const double now = got.is_number() ? got.as_number() : -1;
      const bool regressed = limit < 0 || now < 0 || now > limit;
      std::printf("%s %-22s %-20s baseline %12.3f  now %12.3f\n",
                  regressed ? "FAIL" : "ok  ", name.c_str(), counter.c_str(),
                  value.is_number() ? value.as_number() : -1, now);
      ok = ok && !regressed;
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  std::string json_out;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--json-out=", 11) == 0) {
      json_out = a + 11;
    } else if (std::strncmp(a, "--baseline=", 11) == 0) {
      baseline = a + 11;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a);
      return 2;
    }
  }

  JsonValue::Object workloads;
  for (const Workload& w : kWorkloads) {
    auto counters = Measure(w);
    if (!counters.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", w.name,
                   counters.status().ToString().c_str());
      return 1;
    }
    workloads[w.name] = JsonValue(std::move(*counters));
  }
  JsonValue::Object doc;
  doc["schema"] = "blockoptr-work-v1";
  doc["call"] = "RunExperiment";
  doc["txs"] = kTxs;
  doc["seed"] = kSeed;
  doc["workloads"] = JsonValue(std::move(workloads));
  const JsonValue result(std::move(doc));
  const std::string text = result.DumpPretty() + "\n";
  std::fputs(text.c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!(out << text).flush()) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_out.c_str());
      return 1;
    }
  }
  if (!baseline.empty() && !CheckAgainstBaseline(result, baseline)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) { return blockoptr::Main(argc, argv); }
