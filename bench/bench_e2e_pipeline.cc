// End-to-end simulation-engine benchmarks.
//
// Two layers:
//
//   1. BM_EventCore_* — an interleaved A/B of the event core. Side A
//      ("Legacy") is the pre-overhaul pipeline verbatim: the old engine
//      (type-erased std::function events in a binary std::priority_queue,
//      with the copy-before-pop in Step) driven with the old scheduling
//      idiom (requests copied into their arrival events, per-org
//      make_shared commit fan-out). Side B ("Pooled") is the shipping
//      pipeline: the 4-ary-heap/InlineCallback-slot-pool Simulator driven
//      move-clean (thin by-reference arrivals chained one at a time as
//      the driver feeds them, payload moved through assembly, one shared
//      commit payload). Both run the same
//      seven-events-per-transaction pipeline shape — arrival → endorse ×3
//      → order → commit fan-out ×2 — over the same pre-built schedule.
//      items/sec = events/sec.
//
//   2. BM_E2E_Experiment — the full pipeline (endorse → order → validate →
//      commit via RunExperiment) on the paper's synthetic workload at
//      three scales. items/sec = committed transactions/sec, so
//      ns/tx = 1e9 / items_per_second.
//
// `--json-out=PATH` dumps the suite as a BENCH_e2e.json trajectory point
// (schema blockoptr-bench-v1); main() additionally prints an explicit
// interleaved A/B summary with the events/sec ratio at the largest scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// Legacy event core (the pre-overhaul Simulator, kept verbatim as the A side)
// ---------------------------------------------------------------------------

class LegacyEventEngine {
 public:
  using Callback = std::function<void()>;

  SimTime Now() const { return now_; }

  void ScheduleAt(SimTime at, Callback cb) {
    if (at < now_) at = now_;
    queue_.push(Event{at, next_seq_++, std::move(cb)});
  }
  void ScheduleAfter(SimTime delay, Callback cb) {
    ScheduleAt(now_ + delay, std::move(cb));
  }
  bool Step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();  // the copy-before-pop the overhaul removed
    queue_.pop();
    now_ = ev.time;
    ++processed_;
    ev.cb();
    return true;
  }
  void Run() {
    while (Step()) {
    }
  }
  uint64_t num_processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// ---------------------------------------------------------------------------
// Pipeline-shaped synthetic workload (identical on both engines)
// ---------------------------------------------------------------------------

/// Stand-in for what real pipeline closures carry: a request/transaction
/// worth of bytes. Big enough that std::function's ~16-byte inline buffer
/// never holds it — exactly the situation on the real hot path.
struct TxPayload {
  uint64_t id = 0;
  double send_time = 0;
  unsigned char body[240] = {};
};

std::vector<TxPayload> MakePipelineSchedule(int num_txs) {
  std::vector<TxPayload> schedule(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    schedule[i].id = static_cast<uint64_t>(i);
    schedule[i].send_time = static_cast<double>(i) * 0.001;
  }
  return schedule;
}

/// Side A — the seed pipeline: every arrival event copies its request
/// (the old `[&network, req]` idiom forced by std::function's
/// copyability requirement), endorsement and ordering events carry the
/// payload by value, and the commit fan-out re-heap-allocates the payload
/// per delivering org (the old per-org make_shared<Block>). Every event
/// folds into `sink` so no stage can be optimized away.
void RunLegacyPipeline(LegacyEventEngine& eng,
                       const std::vector<TxPayload>& schedule,
                       uint64_t& sink) {
  for (const TxPayload& req : schedule) {
    TxPayload p = req;
    eng.ScheduleAt(p.send_time, [&eng, &sink, p] {
      for (int org = 0; org < 3; ++org) {
        const double endorse_done = 0.0005 * (org + 1);
        if (org < 2) {
          eng.ScheduleAfter(endorse_done, [&sink, p] { sink += p.id; });
        } else {
          // Last endorsement assembles the transaction and submits it
          // for ordering.
          eng.ScheduleAfter(endorse_done, [&eng, &sink, p] {
            sink += p.id;
            eng.ScheduleAfter(0.0002, [&eng, &sink, p] {
              sink += p.id;
              // Commit fan-out: one payload copy per delivering org.
              for (int dest = 0; dest < 2; ++dest) {
                auto copy = std::make_shared<TxPayload>(p);
                eng.ScheduleAfter(0.0001,
                                  [&sink, copy] { sink += copy->id; });
              }
            });
          });
        }
      }
    });
  }
  eng.Run();
}

/// One transaction's pipeline on the pooled engine: the payload rides by
/// value only where it genuinely transfers (endorsement results,
/// assembly), and the commit fan-out shares one immutable payload between
/// the delivering orgs' thin events.
void SubmitPooled(Simulator& eng, const TxPayload& p, uint64_t& sink) {
  for (int org = 0; org < 3; ++org) {
    const double endorse_done = 0.0005 * (org + 1);
    if (org < 2) {
      eng.ScheduleAfter(endorse_done, [&sink, p] { sink += p.id; });
    } else {
      eng.ScheduleAfter(endorse_done, [&eng, &sink, p] {
        sink += p.id;
        eng.ScheduleAfter(0.0002, [&eng, &sink, p]() mutable {
          sink += p.id;
          // Commit fan-out: one shared immutable payload, moved out of
          // the ordering event, referenced by both thin delivery events
          // (the real pipeline amortizes this allocation over a whole
          // block's fan-out).
          auto committed = std::make_shared<const TxPayload>(std::move(p));
          for (int dest = 0; dest < 2; ++dest) {
            eng.ScheduleAfter(0.0001, [&sink, committed] {
              sink += committed->id;
            });
          }
        });
      });
    }
  }
}

/// Side B — the shipping pipeline: thin by-reference arrivals chained one
/// at a time under sequence numbers reserved up front, as
/// driver/channel_run.cc feeds the schedule, so the queue holds only
/// in-flight work.
void RunPooledPipeline(Simulator& eng,
                       const std::vector<TxPayload>& schedule,
                       uint64_t& sink) {
  struct Arrival {
    Simulator* eng;
    const std::vector<TxPayload>* schedule;
    uint64_t* sink;
    uint64_t first_seq;
    size_t i;
    void operator()() const {
      SubmitPooled(*eng, (*schedule)[i], *sink);
      if (i + 1 < schedule->size()) {
        eng->ScheduleAtSequence((*schedule)[i + 1].send_time,
                                first_seq + i + 1,
                                Arrival{eng, schedule, sink, first_seq, i + 1});
      }
    }
  };
  const uint64_t first_seq = eng.ReserveSequence(schedule.size());
  if (!schedule.empty()) {
    eng.ScheduleAtSequence(schedule[0].send_time, first_seq,
                           Arrival{&eng, &schedule, &sink, first_seq, 0});
  }
  eng.Run();
}

template <typename Engine, typename RunFn>
void RunEventCoreBench(benchmark::State& state, RunFn run) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<TxPayload> schedule = MakePipelineSchedule(n);
  uint64_t events = 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    Engine eng;
    run(eng, schedule, sink);
    events += eng.num_processed();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}

void BM_EventCore_Legacy(benchmark::State& state) {
  RunEventCoreBench<LegacyEventEngine>(state, RunLegacyPipeline);
}
void BM_EventCore_Pooled(benchmark::State& state) {
  RunEventCoreBench<Simulator>(state, RunPooledPipeline);
}
BENCHMARK(BM_EventCore_Legacy)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_EventCore_Pooled)->Arg(1000)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Full pipeline: RunExperiment on the paper's synthetic workload
// ---------------------------------------------------------------------------

void BM_E2E_Experiment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyntheticConfig wl;
  wl.num_txs = n;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  uint64_t events = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    auto out = RunExperiment(cfg);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    events += out->events_processed;
    ++runs;
    benchmark::DoNotOptimize(out->report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.counters["events_per_run"] =
      benchmark::Counter(static_cast<double>(events / (runs ? runs : 1)));
}
BENCHMARK(BM_E2E_Experiment)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Multi-channel sharded runs: the channels × sim-threads scaling matrix
// ---------------------------------------------------------------------------

void BM_E2E_ShardedExperiment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int channels = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  SyntheticConfig wl;
  wl.num_txs = n;
  ExperimentConfig cfg =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  cfg.channels = channels;
  cfg.sim_threads = threads;
  uint64_t events = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    auto out = RunExperiment(cfg);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    events += out->events_processed;
    ++runs;
    benchmark::DoNotOptimize(out->report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.counters["events_per_run"] =
      benchmark::Counter(static_cast<double>(events / (runs ? runs : 1)));
}
// Arg triple: {txs, channels, sim-threads}. The {100k, 1, 1} row is the
// single-channel reference the >=1.5x whole-experiment scaling target is
// measured against (it needs >= sim-threads free cores to show — on a
// 1-core runner the lockstep barrier serializes the channels); the
// 1M-tx 8-channel row is the large-run completion check. UseRealTime
// makes items/sec wall-clock (the honest scaling number) and
// MeasureProcessCPUTime makes the CPU column sum the worker threads
// instead of reporting the main thread blocked on the barrier.
BENCHMARK(BM_E2E_ShardedExperiment)
    ->Args({100000, 1, 1})
    ->Args({100000, 4, 1})
    ->Args({100000, 4, 2})
    ->Args({100000, 4, 4})
    ->Args({100000, 8, 8})
    ->Args({1000000, 8, 8})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Explicit interleaved A/B at the largest scale
// ---------------------------------------------------------------------------

template <typename Engine, typename RunFn>
double MeasureEventsPerSec(const std::vector<TxPayload>& schedule, RunFn run,
                           uint64_t& sink) {
  Engine eng;
  const auto start = std::chrono::steady_clock::now();
  run(eng, schedule, sink);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(eng.num_processed()) / elapsed.count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Alternates legacy/pooled runs so drift (frequency scaling, cache
/// state) hits both engines equally, then compares medians.
void PrintInterleavedAB(int num_txs, int rounds) {
  const std::vector<TxPayload> schedule = MakePipelineSchedule(num_txs);
  std::vector<double> legacy, pooled;
  uint64_t sink = 0;
  for (int r = 0; r < rounds; ++r) {
    legacy.push_back(MeasureEventsPerSec<LegacyEventEngine>(
        schedule, RunLegacyPipeline, sink));
    pooled.push_back(MeasureEventsPerSec<Simulator>(
        schedule, RunPooledPipeline, sink));
  }
  benchmark::DoNotOptimize(sink);
  const double a = Median(legacy);
  const double b = Median(pooled);
  std::printf("\ninterleaved A/B at %d txs (%d rounds, median): "
              "legacy %.2fM events/s, pooled %.2fM events/s -> %.2fx\n",
              num_txs, rounds, a / 1e6, b / 1e6, b / a);
}

/// Alternates single-channel and 4-channel/4-thread whole experiments and
/// compares median committed-tx/s — the ISSUE's >=1.5x sharding target.
void PrintShardedAB(int num_txs, int rounds) {
  SyntheticConfig wl;
  wl.num_txs = num_txs;
  ExperimentConfig single =
      MakeSyntheticExperiment(wl, NetworkConfig::Defaults());
  ExperimentConfig sharded = single;
  sharded.channels = 4;
  sharded.sim_threads = 4;
  auto measure = [&](const ExperimentConfig& cfg) {
    const auto start = std::chrono::steady_clock::now();
    auto out = RunExperiment(cfg);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!out.ok()) return 0.0;
    return static_cast<double>(out->report.total_committed()) /
           elapsed.count();
  };
  std::vector<double> a, b;
  for (int r = 0; r < rounds; ++r) {
    a.push_back(measure(single));
    b.push_back(measure(sharded));
  }
  std::printf("sharded A/B at %d txs (%d rounds, median): 1ch %.0fk tx/s, "
              "4ch/4thr %.0fk tx/s -> %.2fx\n",
              num_txs, rounds, Median(a) / 1e3, Median(b) / 1e3,
              Median(b) / Median(a));
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) {
  std::string json_out = blockoptr::bench::ParseJsonOutFlag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  blockoptr::bench::JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty()) reporter.WriteJson(json_out, "e2e");
  blockoptr::PrintInterleavedAB(/*num_txs=*/100000, /*rounds=*/5);
  blockoptr::PrintShardedAB(/*num_txs=*/100000, /*rounds=*/5);
  benchmark::Shutdown();
  return 0;
}
