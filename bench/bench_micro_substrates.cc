// Google-benchmark micro-benchmarks for the substrate layers: state DB,
// endorsement-policy evaluation, block validation, the event simulator,
// and the process-mining algorithms. These quantify the per-operation
// costs behind the figure benches.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fabric/endorsement_policy.h"
#include "fabric/validator.h"
#include "mining/alpha_miner.h"
#include "mining/conformance.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "statedb/versioned_store.h"

namespace blockoptr {
namespace {

// ---------------------------------------------------------------------------
// VersionedStore
// ---------------------------------------------------------------------------

void BM_StateDbApply(benchmark::State& state) {
  VersionedStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    store.Apply("key" + std::to_string(i % 10000), "value", false,
                Version{i, 0});
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StateDbApply);

void BM_StateDbGet(benchmark::State& state) {
  VersionedStore store;
  for (uint64_t i = 0; i < 10000; ++i) {
    store.Apply("key" + std::to_string(i), "value", false, Version{1, 0});
  }
  Rng rng(1);
  for (auto _ : state) {
    auto v = store.Get("key" + std::to_string(rng.NextBelow(10000)));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StateDbGet);

void BM_StateDbRange(benchmark::State& state) {
  VersionedStore store;
  for (uint64_t i = 0; i < 10000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06llu",
                  static_cast<unsigned long long>(i));
    store.Apply(buf, "value", false, Version{1, 0});
  }
  const int span = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    uint64_t start = rng.NextBelow(10000 - static_cast<uint64_t>(span));
    char lo[16], hi[16];
    std::snprintf(lo, sizeof(lo), "key%06llu",
                  static_cast<unsigned long long>(start));
    std::snprintf(hi, sizeof(hi), "key%06llu",
                  static_cast<unsigned long long>(start + span));
    auto r = store.Range(lo, hi);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * span);
}
BENCHMARK(BM_StateDbRange)->Arg(20)->Arg(200);

// ---------------------------------------------------------------------------
// Endorsement policy
// ---------------------------------------------------------------------------

void BM_PolicyEvaluate(benchmark::State& state) {
  EndorsementPolicy policy =
      EndorsementPolicy::Preset(3, static_cast<int>(state.range(0)));
  std::set<std::string> orgs;
  for (int i = 1; i <= state.range(0); ++i) {
    orgs.insert("Org" + std::to_string(i));
  }
  for (auto _ : state) {
    bool ok = policy.IsSatisfiedBy(orgs);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_PolicyEvaluate)->Arg(2)->Arg(4)->Arg(8);

void BM_PolicyMinimalSets(benchmark::State& state) {
  EndorsementPolicy policy =
      EndorsementPolicy::Preset(4, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto sets = policy.MinimalSatisfyingSets();
    benchmark::DoNotOptimize(sets);
  }
}
BENCHMARK(BM_PolicyMinimalSets)->Arg(4)->Arg(8)->Arg(12);

// ---------------------------------------------------------------------------
// Block validation
// ---------------------------------------------------------------------------

void BM_ValidateBlock(benchmark::State& state) {
  const int txs = static_cast<int>(state.range(0));
  EndorsementPolicy policy = EndorsementPolicy::Preset(3, 2);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    VersionedStore store;
    for (int k = 0; k < 500; ++k) {
      store.Apply("key" + std::to_string(k), "v", false, Version{0, 0});
    }
    Block block;
    block.block_num = 1;
    for (int i = 0; i < txs; ++i) {
      Transaction tx;
      tx.endorsers = {"Org1", "Org2"};
      std::string key = "key" + std::to_string(rng.NextBelow(500));
      tx.rwset.reads.push_back(ReadItem{key, Version{0, 0}});
      tx.rwset.writes.push_back(WriteItem{key, "new", false});
      block.transactions.push_back(std::move(tx));
    }
    state.ResumeTiming();
    auto stats = ValidateAndApplyBlock(block, store, policy);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * txs);
}
BENCHMARK(BM_ValidateBlock)->Arg(50)->Arg(300)->Arg(1000);

// ---------------------------------------------------------------------------
// Simulator core
// ---------------------------------------------------------------------------

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(i * 0.001, [&count] { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_ServiceStationQueueing(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    ServiceStation station(&sim, "s", 2);
    int completed = 0;
    sim.ScheduleAt(0, [&] {
      for (int i = 0; i < 5000; ++i) {
        station.Submit(0.001, [&completed] { ++completed; });
      }
    });
    sim.Run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 5000);
}
BENCHMARK(BM_ServiceStationQueueing);

// ---------------------------------------------------------------------------
// Process mining
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> SyntheticTraces(int cases) {
  Rng rng(3);
  std::vector<std::vector<std::string>> traces;
  for (int c = 0; c < cases; ++c) {
    std::vector<std::string> t = {"start"};
    if (rng.NextBool(0.5)) {
      t.push_back("b");
      t.push_back("c");
    } else {
      t.push_back("c");
      t.push_back("b");
    }
    if (rng.NextBool(0.3)) t.push_back("audit");
    t.push_back("end");
    traces.push_back(std::move(t));
  }
  return traces;
}

void BM_AlphaMiner(benchmark::State& state) {
  auto traces = SyntheticTraces(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    PetriNet net = AlphaMiner::Mine(traces);
    benchmark::DoNotOptimize(net);
  }
}
BENCHMARK(BM_AlphaMiner)->Arg(100)->Arg(1000);

void BM_TokenReplay(benchmark::State& state) {
  auto traces = SyntheticTraces(static_cast<int>(state.range(0)));
  PetriNet net = AlphaMiner::Mine(traces);
  for (auto _ : state) {
    auto result = ReplayTraces(net, traces);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TokenReplay)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfGenerator zipf(static_cast<uint64_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(500)->Arg(100000);

}  // namespace
}  // namespace blockoptr

BENCHMARK_MAIN();
