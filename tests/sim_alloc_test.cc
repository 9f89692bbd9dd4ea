// Allocation accounting for the event core. The headline acceptance
// criterion of the engine overhaul is that steady-state scheduling is
// allocation-free: once the event heap and the callback slot pool have
// grown to a run's high-water mark, schedule/fire cycles must not touch
// the heap at all.
//
// The global operator new/delete are replaced with the counting versions
// of bench/counting_new.h. This binary is dedicated to allocation tests so
// the hook cannot interfere with the rest of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "../bench/counting_new.h"
#include "common/thread_pool.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "telemetry/txtrace.h"

namespace blockoptr {
namespace {

std::uint64_t AllocationCount() {
  return counting_new::allocations.load(std::memory_order_relaxed);
}

/// Self-rescheduling event: each firing schedules its successor through
/// ScheduleAfter until `remaining` hits zero — the workload shape of
/// timers, retries, and station completions.
struct ChurnEvent {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(0.5, ChurnEvent{sim, remaining});
    }
  }
};

/// A burst of concurrent events (exercises heap and slot-pool breadth)
/// plus a long self-rescheduling chain (exercises slot recycling), run to
/// completion.
void RunChurn(Simulator& sim, int chain_events, int burst) {
  for (int i = 0; i < burst; ++i) {
    sim.ScheduleAfter(0.25 * (i % 7), [] {});
  }
  int remaining = chain_events;
  sim.ScheduleAfter(0.0, ChurnEvent{&sim, &remaining});
  sim.Run();
}

TEST(SimAllocTest, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  RunChurn(sim, 1000, 64);  // warm-up: grows the heap and the slot pool
  const std::uint64_t before = AllocationCount();
  RunChurn(sim, 1000, 64);  // identical churn on the warm engine
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

TEST(SimAllocTest, WarmServiceStationSubmitIsAllocationFree) {
  Simulator sim;
  ServiceStation station(&sim, "station", 2);
  std::uint64_t done = 0;
  auto churn = [&sim, &station, &done] {
    for (int i = 0; i < 256; ++i) {
      station.Submit(0.25, [&done] { ++done; });
    }
    sim.Run();
  };
  churn();  // warm-up: grows the station's parked-job pool
  const std::uint64_t before = AllocationCount();
  churn();
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(done, 512u);
}

TEST(SimAllocTest, DisabledSamplerSchedulesNothingAndAllocatesNothing) {
  Simulator sim;
  ServiceStation station(&sim, "station", 1);
  Sampler sampler(&sim, SamplerConfig{0.0, 64});  // period 0 = disabled
  std::uint64_t count = 0;
  // Registration is a no-op when disabled: no sources, no series.
  sampler.AddRate("pipeline.commit_tps", [&count] { return count; });
  sampler.AddGauge("depth", [] { return 1.0; });
  sampler.AddStation("station", "endorse", &station);
  RunChurn(sim, 1000, 64);  // warm-up
  const std::uint64_t before = AllocationCount();
  sampler.Start();
  EXPECT_EQ(sim.num_pending(), 0u);  // no tick event was scheduled
  RunChurn(sim, 1000, 64);
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_TRUE(sampler.series().empty());
  EXPECT_TRUE(sampler.stations().empty());
  // The telemetry-off path does zero telemetry work and zero allocation.
  EXPECT_EQ(AllocationCount() - before, 0u);
}

/// One full committed lifecycle driven straight into the flight recorder,
/// with the clock advanced via RunUntil (empty queue: RunUntil just moves
/// Now(), so no event-slot churn mixes into the measurement). One block
/// per transaction keeps the chain shape constant across batches.
void RecordLifecycle(Simulator& sim, TxTraceRecorder& rec, std::uint64_t id,
                     double base) {
  const auto payload = static_cast<std::uint32_t>(id);
  sim.RunUntil(base);
  rec.TxEvent(id, TxStage::kSubmit, 0);
  sim.RunUntil(base + 0.01);
  rec.TxEvent(id, TxStage::kProposalDone, 0, 0.01f);
  sim.RunUntil(base + 0.02);
  rec.TxEvent(id, TxStage::kEndorseDone, 1, 0.01f);
  sim.RunUntil(base + 0.03);
  rec.TxEvent(id, TxStage::kCollect, 0);
  sim.RunUntil(base + 0.04);
  rec.TxEvent(id, TxStage::kAssembleDone, 0, 0.01f);
  sim.RunUntil(base + 0.05);
  rec.TxEvent(id, TxStage::kOrdererEnqueue, 0, 0.01f);
  sim.RunUntil(base + 0.06);
  rec.TxEvent(id, TxStage::kBlockCut, 0, 0, payload);
  rec.BlockEvent(payload, TxStage::kRaftPropose, 0);
  sim.RunUntil(base + 0.07);
  rec.BlockEvent(payload, TxStage::kRaftCommit, 0);
  rec.OnBlockDelivered(payload + 1000);
  sim.RunUntil(base + 0.08);
  rec.ValidateEvent(payload + 1000, TxStage::kValidateDone, 0, 0.01f);
  sim.RunUntil(base + 0.09);
  rec.CommitTx(id, base, payload + 1000, false);
}

TEST(TxTraceAllocTest, DisabledRecorderIsAbsentAndTheGuardAllocatesNothing) {
  Simulator sim;
  // Recorder off: none is ever constructed, and every hook site reduces
  // to the cached-null check exercised here.
  TelemetryOptions options;
  options.txtrace.enabled = false;
  Telemetry telemetry(&sim, options);
  TxTraceRecorder* rec = telemetry.txtrace();
  EXPECT_EQ(rec, nullptr);
  const std::uint64_t before = AllocationCount();
  for (std::uint64_t id = 1; id <= 512; ++id) {
    if (rec != nullptr) RecordLifecycle(sim, *rec, id, id * 0.1);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
}

TEST(TxTraceAllocTest, EnabledSteadyStateRecordingIsAllocationFree) {
  Simulator sim;
  TxTraceOptions opt;
  opt.enabled = true;
  opt.ring_capacity = 1024;
  opt.window_s = 100.0;
  TxTraceRecorder rec(&sim, opt);
  // Warm-up: a full window's worth of chains grows the ring-adjacent
  // scratch/arena/candidate vectors to their per-window high-water mark...
  for (std::uint64_t id = 1; id <= 64; ++id) {
    RecordLifecycle(sim, rec, id, id * 0.5);
  }
  // ...and one chain past the boundary seals window 1 (sealing copies
  // exemplars — that allocation budget is per window, not per event) and
  // rolls into window 2 with every capacity retained.
  RecordLifecycle(sim, rec, 65, 100.0);
  const std::uint64_t before = AllocationCount();
  // An identical batch strictly inside window 2: appends, chain
  // extraction, and per-commit critical-path accounting on the warm
  // recorder must not touch the heap.
  for (std::uint64_t id = 66; id <= 128; ++id) {
    RecordLifecycle(sim, rec, id, 101.0 + (id - 66) * 0.5);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  rec.Finalize(200.0);
  EXPECT_EQ(rec.summary().committed, 128u);
  EXPECT_EQ(rec.summary().truncated_chains, 0u);
}

TEST(ThreadPoolAllocTest, SubmitCostsAtMostThreeAllocationsPerTask) {
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([] { return 0; }).get();  // warm-up (thread-local state)
  }
  constexpr int kTasks = 256;
  const std::uint64_t before = AllocationCount();
  int sum = 0;
  for (int i = 0; i < kTasks; ++i) {
    sum += pool.Submit([i] { return i; }).get();
  }
  const std::uint64_t delta = AllocationCount() - before;
  // Per task: the packaged_task's two internal allocations (task state and
  // result slot) plus one queue node. The old std::function-based queue
  // added an extra make_shared<packaged_task> hop and a heap-allocated
  // function target on top — five per task instead of three.
  EXPECT_LE(delta, 3u * kTasks + 16);
  EXPECT_EQ(sum, kTasks * (kTasks - 1) / 2);
}

}  // namespace
}  // namespace blockoptr
