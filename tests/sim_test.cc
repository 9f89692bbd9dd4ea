#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_heap.h"
#include "sim/service_station.h"
#include "sim/simulator.h"

namespace blockoptr {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.num_processed(), 3u);
}

TEST(SimulatorTest, EqualTimesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.ScheduleAt(4.0, [&] {
    sim.ScheduleAt(1.0, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(2.0, [&] { ++fired; });
  sim.ScheduleAt(3.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.num_pending(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 9.0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.ScheduleAfter(0.01, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(sim.Now(), 0.99, 1e-9);
}

// ---------------------------------------------------------------------------
// FourAryEventHeap — property-pinned against std::priority_queue
// ---------------------------------------------------------------------------

struct TestHandle {
  double time;
  uint64_t seq;
};

struct HandleLater {
  bool operator()(const TestHandle& a, const TestHandle& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// Randomized push/pop schedules with heavy equal-time ties: the 4-ary heap
// must produce the exact pop sequence of the old binary priority_queue —
// the (time, insertion-seq) ordering contract, bit for bit.
TEST(EventHeapTest, MatchesPriorityQueueOnRandomizedSchedules) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(1000 + trial);
    FourAryEventHeap<TestHandle> heap;
    std::priority_queue<TestHandle, std::vector<TestHandle>, HandleLater> ref;
    uint64_t seq = 0;
    for (int op = 0; op < 2000; ++op) {
      // 60% pushes; times from a coarse grid so ties are the common case.
      if (ref.empty() || rng.NextBelow(10) < 6) {
        TestHandle h{static_cast<double>(rng.NextBelow(16)) * 0.25, seq++};
        heap.Push(h);
        ref.push(h);
      } else {
        ASSERT_FALSE(heap.empty());
        TestHandle got = heap.PopMin();
        TestHandle want = ref.top();
        ref.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.seq, want.seq);
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (!ref.empty()) {
      TestHandle got = heap.PopMin();
      ASSERT_EQ(got.seq, ref.top().seq);
      ASSERT_EQ(got.time, ref.top().time);
      ref.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

// ---------------------------------------------------------------------------
// Simulator — engine-level contracts of the rebuilt core
// ---------------------------------------------------------------------------

/// A verbatim copy of the pre-overhaul event core (type-erased
/// std::function events through a binary priority_queue, with the
/// copy-before-pop in Step). Randomized schedules must fire identically on
/// both engines — this pins the rebuilt core to the old semantics.
class ReferenceSimulator {
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
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.cb();
    return true;
  }
  void RunUntil(SimTime until) {
    while (!queue_.empty() && queue_.top().time <= until) Step();
    if (now_ < until) now_ = until;
  }
  size_t num_pending() const { return queue_.size(); }

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
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// Runs a deterministic stress script on `sim`: root events on a coarse
/// time grid (equal-time ties), cascading children, schedule-in-the-past
/// clamping, zero delays — driven through an interleaved RunUntil/Step
/// pattern. Returns the (id, fire-time) log.
template <typename Sim>
std::vector<std::pair<int, double>> RunStressScript(Sim& sim, uint64_t seed) {
  std::vector<std::pair<int, double>> log;
  // `fire` outlives every scheduled event (the run loop below drains the
  // queue before this function returns), so events capture it by
  // reference.
  std::function<void(int)> fire = [&sim, &log, &fire](int id) {
    log.emplace_back(id, sim.Now());
    if (id >= 10000) return;  // children do not cascade further
    if (id % 3 == 0) {
      int child = id + 10000;
      sim.ScheduleAfter(static_cast<double>(id % 5) * 0.25,
                        [child, &fire]() { fire(child); });
    }
    if (id % 4 == 0) {
      // Schedules in the past; must clamp to Now() and fire after
      // already-queued events at the current time.
      int child = id + 20000;
      sim.ScheduleAt(sim.Now() - 1.0, [child, &fire]() { fire(child); });
    }
    if (id % 7 == 0) {
      int child = id + 30000;
      sim.ScheduleAfter(0.0, [child, &fire]() { fire(child); });
    }
  };
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    double t = static_cast<double>(rng.NextBelow(16)) * 0.5;
    sim.ScheduleAt(t, [i, &fire]() { fire(i); });
  }
  // Interleave RunUntil windows with single Steps, like the experiment
  // driver and the Raft tests do.
  double horizon = 0.0;
  while (sim.num_pending() > 0) {
    horizon += 0.75;
    sim.RunUntil(horizon);
    sim.Step();
    sim.Step();
  }
  log.emplace_back(-1, sim.Now());
  return log;
}

TEST(SimulatorTest, RandomizedSchedulesMatchReferenceEngine) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    ReferenceSimulator ref;
    auto got = RunStressScript(sim, seed);
    auto want = RunStressScript(ref, seed);
    ASSERT_EQ(got, want) << "divergence at seed " << seed;
  }
}

/// Runs an open-loop arrival stream — send times equal, negative and out
/// of order — between ordinary events at the same timestamps; every event
/// cascades children (zero delay, in the past, on the arrival grid).
/// With `kChained` the arrivals are fed one at a time under sequence
/// numbers reserved at the scheduling point, in (send time clamped at 0,
/// index) order, as ChannelRun feeds them; otherwise the whole stream is
/// queued up front. Returns the (id, fire-time) log.
template <bool kChained, typename Sim>
std::vector<std::pair<int, double>> RunArrivalScript(Sim& sim, uint64_t seed) {
  std::vector<std::pair<int, double>> log;
  // `fire` and `arrive` outlive every scheduled event (the run loop below
  // drains the queue before this function returns).
  std::function<void(int)> fire = [&sim, &log, &fire](int id) {
    log.emplace_back(id, sim.Now());
    if (id >= 10000) return;  // children do not cascade further
    if (id % 3 == 0) {
      sim.ScheduleAfter(0.0, [id, &fire]() { fire(id + 10000); });
    }
    if (id % 4 == 0) {
      sim.ScheduleAt(sim.Now() - 1.0, [id, &fire]() { fire(id + 20000); });
    }
    if (id % 5 == 0) {
      sim.ScheduleAfter(0.5, [id, &fire]() { fire(id + 30000); });
    }
  };
  Rng rng(seed);
  auto grid_time = [&rng]() {
    return (static_cast<double>(rng.NextBelow(16)) - 4.0) * 0.5;
  };
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(grid_time(), [i, &fire]() { fire(1000 + i); });
  }
  std::vector<double> send(200);
  for (double& t : send) t = grid_time();
  std::function<void(size_t)> arrive;
  std::vector<size_t> order(send.size());
  if constexpr (kChained) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&send](size_t a, size_t b) {
      return std::max(send[a], 0.0) < std::max(send[b], 0.0);
    });
    const uint64_t first_seq = sim.ReserveSequence(send.size());
    arrive = [&sim, &send, &order, &fire, &arrive, first_seq](size_t k) {
      const size_t i = order[k];
      sim.ScheduleAtSequence(send[i], first_seq + k, [k, i, &order, &fire,
                                                      &arrive]() {
        fire(static_cast<int>(i));
        if (k + 1 < order.size()) arrive(k + 1);
      });
    };
    arrive(0);
  } else {
    for (size_t i = 0; i < send.size(); ++i) {
      sim.ScheduleAt(send[i], [i, &fire]() { fire(static_cast<int>(i)); });
    }
  }
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(grid_time(), [i, &fire]() { fire(2000 + i); });
  }
  double horizon = 0.0;
  while (sim.num_pending() > 0) {
    horizon += 0.75;
    sim.RunUntil(horizon);
    sim.Step();
    sim.Step();
  }
  log.emplace_back(-1, sim.Now());
  return log;
}

// The chained arrival stream ChannelRun uses must fire every event in
// exactly the order the all-up-front queue of the reference engine does,
// while never holding more than one arrival.
TEST(SimulatorTest, ChainedArrivalsMatchUpFrontReferenceOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    ReferenceSimulator ref;
    auto got = RunArrivalScript<true>(sim, seed);
    auto want = RunArrivalScript<false>(ref, seed);
    ASSERT_EQ(got, want) << "divergence at seed " << seed;
    // The up-front queue starts 300 deep; the chain adds one arrival to
    // the 100 ordinary events.
    EXPECT_LT(sim.queue_peak(), 200u);
  }
}

/// Counts copies and moves through the scheduling pipeline. Copyable on
/// purpose: a copy anywhere in the engine would compile fine and only this
/// counter would catch it.
struct CountingCallable {
  int* copies;
  int* moves;
  int* fired;
  CountingCallable(int* c, int* m, int* f) : copies(c), moves(m), fired(f) {}
  CountingCallable(const CountingCallable& o)
      : copies(o.copies), moves(o.moves), fired(o.fired) {
    ++*copies;
  }
  CountingCallable(CountingCallable&& o) noexcept
      : copies(o.copies), moves(o.moves), fired(o.fired) {
    ++*moves;
  }
  CountingCallable& operator=(const CountingCallable&) = delete;
  CountingCallable& operator=(CountingCallable&&) = delete;
  void operator()() { ++*fired; }
};

// Regression for the old copy-before-pop in Simulator::Step (the
// priority_queue top()-then-pop dance copied every callback once).
TEST(SimulatorTest, EventCallbacksAreMovedNotCopied) {
  Simulator sim;
  int copies = 0, moves = 0, fired = 0;
  sim.ScheduleAt(1.0, CountingCallable(&copies, &moves, &fired));
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(copies, 0);
  EXPECT_GT(moves, 0);
}

TEST(SimulatorTest, StationCallbacksAreMovedNotCopied) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  int copies = 0, moves = 0, fired = 0;
  sim.ScheduleAt(0, [&] {
    station.Submit(1.0, CountingCallable(&copies, &moves, &fired));
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(copies, 0);
  EXPECT_GT(moves, 0);
}

// Move-only callables must schedule and fire (they could not even be
// stored in the old std::function-based event).
TEST(SimulatorTest, MoveOnlyCallbacksAreSupported) {
  Simulator sim;
  // The callback owns the unique_ptr and is destroyed once it fires, so
  // the flag it sets must live outside it.
  bool fired = false;
  auto flag = std::make_unique<bool*>(&fired);
  sim.ScheduleAt(1.0, [flag = std::move(flag)]() { **flag = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, QueuePeakTracksHighWaterMark) {
  Simulator sim;
  EXPECT_EQ(sim.queue_peak(), 0u);
  sim.ScheduleAt(1.0, [&] {
    // Two more while the other two roots are still pending: peak 4.
    sim.ScheduleAfter(1.0, [] {});
    sim.ScheduleAfter(2.0, [] {});
  });
  sim.ScheduleAt(2.0, [] {});
  sim.ScheduleAt(3.0, [] {});
  sim.Run();
  EXPECT_EQ(sim.queue_peak(), 4u);
  EXPECT_EQ(sim.num_processed(), 5u);
}

// ---------------------------------------------------------------------------
// ServiceStation
// ---------------------------------------------------------------------------

TEST(ServiceStationTest, SingleServerSerializesJobs) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  std::vector<double> finish_times;
  sim.ScheduleAt(0, [&] {
    for (int i = 0; i < 3; ++i) {
      station.Submit(1.0, [&] { finish_times.push_back(sim.Now()); });
    }
  });
  sim.Run();
  ASSERT_EQ(finish_times.size(), 3u);
  EXPECT_DOUBLE_EQ(finish_times[0], 1.0);
  EXPECT_DOUBLE_EQ(finish_times[1], 2.0);
  EXPECT_DOUBLE_EQ(finish_times[2], 3.0);
  EXPECT_DOUBLE_EQ(station.busy_time(), 3.0);
}

TEST(ServiceStationTest, MultiServerRunsInParallel) {
  Simulator sim;
  ServiceStation station(&sim, "s", 2);
  std::vector<double> finish_times;
  sim.ScheduleAt(0, [&] {
    for (int i = 0; i < 4; ++i) {
      station.Submit(1.0, [&] { finish_times.push_back(sim.Now()); });
    }
  });
  sim.Run();
  ASSERT_EQ(finish_times.size(), 4u);
  EXPECT_DOUBLE_EQ(finish_times[0], 1.0);
  EXPECT_DOUBLE_EQ(finish_times[1], 1.0);
  EXPECT_DOUBLE_EQ(finish_times[2], 2.0);
  EXPECT_DOUBLE_EQ(finish_times[3], 2.0);
}

TEST(ServiceStationTest, WaitStatsMeasureQueueing) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  sim.ScheduleAt(0, [&] {
    station.Submit(2.0, [] {});  // waits 0
    station.Submit(1.0, [] {});  // waits 2
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(station.wait_stats().min(), 0.0);
  EXPECT_DOUBLE_EQ(station.wait_stats().max(), 2.0);
}

TEST(ServiceStationTest, IdleServerStartsImmediately) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  double finish = -1;
  sim.ScheduleAt(5.0, [&] { station.Submit(0.5, [&] { finish = sim.Now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(finish, 5.5);
}

TEST(ServiceStationTest, AddingServersDrainsBacklogFaster) {
  // Same offered load, one vs two servers: total completion time halves.
  auto run = [](int servers) {
    Simulator sim;
    ServiceStation station(&sim, "s", servers);
    sim.ScheduleAt(0, [&] {
      for (int i = 0; i < 10; ++i) station.Submit(1.0, [] {});
    });
    sim.Run();
    return sim.Now();
  };
  EXPECT_DOUBLE_EQ(run(1), 10.0);
  EXPECT_DOUBLE_EQ(run(2), 5.0);
}

TEST(ServiceStationTest, SetServersAffectsLaterJobs) {
  Simulator sim;
  ServiceStation station(&sim, "s", 1);
  std::vector<double> finish_times;
  sim.ScheduleAt(0, [&] {
    station.Submit(1.0, [&] { finish_times.push_back(sim.Now()); });
    station.set_servers(3);
    station.Submit(1.0, [&] { finish_times.push_back(sim.Now()); });
    station.Submit(1.0, [&] { finish_times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(finish_times.size(), 3u);
  // All three can run in parallel after the expansion.
  EXPECT_DOUBLE_EQ(finish_times[2], 1.0);
}

TEST(ServiceStationTest, CurrentDelayTracksBacklog) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  sim.ScheduleAt(0, [&] {
    EXPECT_DOUBLE_EQ(station.CurrentDelay(), 0.0);
    station.Submit(3.0, [] {});
    EXPECT_DOUBLE_EQ(station.CurrentDelay(), 3.0);
  });
  sim.Run();
}

TEST(ServiceStationTest, ZeroServiceTimeCompletesAtSubmitTime) {
  Simulator sim;
  ServiceStation station(&sim, "s");
  double finish = -1;
  sim.ScheduleAt(2.0, [&] { station.Submit(0.0, [&] { finish = sim.Now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(finish, 2.0);
}

}  // namespace
}  // namespace blockoptr
