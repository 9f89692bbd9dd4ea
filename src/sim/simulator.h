#ifndef BLOCKOPTR_SIM_SIMULATOR_H_
#define BLOCKOPTR_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/chunk_pool.h"
#include "common/inline_callback.h"
#include "sim/event_heap.h"

namespace blockoptr {

/// Virtual time in seconds. All latencies in the Fabric model are expressed
/// in these units; wall-clock time never enters the simulation.
using SimTime = double;

/// A deterministic discrete-event simulator. Events are executed in
/// (time, insertion-sequence) order so that equal-time events fire in the
/// order they were scheduled — this makes whole experiments reproducible
/// bit-for-bit from a workload seed.
///
/// Engine layout (the whole-experiment hot path):
///   - The priority queue is a `FourAryEventHeap` of 16-byte packed
///     handles (time bits, seq|slot) — sift operations compare integers,
///     touch one cache line per child group, and never touch callback
///     bytes.
///   - Callbacks live in a free-list slot pool as `InlineCallback`s
///     (fixed inline capacity, no heap fallback). Scheduling emplaces the
///     closure directly into its slot (one move, no intermediate hops)
///     and Step() invokes it *in place* (zero copies at pop — the pool is
///     a deque, so slot references stay stable even when a callback grows
///     the pool mid-invocation). Steady-state scheduling therefore
///     performs zero heap allocations: once the pool and heap have grown
///     to the run's high-water mark, schedule/fire cycles only recycle
///     slots.
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. 0 before any event has run.
  SimTime Now() const { return now_; }

  /// Schedules `f` at absolute virtual time `at`. Scheduling in the past
  /// clamps to `Now()` (the event fires next, after already-queued events
  /// at the current time). The callable is emplaced directly into its
  /// pool slot — one move, however large the closure.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback>>>
  void ScheduleAt(SimTime at, F&& f) {
    uint32_t slot = AcquireVacantSlot();
    slots_[slot].cb.Emplace(std::forward<F>(f));
    Commit(at, slot);
  }

  /// Overload for a pre-built Callback (e.g. a ServiceStation job's
  /// completion): moved into its slot, the one relocation it makes.
  void ScheduleAt(SimTime at, Callback&& cb);

  /// Schedules after `delay` seconds of virtual time (delay >= 0).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback>>>
  void ScheduleAfter(SimTime delay, F&& f) {
    ScheduleAt(now_ + delay, std::forward<F>(f));
  }

  void ScheduleAfter(SimTime delay, Callback&& cb);

  /// Reserves `n` consecutive insertion sequence numbers and returns the
  /// first; events scheduled afterwards number after them. An event
  /// scheduled later under a reserved number (ScheduleAtSequence) ties
  /// with equal-time events exactly as if it had been scheduled at the
  /// reservation point: before everything scheduled after it, after
  /// everything scheduled before. This lets a driver feed a long arrival
  /// stream one event at a time instead of queueing it whole.
  uint64_t ReserveSequence(uint64_t n) {
    const uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `f` at `at` (clamped like ScheduleAt) under `seq`, a number
  /// from ReserveSequence. Each reserved number may be used at most once.
  template <typename F>
  void ScheduleAtSequence(SimTime at, uint64_t seq, F&& f) {
    assert(seq < next_seq_);
    uint32_t slot = AcquireVacantSlot();
    slots_[slot].cb.Emplace(std::forward<F>(f));
    Push(at, seq, slot);
  }

  /// Runs until the event queue is empty. Careful: components with
  /// self-re-arming timers (e.g. Raft heartbeats) keep the queue non-empty
  /// forever — drive those with RunUntil() or a completion predicate.
  void Run();

  /// Runs events with time <= `until`. Advances `Now()` to `until` if the
  /// queue drains earlier.
  void RunUntil(SimTime until);

  /// Executes at most one event. Returns false if the queue is empty.
  bool Step();

  /// Executes the next event only if its fire time is <= `until`; returns
  /// false (without advancing `Now()`) when the queue is empty or the next
  /// event lies beyond `until`. This is the sharded runner's primitive: it
  /// lets an external driver advance the simulator in bounded time windows
  /// while a separate completion predicate decides when to stop, without
  /// the drain-to-`until` semantics of RunUntil().
  bool StepIfBefore(SimTime until);

  /// Fire time of the next pending event; meaningless when the queue is
  /// empty (check num_pending() first).
  SimTime NextEventTime() const;

  size_t num_pending() const { return queue_.size(); }
  uint64_t num_processed() const { return processed_; }

  /// High-water mark of the pending-event queue over the simulator's
  /// lifetime (exported as the `sim.queue_peak` gauge).
  size_t queue_peak() const { return queue_peak_; }

 private:
  /// What the heap orders — packed to 16 bytes so a 4-ary child group is
  /// exactly one cache line:
  ///   - `time` holds the IEEE-754 bit pattern of the (non-negative,
  ///     canonicalized) fire time: for non-negative doubles, unsigned
  ///     bit-pattern order equals numeric order, so double comparisons
  ///     become integer comparisons with the identical result.
  ///   - `seq` packs (insertion sequence << kSlotBits) | slot. Sequence
  ///     numbers are unique, so the slot bits never influence ordering;
  ///     the (time, seq) contract is preserved bit-for-bit.
  struct EventRef {
    uint64_t time;
    uint64_t seq;
  };
  static_assert(sizeof(EventRef) == 16, "EventRef must stay 16 bytes");

  /// 24 slot bits bound the pool at ~16.7M simultaneously pending events
  /// (checked on pool growth); the remaining 40 sequence bits allow ~1.1
  /// trillion events per simulator lifetime.
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kSlotBits) - 1;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One parked callback. `next_free` links vacant slots into the free
  /// list (only meaningful while the slot is vacant).
  struct Slot {
    Callback cb;
    uint32_t next_free = kNoSlot;
  };

  /// Pops a vacant slot off the free list (or grows the pool); the slot's
  /// callback is empty and ready to be emplaced or assigned.
  uint32_t AcquireVacantSlot();

  /// Pushes the heap handle for an already-filled slot under the next
  /// insertion sequence number.
  void Commit(SimTime at, uint32_t slot) { Push(at, next_seq_++, slot); }

  /// Pushes the heap handle for an already-filled slot (clamping `at` to
  /// the past-scheduling rule) and updates the queue high-water mark.
  void Push(SimTime at, uint64_t seq, uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  size_t queue_peak_ = 0;
  FourAryEventHeap<EventRef> queue_;
  /// Chunked, not a vector: Step() invokes callbacks in place, and a
  /// callback that schedules may grow the pool mid-invocation — chunk
  /// growth never relocates existing slots (and, unlike a deque of
  /// 352-byte elements, costs one allocation per 1024 slots, not one
  /// scattered node per slot).
  ChunkPool<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_SIM_SIMULATOR_H_
