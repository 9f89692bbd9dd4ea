#include "sim/shard_runner.h"

#include <barrier>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace blockoptr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bound on epoch grid indices (below 2^63, so a covering index converts
/// to uint64_t exactly). EpochBoundary fast-forwards only to an index
/// below it; past it the runner would step one epoch at a time, so
/// RunShards rejects an epoch whose max_time guard lies past it.
constexpr double kMaxEpochIndex = 9e18;

/// Shared lockstep state. Workers only touch it between barrier phases
/// (the barrier provides the happens-before edges), so no atomics are
/// needed beyond the barrier itself.
struct LockstepState {
  uint64_t epoch_index = 1;  // epoch_end = epoch_index * epoch_s
  SimTime epoch_end = 0;
  bool stop = false;
  std::vector<Status> status;  // per shard; only its owner writes
};

/// The epoch-boundary decision, shared by the serial and threaded paths:
/// resolves errors (lowest shard index wins), completion, the max-time
/// guard, the serial sync hook, and the next epoch boundary — skipping
/// straight to the grid point before the earliest pending event when every
/// shard is quiescent for longer than one epoch (the latency-tail /
/// sparse-heartbeat fast-forward; a pure function of shard state, so it is
/// identical for every thread count).
void EpochBoundary(const std::vector<Shard*>& shards,
                   const ShardRunnerOptions& options, LockstepState& state,
                   const std::function<void(SimTime)>& sync) {
  for (const Status& st : state.status) {
    if (!st.ok()) {
      state.stop = true;
      return;
    }
  }
  bool all_done = true;
  for (Shard* shard : shards) {
    if (!shard->done()) {
      all_done = false;
      break;
    }
  }
  if (all_done) {
    state.stop = true;
    return;
  }
  if (state.epoch_end > options.max_time) {
    state.status[0] =
        Status::Internal("sharded simulation exceeded max_sim_time");
    state.stop = true;
    return;
  }
  if (sync) sync(state.epoch_end);

  SimTime next = kInf;
  for (Shard* shard : shards) {
    if (!shard->done()) next = std::min(next, shard->NextTime());
  }
  uint64_t next_index = state.epoch_index + 1;
  const double ratio = next / options.epoch_s;
  if (next < kInf && ratio < kMaxEpochIndex) {
    // Fast-forward: the smallest grid index whose window covers the
    // earliest pending event (epoch k processes events <= k*epoch_s).
    // Integer epoch indices keep the grid drift-free, so a jump lands on
    // exactly the boundary that stepping epoch-by-epoch would reach, for
    // any thread count. A rounding miss just costs one extra epoch.
    uint64_t covering = static_cast<uint64_t>(std::ceil(ratio));
    if (covering > next_index) next_index = covering;
  }
  state.epoch_index = next_index;
  state.epoch_end = static_cast<double>(state.epoch_index) * options.epoch_s;
}

void AdvanceOwned(const std::vector<Shard*>& shards, LockstepState& state,
                  size_t worker, size_t stride) {
  for (size_t i = worker; i < shards.size(); i += stride) {
    if (shards[i]->done() || !state.status[i].ok()) continue;
    try {
      state.status[i] = shards[i]->AdvanceUntil(state.epoch_end);
    } catch (const std::exception& e) {
      state.status[i] =
          Status::Internal(std::string("shard threw: ") + e.what());
    }
  }
}

Status FirstError(const LockstepState& state) {
  for (const Status& st : state.status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

Status RunShards(const std::vector<Shard*>& shards,
                 const ShardRunnerOptions& options,
                 const std::function<void(SimTime epoch_end)>& sync) {
  if (shards.empty()) return Status::OK();
  if (options.epoch_s <= 0) {
    return Status::InvalidArgument("shard epoch must be > 0");
  }
  if (!(options.max_time / options.epoch_s < kMaxEpochIndex)) {
    return Status::InvalidArgument(
        "shard epoch too short: max_sim_time / epoch must be below 9e18");
  }
  LockstepState state;
  state.status.assign(shards.size(), Status::OK());
  state.epoch_end = options.epoch_s;

  const size_t workers = std::min<size_t>(
      static_cast<size_t>(ThreadPool::ResolveThreads(options.threads)),
      shards.size());

  if (workers <= 1) {
    // Inline serial path: same epoch grid, same boundary decisions, no
    // threading machinery at all — the reference the determinism tests
    // compare the threaded path against.
    for (;;) {
      AdvanceOwned(shards, state, 0, 1);
      EpochBoundary(shards, options, state, sync);
      if (state.stop) return FirstError(state);
    }
  }

  // Threaded path: static shard->worker assignment, one barrier per epoch.
  // The completion function runs the epoch boundary on exactly one thread
  // while every other worker is parked inside the barrier, which makes the
  // sync hook a true serial section.
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers), [&]() noexcept {
    EpochBoundary(shards, options, state, sync);
  });
  auto worker_loop = [&](size_t w) {
    for (;;) {
      AdvanceOwned(shards, state, w, workers);
      barrier.arrive_and_wait();
      if (state.stop) return;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (auto& t : threads) t.join();
  return FirstError(state);
}

}  // namespace blockoptr
