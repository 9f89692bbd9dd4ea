#ifndef BLOCKOPTR_SIM_SHARD_RUNNER_H_
#define BLOCKOPTR_SIM_SHARD_RUNNER_H_

// The parallel shard core of the multi-channel simulator: K independent
// discrete-event shards advanced in lockstep time epochs by up to N worker
// threads, with a serial cross-shard synchronization point at every epoch
// boundary.
//
// Conservative time-window synchronization: within one epoch no shard may
// observe another shard's state — all cross-shard coupling happens in the
// `sync` hook, which runs with every worker quiescent (inside the barrier
// completion, exactly once per epoch, shards visited in index order).
// Because each shard's event stream is a pure function of its own state
// plus the epoch-boundary sync decisions, the run is field-for-field
// identical for every thread count, including the inline serial path.

#include <functional>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace blockoptr {

/// One shard the runner drives. Implementations own all of their mutable
/// state; the runner guarantees AdvanceUntil is never called concurrently
/// for the same shard and that `sync` never overlaps any AdvanceUntil.
class Shard {
 public:
  virtual ~Shard() = default;

  /// Runs the shard's events with fire time <= `epoch_end`. Returns an
  /// error to abort the whole run (e.g. the shard's event queue drained
  /// before its workload completed). Must be re-entrant across epochs but
  /// is only ever invoked from one thread at a time.
  virtual Status AdvanceUntil(SimTime epoch_end) = 0;

  /// True once the shard has no more work (the runner stops scheduling
  /// epochs for it; other shards keep running).
  virtual bool done() const = 0;

  /// Fire time of the shard's earliest pending event, or +infinity when
  /// none is queued. Only read at epoch boundaries (all workers parked);
  /// lets the runner fast-forward across epochs in which every shard is
  /// idle instead of spinning the barrier through empty windows.
  virtual SimTime NextTime() const = 0;
};

struct ShardRunnerOptions {
  /// Worker threads advancing shards. 1 (the default) runs every epoch
  /// inline on the calling thread; <= 0 selects all hardware threads.
  /// More threads than shards are clamped to the shard count.
  int threads = 1;

  /// Epoch (lockstep window) length in virtual seconds. Cross-shard
  /// coupling decisions take effect at epoch boundaries, so this is the
  /// model's coupling latency; it must be > 0, and `max_time / epoch_s`
  /// must be below 9e18 (36,000 s allows epochs down to 4e-15 s).
  double epoch_s = 0.05;

  /// Abort guard: the run fails once the epoch clock passes this.
  double max_time = 36000;
};

/// Advances every shard to successive epoch boundaries until all report
/// done(). After each epoch, `sync(epoch_end)` runs serially (pass nullptr
/// for uncoupled shards). Shards are statically assigned to workers
/// (shard i -> worker i % threads) so no scheduling decision can leak into
/// results. Returns InvalidArgument for an epoch outside the bounds above,
/// the lowest-indexed shard error, or an Internal error when `max_time` is
/// exceeded.
Status RunShards(const std::vector<Shard*>& shards,
                 const ShardRunnerOptions& options,
                 const std::function<void(SimTime epoch_end)>& sync);

}  // namespace blockoptr

#endif  // BLOCKOPTR_SIM_SHARD_RUNNER_H_
