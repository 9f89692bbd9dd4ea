#include "driver/experiment.h"

#include <algorithm>
#include <limits>

#include "driver/channel_run.h"
#include "driver/sharded.h"

namespace blockoptr {

Result<ExperimentOutput> RunExperiment(const ExperimentConfig& config) {
  if (config.channels > 1) return RunShardedExperiment(config);
  // Single channel: one ChannelRun advanced through one unbounded epoch,
  // which steps every event in queue order until the run completes.
  auto run = ChannelRun::Create(config, config.schedule);
  if (!run.ok()) return run.status();
  BLOCKOPTR_RETURN_NOT_OK(
      (*run)->AdvanceUntil(std::numeric_limits<double>::infinity()));
  return (*run)->Finish();
}

uint64_t TxTraceEventBound(const ExperimentConfig& config) {
  return TxTraceEventBound(config, config.schedule.size());
}

uint64_t TxTraceEventBound(const ExperimentConfig& config,
                           size_t scheduled_txs) {
  const uint64_t orgs =
      static_cast<uint64_t>(std::max(config.network.num_orgs, 0));
  // Streaming apply submits at most one config transaction per channel.
  const uint64_t txs = scheduled_txs + (config.stream.apply ? 1 : 0);
  uint64_t raft_faults = 0;
  for (const FaultEvent& f : config.faults.events) {
    if (f.kind == FaultKind::kLeaderCrash || f.kind == FaultKind::kNodeCrash) {
      ++raft_faults;
    }
  }
  const uint64_t blocks = txs;  // every block holds a transaction
  return txs * (7 + 2 * orgs) + blocks * (3 + 2 * orgs) +
         2 * raft_faults * blocks;
}

}  // namespace blockoptr
