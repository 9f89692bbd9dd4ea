#include "driver/experiment.h"

#include <limits>

#include "driver/channel_run.h"
#include "driver/sharded.h"

namespace blockoptr {

Result<ExperimentOutput> RunExperiment(const ExperimentConfig& config) {
  if (config.channels > 1) return RunShardedExperiment(config);
  // Single channel: one ChannelRun advanced through one unbounded epoch,
  // which steps every event in queue order until the run completes.
  auto run = ChannelRun::Create(config);
  if (!run.ok()) return run.status();
  BLOCKOPTR_RETURN_NOT_OK(
      (*run)->AdvanceUntil(std::numeric_limits<double>::infinity()));
  return (*run)->Finish();
}

}  // namespace blockoptr
