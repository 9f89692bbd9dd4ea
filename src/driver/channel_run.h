#ifndef BLOCKOPTR_DRIVER_CHANNEL_RUN_H_
#define BLOCKOPTR_DRIVER_CHANNEL_RUN_H_

// One channel's live experiment: the setup / step / finish internals of
// RunExperiment, shared by the single-channel run (one channel, one
// unbounded epoch) and the multi-channel sharded driver. A ChannelRun owns
// the simulator, the Fabric network, the prepared schedule, and the output
// under construction; it is also a sim::Shard, so the shard runner can
// advance it in epoch lockstep next to its sibling channels.

#include <memory>

#include "common/result.h"
#include "driver/experiment.h"
#include "driver/faults.h"
#include "fabric/network.h"
#include "sim/shard_runner.h"
#include "sim/simulator.h"

namespace blockoptr {

class ChannelRun : public Shard {
 public:
  /// Builds the fully-armed channel: network constructed, chaincodes
  /// installed, state seeded, scheduler/telemetry/stream attached, the
  /// first arrival of the prepared `schedule` queued, faults armed,
  /// network started, sampler ticking. `schedule` is this channel's
  /// workload; `config.schedule` is not read. After Create the channel
  /// only needs to be stepped (AdvanceUntil) and Finished. Fails on a
  /// network without organizations or with an organization that gets no
  /// client, a fault naming an organization or orderer node the network
  /// lacks, a flight-recorder ring of 0 or more than kMaxTxTraceRing
  /// events, a non-positive flight-recorder or stream window, an unknown
  /// contract or scheduler, or a schedule that references a contract not
  /// installed or has a non-finite send time.
  static Result<std::unique_ptr<ChannelRun>> Create(
      const ExperimentConfig& config, Schedule schedule);

  ChannelRun(const ChannelRun&) = delete;
  ChannelRun& operator=(const ChannelRun&) = delete;

  // Shard interface. AdvanceUntil steps events in queue order until every
  // scheduled request committed or early-aborted, or the next event lies
  // beyond `epoch_end`; a single-channel run passes +infinity, so its one
  // epoch runs the whole experiment.
  Status AdvanceUntil(SimTime epoch_end) override;
  bool done() const override { return completed_ >= total_; }
  SimTime NextTime() const override;

  /// Post-run finalization: report finish, stream/sampler/recorder
  /// finalize, the run's metrics, fault windows — then surrenders the
  /// output. Call exactly once, after the run loop completed without error.
  ExperimentOutput Finish();

  FabricNetwork& network() { return *network_; }
  const FabricNetwork& network() const { return *network_; }
  Simulator& sim() { return sim_; }

 private:
  ChannelRun() = default;

  /// The fallible construction steps, in exactly the order the monolithic
  /// RunExperiment performed them.
  Status Setup(const ExperimentConfig& config, Schedule schedule);

  /// Queues the arrival of schedule_[next_arrival_]; when it fires, it
  /// submits the request and queues the next one.
  void ScheduleNextArrival();

  /// Fills the telemetry registry once, at run end, from what the run
  /// already counts: the report, the ledger, the network's totals and
  /// endorsement counts, the orderer's, Raft's and each peer's tallies,
  /// and the stations' wait statistics. The only code that names metrics.
  void FillMetrics(MetricsRegistry& metrics);

  Simulator sim_;
  std::unique_ptr<FabricNetwork> network_;
  std::unique_ptr<FaultInjector> faults_;
  /// In firing order; arrival events reference entries in place.
  Schedule schedule_;
  size_t next_arrival_ = 0;
  // What the client manager was handed (before arrival faults reshape the
  // schedule) and did, for its run-end metrics.
  size_t scheduled_ = 0;
  bool reordered_ = false;
  double rate_cap_tps_ = 0;
  uint64_t arrival_seq_ = 0;  // first sequence number reserved for arrivals
  ExperimentOutput output_;
  size_t completed_ = 0;
  size_t total_ = 0;
  double last_commit_ = 0;
  double max_sim_time_ = 36000;
  bool faults_enabled_ = false;
  NetworkConfig base_network_config_;  // echoed into output_.network
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_DRIVER_CHANNEL_RUN_H_
