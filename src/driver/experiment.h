#ifndef BLOCKOPTR_DRIVER_EXPERIMENT_H_
#define BLOCKOPTR_DRIVER_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blockopt/stream/stream_engine.h"
#include "common/result.h"
#include "driver/client_manager.h"
#include "driver/faults.h"
#include "driver/report.h"
#include "fabric/config.h"
#include "ledger/ledger.h"
#include "telemetry/telemetry.h"
#include "workload/spec.h"

namespace blockoptr {

/// A world-state entry installed before the run (init-transaction
/// analogue).
struct SeedEntry {
  std::string chaincode;
  std::string key;
  std::string value;
};

/// Everything needed to run one benchmark experiment — the equivalent of
/// one HyperledgerLab/Caliper round in the paper's methodology (§5).
struct ExperimentConfig {
  NetworkConfig network;

  /// Registry names of the contracts to install (e.g. {"scm"} or the
  /// optimized variant {"scm_pruned"}).
  std::vector<std::string> chaincodes;

  std::vector<SeedEntry> seeds;
  Schedule schedule;

  /// Client-manager transformations (activity reordering, rate control).
  ClientManagerSettings client_manager;

  /// Ordering-service scheduler: "" (vanilla Fabric), "fabricpp", or
  /// "fabricsharp".
  std::string orderer_scheduler;

  /// Deterministic fault injection (driver/faults.h): Raft node crashes,
  /// endorser degradation/outage, and arrival-process modulation,
  /// scheduled in sim time. Empty (the default) runs healthy. Arrival
  /// events transform the prepared schedule before the run; runtime
  /// events fire from the simulator; the resolved windows land in
  /// `ExperimentOutput::fault_windows` for bottleneck attribution.
  FaultPlan faults;

  /// Safety valve: abort the run if virtual time exceeds this.
  double max_sim_time = 36000;

  /// Multi-channel sharding (driver/sharded.h): > 1 splits the experiment
  /// into this many channels — each an independent Fabric network with its
  /// own event core and derived RNG seed — run in epoch lockstep and
  /// coupled through the shared client population. The schedule is
  /// partitioned across channels deterministically (weighted round-robin
  /// per `channel_weights`). 1 (the default) is the classic single-channel
  /// run, bit-identical to the pre-sharding path.
  int channels = 1;

  /// Worker threads advancing channels in parallel; results are
  /// field-for-field identical for every value (1 = serial reference,
  /// <= 0 = all hardware threads). Ignored when `channels` <= 1.
  int sim_threads = 1;

  /// Lockstep epoch length in sim seconds; <= 0 (the default) derives it
  /// from the latency model's minimum cross-channel coupling latency
  /// (MinCouplingLatency). Ignored when `channels` <= 1.
  double epoch_s = 0;

  /// Relative workload weight per channel (empty = uniform). Entry i
  /// weights channel i; missing/non-positive entries default to 1.
  std::vector<double> channel_weights;

  /// When true, the run records observability data into
  /// `ExperimentOutput::telemetry` (per `telemetry_options`: the flight
  /// recorder, component metrics, continuous sampler time series). Off by
  /// default: the disabled path does no telemetry work and schedules no
  /// telemetry events.
  bool enable_telemetry = false;

  /// Which telemetry aspects a telemetry-enabled run records (ignored
  /// when `enable_telemetry` is false). `TelemetryOptions::SamplerOnly()`
  /// is the low-overhead continuous-monitoring profile.
  TelemetryOptions telemetry_options;

  /// Streaming analysis (Observability v3): when `stream.enabled`, the
  /// commit path feeds a StreamEngine that derives the blockchain log
  /// incrementally, maintains windowed metrics / a sliding conflict
  /// graph, and re-evaluates the nine recommendations online. With
  /// `stream.apply`, the top applicable recommendation is submitted
  /// mid-run as a config-update transaction (block-size adaptation →
  /// SubmitBlockCuttingUpdate; endorser restructuring →
  /// SubmitPolicyUpdate). Independent of `enable_telemetry`.
  StreamOptions stream;
};

/// The result of a run: the performance report plus the artefacts
/// BlockOptR analyzes (the ledger) and network-side statistics.
struct ExperimentOutput {
  PerformanceReport report;
  Ledger ledger;
  std::map<std::string, uint64_t> endorsement_counts;
  NetworkConfig network;  // effective config (for metric extraction)
  double sim_end_time = 0;

  /// Engine statistics: total discrete events executed by the run and the
  /// event queue's high-water mark (also exported as the
  /// `sim.events_processed` / `sim.queue_peak` gauges when telemetry is
  /// on). Arrivals are queued one at a time, so the peak counts in-flight
  /// work, not the workload size. events/sec of a bench run is
  /// `events_processed` over wall time.
  uint64_t events_processed = 0;
  size_t queue_peak = 0;

  /// Resolved fault windows (empty for healthy runs), named with the
  /// fired target — e.g. "leader-crash(node1)" — and clamped to the run.
  /// Pass to ComputeBottleneckReport so the verdict names the fault.
  std::vector<FaultWindow> fault_windows;

  /// Trace + metrics of the run; null unless
  /// `ExperimentConfig::enable_telemetry` was set. The recorder's data
  /// stays readable/exportable after the run even though the simulator is
  /// gone.
  std::unique_ptr<Telemetry> telemetry;

  /// Streaming analysis engine state; null unless
  /// `ExperimentConfig::stream.enabled` was set. Finalized (windows
  /// flushed, apply hook released) before RunExperiment returns.
  std::unique_ptr<StreamEngine> stream;

  /// Per-channel outputs of a multi-channel run (`channels > 1`), indexed
  /// by channel. Each entry is a complete single-channel output — ledger,
  /// telemetry, stream, fault windows, engine stats. The top level then
  /// carries the whole-experiment view: the merged report, summed engine
  /// counters, merged endorsement counts — but an empty ledger and null
  /// telemetry/stream (those stay per-channel; consumers iterate
  /// `channels`). Empty for single-channel runs.
  std::vector<ExperimentOutput> channels;
};

/// Runs the experiment to completion (every scheduled request committed or
/// early-aborted) and returns the output. Deterministic per
/// (config, schedule) — including all seeds.
Result<ExperimentOutput> RunExperiment(const ExperimentConfig& config);

/// Upper bound on the flight-recorder events one channel of `config`
/// appends, so a ring at least this large keeps the whole run. Per
/// transaction at most 7 + 2·orgs (submit, proposal, start and done per
/// endorsing org, collect, assemble, orderer enqueue, block cut, commit);
/// per block at most 3 + 2·orgs (Raft propose, replicate and commit, start
/// and done per validating org), with every block holding at least one
/// transaction; plus one kRaftReplicate per block for each leader election
/// a Raft crash fault can cause (the crash and the restart), since a new
/// leader re-proposes the blocks it lacks.
uint64_t TxTraceEventBound(const ExperimentConfig& config);

/// The same bound for a channel of `config` that runs `scheduled_txs`
/// requests (one partition of a sharded run).
uint64_t TxTraceEventBound(const ExperimentConfig& config,
                           size_t scheduled_txs);

}  // namespace blockoptr

#endif  // BLOCKOPTR_DRIVER_EXPERIMENT_H_
