#include "driver/channel_run.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "driver/client_manager.h"
#include "fabric/endorsement_policy.h"
#include "reorder/fabricpp.h"
#include "reorder/fabricsharp.h"

namespace blockoptr {

namespace {

Result<std::unique_ptr<BlockReorderer>> MakeScheduler(
    const std::string& name) {
  if (name.empty()) return std::unique_ptr<BlockReorderer>();
  if (name == "fabricpp") {
    return std::unique_ptr<BlockReorderer>(new FabricPPReorderer());
  }
  if (name == "fabricsharp") {
    return std::unique_ptr<BlockReorderer>(new FabricSharpReorderer());
  }
  return Status::InvalidArgument("unknown orderer scheduler '" + name + "'");
}

/// The configuration checks that need no network: every organization gets
/// a client, every fault names an organization or orderer node the network
/// has, and the recorder's ring and the recorder and stream windows are in
/// range.
Status CheckConfig(const ExperimentConfig& config) {
  const NetworkConfig& net = config.network;
  if (net.num_orgs < 1) {
    return Status::InvalidArgument("the network needs at least one "
                                   "organization (num_orgs is " +
                                   std::to_string(net.num_orgs) + ")");
  }
  for (int org = 1; org <= net.num_orgs; ++org) {
    if (net.ClientsOfOrg(org) < 1) {
      return Status::InvalidArgument(
          NetworkConfig::OrgName(org) + " gets no client (" +
          std::to_string(net.num_clients) + " clients over " +
          std::to_string(net.num_orgs) + " organizations)");
    }
  }
  for (const FaultEvent& e : config.faults.events) {
    const bool endorser_fault = e.kind == FaultKind::kEndorserOutage ||
                                e.kind == FaultKind::kEndorserSlow;
    if (endorser_fault && (e.org < 1 || e.org > net.num_orgs)) {
      return Status::InvalidArgument(
          "fault '" + DescribeFault(e) + "' names organization " +
          std::to_string(e.org) + ", but the organizations are 1.." +
          std::to_string(net.num_orgs));
    }
    if (e.kind == FaultKind::kNodeCrash &&
        (e.node < 0 || e.node >= net.num_orderers)) {
      return Status::InvalidArgument(
          "fault '" + DescribeFault(e) + "' names orderer node " +
          std::to_string(e.node) + ", but the nodes are 0.." +
          std::to_string(net.num_orderers - 1));
    }
  }
  const TxTraceOptions& txtrace = config.telemetry_options.txtrace;
  if (config.enable_telemetry && txtrace.enabled) {
    if (txtrace.ring_capacity == 0 ||
        txtrace.ring_capacity > kMaxTxTraceRing) {
      return Status::InvalidArgument(
          "flight-recorder ring capacity must be in [1, " +
          std::to_string(kMaxTxTraceRing) + "] events (is " +
          std::to_string(txtrace.ring_capacity) + ")");
    }
    if (!(txtrace.window_s > 0)) {
      return Status::InvalidArgument(
          "flight-recorder window must be > 0 s (is " +
          FormatDouble(txtrace.window_s, 3) + ")");
    }
  }
  if (config.stream.enabled && !(config.stream.window_s > 0)) {
    return Status::InvalidArgument("stream window must be > 0 s (is " +
                                   FormatDouble(config.stream.window_s, 3) +
                                   ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ChannelRun>> ChannelRun::Create(
    const ExperimentConfig& config, Schedule schedule) {
  std::unique_ptr<ChannelRun> run(new ChannelRun());
  BLOCKOPTR_RETURN_NOT_OK(run->Setup(config, std::move(schedule)));
  return run;
}

Status ChannelRun::Setup(const ExperimentConfig& config, Schedule schedule) {
  BLOCKOPTR_RETURN_NOT_OK(CheckConfig(config));
  max_sim_time_ = config.max_sim_time;
  faults_enabled_ = config.faults.enabled();
  base_network_config_ = config.network;

  network_ = std::make_unique<FabricNetwork>(&sim_, config.network);

  for (const auto& name : config.chaincodes) {
    auto contract = ChaincodeRegistry::Global().Create(name);
    if (!contract.ok()) return contract.status();
    BLOCKOPTR_RETURN_NOT_OK(
        network_->InstallChaincode(std::move(*contract)));
  }
  for (const auto& seed : config.seeds) {
    network_->SeedState(seed.chaincode, seed.key, seed.value);
  }

  auto scheduler = MakeScheduler(config.orderer_scheduler);
  if (!scheduler.ok()) return scheduler.status();
  if (*scheduler != nullptr) network_->SetReorderer(std::move(*scheduler));

  if (config.enable_telemetry) {
    output_.telemetry =
        std::make_unique<Telemetry>(&sim_, config.telemetry_options);
    network_->set_telemetry(output_.telemetry.get());
  }

  if (config.stream.enabled) {
    output_.stream = std::make_unique<StreamEngine>(config.stream);
    StreamEngine* engine = output_.stream.get();
    network_->set_on_block_commit(
        [engine](const Block& block) { engine->OnBlockCommit(block); });
    if (config.stream.apply) {
      // The engine decides *when* (first evaluation whose active set has
      // an applicable entry); this hook decides *how* — through the same
      // config-update transactions a live operator would submit. Only the
      // two system-level recommendations have an in-band application
      // path; everything else reports false and stays advisory.
      const int num_orgs = config.network.num_orgs;
      FabricNetwork* net = network_.get();
      engine->set_apply_hook([net, num_orgs](const Recommendation& rec) {
        switch (rec.type) {
          case RecommendationType::kBlockSizeAdaptation: {
            if (rec.suggested_block_count == 0) return false;
            BlockCuttingConfig cutting;
            cutting.max_tx_count = rec.suggested_block_count;
            net->SubmitBlockCuttingUpdate(cutting);
            return true;
          }
          case RecommendationType::kEndorserRestructuring: {
            net->SubmitPolicyUpdate(
                EndorsementPolicy::Preset(4, num_orgs));
            return true;
          }
          default:
            return false;
        }
      });
    }
  }

  // Client manager: apply reordering / rate control to the workload.
  schedule_ = ClientManager::Prepare(
      std::move(schedule), config.client_manager,
      output_.telemetry ? &output_.telemetry->metrics() : nullptr);

  // Fault injection: arrival faults reshape the prepared schedule;
  // runtime faults (crashes, endorser degradation) become simulator
  // events when the injector arms below.
  faults_ = std::make_unique<FaultInjector>(&sim_, network_.get(),
                                            config.faults);
  if (faults_enabled_) ApplyArrivalFaults(schedule_, config.faults);

  network_->set_on_commit([this](const Transaction& tx) {
    output_.report.RecordCommit(tx);
    if (!tx.is_config) {
      ++completed_;
      last_commit_ = std::max(last_commit_, tx.commit_timestamp);
    }
  });
  network_->set_on_early_abort([this](const ClientRequest&, const Status&) {
    output_.report.RecordEarlyAbort();
    ++completed_;
  });

  // Fail fast if the schedule references a missing contract (checked
  // before anything is scheduled, so Submit below cannot fail) or cannot
  // be put in time order.
  for (const auto& req : schedule_) {
    bool found =
        std::find(config.chaincodes.begin(), config.chaincodes.end(),
                  req.chaincode) != config.chaincodes.end();
    if (!found) {
      return Status::InvalidArgument("schedule references chaincode '" +
                                     req.chaincode +
                                     "' which is not installed");
    }
    if (!std::isfinite(req.send_time)) {
      return Status::InvalidArgument(
          "request " + std::to_string(req.request_id) +
          " has a non-finite send time");
    }
  }

  // Arrivals are chained: one is queued at a time, and each one queues the
  // next when it fires, so the queue holds only in-flight work. They fire
  // in (send time clamped at 0, schedule index) order, as a queue holding
  // the whole schedule from this point on would fire them, and under
  // sequence numbers reserved here: every other event ties with an
  // arrival exactly as it would with the up-front one (DESIGN.md §4.9).
  auto earlier = [](const ClientRequest& a, const ClientRequest& b) {
    return std::max(a.send_time, 0.0) < std::max(b.send_time, 0.0);
  };
  if (!std::is_sorted(schedule_.begin(), schedule_.end(), earlier)) {
    std::stable_sort(schedule_.begin(), schedule_.end(), earlier);
  }
  arrival_seq_ = sim_.ReserveSequence(schedule_.size());
  total_ = schedule_.size();
  if (!schedule_.empty()) ScheduleNextArrival();

  if (faults_enabled_) faults_->Arm();
  network_->Start();
  if (output_.telemetry && output_.telemetry->sampler()) {
    // The continuous monitor: one self-re-arming tick per period. Started
    // after network setup so the first window covers real run time.
    output_.telemetry->sampler()->Start();
  }
  return Status::OK();
}

void ChannelRun::ScheduleNextArrival() {
  const size_t i = next_arrival_++;
  sim_.ScheduleAtSequence(schedule_[i].send_time, arrival_seq_ + i,
                          [this, i]() {
                            (void)network_->Submit(schedule_[i]);
                            if (next_arrival_ < schedule_.size()) {
                              ScheduleNextArrival();
                            }
                          });
}

Status ChannelRun::AdvanceUntil(SimTime epoch_end) {
  while (completed_ < total_) {
    if (!sim_.StepIfBefore(epoch_end)) {
      if (sim_.num_pending() == 0) {
        return Status::Internal(
            "simulation drained before all transactions completed (" +
            std::to_string(completed_) + "/" + std::to_string(total_) +
            ")");
      }
      return Status::OK();  // next event lies beyond this epoch
    }
    if (sim_.Now() > max_sim_time_) {
      return Status::Internal("simulation exceeded max_sim_time");
    }
  }
  return Status::OK();
}

SimTime ChannelRun::NextTime() const {
  if (sim_.num_pending() == 0) {
    return std::numeric_limits<double>::infinity();
  }
  return sim_.NextEventTime();
}

ExperimentOutput ChannelRun::Finish() {
  output_.report.Finish(last_commit_);
  if (output_.stream) {
    // Flush the last partial window and drop the apply hook — the
    // network it captured dies with this channel, the engine does not.
    output_.stream->Finalize(sim_.Now());
  }
  if (output_.telemetry && output_.telemetry->sampler()) {
    // Snapshot whole-run station totals and detach from the network —
    // the network and simulator die with this channel, the telemetry
    // does not.
    output_.telemetry->sampler()->Finalize();
  }
  if (output_.telemetry && output_.telemetry->txtrace()) {
    // Seal the flight recorder's trailing exemplar window.
    output_.telemetry->txtrace()->Finalize(sim_.Now());
  }
  if (output_.telemetry) {
    // Engine-level gauges: how many events the run cost and how deep the
    // queue got. Both are deterministic per config, so they are safe to
    // snapshot (the sweep determinism harness compares full snapshots).
    output_.telemetry->metrics().gauge("sim.events_processed")
        .Set(static_cast<double>(sim_.num_processed()));
    output_.telemetry->metrics().gauge("sim.queue_peak")
        .Set(static_cast<double>(sim_.queue_peak()));
  }
  faults_->FinalizeWindows(sim_.Now());
  output_.fault_windows = faults_->windows();
  output_.ledger = network_->TakeLedger();
  output_.endorsement_counts = network_->endorsement_counts();
  output_.network = base_network_config_;
  output_.sim_end_time = sim_.Now();
  output_.events_processed = sim_.num_processed();
  output_.queue_peak = sim_.queue_peak();
  return std::move(output_);
}

}  // namespace blockoptr
