#ifndef BLOCKOPTR_FABRIC_NETWORK_H_
#define BLOCKOPTR_FABRIC_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaincode/chaincode.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "fabric/client.h"
#include "fabric/config.h"
#include "fabric/endorser.h"
#include "fabric/orderer.h"
#include "fabric/peer.h"
#include "fabric/validator.h"
#include "ledger/ledger.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/spec.h"

namespace blockoptr {

/// A complete simulated Fabric network on one channel: client processes,
/// one endorsing/committing peer per organization, a Raft-backed ordering
/// service, and the shared ledger. Implements the execute-order-validate
/// transaction flow (paper §2.1):
///
///   client proposal -> endorsers execute (against their own, possibly
///   stale, stores) -> client assembles the envelope -> ordering service
///   batches and cuts blocks -> Raft replication -> every peer validates
///   (endorsement policy, MVCC, phantom) and commits.
///
/// All transactions — failed or not — are appended to the ledger, which is
/// the input to BlockOptR's analysis.
class FabricNetwork {
 public:
  using CommitCallback = std::function<void(const Transaction&)>;
  using BlockCommitCallback = std::function<void(const Block&)>;
  using EarlyAbortCallback =
      std::function<void(const ClientRequest&, const Status&)>;

  /// `sim` must outlive the network.
  FabricNetwork(Simulator* sim, NetworkConfig config);

  FabricNetwork(const FabricNetwork&) = delete;
  FabricNetwork& operator=(const FabricNetwork&) = delete;

  /// Installs a chaincode on every peer. Fails on duplicate names.
  Status InstallChaincode(std::unique_ptr<Chaincode> chaincode);

  /// Pre-populates world state (all peers + the committed state) with a
  /// key in `chaincode`'s namespace, bypassing the transaction flow —
  /// the experiment-setup analogue of an init transaction.
  void SeedState(const std::string& chaincode, const std::string& key,
                 const std::string& value);

  /// Plugs a reordering scheduler (FabricSharp / Fabric++ baselines) into
  /// the ordering service.
  void SetReorderer(std::unique_ptr<BlockReorderer> reorderer);

  /// Attaches the flight recorder, metrics, and the continuous
  /// sampler (registering pipeline series + every ServiceStation as
  /// sampler sources). `telemetry` must outlive the network; pass nullptr
  /// (the default state) to disable — the off path does no recording work
  /// at all. Individual aspects follow the telemetry's options: the
  /// network caches per-aspect pointers, so a disabled aspect costs one
  /// null check per site. Call before Start().
  void set_telemetry(Telemetry* telemetry);
  Telemetry* telemetry() { return telemetry_; }

  /// Always-on cumulative pipeline outcome counts (cheap integer adds per
  /// block): the sampler's throughput / conflict-rate sources read these,
  /// and they are maintained even with telemetry off.
  struct PipelineTotals {
    uint64_t valid_txs = 0;
    uint64_t mvcc_conflicts = 0;
    uint64_t phantom_conflicts = 0;
    uint64_t endorsement_failures = 0;
    uint64_t blocks_committed = 0;
    double block_fill_sum = 0;  // sum of per-block fill ratios
  };
  const PipelineTotals& totals() const { return totals_; }

  /// Live endorsement-policy change, applied immediately (used at setup;
  /// for an in-band change use SubmitPolicyUpdate).
  void UpdateEndorsementPolicy(const EndorsementPolicy& policy);

  /// Submits a channel-config update *transaction* (paper §4.5: "using a
  /// configuration update transaction"): the change is ordered, committed
  /// in its own config block, and takes effect when that block is
  /// delivered — a live reconfiguration with no restart. The config
  /// transaction is recorded on the ledger (and later removed by
  /// BlockOptR's preprocessing like any config transaction).
  void SubmitBlockCuttingUpdate(const BlockCuttingConfig& cutting);
  void SubmitPolicyUpdate(const EndorsementPolicy& policy);

  /// Starts the ordering service's Raft cluster. Call once before running
  /// the simulator.
  void Start();

  /// Submits a client request at the current virtual time. The request is
  /// processed by a client of its target organization (round-robin).
  Status Submit(const ClientRequest& request);

  /// Fires for every transaction when its block is committed on all peers.
  void set_on_commit(CommitCallback cb) { on_commit_ = std::move(cb); }

  /// Fires once per committed block (after ledger append, before the
  /// per-transaction on_commit callbacks), with the appended block —
  /// config blocks included. This is the streaming-analysis feed.
  void set_on_block_commit(BlockCommitCallback cb) {
    on_block_commit_ = std::move(cb);
  }

  /// Fires when every endorser rejected the proposal (chaincode early
  /// abort) and the transaction never entered ordering.
  void set_on_early_abort(EarlyAbortCallback cb) {
    on_early_abort_ = std::move(cb);
  }

  const Ledger& ledger() const { return ledger_; }
  /// Moves the ledger out, leaving the network's empty: the post-run
  /// handoff to the experiment output. Nothing may commit afterwards.
  Ledger TakeLedger() { return std::move(ledger_); }
  const NetworkConfig& config() const { return config_; }
  OrderingService& orderer() { return *orderer_; }
  Simulator& sim() { return *sim_; }

  int num_clients() const { return static_cast<int>(clients_.size()); }
  ClientProcess& client(int i) { return *clients_[static_cast<size_t>(i)]; }
  OrgPeer& peer(int org_index) {
    return *peers_[static_cast<size_t>(org_index - 1)];
  }

  /// Fault-injection hooks (driver/faults.h). A slowdown scales one
  /// organization's endorsement execution cost (straggler endorser); an
  /// outage black-holes the endorser: proposals sent to it time out
  /// (latency.endorse_timeout_s) and come back as refusals, so the
  /// transaction proceeds with fewer signatures — failing
  /// endorsement-policy validation when too few — or early-aborts when no
  /// endorser answered. Failures are always attributed, never silently
  /// dropped. Out-of-range orgs are ignored.
  void SetEndorserSlowdown(int org, double factor);
  void SetEndorserOutage(int org, bool down);
  double endorser_slowdown(int org) const;
  bool endorser_down(int org) const;

  /// Cross-channel load coupling (driver/sharded.h): in a multi-channel
  /// experiment the channels share one client population, so client-side
  /// work on other channels slows this channel's clients down. The sharded
  /// driver measures per-epoch client busy time on every channel and sets
  /// each channel's scale to 1 / (1 - other_channels_busy_share); both
  /// client service costs (proposal creation, envelope assembly) are
  /// multiplied by it. The default 1.0 multiplies exactly (IEEE), so a
  /// single-channel run is bit-identical to a network without the hook.
  /// Factors <= 0 are ignored.
  void SetClientLoadScale(double scale);
  double client_load_scale() const { return client_load_scale_; }

  /// Cumulative busy time across all of this network's client stations —
  /// the coupling signal the sharded driver differentiates per epoch.
  double client_busy_time() const;

  /// Transactions endorsed per organization so far (requested, i.e. the
  /// proposals each endorser executed).
  const std::map<std::string, uint64_t>& endorsement_counts() const {
    return endorsement_counts_;
  }

  uint64_t early_aborts() const { return early_aborts_; }

 private:
  /// The per-block commit payload shared by every org's delivery and
  /// validation event: the validated block plus the all-peers countdown in
  /// one allocation. The block is immutable during the fan-out; the last
  /// peer to commit stamps timestamps and moves it into the ledger.
  struct CommitFanout {
    Block block;
    int remaining;
  };

  struct PendingTx {
    ClientRequest request;
    int client_index = 0;
    SimTime client_timestamp = 0;
    std::vector<std::pair<std::string, EndorseResult>> responses;
    size_t expected_responses = 0;
  };

  double NetworkDelay();
  void ApplyConfigTransaction(const Transaction& tx);
  int PickClient(const ClientRequest& request);
  std::vector<int> SelectEndorsingOrgs();
  void StartEndorsement(uint64_t pending_id);
  void OnEndorsementsComplete(uint64_t pending_id);
  void DeliverBlock(Block block);
  Chaincode* FindChaincode(const std::string& name);

  Simulator* sim_;
  NetworkConfig config_;
  Rng rng_;
  double peer_scale_ = 1.0;  // cluster resource contention (see config.h)
  double client_load_scale_ = 1.0;  // cross-channel coupling (see above)
  Telemetry* telemetry_ = nullptr;  // optional, not owned
  // Cached per-aspect handles (null when the aspect is disabled), so
  // recording sites pay one pointer check and sampler-only runs skip the
  // per-transaction recording and metric work entirely.
  MetricsRegistry* event_metrics_ = nullptr;  // not owned
  TxTraceRecorder* txtrace_ = nullptr;        // not owned

  std::vector<std::unique_ptr<ClientProcess>> clients_;
  std::vector<std::vector<int>> org_client_indices_;  // per org (0-based)
  std::vector<int> org_rr_;                           // round-robin cursors
  int global_org_rr_ = 0;

  std::vector<std::unique_ptr<OrgPeer>> peers_;
  std::map<std::string, std::unique_ptr<Chaincode>> chaincodes_;
  std::unique_ptr<OrderingService> orderer_;

  EndorsementPolicy policy_;
  std::vector<std::set<std::string>> minimal_sets_;
  std::vector<double> minimal_set_weights_;
  double total_set_weight_ = 0;

  VersionedStore committed_state_;  // the canonical validation state
  std::vector<SimTime> org_delivery_horizon_;  // FIFO block delivery per org
  Ledger ledger_;
  uint64_t next_block_num_ = 1;  // 0 is the genesis config block
  uint32_t seed_counter_ = 0;

  std::map<uint64_t, PendingTx> pending_;
  uint64_t next_tx_id_ = 1;

  std::map<std::string, uint64_t> endorsement_counts_;
  uint64_t early_aborts_ = 0;
  PipelineTotals totals_;

  // Per-org endorser fault state (1.0 / false when healthy).
  std::vector<double> endorser_slowdown_;
  std::vector<char> endorser_down_;

  CommitCallback on_commit_;
  BlockCommitCallback on_block_commit_;
  EarlyAbortCallback on_early_abort_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_FABRIC_NETWORK_H_
