#ifndef BLOCKOPTR_FABRIC_ORDERER_H_
#define BLOCKOPTR_FABRIC_ORDERER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/config.h"
#include "ledger/block.h"
#include "raft/raft_cluster.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/txtrace.h"

namespace blockoptr {

/// Interface for transaction-reordering schedulers plugged into the block
/// cutter (the FabricSharp / Fabric++ baselines live in src/reorder). The
/// scheduler may permute the batch and may early-abort transactions by
/// setting `pre_aborted` + a failure status.
class BlockReorderer {
 public:
  virtual ~BlockReorderer() = default;

  virtual std::string name() const = 0;

  /// Reorders / early-aborts the batch in place before the block is cut.
  virtual void ProcessBatch(std::vector<Transaction>& batch) = 0;

  /// Additional per-block ordering cost in seconds (dependency-graph
  /// construction is not free; both papers report ordering overhead).
  virtual double ExtraBlockCost(size_t batch_size) const {
    (void)batch_size;
    return 0;
  }
};

/// The Fabric ordering service: a service station that batches incoming
/// transactions, cuts blocks by count / bytes / timeout (paper §2.1), and
/// replicates each cut block through a Raft cluster before delivery.
class OrderingService {
 public:
  /// `sim` must outlive the service.
  OrderingService(Simulator* sim, const NetworkConfig& config, Rng rng);

  /// Blocks are handed to this callback in Raft commit order, numbered
  /// starting from `first_block_num`.
  void set_on_block_committed(std::function<void(Block)> cb) {
    on_block_committed_ = std::move(cb);
  }

  void set_reorderer(std::unique_ptr<BlockReorderer> reorderer) {
    reorderer_ = std::move(reorderer);
  }
  const BlockReorderer* reorderer() const { return reorderer_.get(); }

  /// Attaches the flight recorder (also the Raft cluster's); nullptr
  /// disables. `txtrace` must outlive the service.
  void set_txtrace(TxTraceRecorder* txtrace) {
    txtrace_ = txtrace;
    raft_.set_txtrace(txtrace);
  }

  /// Starts the Raft cluster (elects the first leader).
  void Start();

  /// Accepts a transaction envelope (already endorsed and assembled).
  void Submit(Transaction tx, uint64_t tx_bytes);

  /// Accepts a channel-config update transaction. Per Fabric semantics
  /// the pending batch is cut immediately and the config transaction is
  /// placed alone in its own block.
  void SubmitConfig(Transaction tx);

  /// Cuts any partially filled batch immediately (end-of-run drain).
  void Flush();

  uint64_t blocks_cut() const { return blocks_cut_; }
  /// Channel-config transactions accepted (SubmitConfig calls).
  uint64_t config_txs() const { return config_txs_; }
  /// Each cut block's size over the max_tx_count in force when it was cut.
  const Histogram& block_fill() const { return block_fill_; }
  const RaftCluster& raft() const { return raft_; }
  /// Mutable access for failure injection (crash/restart orderer nodes).
  RaftCluster& mutable_raft() { return raft_; }
  ServiceStation& station() { return station_; }
  const BlockCuttingConfig& cutting() const { return cutting_; }

  /// Live reconfiguration of the block-cutting parameters (Fabric's
  /// channel-config update transaction, paper §4.5).
  void UpdateBlockCutting(const BlockCuttingConfig& cutting) {
    cutting_ = cutting;
  }

 private:
  void AddToBatch(Transaction tx, uint64_t tx_bytes);
  void CutBlock();

  Simulator* sim_;
  BlockCuttingConfig cutting_;
  LatencyModel latency_;
  ServiceStation station_;
  RaftCluster raft_;
  std::unique_ptr<BlockReorderer> reorderer_;
  std::function<void(Block)> on_block_committed_;

  std::vector<Transaction> batch_;
  uint64_t batch_bytes_ = 0;
  uint64_t timeout_gen_ = 0;

  TxTraceRecorder* txtrace_ = nullptr;  // optional, not owned

  std::map<uint64_t, Block> inflight_;
  uint64_t next_payload_id_ = 1;
  uint64_t blocks_cut_ = 0;
  uint64_t config_txs_ = 0;
  Histogram block_fill_{Histogram::RatioBounds()};
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_FABRIC_ORDERER_H_
