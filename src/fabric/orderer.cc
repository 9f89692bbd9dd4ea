#include "fabric/orderer.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace blockoptr {

namespace {

RaftCluster::Options RaftOptionsFrom(const NetworkConfig& config, Rng& rng) {
  RaftCluster::Options opts;
  opts.num_nodes = config.num_orderers;
  opts.network_delay = config.latency.network_delay_s;
  opts.network_jitter = config.latency.network_jitter_s;
  opts.election_timeout_min = config.latency.raft_election_timeout_min_s;
  opts.election_timeout_max = config.latency.raft_election_timeout_max_s;
  opts.heartbeat_interval = config.latency.raft_heartbeat_s;
  opts.seed = rng.Next();
  return opts;
}

}  // namespace

OrderingService::OrderingService(Simulator* sim, const NetworkConfig& config,
                                 Rng rng)
    : sim_(sim),
      cutting_(config.block_cutting),
      latency_(config.latency),
      station_(sim, "orderer"),
      raft_(sim, RaftOptionsFrom(config, rng)) {
  raft_.set_on_commit([this](uint64_t payload) {
    auto it = inflight_.find(payload);
    if (it == inflight_.end()) return;
    Block block = std::move(it->second);
    inflight_.erase(it);
    if (on_block_committed_) on_block_committed_(std::move(block));
  });
}

void OrderingService::set_telemetry(Telemetry* telemetry) {
  metrics_ = telemetry ? telemetry->event_metrics() : nullptr;
  txtrace_ = telemetry ? telemetry->txtrace() : nullptr;
  raft_.set_metrics(metrics_);
  raft_.set_txtrace(txtrace_);
}

void OrderingService::Start() { raft_.Start(); }

void OrderingService::Submit(Transaction tx, uint64_t tx_bytes) {
  if (metrics_) {
    metrics_->counter("orderer.txs_submitted_total").Increment();
    metrics_->gauge("orderer.queue_depth").Set(station_.CurrentDelay());
  }
  // Per-transaction ordering work occupies the orderer CPU; batching
  // happens when that work completes.
  station_.Submit(latency_.order_per_tx_s,
                  [this, tx = std::move(tx), tx_bytes]() mutable {
                    if (txtrace_) {
                      txtrace_->TxEvent(
                          tx.tx_id, TxStage::kOrdererEnqueue, 0,
                          static_cast<float>(latency_.order_per_tx_s));
                    }
                    AddToBatch(std::move(tx), tx_bytes);
                  });
}

void OrderingService::SubmitConfig(Transaction tx) {
  tx.is_config = true;
  tx.status = TxStatus::kConfig;
  if (metrics_) {
    metrics_->counter("orderer.config_txs_total").Increment();
  }
  station_.Submit(latency_.order_per_tx_s,
                  [this, tx = std::move(tx)]() mutable {
                    // A config transaction terminates the current batch and
                    // occupies its own block (Fabric's config-update flow).
                    Flush();
                    batch_.push_back(std::move(tx));
                    CutBlock();
                  });
}

void OrderingService::AddToBatch(Transaction tx, uint64_t tx_bytes) {
  if (batch_.empty()) {
    // Arm the batch timeout relative to the first buffered transaction.
    uint64_t gen = ++timeout_gen_;
    sim_->ScheduleAfter(cutting_.timeout_s, [this, gen]() {
      if (gen == timeout_gen_ && !batch_.empty()) CutBlock();
    });
  }
  batch_.push_back(std::move(tx));
  batch_bytes_ += tx_bytes;
  if (batch_.size() >= cutting_.max_tx_count ||
      batch_bytes_ >= cutting_.max_bytes) {
    CutBlock();
  }
}

void OrderingService::Flush() {
  if (!batch_.empty()) CutBlock();
}

void OrderingService::CutBlock() {
  ++timeout_gen_;  // disarm any pending timeout
  // The block's vector is exact-size (it lives on in the ledger), while
  // batch_ keeps its capacity for the next batch.
  std::vector<Transaction> txs(std::make_move_iterator(batch_.begin()),
                               std::make_move_iterator(batch_.end()));
  batch_.clear();
  batch_bytes_ = 0;

  double extra = 0;
  if (reorderer_) {
    reorderer_->ProcessBatch(txs);
    extra = reorderer_->ExtraBlockCost(txs.size());
  }

  Block block;
  block.cut_timestamp = sim_->Now();
  block.transactions = std::move(txs);
  ++blocks_cut_;

  if (metrics_) {
    metrics_->counter("orderer.blocks_cut_total").Increment();
    metrics_
        ->histogram("orderer.block_fill_ratio", MetricsRegistry::RatioBounds())
        .Observe(static_cast<double>(block.transactions.size()) /
                 static_cast<double>(std::max(1u, cutting_.max_tx_count)));
  }

  uint64_t payload = next_payload_id_++;
  inflight_.emplace(payload, std::move(block));

  // Block assembly/signing occupies the orderer, then the block goes
  // through Raft consensus.
  station_.Submit(latency_.block_overhead_s + extra,
                  [this, payload]() {
                    if (txtrace_) {
                      // kBlockCut carries the orderer payload id, joining
                      // each transaction chain to its block's Raft chain.
                      // Recorded when signing completes — so the queueing
                      // behind a saturated orderer lands in the 'order'
                      // stage, and 'raft' starts at the actual handoff.
                      const Block& b = inflight_.at(payload);
                      for (const auto& tx : b.transactions) {
                        txtrace_->TxEvent(tx.tx_id, TxStage::kBlockCut, 0, 0,
                                          static_cast<uint32_t>(payload));
                      }
                    }
                    raft_.Propose(payload);
                  });
}

}  // namespace blockoptr
