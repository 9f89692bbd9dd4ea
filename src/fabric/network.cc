#include "fabric/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "fabric/endorser.h"

namespace blockoptr {

namespace {

/// Parses the numeric suffix of "OrgN"; returns 0 when not parseable.
int OrgIndexFromName(const std::string& name) {
  if (name.rfind("Org", 0) != 0) return 0;
  return std::atoi(name.c_str() + 3);
}

}  // namespace

FabricNetwork::FabricNetwork(Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  // Peer-side service slowdown from packing more org pods onto the same
  // cluster (see LatencyModel::peer_contention_per_org).
  peer_scale_ = 1.0 + config_.latency.peer_contention_per_org *
                          std::max(0, config_.num_orgs - 2);
  // Peers: one endorsing + committing peer per organization.
  for (int org = 1; org <= config_.num_orgs; ++org) {
    peers_.push_back(
        std::make_unique<OrgPeer>(sim_, NetworkConfig::OrgName(org)));
  }

  // Clients: `num_clients` assigned round-robin across orgs, plus boosts.
  org_client_indices_.resize(static_cast<size_t>(config_.num_orgs));
  org_rr_.assign(static_cast<size_t>(config_.num_orgs), 0);
  for (int org = 1; org <= config_.num_orgs; ++org) {
    int count = config_.ClientsOfOrg(org);
    for (int c = 0; c < count; ++c) {
      org_client_indices_[static_cast<size_t>(org - 1)].push_back(
          static_cast<int>(clients_.size()));
      clients_.push_back(std::make_unique<ClientProcess>(
          sim_, config_.ClientName(org, c), org));
    }
  }

  org_delivery_horizon_.assign(static_cast<size_t>(config_.num_orgs), 0.0);
  endorser_slowdown_.assign(static_cast<size_t>(config_.num_orgs), 1.0);
  endorser_down_.assign(static_cast<size_t>(config_.num_orgs), 0);
  orderer_ = std::make_unique<OrderingService>(sim_, config_, rng_.Fork());
  orderer_->set_on_block_committed(
      [this](Block block) { DeliverBlock(std::move(block)); });

  UpdateEndorsementPolicy(config_.endorsement_policy);

  // Genesis: a config block (cleaned away by BlockOptR's preprocessing).
  Block genesis;
  Transaction cfg_tx;
  cfg_tx.chaincode = "_lifecycle";
  cfg_tx.activity = "configUpdate";
  cfg_tx.is_config = true;
  cfg_tx.status = TxStatus::kConfig;
  genesis.transactions.push_back(std::move(cfg_tx));
  ledger_.Append(std::move(genesis));
}

Status FabricNetwork::InstallChaincode(std::unique_ptr<Chaincode> chaincode) {
  std::string name = chaincode->name();
  auto [it, inserted] = chaincodes_.emplace(name, std::move(chaincode));
  if (!inserted) {
    return Status::AlreadyExists("chaincode '" + name + "' already installed");
  }
  return Status::OK();
}

void FabricNetwork::SeedState(const std::string& chaincode,
                              const std::string& key,
                              const std::string& value) {
  std::string full_key = chaincode + "~" + key;
  Version version{0, seed_counter_++};
  committed_state_.Apply(full_key, value, /*is_delete=*/false, version);
  for (auto& peer : peers_) {
    peer->store().Apply(full_key, value, /*is_delete=*/false, version);
  }
}

void FabricNetwork::SetEndorserSlowdown(int org, double factor) {
  if (org < 1 || org > config_.num_orgs || factor <= 0) return;
  endorser_slowdown_[static_cast<size_t>(org - 1)] = factor;
}

void FabricNetwork::SetEndorserOutage(int org, bool down) {
  if (org < 1 || org > config_.num_orgs) return;
  endorser_down_[static_cast<size_t>(org - 1)] = down ? 1 : 0;
}

double FabricNetwork::endorser_slowdown(int org) const {
  if (org < 1 || org > config_.num_orgs) return 1.0;
  return endorser_slowdown_[static_cast<size_t>(org - 1)];
}

bool FabricNetwork::endorser_down(int org) const {
  if (org < 1 || org > config_.num_orgs) return false;
  return endorser_down_[static_cast<size_t>(org - 1)] != 0;
}

void FabricNetwork::SetClientLoadScale(double scale) {
  if (scale <= 0) return;
  client_load_scale_ = scale;
}

double FabricNetwork::client_busy_time() const {
  double busy = 0;
  for (const auto& client : clients_) busy += client->station().busy_time();
  return busy;
}

void FabricNetwork::SetReorderer(std::unique_ptr<BlockReorderer> reorderer) {
  orderer_->set_reorderer(std::move(reorderer));
}

void FabricNetwork::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  event_metrics_ = telemetry ? telemetry->event_metrics() : nullptr;
  txtrace_ = telemetry ? telemetry->txtrace() : nullptr;
  orderer_->set_telemetry(telemetry);
  for (auto& peer : peers_) peer->set_metrics(event_metrics_);

  Sampler* sampler = telemetry ? telemetry->sampler() : nullptr;
  if (sampler == nullptr) return;
  // Pipeline-level series read the always-on cumulative totals.
  sampler->AddRate("pipeline.commit_tps",
                   [this]() { return totals_.valid_txs; });
  sampler->AddRate("pipeline.mvcc_conflicts_per_s", [this]() {
    return totals_.mvcc_conflicts + totals_.phantom_conflicts;
  });
  sampler->AddRate("pipeline.endorsement_failures_per_s",
                   [this]() { return totals_.endorsement_failures; });
  sampler->AddRate("pipeline.early_aborts_per_s",
                   [this]() { return early_aborts_; });
  sampler->AddRate("orderer.blocks_per_s",
                   [this]() { return totals_.blocks_committed; });
  sampler->AddWindowMean(
      "orderer.block_fill", [this]() { return totals_.block_fill_sum; },
      [this]() { return totals_.blocks_committed; });
  sampler->AddRate("raft.messages_per_s",
                   [this]() { return orderer_->raft().messages_sent(); });
  if (config_.channel_count > 1) {
    // Only registered on multi-channel runs, so single-channel sampler
    // exports stay byte-identical to the pre-sharding format.
    sampler->AddGauge("channel.client_load_scale",
                      [this]() { return client_load_scale_; });
  }
  // Every ServiceStation in the network becomes a bottleneck candidate:
  // per-org endorsers and validators, the orderer, and the clients.
  for (auto& peer : peers_) {
    sampler->AddStation("peer/" + peer->org() + "/endorser",
                        station_stage::kEndorse,
                        &peer->endorser_station());
    sampler->AddStation("peer/" + peer->org() + "/validator",
                        station_stage::kValidate,
                        &peer->validator_station());
  }
  sampler->AddStation("orderer", station_stage::kOrder,
                      &orderer_->station());
  for (auto& client : clients_) {
    sampler->AddStation("client/" + client->id(), station_stage::kSubmit,
                        &client->station());
  }
}

void FabricNetwork::UpdateEndorsementPolicy(const EndorsementPolicy& policy) {
  policy_ = policy;
  minimal_sets_ = policy_.MinimalSatisfyingSets();
  minimal_set_weights_.clear();
  total_set_weight_ = 0;
  for (const auto& set : minimal_sets_) {
    double w = 1.0;
    if (config_.endorser_dist_skew > 1.0) {
      // Odd-numbered orgs are preferred and even-numbered ones avoided —
      // the paper's endorser distribution skew ("the clients send
      // transactions unevenly and therefore two of the organizations
      // endorse far more often than the other two", §6.1.1).
      for (const auto& org : set) {
        if (OrgIndexFromName(org) % 2 == 1) {
          w *= config_.endorser_dist_skew;
        } else {
          w /= config_.endorser_dist_skew;
        }
      }
    }
    minimal_set_weights_.push_back(w);
    total_set_weight_ += w;
  }
}

void FabricNetwork::SubmitBlockCuttingUpdate(
    const BlockCuttingConfig& cutting) {
  Transaction tx;
  tx.tx_id = next_tx_id_++;
  tx.chaincode = "_config";
  tx.activity = "configUpdate";
  tx.args = {"block_cutting", std::to_string(cutting.max_tx_count),
             std::to_string(cutting.timeout_s),
             std::to_string(cutting.max_bytes)};
  tx.client_timestamp = sim_->Now();
  orderer_->SubmitConfig(std::move(tx));
}

void FabricNetwork::SubmitPolicyUpdate(const EndorsementPolicy& policy) {
  Transaction tx;
  tx.tx_id = next_tx_id_++;
  tx.chaincode = "_config";
  tx.activity = "configUpdate";
  tx.args = {"endorsement_policy", policy.ToString()};
  tx.client_timestamp = sim_->Now();
  orderer_->SubmitConfig(std::move(tx));
}

void FabricNetwork::ApplyConfigTransaction(const Transaction& tx) {
  if (tx.args.size() >= 4 && tx.args[0] == "block_cutting") {
    BlockCuttingConfig cutting;
    cutting.max_tx_count =
        static_cast<uint32_t>(std::strtoul(tx.args[1].c_str(), nullptr, 10));
    cutting.timeout_s = std::strtod(tx.args[2].c_str(), nullptr);
    cutting.max_bytes = std::strtoull(tx.args[3].c_str(), nullptr, 10);
    if (cutting.max_tx_count > 0 && cutting.timeout_s > 0) {
      orderer_->UpdateBlockCutting(cutting);
      config_.block_cutting = cutting;
    }
    return;
  }
  if (tx.args.size() >= 2 && tx.args[0] == "endorsement_policy") {
    auto policy = EndorsementPolicy::Parse(tx.args[1]);
    if (policy.ok()) UpdateEndorsementPolicy(*policy);
  }
}

void FabricNetwork::Start() { orderer_->Start(); }

double FabricNetwork::NetworkDelay() {
  return config_.latency.network_delay_s +
         rng_.NextDouble() * config_.latency.network_jitter_s;
}

Chaincode* FabricNetwork::FindChaincode(const std::string& name) {
  auto it = chaincodes_.find(name);
  return it == chaincodes_.end() ? nullptr : it->second.get();
}

int FabricNetwork::PickClient(const ClientRequest& request) {
  int org = request.target_org;
  if (org <= 0 || org > config_.num_orgs) {
    org = (global_org_rr_++ % config_.num_orgs) + 1;
  }
  auto& indices = org_client_indices_[static_cast<size_t>(org - 1)];
  assert(!indices.empty());
  int& cursor = org_rr_[static_cast<size_t>(org - 1)];
  int client = indices[static_cast<size_t>(cursor) % indices.size()];
  ++cursor;
  return client;
}

std::vector<int> FabricNetwork::SelectEndorsingOrgs() {
  std::vector<int> orgs;
  if (minimal_sets_.empty()) {
    // Degenerate policy: fall back to all organizations.
    for (int org = 1; org <= config_.num_orgs; ++org) orgs.push_back(org);
    return orgs;
  }
  // Weighted pick among minimal satisfying sets.
  size_t chosen = 0;
  if (minimal_sets_.size() > 1) {
    double u = rng_.NextDouble() * total_set_weight_;
    double acc = 0;
    for (size_t i = 0; i < minimal_sets_.size(); ++i) {
      acc += minimal_set_weights_[i];
      if (u < acc) {
        chosen = i;
        break;
      }
      chosen = i;
    }
  }
  for (const auto& org_name : minimal_sets_[chosen]) {
    int idx = OrgIndexFromName(org_name);
    if (idx >= 1 && idx <= config_.num_orgs) orgs.push_back(idx);
  }
  return orgs;
}

Status FabricNetwork::Submit(const ClientRequest& request) {
  if (FindChaincode(request.chaincode) == nullptr) {
    return Status::NotFound("chaincode '" + request.chaincode +
                            "' is not installed");
  }
  uint64_t id = next_tx_id_++;
  PendingTx pending;
  pending.request = request;
  pending.client_index = PickClient(request);
  pending.client_timestamp = sim_->Now();
  PendingTx& entry = pending_.emplace(id, std::move(pending)).first->second;

  // Proposal creation occupies the client process.
  ClientProcess& cp = *clients_[static_cast<size_t>(entry.client_index)];
  if (event_metrics_) {
    event_metrics_->counter("client.requests_total").Increment();
    event_metrics_->gauge("client.queue_depth")
        .Set(cp.station().CurrentDelay());
  }
  if (txtrace_) {
    // Stamped at the recorded client timestamp, so the chain's submit ->
    // commit latency is identical to the ledger's.
    txtrace_->TxEvent(id, TxStage::kSubmit,
                      static_cast<uint16_t>(entry.client_index));
  }
  cp.station().Submit(config_.latency.client_proposal_s * client_load_scale_,
                      [this, id]() { StartEndorsement(id); });
  return Status::OK();
}

void FabricNetwork::StartEndorsement(uint64_t pending_id) {
  auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  PendingTx& pending = it->second;
  if (txtrace_) {
    txtrace_->TxEvent(
        pending_id, TxStage::kProposalDone,
        static_cast<uint16_t>(pending.client_index),
        static_cast<float>(config_.latency.client_proposal_s *
                           client_load_scale_));
  }

  std::vector<int> orgs = SelectEndorsingOrgs();
  pending.expected_responses = orgs.size();

  for (int org : orgs) {
    sim_->ScheduleAfter(NetworkDelay(), [this, pending_id, org]() {
      auto pit = pending_.find(pending_id);
      if (pit == pending_.end()) return;
      OrgPeer& peer = *peers_[static_cast<size_t>(org - 1)];
      if (endorser_down_[static_cast<size_t>(org - 1)]) {
        // Black-holed endorser (fault injection): the proposal is never
        // executed; the client gives up after the RPC timeout and records
        // the refusal, so the outage surfaces as an endorsement failure
        // (or an early abort when no endorser answered) — never a hang.
        if (event_metrics_) {
          event_metrics_->counter("endorser.outage_drops_total").Increment();
        }
        std::string down_org = peer.org();
        sim_->ScheduleAfter(
            config_.latency.endorse_timeout_s,
            [this, pending_id, org,
             down_org = std::move(down_org)]() mutable {
              auto pit2 = pending_.find(pending_id);
              if (pit2 == pending_.end()) return;
              if (txtrace_) {
                txtrace_->TxEvent(pending_id, TxStage::kEndorseRefused,
                                  static_cast<uint16_t>(org));
              }
              EndorseResult refusal;
              refusal.status = Status::Unavailable("endorser " + down_org +
                                                   " unreachable");
              pit2->second.responses.emplace_back(std::move(down_org),
                                                  std::move(refusal));
              if (pit2->second.responses.size() >=
                  pit2->second.expected_responses) {
                OnEndorsementsComplete(pending_id);
              }
            });
        return;
      }
      Chaincode* cc = FindChaincode(pit->second.request.chaincode);
      assert(cc != nullptr);
      if (event_metrics_) {
        event_metrics_->counter("endorser.proposals_total").Increment();
        event_metrics_->gauge("endorser.queue_depth")
            .Set(peer.endorser_station().CurrentDelay());
      }
      if (txtrace_) {
        txtrace_->TxEvent(pending_id, TxStage::kEndorseStart,
                          static_cast<uint16_t>(org));
      }
      // Execute against the peer's current (possibly stale) store. The
      // simulation cost scales with the number of state accesses.
      EndorseResult result =
          ExecuteProposal(*cc, peer.store(), pit->second.request);
      ++endorsement_counts_[peer.org()];
      size_t accesses = result.rwset.reads.size() +
                        result.rwset.writes.size();
      for (const auto& rq : result.rwset.range_queries) {
        accesses += rq.results.size();
      }
      double cost = (config_.latency.endorse_exec_s +
                     config_.latency.endorse_per_key_s *
                         static_cast<double>(accesses)) *
                    peer_scale_ *
                    endorser_slowdown_[static_cast<size_t>(org - 1)];
      std::string org_name = peer.org();
      peer.endorser_station().Submit(
          cost, [this, pending_id, org, cost,
                 org_name = std::move(org_name),
                 result = std::move(result)]() mutable {
            if (txtrace_) {
              txtrace_->TxEvent(pending_id, TxStage::kEndorseDone,
                                static_cast<uint16_t>(org),
                                static_cast<float>(cost));
            }
            if (event_metrics_ && !result.status.ok()) {
              event_metrics_->counter("endorser.rejections_total")
                  .Increment();
            }
            sim_->ScheduleAfter(
                NetworkDelay(),
                [this, pending_id, org_name = std::move(org_name),
                 result = std::move(result)]() mutable {
                  auto pit2 = pending_.find(pending_id);
                  if (pit2 == pending_.end()) return;
                  pit2->second.responses.emplace_back(std::move(org_name),
                                                      std::move(result));
                  if (pit2->second.responses.size() >=
                      pit2->second.expected_responses) {
                    OnEndorsementsComplete(pending_id);
                  }
                });
          });
    });
  }
}

void FabricNetwork::OnEndorsementsComplete(uint64_t pending_id) {
  auto it = pending_.find(pending_id);
  if (it == pending_.end()) return;
  PendingTx& pending = it->second;
  if (txtrace_) {
    txtrace_->TxEvent(pending_id, TxStage::kCollect,
                      static_cast<uint16_t>(pending.client_index));
  }

  // Pick the modal read-write set among successful responses; endorsers
  // that produced a different payload (stale store) or rejected the
  // proposal cannot sign it.
  std::vector<size_t> ok_indices;
  for (size_t i = 0; i < pending.responses.size(); ++i) {
    if (pending.responses[i].second.status.ok()) ok_indices.push_back(i);
  }
  if (ok_indices.empty()) {
    // Unanimous chaincode rejection: early abort, never ordered.
    ++early_aborts_;
    if (event_metrics_) {
      event_metrics_->counter("client.early_aborts_total").Increment();
    }
    if (txtrace_) txtrace_->AbortTx(pending_id);
    if (on_early_abort_) {
      on_early_abort_(pending.request,
                      pending.responses.empty()
                          ? Status::Internal("no endorsement responses")
                          : pending.responses[0].second.status);
    }
    pending_.erase(it);
    return;
  }

  size_t best = ok_indices[0];
  int best_count = 0;
  for (size_t i : ok_indices) {
    int count = 0;
    for (size_t j : ok_indices) {
      if (pending.responses[i].second.rwset ==
          pending.responses[j].second.rwset) {
        ++count;
      }
    }
    if (count > best_count) {
      best_count = count;
      best = i;
    }
  }
  const ReadWriteSet& canonical = pending.responses[best].second.rwset;

  Transaction tx;
  tx.tx_id = pending_id;
  tx.chaincode = pending.request.chaincode;
  tx.activity = pending.request.function;
  ClientProcess& cp = *clients_[static_cast<size_t>(pending.client_index)];
  tx.invoker =
      Invoker{cp.id(), NetworkConfig::OrgName(cp.org_index())};
  for (size_t i : ok_indices) {
    if (pending.responses[i].second.rwset == canonical) {
      tx.endorsers.push_back(pending.responses[i].first);
    }
  }
  std::sort(tx.endorsers.begin(), tx.endorsers.end());
  tx.client_timestamp = pending.client_timestamp;

  // All reads of the pending entry are done: steal the args and the
  // canonical read-write set instead of copying them (the entry is erased
  // next; the bytes estimate above consumed both while still intact).
  uint64_t bytes = EstimateTxBytes(pending.request, canonical);
  uint16_t client_actor = static_cast<uint16_t>(pending.client_index);
  tx.args = std::move(pending.request.args);
  tx.rwset = std::move(pending.responses[best].second.rwset);
  pending_.erase(it);

  // Envelope assembly occupies the client, then the envelope travels to
  // the ordering service.
  double assemble_cost = config_.latency.client_assemble_s * client_load_scale_;
  cp.station().Submit(
      assemble_cost,
      [this, assemble_cost, client_actor, tx = std::move(tx),
       bytes]() mutable {
        if (txtrace_) {
          txtrace_->TxEvent(tx.tx_id, TxStage::kAssembleDone, client_actor,
                            static_cast<float>(assemble_cost));
        }
        sim_->ScheduleAfter(NetworkDelay(),
                            [this, tx = std::move(tx), bytes]() mutable {
                              orderer_->Submit(std::move(tx), bytes);
                            });
      });
}

void FabricNetwork::DeliverBlock(Block block) {
  block.block_num = next_block_num_++;
  // Runs synchronously inside the Raft commit callback chain, so the
  // recorder's "most recently committed payload" is this block's.
  if (txtrace_) {
    txtrace_->OnBlockDelivered(static_cast<uint32_t>(block.block_num));
  }

  // Channel-config updates take effect when their block is delivered.
  for (const auto& tx : block.transactions) {
    if (tx.is_config) ApplyConfigTransaction(tx);
  }

  // Canonical validation: a pure function of block order and content,
  // identical on every peer (Fabric's deterministic validation).
  BlockValidationStats vstats =
      ValidateAndApplyBlock(block, committed_state_, policy_);
  if (event_metrics_) RecordValidationStats(vstats, *event_metrics_);
  // Always-on totals (a handful of integer adds per *block*): these feed
  // the sampler's throughput / conflict-rate / fill series.
  totals_.valid_txs += vstats.valid;
  totals_.mvcc_conflicts += vstats.mvcc_conflicts;
  totals_.phantom_conflicts += vstats.phantom_conflicts;
  totals_.endorsement_failures += vstats.endorsement_failures;
  ++totals_.blocks_committed;
  totals_.block_fill_sum +=
      static_cast<double>(block.transactions.size()) /
      static_cast<double>(std::max(1u, config_.block_cutting.max_tx_count));

  // One shared, immutable-during-fan-out commit payload per block: the
  // validated block and the all-peers countdown ride in a single
  // allocation, and every per-org event captures just {this, org, ptr}.
  auto shared = std::make_shared<CommitFanout>(
      CommitFanout{std::move(block), config_.num_orgs});

  for (int org = 1; org <= config_.num_orgs; ++org) {
    // Blocks travel over an ordered channel (TCP): delivery to a peer
    // never overtakes an earlier block's delivery.
    SimTime arrival = std::max(sim_->Now() + NetworkDelay(),
                               org_delivery_horizon_[static_cast<size_t>(org - 1)]);
    org_delivery_horizon_[static_cast<size_t>(org - 1)] = arrival;
    sim_->ScheduleAt(arrival, [this, org, shared]() {
      OrgPeer& peer = *peers_[static_cast<size_t>(org - 1)];
      const Block& blk = shared->block;
      if (txtrace_) {
        txtrace_->ValidateEvent(static_cast<uint32_t>(blk.block_num),
                                TxStage::kValidateStart,
                                static_cast<uint16_t>(org));
      }
      double cost =
          (config_.latency.validate_block_overhead_s +
           config_.latency.validate_per_tx_s *
               static_cast<double>(blk.transactions.size()) +
           config_.latency.commit_per_block_s) *
          peer_scale_;
      peer.validator_station().Submit(cost, [this, org, cost, shared]() {
        OrgPeer& p = *peers_[static_cast<size_t>(org - 1)];
        if (txtrace_) {
          txtrace_->ValidateEvent(
              static_cast<uint32_t>(shared->block.block_num),
              TxStage::kValidateDone, static_cast<uint16_t>(org),
              static_cast<float>(cost));
        }
        // Apply the (already stamped) block to this peer's store.
        const Block& blk = shared->block;
        uint32_t pos = 0;
        for (const auto& tx : blk.transactions) {
          uint32_t tx_pos = pos++;
          if (tx.status != TxStatus::kValid) continue;
          for (const auto& w : tx.rwset.writes) {
            p.store().Apply(w.key, w.value, w.is_delete,
                            Version{blk.block_num, tx_pos});
          }
        }
        p.store().MarkBlockApplied(blk.block_num);
        p.OnBlockApplied(blk.transactions.size());
        if (--shared->remaining == 0) {
          // All peers committed: stamp commit time, append to the ledger,
          // and notify the driver.
          SimTime now = sim_->Now();
          shared->block.commit_timestamp = now;
          for (auto& tx : shared->block.transactions) {
            tx.commit_timestamp = now;
          }
          uint64_t num = ledger_.Append(std::move(shared->block));
          const Block& appended = ledger_.GetBlock(num);
          if (event_metrics_) {
            event_metrics_->counter("ledger.blocks_total").Increment();
          }
          if (event_metrics_ || txtrace_) {
            for (const auto& tx : appended.transactions) {
              if (tx.is_config) continue;
              if (event_metrics_) {
                event_metrics_->counter("ledger.txs_committed_total")
                    .Increment();
              }
              if (txtrace_) {
                txtrace_->CommitTx(tx.tx_id, tx.client_timestamp,
                                   static_cast<uint32_t>(appended.block_num),
                                   tx.status != TxStatus::kValid);
              }
            }
          }
          if (on_block_commit_) on_block_commit_(appended);
          if (on_commit_) {
            for (const auto& tx : appended.transactions) on_commit_(tx);
          }
        }
      });
    });
  }
}

}  // namespace blockoptr
