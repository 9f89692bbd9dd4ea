#include "fabric/validator.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace blockoptr {

namespace {

bool ReadItemCurrent(const ReadItem& r, const VersionedStore& state) {
  // Intern once per item; every later check (re-validation, other peers'
  // stores) skips the string hash. Interning a key the store doesn't hold
  // is fine — ids are process-global, not per-store.
  const VersionedValue* vv = state.PeekById(r.id());
  if (vv == nullptr) return !r.version.has_value();
  return r.version.has_value() && *r.version == vv->version;
}

bool RangeQueryCurrent(const RangeQueryInfo& rq, const VersionedStore& state) {
  // Re-executes the range as a version-only scan: no key or value is ever
  // copied, and the first divergence stops the walk.
  size_t i = 0;
  bool matches = true;
  state.RangeVersions(
      rq.start_key, rq.end_key,
      [&](std::string_view key, const Version& version) {
        if (i >= rq.results.size() || rq.results[i].key != key ||
            !rq.results[i].version.has_value() ||
            *rq.results[i].version != version) {
          matches = false;
          return false;
        }
        ++i;
        return true;
      });
  // A shorter current range (deleted keys) must also be a phantom.
  return matches && i == rq.results.size();
}

bool PointReadsCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  for (const auto& r : rwset.reads) {
    if (!ReadItemCurrent(r, state)) return false;
  }
  return true;
}

bool RangeReadsCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  for (const auto& rq : rwset.range_queries) {
    if (!RangeQueryCurrent(rq, state)) return false;
  }
  return true;
}

void ApplyWrites(const ReadWriteSet& rwset, VersionedStore& state,
                 Version version) {
  for (const auto& w : rwset.writes) {
    state.ApplyById(w.id(), w.key, w.value, w.is_delete, version);
  }
}

}  // namespace

bool ReadsAreCurrent(const ReadWriteSet& rwset, const VersionedStore& state) {
  return PointReadsCurrent(rwset, state) && RangeReadsCurrent(rwset, state);
}

BlockValidationStats ValidateAndApplyBlock(Block& block, VersionedStore& state,
                                           const EndorsementPolicy& policy) {
  BlockValidationStats stats;
  uint32_t tx_pos = 0;
  // Reused across transactions so the signer check allocates at most once
  // per block (endorser lists are a handful of org names).
  std::vector<std::string_view> signers;
  for (auto& tx : block.transactions) {
    const uint32_t pos = tx_pos++;
    if (tx.is_config) {
      tx.status = TxStatus::kConfig;
      continue;
    }
    if (tx.pre_aborted) {
      // Status stamped by the reordering scheduler; count it.
      switch (tx.status) {
        case TxStatus::kMvccReadConflict:
          ++stats.mvcc_conflicts;
          break;
        case TxStatus::kPhantomReadConflict:
          ++stats.phantom_conflicts;
          break;
        default:
          ++stats.endorsement_failures;
          break;
      }
      continue;
    }
    // 1. VSCC: signature set must satisfy the endorsement policy.
    signers.assign(tx.endorsers.begin(), tx.endorsers.end());
    std::sort(signers.begin(), signers.end());
    signers.erase(std::unique(signers.begin(), signers.end()), signers.end());
    if (!policy.IsSatisfiedBy(signers)) {
      tx.status = TxStatus::kEndorsementPolicyFailure;
      ++stats.endorsement_failures;
      continue;
    }
    // 2. MVCC point-read check.
    if (!PointReadsCurrent(tx.rwset, state)) {
      tx.status = TxStatus::kMvccReadConflict;
      ++stats.mvcc_conflicts;
      continue;
    }
    // 3. Phantom (range-read) check.
    if (!RangeReadsCurrent(tx.rwset, state)) {
      tx.status = TxStatus::kPhantomReadConflict;
      ++stats.phantom_conflicts;
      continue;
    }
    tx.status = TxStatus::kValid;
    ++stats.valid;
    ApplyWrites(tx.rwset, state, Version{block.block_num, pos});
  }
  return stats;
}

}  // namespace blockoptr
