#ifndef BLOCKOPTR_FABRIC_VALIDATOR_H_
#define BLOCKOPTR_FABRIC_VALIDATOR_H_

#include <cstdint>

#include "fabric/endorsement_policy.h"
#include "ledger/block.h"
#include "statedb/versioned_store.h"

namespace blockoptr {

/// Per-block validation outcome counts.
struct BlockValidationStats {
  uint64_t valid = 0;
  uint64_t mvcc_conflicts = 0;
  uint64_t phantom_conflicts = 0;
  uint64_t endorsement_failures = 0;

  uint64_t total() const {
    return valid + mvcc_conflicts + phantom_conflicts + endorsement_failures;
  }
};

/// Fabric's validate-and-commit phase for one block (paper §2.1 phase 3),
/// as a *pure* function of the block contents and the state built from all
/// preceding blocks:
///
///  1. VSCC: the endorsing orgs recorded on the transaction (those whose
///     signatures cover the chosen payload) must satisfy `policy`;
///     otherwise ENDORSEMENT_POLICY_FAILURE.
///  2. MVCC: each read's version must equal the currently committed
///     version of that key (both-absent also matches); otherwise
///     MVCC_READ_CONFLICT. State is updated after every valid transaction,
///     so later transactions in the same block conflict with earlier ones
///     (intra-block conflicts).
///  3. Phantom check: each recorded range query is re-executed against
///     current state; any difference in the (key, version) result list is
///     a PHANTOM_READ_CONFLICT.
///
/// Valid transactions' write sets are applied to `state` at version
/// {block_num, tx_position}. Transactions pre-aborted by a reordering
/// scheduler (Fabric++-style early abort) keep their stamped status and do
/// not touch state.
BlockValidationStats ValidateAndApplyBlock(Block& block, VersionedStore& state,
                                           const EndorsementPolicy& policy);

/// The MVCC read check for a single transaction against `state` (exposed
/// for tests and for the reordering schedulers, which need the same
/// semantics to predict conflicts).
bool ReadsAreCurrent(const ReadWriteSet& rwset, const VersionedStore& state);

}  // namespace blockoptr

#endif  // BLOCKOPTR_FABRIC_VALIDATOR_H_
