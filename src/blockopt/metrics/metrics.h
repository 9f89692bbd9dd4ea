#ifndef BLOCKOPTR_BLOCKOPT_METRICS_METRICS_H_
#define BLOCKOPTR_BLOCKOPT_METRICS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockopt/log/blockchain_log.h"
#include "common/interner.h"
#include "common/stats.h"

namespace blockoptr {

/// Tuning knobs for metric derivation (paper §4.3).
struct MetricsOptions {
  /// Interval size `ins` for the rate/failure distributions (seconds).
  double interval_s = 1.0;

  /// A key is hot when at least this many failed transactions access it
  /// AND it accounts for at least this fraction of all failures.
  uint64_t hotkey_min_failures = 30;
  double hotkey_failure_fraction = 0.15;
};

/// One detected data-value-correlated conflict: a failed transaction and
/// the committed transaction that invalidated its read (corDV(x,y) == 1).
struct ConflictPair {
  uint64_t failed_commit_order = 0;   // x
  uint64_t cause_commit_order = 0;    // y
  std::string failed_activity;        // A(x)
  std::string cause_activity;         // A(y)
  std::string key;                    // the contended key
  uint64_t distance = 0;              // corP(x, y): commit-order distance
  bool same_block = false;            // intra-block vs inter-block failure
  bool reorderable = false;           // WS(x) ∩ WS(y) == ∅ (Table 1)
  bool same_activity = false;         // A(x) == A(y)
  bool delta_candidate = false;       // single-key ±1 counter update
};

/// All metrics derived from one blockchain log (paper §4.3).
struct LogMetrics {
  // -- Rate metrics ----------------------------------------------------
  uint64_t total_txs = 0;
  double duration_s = 0;       // span of client timestamps
  double tr = 0;               // transaction rate Tr
  std::vector<double> trd;     // Trd_i (per interval, client timestamps)

  // -- Failure metrics -------------------------------------------------
  uint64_t failed_txs = 0;
  uint64_t mvcc_failures = 0;
  uint64_t phantom_failures = 0;
  uint64_t endorsement_failures = 0;
  double tfr = 0;              // total failure rate TFr
  std::vector<double> frd;     // Frd_i

  // -- Block size metrics ----------------------------------------------
  uint64_t num_blocks = 0;
  double b_sizeavg = 0;        // average transactions per block

  // -- Endorser / invoker significance ----------------------------------
  std::map<std::string, uint64_t> endorser_sig;     // EDsig per org
  std::map<std::string, uint64_t> invoker_sig;      // IVsig per client
  std::map<std::string, uint64_t> invoker_org_sig;  // IVsig per org

  // -- Key metrics -------------------------------------------------------
  std::map<std::string, uint64_t> key_freq;                // Kfreq
  std::map<std::string, std::set<std::string>> key_activities;  // Ksig
  std::vector<std::string> hot_keys;                        // HK

  /// Per-key, per-activity access statistics (drives the partitioning /
  /// data-model-alteration distinction: which activities fail on a hotkey
  /// and whether they write it).
  struct KeyAccessorStats {
    uint64_t accesses = 0;
    uint64_t failures = 0;
    bool writes = false;
  };
  std::map<std::string, std::map<std::string, KeyAccessorStats>>
      key_accessors;

  // -- Correlation metrics ----------------------------------------------
  std::vector<ConflictPair> conflicts;  // corDV instances with corP
  /// Aggregated conflicting activity pairs: (failed activity, cause
  /// activity) -> count.
  std::map<std::pair<std::string, std::string>, uint64_t> activity_conflicts;
  uint64_t intra_block_conflicts = 0;
  uint64_t inter_block_conflicts = 0;
  /// Same-activity adjacent-conflict count with unit distance (corPA==1).
  uint64_t adjacent_same_activity_conflicts = 0;
  uint64_t delta_candidates = 0;
  uint64_t reorderable_conflicts = 0;

  /// Per-activity transaction-type counts (for process-model pruning:
  /// the same activity committing with different TT values).
  std::map<std::string, std::map<TxType, uint64_t>> activity_tx_types;

  /// Number of activities (distinct smart-contract functions) observed.
  size_t num_activities = 0;

  double SuccessRate() const {
    if (total_txs == 0) return 0;
    return 1.0 - static_cast<double>(failed_txs) /
                     static_cast<double>(total_txs);
  }
};

/// A key and its Kfreq: the number of failed transactions that accessed it.
struct KeyFailures {
  std::string_view key;
  uint64_t failures = 0;
};

/// The hot-key order (paper §4.3 metric 6): more failures first, ties by
/// key string. Never by KeyId, whose values follow first-intern order
/// (common/interner.h).
bool RanksBefore(const KeyFailures& a, const KeyFailures& b);

/// The least Kfreq of a hot key: the absolute floor or the fraction of
/// all failures, whichever is larger (both user-configurable).
uint64_t HotKeyThreshold(const MetricsOptions& options, uint64_t failed_txs);

/// HK: the keys of `key_freq` whose Kfreq reaches `threshold`, in
/// RanksBefore order.
std::vector<std::string> HotKeys(
    const std::map<std::string, uint64_t>& key_freq, uint64_t threshold);

/// Derives every §4.3 metric from a preprocessed blockchain log.
LogMetrics ComputeMetrics(const BlockchainLog& log,
                          const MetricsOptions& options = MetricsOptions());

/// Merges per-channel metric sets into the whole-experiment view of a
/// multi-channel run: counts, significance maps, key statistics, and
/// interval distributions sum; durations take the span maximum (channels
/// run concurrently); the derived rates (tr, tfr, b_sizeavg) and the hot
/// set are recomputed from the merged state with the same thresholds as
/// the per-log derivation. Conflict pairs concatenate in channel order —
/// their commit orders stay channel-local (channels have independent
/// ledgers), which the pairwise counters already account for. Returns an
/// empty LogMetrics for an empty input.
LogMetrics AggregateMetrics(const std::vector<LogMetrics>& per_channel,
                            const MetricsOptions& options = MetricsOptions());

/// Id-interned projection of one log row: exactly the attributes metric
/// derivation reads, with every repeated string — activity, invoker,
/// endorser orgs, state keys — replaced by an interner id (keys in
/// GlobalKeyInterner, names in GlobalNameInterner). The streaming engine
/// builds rows directly from committed transactions, so its commit hot
/// path materializes no strings; the batch pass converts each
/// BlockchainLogEntry. Both feed MetricsAccumulator::OnRow — one
/// implementation, so streaming and batch metrics agree by construction.
struct MetricsRow {
  double client_timestamp = 0;
  double commit_timestamp = 0;
  uint64_t commit_order = 0;
  uint64_t block_num = 0;
  TxStatus status = TxStatus::kValid;
  TxType tx_type = TxType::kRead;

  KeyId activity = kInvalidKeyId;        // name id
  KeyId invoker_client = kInvalidKeyId;  // name id
  KeyId invoker_org = kInvalidKeyId;     // name id
  std::vector<KeyId> endorsers;          // name ids, one per signature

  std::vector<KeyId> read_ids;      // RS(x): sorted by id, deduped
  std::vector<KeyId> write_ids;     // WS(x) incl. deletes: sorted, deduped
  std::vector<KeyId> accessed_ids;  // RWS(x): sorted by id, deduped
  std::vector<KeyId> value_write_ids;  // non-delete write keys, rwset order
  std::vector<KeyId> delete_ids;       // deleted keys, rwset order
  /// Range-query bounds. Bounds are arbitrary strings (not necessarily
  /// live keys), so they are kept as-is; range queries are sparse enough
  /// that the copies stay off the common path.
  std::vector<std::pair<std::string, std::string>> range_bounds;

  uint32_t num_value_writes = 0;
  bool has_deletes = false;
  /// The written value when num_value_writes == 1 (delta-write analysis).
  std::string single_write_value;

  bool failed() const {
    return status == TxStatus::kMvccReadConflict ||
           status == TxStatus::kPhantomReadConflict ||
           status == TxStatus::kEndorsementPolicyFailure;
  }
};

/// Converts a batch log row into the id-interned form, interning each
/// key once.
MetricsRow RowFromEntry(const BlockchainLogEntry& entry);

/// Builds a row straight from a committed transaction — no string
/// materialization — clearing and refilling `row` in place so a recycled
/// row keeps its vectors' capacity and steady-state streaming derivation
/// stays allocation-free. The caller stamps `commit_order` (the streaming
/// engine numbers non-config rows densely, the same numbering the batch
/// log cleaner assigns).
void RowFromTransactionInto(const Block& block, const Transaction& tx,
                            MetricsRow& row);

/// Incremental metric derivation: feed log rows one at a time, in commit
/// order, and snapshot the full §4.3 metric set at any point. This is the
/// single implementation of the metric semantics — `ComputeMetrics` is a
/// loop over `OnEntry` plus one `Snapshot()` — so the streaming analysis
/// engine (fed at block-commit time) and the batch pipeline (fed from the
/// finished ledger) agree field-for-field by construction.
///
/// Memory is O(live keys + conflicts), the same order as the batch pass's
/// working state; it does not retain the log rows themselves. Key
/// aggregation runs on interned KeyIds (no per-entry string
/// materialization); strings are materialized once, in `Snapshot()`.
///
/// Accumulators are *mergeable*: splitting a row stream at arbitrary
/// points into panes, feeding each pane its own accumulator, and folding
/// the panes left-to-right with `Merge` yields state identical to one
/// accumulator fed every row (see Merge for the causality mechanics).
/// The streaming engine exploits this to evaluate sliding windows from
/// O(1) sealed-pane merges instead of re-feeding O(window) rows.
class MetricsAccumulator {
 public:
  explicit MetricsAccumulator(const MetricsOptions& options = MetricsOptions());

  /// Folds one row into the accumulator. Rows must arrive in commit order
  /// (the correlation metrics attribute each failure to the most recent
  /// committed writer seen so far). Equivalent to
  /// `OnRow(RowFromEntry(entry))`.
  void OnEntry(const BlockchainLogEntry& entry);

  /// Folds one id-interned row (same ordering contract as OnEntry). This
  /// is the implementation both pipelines share; the streaming engine
  /// calls it directly with rows built from committed transactions.
  void OnRow(const MetricsRow& row);

  /// Folds a whole right-hand pane into this accumulator. Precondition:
  /// every row `right` saw comes after (in commit order) every row this
  /// accumulator saw, and both were built with the same MetricsOptions.
  /// Postcondition: `*this` is field-for-field identical — Snapshot(),
  /// counters, and future OnRow/Merge behavior — to an accumulator that
  /// consumed this's rows followed by right's rows one at a time.
  ///
  /// Counters and per-key/per-activity maps merge by addition. Failure
  /// causality spans the seam: each accumulator carries (a) its final
  /// per-key writer frontier, (b) tombstones for keys whose net effect is
  /// a delete, and (c) its *unresolved prefix* — failures whose cause, if
  /// any, precedes its first row. Merging rebases right's frontier onto
  /// this one, masks this frontier with right's tombstones, and resolves
  /// right's unresolved prefix against this frontier exactly as OnRow
  /// would have (lexicographic candidate order, most-recent-writer wins,
  /// range scans honoring deletes), splicing resolved conflict pairs into
  /// their original stream positions.
  void Merge(const MetricsAccumulator& right);

  /// How much of the per-key detail Snapshot() materializes. The per-key
  /// string maps (key_activities / key_accessors / key_freq) dominate
  /// snapshot cost — one string materialization and ordered-map insert
  /// per distinct key — yet every consumer of a *window* snapshot (the
  /// streaming engine's per-evaluation recommender pass) reads them only
  /// by `.find()` on members of the hot set. kHotKeysOnly skips
  /// key_activities entirely and restricts key_accessors / key_freq to
  /// the hot keys, leaving every scalar, conflict, and hot-set field
  /// byte-identical to kFull.
  enum class SnapshotDetail { kFull, kHotKeysOnly };

  /// Materializes the full metric set over everything seen so far.
  /// Field-for-field identical to `ComputeMetrics` over the same rows
  /// (with kHotKeysOnly, identical outside the cold-key map entries).
  LogMetrics Snapshot(SnapshotDetail detail = SnapshotDetail::kFull) const;

  /// Returns the accumulator to its just-constructed state (same
  /// MetricsOptions) while keeping container capacities and hash-table
  /// buckets, so a caller that repeatedly builds short-lived
  /// accumulators — the streaming engine's per-evaluation window fold
  /// and pane recycling — stays off the allocator in steady state.
  void Reset();

  // Cheap cumulative counters for continuous monitoring (no snapshot
  // needed): the streaming engine's windowed series read these per tick.
  uint64_t total_txs() const { return total_txs_; }
  uint64_t failed_txs() const { return failed_txs_; }
  uint64_t mvcc_failures() const { return mvcc_failures_; }
  uint64_t phantom_failures() const { return phantom_failures_; }
  uint64_t endorsement_failures() const { return endorsement_failures_; }
  uint64_t conflicts_detected() const { return conflicts_.size(); }
  uint64_t intra_block_conflicts() const { return intra_block_conflicts_; }
  uint64_t inter_block_conflicts() const { return inter_block_conflicts_; }
  uint64_t reorderable_conflicts() const { return reorderable_conflicts_; }
  uint64_t delta_candidates() const { return delta_candidates_; }
  /// The `n` keys with the highest exact Kfreq so far, in RanksBefore
  /// order; keys no failed transaction accessed are left out.
  std::vector<KeyFailures> TopFailureKeys(size_t n) const;
  /// Failures whose cause (if any) precedes this accumulator's first row
  /// — resolvable only by merging onto a left pane.
  size_t unresolved_prefix_size() const { return pending_.size(); }

 private:
  /// Compact record of the latest committed writer of a key: everything
  /// the correlation metrics need from the cause transaction y without
  /// retaining the log row itself. Shared between all keys y wrote, and
  /// immutable once built so merged accumulators can alias it.
  struct CauseRecord {
    uint64_t commit_order = 0;
    uint64_t block_num = 0;
    KeyId activity = kInvalidKeyId;  // name id
    std::vector<KeyId> write_ids;    // sorted-unique WS(y) view
    size_t num_writes = 0;           // writes (value-carrying, no deletes)
    bool has_deletes = false;
    KeyId single_write_key = kInvalidKeyId;  // set when num_writes == 1
    std::string single_write_value;
  };

  /// One per-key frontier slot. `seq` (this accumulator's arrival index
  /// of the writer) lives here rather than in the shared CauseRecord so
  /// Merge can rebase right-pane entries onto this pane's sequence space
  /// without cloning the records they point at.
  struct FrontierEntry {
    uint64_t seq = 0;  // arrival index; orders "most recent" comparisons
    std::shared_ptr<const CauseRecord> record;
  };

  /// A failed read (MVCC/phantom) whose candidate search found no writer
  /// in this accumulator: everything needed to re-run the search against
  /// a left pane's frontier at merge time and, on a hit, emit the exact
  /// ConflictPair OnRow would have.
  struct PendingConflict {
    uint64_t commit_order = 0;
    uint64_t block_num = 0;
    KeyId activity = kInvalidKeyId;  // name id
    TxStatus status = TxStatus::kValid;
    std::vector<KeyId> write_ids;  // sorted-unique WS(x) view
    uint32_t num_value_writes = 0;
    bool has_deletes = false;
    KeyId single_write_key = kInvalidKeyId;  // set when num_value_writes == 1
    std::string single_write_value;
    /// Read keys still eligible for a left-pane cause, in lexicographic
    /// order: keys this pane wrote before x resolved x locally, and keys
    /// it deleted before x mask any left-pane writer. Views point into
    /// the process-lifetime interner storage.
    std::vector<std::string_view> eligible_reads;
    /// Range queries with the keys this pane had deleted (net) before x —
    /// a left-pane writer of a masked key is not a candidate.
    struct RangeProbe {
      std::string start, end;
      std::vector<std::string_view> masked;
    };
    std::vector<RangeProbe> ranges;
    /// Splice position: number of resolved conflicts this accumulator
    /// held when x arrived, so merge-time resolution lands the pair in
    /// stream order.
    size_t slot = 0;
  };

  /// Id-based internal form of ConflictPair: activity names stay interned
  /// and the contended key is a view into the interner's process-lifetime
  /// storage, so recording a conflict and copying it across a pane merge
  /// are allocation-free. Snapshot() materializes the strings once.
  struct ConflictRec {
    uint64_t failed_commit_order = 0;
    uint64_t cause_commit_order = 0;
    KeyId failed_activity = kInvalidKeyId;  // name id
    KeyId cause_activity = kInvalidKeyId;   // name id
    std::string_view key;
    uint64_t distance = 0;
    bool same_block = false;
    bool reorderable = false;
    bool same_activity = false;
    bool delta_candidate = false;
  };

  /// Re-runs the candidate search for `pending` against this frontier
  /// and, on a hit, appends the conflict record (updating every
  /// correlation counter). Returns true when resolved.
  bool ResolvePending(const PendingConflict& pending);

  /// Appends the conflict record for failed reader x (the scalar arguments)
  /// against `cause`, updating every correlation counter — the one
  /// emission path shared by OnRow and merge-time resolution.
  void RecordConflict(uint64_t x_commit_order, uint64_t x_block_num,
                      KeyId x_activity, TxStatus x_status,
                      const std::vector<KeyId>& x_write_ids,
                      uint32_t x_num_value_writes, bool x_has_deletes,
                      KeyId x_single_write_key,
                      const std::string& x_single_write_value,
                      const CauseRecord& cause,
                      std::string_view contended_key);

  MetricsOptions options_;

  // Rate / failure / significance state (loop-1 of the batch pass).
  uint64_t total_txs_ = 0;
  double min_ts_ = 0;
  double max_ts_ = 0;
  IntervalCounter tx_intervals_;
  IntervalCounter fail_intervals_;
  // Per-row state is hash-keyed (O(1) per row); Snapshot() resolves ids
  // and rebuilds the string-ordered output maps, so ordering cost is
  // paid once per snapshot, never per row.
  std::unordered_set<uint64_t> blocks_;
  std::unordered_set<KeyId> activities_;  // name ids
  std::unordered_map<KeyId, std::map<TxType, uint64_t>> activity_tx_types_;
  uint64_t failed_txs_ = 0;
  uint64_t mvcc_failures_ = 0;
  uint64_t phantom_failures_ = 0;
  uint64_t endorsement_failures_ = 0;
  std::unordered_map<KeyId, uint64_t> endorser_sig_;     // name-id keyed
  std::unordered_map<KeyId, uint64_t> invoker_sig_;
  std::unordered_map<KeyId, uint64_t> invoker_org_sig_;

  // Key aggregation by interned id (loop-2 of the batch pass).
  struct KeyAgg {
    uint64_t fail_freq = 0;
    /// Per-activity stats as a tiny flat array — a key is touched by a
    /// handful of activities, so a linear scan beats a nested hash map's
    /// per-key bucket allocation in the per-row hot path and in pane
    /// merges. Order is insertion order; Snapshot() re-sorts by name.
    struct Accessor {
      KeyId activity = kInvalidKeyId;  // name id
      LogMetrics::KeyAccessorStats stats;
    };
    std::vector<Accessor> accessors;

    LogMetrics::KeyAccessorStats& StatsFor(KeyId activity) {
      for (Accessor& a : accessors) {
        if (a.activity == activity) return a.stats;
      }
      accessors.push_back(Accessor{activity, {}});
      return accessors.back().stats;
    }
  };
  std::unordered_map<KeyId, KeyAgg> key_agg_;

  // Correlation replay state (loop-3 of the batch pass). Keyed by the
  // interned key's string_view — stable for the process lifetime
  // (interner storage is append-only) — so the map stays ordered by key
  // *string* (id order is not lexicographic: phantom range scans must
  // see the same candidates in the same order as a string-keyed map)
  // while each map operation resolves the id exactly once.
  std::map<std::string_view, FrontierEntry> last_writer_;
  // Keys whose net effect in this accumulator is a delete: they erase a
  // left pane's frontier entry at merge time. Ordered for range masking.
  std::set<std::string_view> tombstones_;
  // Unresolved prefix, ascending by slot (capture order).
  std::vector<PendingConflict> pending_;
  uint64_t next_seq_ = 0;
  std::vector<ConflictRec> conflicts_;
  // (failed activity, cause activity) name-id pairs; resolved to the
  // string-pair-keyed output map in Snapshot().
  std::map<std::pair<KeyId, KeyId>, uint64_t> activity_conflicts_;
  uint64_t intra_block_conflicts_ = 0;
  uint64_t inter_block_conflicts_ = 0;
  uint64_t adjacent_same_activity_conflicts_ = 0;
  uint64_t delta_candidates_ = 0;
  uint64_t reorderable_conflicts_ = 0;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_METRICS_METRICS_H_
