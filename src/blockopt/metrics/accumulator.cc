// MetricsAccumulator: the single implementation of the §4.3 metric
// semantics, split out of metrics.cc so the merge machinery (pane
// frontiers, tombstones, unresolved-prefix resolution) lives next to the
// per-row fold it must mirror exactly.
#include <algorithm>
#include <cstdlib>

#include "blockopt/metrics/metrics.h"
#include "common/interner.h"

namespace blockoptr {

namespace {

/// True when both values are counter-like — an integer prefix followed by
/// identical payloads — and the counters differ by at most one. Catches
/// both plain counters ("41" vs "42") and embedded ones
/// ("41|meta|artist" vs "42|meta|artist", the DRM play count).
bool IsIntegerDelta(const std::string& a, const std::string& b) {
  char* end_a = nullptr;
  char* end_b = nullptr;
  long va = std::strtol(a.c_str(), &end_a, 10);
  long vb = std::strtol(b.c_str(), &end_b, 10);
  if (end_a == a.c_str() || end_b == b.c_str()) return false;
  // The non-numeric remainder must match (same record, different count).
  if (std::string_view(end_a) != std::string_view(end_b)) return false;
  long d = va - vb;
  return d >= -1 && d <= 1;
}

/// Merge walk over two sorted ID views: no allocation, and the first
/// common element exits early.
bool SortedIdsDisjoint(const std::vector<KeyId>& wx,
                       const std::vector<KeyId>& wy) {
  auto i = wx.begin();
  auto j = wy.begin();
  while (i != wx.end() && j != wy.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

MetricsAccumulator::MetricsAccumulator(const MetricsOptions& options)
    : options_(options),
      tx_intervals_(options.interval_s),
      fail_intervals_(options.interval_s) {}

void MetricsAccumulator::OnEntry(const BlockchainLogEntry& e) {
  OnRow(RowFromEntry(e));
}

void MetricsAccumulator::RecordConflict(
    uint64_t x_commit_order, uint64_t x_block_num, KeyId x_activity,
    TxStatus x_status, const std::vector<KeyId>& x_write_ids,
    uint32_t x_num_value_writes, bool x_has_deletes, KeyId x_single_write_key,
    const std::string& x_single_write_value, const CauseRecord& cause,
    std::string_view contended_key) {
  ConflictRec rec;
  rec.failed_commit_order = x_commit_order;
  rec.cause_commit_order = cause.commit_order;
  rec.failed_activity = x_activity;
  rec.cause_activity = cause.activity;
  rec.key = contended_key;  // views interner storage, stable for life
  rec.distance = x_commit_order - cause.commit_order;
  rec.same_block = x_block_num == cause.block_num;
  rec.reorderable = SortedIdsDisjoint(x_write_ids, cause.write_ids);
  rec.same_activity = x_activity == cause.activity;

  // Delta-write candidate (Table 1): adjacent same-activity conflict,
  // MVCC status, both single-key counter writes with a ±1 value
  // difference.
  if (rec.same_activity && x_status == TxStatus::kMvccReadConflict &&
      x_num_value_writes == 1 && !x_has_deletes && cause.num_writes == 1 &&
      !cause.has_deletes && x_single_write_key == cause.single_write_key &&
      IsIntegerDelta(x_single_write_value, cause.single_write_value)) {
    rec.delta_candidate = true;
    ++delta_candidates_;
  }
  if (rec.same_activity && rec.distance == 1) {
    ++adjacent_same_activity_conflicts_;
  }
  if (rec.same_block) {
    ++intra_block_conflicts_;
  } else {
    ++inter_block_conflicts_;
  }
  if (rec.reorderable) ++reorderable_conflicts_;
  ++activity_conflicts_[{rec.failed_activity, rec.cause_activity}];
  conflicts_.push_back(rec);
}

void MetricsAccumulator::OnRow(const MetricsRow& e) {
  // ---- Rate and failure metrics --------------------------------------
  if (total_txs_ == 0) {
    min_ts_ = e.client_timestamp;
    max_ts_ = e.client_timestamp;
  } else {
    min_ts_ = std::min(min_ts_, e.client_timestamp);
    max_ts_ = std::max(max_ts_, e.client_timestamp);
  }
  ++total_txs_;
  tx_intervals_.Add(e.client_timestamp);
  blocks_.insert(e.block_num);
  activities_.insert(e.activity);
  ++activity_tx_types_[e.activity][e.tx_type];

  switch (e.status) {
    case TxStatus::kMvccReadConflict:
      ++mvcc_failures_;
      break;
    case TxStatus::kPhantomReadConflict:
      ++phantom_failures_;
      break;
    case TxStatus::kEndorsementPolicyFailure:
      ++endorsement_failures_;
      break;
    default:
      break;
  }
  if (e.failed()) {
    ++failed_txs_;
    fail_intervals_.Add(e.client_timestamp);
  }

  for (const auto& org : e.endorsers) ++endorser_sig_[org];
  ++invoker_sig_[e.invoker_client];
  ++invoker_org_sig_[e.invoker_org];

  // ---- Key metrics (Kfreq over failures, Ksig over activities) --------
  // Accumulate per KeyId in a hash map (one O(1) probe per access, no
  // per-entry re-sort or key-vector allocation); strings materialize in
  // Snapshot(). The results are order-insensitive.
  const std::vector<KeyId>& write_ids = e.write_ids;
  for (KeyId id : e.accessed_ids) {
    KeyAgg& agg = key_agg_[id];
    if (e.failed()) ++agg.fail_freq;
    auto& stats = agg.StatsFor(e.activity);
    ++stats.accesses;
    if (e.failed()) ++stats.failures;
    if (std::binary_search(write_ids.begin(), write_ids.end(), id)) {
      stats.writes = true;
    }
  }

  // ---- Correlation metrics: replay in commit order --------------------
  // For every failed transaction x, the cause y is the most recent valid
  // transaction (by arrival order) whose write invalidated one of x's
  // reads — including a write into one of x's queried ranges (phantom).
  const uint64_t seq = next_seq_++;
  if (e.failed() && (e.status == TxStatus::kMvccReadConflict ||
                     e.status == TxStatus::kPhantomReadConflict)) {
    // Candidate causes over x's read keys, visited in lexicographic key
    // order (ties between keys last written by the same transaction must
    // resolve to the lexicographically first key, as a string-keyed walk
    // would).
    const Interner& interner = GlobalKeyInterner();
    std::vector<std::string_view> reads_by_name;
    reads_by_name.reserve(e.read_ids.size());
    for (KeyId id : e.read_ids) {
      reads_by_name.push_back(interner.KeyForId(id));
    }
    std::sort(reads_by_name.begin(), reads_by_name.end());
    const CauseRecord* cause = nullptr;
    uint64_t cause_seq = 0;
    std::string_view contended_key;
    for (std::string_view key : reads_by_name) {
      auto it = last_writer_.find(key);
      if (it == last_writer_.end()) continue;
      if (cause == nullptr || it->second.seq > cause_seq) {
        cause = it->second.record.get();
        cause_seq = it->second.seq;
        contended_key = key;
      }
    }
    // …and over writes that landed inside x's queried ranges (the map is
    // ordered by key string, so bound strings locate directly).
    for (const auto& [start, end] : e.range_bounds) {
      auto it = last_writer_.lower_bound(std::string_view(start));
      auto stop = end.empty()
                      ? last_writer_.end()
                      : last_writer_.lower_bound(std::string_view(end));
      for (; it != stop; ++it) {
        if (cause == nullptr || it->second.seq > cause_seq) {
          cause = it->second.record.get();
          cause_seq = it->second.seq;
          contended_key = it->first;
        }
      }
    }
    const KeyId single_write_key =
        e.num_value_writes == 1 ? e.value_write_ids[0] : kInvalidKeyId;
    if (cause != nullptr) {
      RecordConflict(e.commit_order, e.block_num, e.activity, e.status,
                     e.write_ids, e.num_value_writes, e.has_deletes,
                     single_write_key, e.single_write_value, *cause,
                     contended_key);
    } else {
      // No writer seen by this accumulator: the cause, if one exists,
      // precedes our first row. Capture everything a left pane needs to
      // finish the search at merge time — in particular which candidates
      // our own deletes have already masked.
      PendingConflict p;
      p.commit_order = e.commit_order;
      p.block_num = e.block_num;
      p.activity = e.activity;
      p.status = e.status;
      p.write_ids = e.write_ids;
      p.num_value_writes = e.num_value_writes;
      p.has_deletes = e.has_deletes;
      p.single_write_key = single_write_key;
      p.single_write_value = e.single_write_value;
      p.eligible_reads.reserve(reads_by_name.size());
      for (std::string_view key : reads_by_name) {
        if (tombstones_.count(key) == 0) p.eligible_reads.push_back(key);
      }
      p.ranges.reserve(e.range_bounds.size());
      for (const auto& [start, end] : e.range_bounds) {
        PendingConflict::RangeProbe probe;
        probe.start = start;
        probe.end = end;
        auto it = tombstones_.lower_bound(std::string_view(start));
        auto stop = end.empty()
                        ? tombstones_.end()
                        : tombstones_.lower_bound(std::string_view(end));
        probe.masked.assign(it, stop);  // set order: already lex-sorted
        p.ranges.push_back(std::move(probe));
      }
      p.slot = conflicts_.size();
      pending_.push_back(std::move(p));
    }
  }
  if (e.status == TxStatus::kValid && e.num_value_writes > 0) {
    // One shared cause record per committing transaction, referenced by
    // every key it wrote — O(live keys) memory, no log retention.
    auto record = std::make_shared<CauseRecord>();
    record->commit_order = e.commit_order;
    record->block_num = e.block_num;
    record->activity = e.activity;
    record->write_ids = e.write_ids;
    record->num_writes = e.num_value_writes;
    record->has_deletes = e.has_deletes;
    if (e.num_value_writes == 1) {
      record->single_write_key = e.value_write_ids[0];
      record->single_write_value = e.single_write_value;
    }
    const Interner& keys = GlobalKeyInterner();
    for (KeyId id : e.value_write_ids) {
      const std::string_view key = keys.KeyForId(id);
      last_writer_[key] = FrontierEntry{seq, record};
      if (!tombstones_.empty()) tombstones_.erase(key);
    }
  }
  if (e.status == TxStatus::kValid && !e.delete_ids.empty()) {
    const Interner& keys = GlobalKeyInterner();
    for (KeyId id : e.delete_ids) {
      const std::string_view key = keys.KeyForId(id);
      last_writer_.erase(key);
      tombstones_.insert(key);
    }
  }
}

bool MetricsAccumulator::ResolvePending(const PendingConflict& p) {
  const CauseRecord* cause = nullptr;
  uint64_t cause_seq = 0;
  std::string_view contended_key;
  // Identical search order to OnRow: read keys in lexicographic order,
  // then each range in query order scanning the frontier lexicographically
  // — with the right pane's masked keys (its own deletes before x)
  // excluded, exactly as they would be absent from a single-pass map.
  for (std::string_view key : p.eligible_reads) {
    auto it = last_writer_.find(key);
    if (it == last_writer_.end()) continue;
    if (cause == nullptr || it->second.seq > cause_seq) {
      cause = it->second.record.get();
      cause_seq = it->second.seq;
      contended_key = key;
    }
  }
  for (const auto& range : p.ranges) {
    auto it = last_writer_.lower_bound(std::string_view(range.start));
    auto stop = range.end.empty()
                    ? last_writer_.end()
                    : last_writer_.lower_bound(std::string_view(range.end));
    for (; it != stop; ++it) {
      if (std::binary_search(range.masked.begin(), range.masked.end(),
                             it->first)) {
        continue;
      }
      if (cause == nullptr || it->second.seq > cause_seq) {
        cause = it->second.record.get();
        cause_seq = it->second.seq;
        contended_key = it->first;
      }
    }
  }
  if (cause == nullptr) return false;
  RecordConflict(p.commit_order, p.block_num, p.activity, p.status,
                 p.write_ids, p.num_value_writes, p.has_deletes,
                 p.single_write_key, p.single_write_value, *cause,
                 contended_key);
  return true;
}

void MetricsAccumulator::Merge(const MetricsAccumulator& o) {
  if (o.total_txs_ == 0) return;

  // ---- Correlation state first: resolution must see *this* frontier as
  // it stood before the right pane's writers land on top of it.
  //
  // Splice the right pane's conflicts in stream order: each pending
  // failure carries the conflict count at its capture (`slot`), so the
  // walk interleaves merge-resolved pairs with pane-resolved ones exactly
  // where a single pass would have emitted them.
  size_t pi = 0;
  std::vector<PendingConflict> carried;
  conflicts_.reserve(conflicts_.size() + o.conflicts_.size());
  for (size_t ci = 0; ci <= o.conflicts_.size(); ++ci) {
    while (pi < o.pending_.size() && o.pending_[pi].slot == ci) {
      const PendingConflict& p = o.pending_[pi++];
      if (ResolvePending(p)) continue;
      // Still unresolved: the cause (if any) precedes *our* first row
      // too. Keep it pending, with our deletes folded into its masks and
      // its splice position rebased into the merged stream.
      carried.push_back(p);
      PendingConflict& c = carried.back();
      if (!tombstones_.empty()) {
        c.eligible_reads.erase(
            std::remove_if(c.eligible_reads.begin(), c.eligible_reads.end(),
                           [&](std::string_view key) {
                             return tombstones_.count(key) != 0;
                           }),
            c.eligible_reads.end());
        for (auto& range : c.ranges) {
          auto it = tombstones_.lower_bound(std::string_view(range.start));
          auto stop =
              range.end.empty()
                  ? tombstones_.end()
                  : tombstones_.lower_bound(std::string_view(range.end));
          if (it == stop) continue;
          const size_t old_size = range.masked.size();
          range.masked.insert(range.masked.end(), it, stop);
          std::inplace_merge(range.masked.begin(),
                             range.masked.begin() +
                                 static_cast<ptrdiff_t>(old_size),
                             range.masked.end());
        }
      }
      c.slot = conflicts_.size();
    }
    if (ci < o.conflicts_.size()) conflicts_.push_back(o.conflicts_[ci]);
  }

  // ---- Additive state: monotonic counters and per-key/per-activity
  // maps merge by addition.
  if (total_txs_ == 0) {
    min_ts_ = o.min_ts_;
    max_ts_ = o.max_ts_;
  } else {
    min_ts_ = std::min(min_ts_, o.min_ts_);
    max_ts_ = std::max(max_ts_, o.max_ts_);
  }
  total_txs_ += o.total_txs_;
  failed_txs_ += o.failed_txs_;
  mvcc_failures_ += o.mvcc_failures_;
  phantom_failures_ += o.phantom_failures_;
  endorsement_failures_ += o.endorsement_failures_;
  tx_intervals_.Merge(o.tx_intervals_);
  fail_intervals_.Merge(o.fail_intervals_);
  blocks_.insert(o.blocks_.begin(), o.blocks_.end());
  activities_.insert(o.activities_.begin(), o.activities_.end());
  for (const auto& [activity, per_type] : o.activity_tx_types_) {
    auto& merged = activity_tx_types_[activity];
    for (const auto& [type, n] : per_type) merged[type] += n;
  }
  for (const auto& [org, n] : o.endorser_sig_) endorser_sig_[org] += n;
  for (const auto& [client, n] : o.invoker_sig_) invoker_sig_[client] += n;
  for (const auto& [org, n] : o.invoker_org_sig_) invoker_org_sig_[org] += n;
  for (const auto& [id, agg] : o.key_agg_) {
    KeyAgg& merged = key_agg_[id];
    merged.fail_freq += agg.fail_freq;
    for (const auto& a : agg.accessors) {
      auto& s = merged.StatsFor(a.activity);
      s.accesses += a.stats.accesses;
      s.failures += a.stats.failures;
      s.writes = s.writes || a.stats.writes;
    }
  }
  intra_block_conflicts_ += o.intra_block_conflicts_;
  inter_block_conflicts_ += o.inter_block_conflicts_;
  adjacent_same_activity_conflicts_ += o.adjacent_same_activity_conflicts_;
  delta_candidates_ += o.delta_candidates_;
  reorderable_conflicts_ += o.reorderable_conflicts_;
  for (const auto& [pair, n] : o.activity_conflicts_) {
    activity_conflicts_[pair] += n;
  }

  // ---- Writer frontier: the right pane's entries override ours key for
  // key (its rows are newer), rebased into our sequence space so future
  // most-recent comparisons still order left-era vs right-era writers.
  // Shared CauseRecords are aliased, never cloned — seq lives in the
  // frontier entry precisely so this stays O(frontier), not O(records).
  // Both frontiers iterate in key order, so a walking hint turns the
  // common sparse-overlap case into amortized-O(1) inserts.
  const uint64_t seq_base = next_seq_;
  auto hint = last_writer_.begin();
  for (const auto& [key, entry] : o.last_writer_) {
    hint = last_writer_.insert_or_assign(
        hint, key, FrontierEntry{seq_base + entry.seq, entry.record});
    ++hint;
    if (!tombstones_.empty()) tombstones_.erase(key);
  }
  for (std::string_view key : o.tombstones_) {
    last_writer_.erase(key);
    tombstones_.insert(key);
  }
  next_seq_ += o.next_seq_;

  for (auto& c : carried) pending_.push_back(std::move(c));
}

void MetricsAccumulator::Reset() {
  total_txs_ = 0;
  min_ts_ = 0;
  max_ts_ = 0;
  tx_intervals_.Clear();
  fail_intervals_.Clear();
  blocks_.clear();
  activities_.clear();
  activity_tx_types_.clear();
  failed_txs_ = 0;
  mvcc_failures_ = 0;
  phantom_failures_ = 0;
  endorsement_failures_ = 0;
  endorser_sig_.clear();
  invoker_sig_.clear();
  invoker_org_sig_.clear();
  key_agg_.clear();
  last_writer_.clear();
  tombstones_.clear();
  pending_.clear();
  next_seq_ = 0;
  conflicts_.clear();
  activity_conflicts_.clear();
  intra_block_conflicts_ = 0;
  inter_block_conflicts_ = 0;
  adjacent_same_activity_conflicts_ = 0;
  delta_candidates_ = 0;
  reorderable_conflicts_ = 0;
}

std::vector<KeyFailures> MetricsAccumulator::TopFailureKeys(size_t n) const {
  const Interner& interner = GlobalKeyInterner();
  std::vector<KeyFailures> ranked;
  for (const auto& [id, agg] : key_agg_) {
    if (agg.fail_freq > 0) {
      ranked.push_back({interner.KeyForId(id), agg.fail_freq});
    }
  }
  const size_t top = std::min(n, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(top), ranked.end(),
                    RanksBefore);
  ranked.resize(top);
  return ranked;
}

LogMetrics MetricsAccumulator::Snapshot(SnapshotDetail detail) const {
  LogMetrics m;
  if (total_txs_ == 0) return m;

  m.total_txs = total_txs_;
  m.failed_txs = failed_txs_;
  m.mvcc_failures = mvcc_failures_;
  m.phantom_failures = phantom_failures_;
  m.endorsement_failures = endorsement_failures_;
  // Name ids resolve to strings here, once per snapshot — never per row.
  const Interner& names = GlobalNameInterner();
  for (const auto& [sym, per_type] : activity_tx_types_) {
    m.activity_tx_types[std::string(names.KeyForId(sym))] = per_type;
  }
  for (const auto& [sym, n] : endorser_sig_) {
    m.endorser_sig[std::string(names.KeyForId(sym))] = n;
  }
  for (const auto& [sym, n] : invoker_sig_) {
    m.invoker_sig[std::string(names.KeyForId(sym))] = n;
  }
  for (const auto& [sym, n] : invoker_org_sig_) {
    m.invoker_org_sig[std::string(names.KeyForId(sym))] = n;
  }

  m.duration_s = max_ts_ - min_ts_;
  m.tr = m.duration_s > 0 ? static_cast<double>(m.total_txs) / m.duration_s
                          : static_cast<double>(m.total_txs);
  m.tfr = m.duration_s > 0 ? static_cast<double>(m.failed_txs) / m.duration_s
                           : static_cast<double>(m.failed_txs);
  for (size_t i = 0; i < tx_intervals_.num_intervals(); ++i) {
    m.trd.push_back(tx_intervals_.RateAt(i));
  }
  for (size_t i = 0; i < fail_intervals_.num_intervals(); ++i) {
    m.frd.push_back(fail_intervals_.RateAt(i));
  }
  m.frd.resize(m.trd.size(), 0.0);  // align interval vectors

  m.num_blocks = blocks_.size();
  m.b_sizeavg = m.num_blocks > 0 ? static_cast<double>(m.total_txs) /
                                       static_cast<double>(m.num_blocks)
                                 : 0;
  m.num_activities = activities_.size();

  // Computed before the key maps so kHotKeysOnly can drop cold keys
  // without materializing their strings at all.
  const uint64_t hot_threshold = HotKeyThreshold(options_, m.failed_txs);

  // Sort the key aggregates by key string once, then build the three
  // string-ordered output maps with end-position hints: every insert is
  // amortized O(1) instead of a fresh O(log n) descent with string
  // comparisons at each level.
  const Interner& interner = GlobalKeyInterner();
  std::vector<std::pair<std::string_view, const KeyAgg*>> sorted_keys;
  sorted_keys.reserve(key_agg_.size());
  for (const auto& [id, agg] : key_agg_) {
    if (detail == SnapshotDetail::kHotKeysOnly &&
        agg.fail_freq < hot_threshold) {
      continue;  // cold key: no window-snapshot consumer ever reads it
    }
    sorted_keys.emplace_back(interner.KeyForId(id), &agg);
  }
  std::sort(sorted_keys.begin(), sorted_keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key_view, aggp] : sorted_keys) {
    const KeyAgg& agg = *aggp;
    std::string key(key_view);
    auto& accessors_of_key =
        m.key_accessors
            .emplace_hint(m.key_accessors.end(), key,
                          std::map<std::string, LogMetrics::KeyAccessorStats>{})
            ->second;
    if (detail == SnapshotDetail::kFull) {
      auto& activities_of_key =
          m.key_activities.emplace_hint(m.key_activities.end(), key,
                                        std::set<std::string>{})
              ->second;
      for (const auto& a : agg.accessors) {
        std::string activity(names.KeyForId(a.activity));
        activities_of_key.insert(activity);
        accessors_of_key[std::move(activity)] = a.stats;
      }
    } else {
      for (const auto& a : agg.accessors) {
        accessors_of_key[std::string(names.KeyForId(a.activity))] = a.stats;
      }
    }
    if (agg.fail_freq > 0) {
      m.key_freq.emplace_hint(m.key_freq.end(), std::move(key), agg.fail_freq);
    }
  }
  m.hot_keys = HotKeys(m.key_freq, hot_threshold);

  m.conflicts.reserve(conflicts_.size());
  for (const ConflictRec& r : conflicts_) {
    ConflictPair pair;
    pair.failed_commit_order = r.failed_commit_order;
    pair.cause_commit_order = r.cause_commit_order;
    pair.failed_activity = std::string(names.KeyForId(r.failed_activity));
    pair.cause_activity = std::string(names.KeyForId(r.cause_activity));
    pair.key = std::string(r.key);
    pair.distance = r.distance;
    pair.same_block = r.same_block;
    pair.reorderable = r.reorderable;
    pair.same_activity = r.same_activity;
    pair.delta_candidate = r.delta_candidate;
    m.conflicts.push_back(std::move(pair));
  }
  // Name-id pairs map bijectively onto string pairs, so each internal
  // entry lands on a distinct output entry; the map re-sorts itself into
  // string order.
  for (const auto& [syms, n] : activity_conflicts_) {
    m.activity_conflicts[{std::string(names.KeyForId(syms.first)),
                          std::string(names.KeyForId(syms.second))}] = n;
  }
  m.intra_block_conflicts = intra_block_conflicts_;
  m.inter_block_conflicts = inter_block_conflicts_;
  m.adjacent_same_activity_conflicts = adjacent_same_activity_conflicts_;
  m.delta_candidates = delta_candidates_;
  m.reorderable_conflicts = reorderable_conflicts_;

  return m;
}

}  // namespace blockoptr
