// Row conversion and the batch entry points. The per-row fold itself —
// MetricsAccumulator — lives in accumulator.cc alongside its pane-merge
// machinery.
#include <algorithm>
#include <iterator>

#include "blockopt/metrics/metrics.h"
#include "common/interner.h"

namespace blockoptr {

namespace {

void SortDedup(std::vector<KeyId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// The one derivation of a row's key sets, from the read ids and the
/// value-write and delete ids its builder filled: RS(x) and WS(x) sorted
/// by id and deduped, RWS(x) their union. Reuses the vectors' capacity.
void DeriveKeySets(MetricsRow& r) {
  SortDedup(r.read_ids);
  r.write_ids.assign(r.value_write_ids.begin(), r.value_write_ids.end());
  r.write_ids.insert(r.write_ids.end(), r.delete_ids.begin(),
                     r.delete_ids.end());
  SortDedup(r.write_ids);
  r.accessed_ids.clear();
  r.accessed_ids.reserve(r.read_ids.size() + r.write_ids.size());
  std::set_union(r.read_ids.begin(), r.read_ids.end(), r.write_ids.begin(),
                 r.write_ids.end(), std::back_inserter(r.accessed_ids));
}

}  // namespace

MetricsRow RowFromEntry(const BlockchainLogEntry& e) {
  Interner& keys = GlobalKeyInterner();
  Interner& names = GlobalNameInterner();
  MetricsRow r;
  r.client_timestamp = e.client_timestamp;
  r.commit_timestamp = e.commit_timestamp;
  r.commit_order = e.commit_order;
  r.block_num = e.block_num;
  r.status = e.status;
  r.tx_type = e.tx_type;
  r.activity = names.Intern(e.activity);
  r.invoker_client = names.Intern(e.invoker_client);
  r.invoker_org = names.Intern(e.invoker_org);
  r.endorsers.reserve(e.endorsers.size());
  for (const auto& org : e.endorsers) r.endorsers.push_back(names.Intern(org));
  r.read_ids.reserve(e.read_keys.size());
  for (const auto& k : e.read_keys) r.read_ids.push_back(keys.Intern(k));
  r.value_write_ids.reserve(e.writes.size());
  for (const auto& [k, v] : e.writes) {
    (void)v;
    r.value_write_ids.push_back(keys.Intern(k));
  }
  r.delete_ids.reserve(e.delete_keys.size());
  for (const auto& k : e.delete_keys) r.delete_ids.push_back(keys.Intern(k));
  DeriveKeySets(r);
  r.range_bounds = e.range_bounds;
  r.num_value_writes = static_cast<uint32_t>(e.writes.size());
  r.has_deletes = !e.delete_keys.empty();
  if (e.writes.size() == 1) r.single_write_value = e.writes[0].second;
  return r;
}

void RowFromTransactionInto(const Block& block, const Transaction& tx,
                            MetricsRow& r) {
  Interner& names = GlobalNameInterner();
  r.endorsers.clear();
  r.read_ids.clear();
  r.value_write_ids.clear();
  r.delete_ids.clear();
  r.range_bounds.clear();
  r.num_value_writes = 0;
  r.has_deletes = false;
  r.single_write_value.clear();
  r.commit_order = 0;
  r.client_timestamp = tx.client_timestamp;
  r.commit_timestamp = tx.commit_timestamp;
  r.block_num = block.block_num;
  r.status = tx.status;
  r.tx_type = DeriveTxType(tx.rwset);
  r.activity = names.Intern(tx.activity);
  r.invoker_client = names.Intern(tx.invoker.client_id);
  r.invoker_org = names.Intern(tx.invoker.org);
  r.endorsers.reserve(tx.endorsers.size());
  for (const auto& org : tx.endorsers) {
    r.endorsers.push_back(names.Intern(org));
  }
  r.read_ids.reserve(tx.rwset.reads.size());
  for (const auto& read : tx.rwset.reads) r.read_ids.push_back(read.id());
  for (const auto& rq : tx.rwset.range_queries) {
    r.range_bounds.emplace_back(rq.start_key, rq.end_key);
    for (const auto& result : rq.results) r.read_ids.push_back(result.id());
  }
  for (const auto& w : tx.rwset.writes) {
    if (w.is_delete) {
      r.delete_ids.push_back(w.id());
      r.has_deletes = true;
    } else {
      r.value_write_ids.push_back(w.id());
      ++r.num_value_writes;
    }
  }
  DeriveKeySets(r);
  if (r.num_value_writes == 1) {
    for (const auto& w : tx.rwset.writes) {
      if (!w.is_delete) {
        r.single_write_value = w.value;
        break;
      }
    }
  }
}

bool RanksBefore(const KeyFailures& a, const KeyFailures& b) {
  if (a.failures != b.failures) return a.failures > b.failures;
  return a.key < b.key;
}

uint64_t HotKeyThreshold(const MetricsOptions& options, uint64_t failed_txs) {
  return std::max<uint64_t>(
      options.hotkey_min_failures,
      static_cast<uint64_t>(options.hotkey_failure_fraction *
                            static_cast<double>(failed_txs)));
}

std::vector<std::string> HotKeys(
    const std::map<std::string, uint64_t>& key_freq, uint64_t threshold) {
  std::vector<std::string> hot;
  for (const auto& [key, freq] : key_freq) {
    if (freq >= threshold) hot.push_back(key);
  }
  std::sort(hot.begin(), hot.end(),
            [&](const std::string& a, const std::string& b) {
              return RanksBefore({a, key_freq.at(a)}, {b, key_freq.at(b)});
            });
  return hot;
}

LogMetrics ComputeMetrics(const BlockchainLog& log,
                          const MetricsOptions& options) {
  MetricsAccumulator acc(options);
  for (const auto& e : log.entries()) acc.OnEntry(e);
  return acc.Snapshot();
}

LogMetrics AggregateMetrics(const std::vector<LogMetrics>& per_channel,
                            const MetricsOptions& options) {
  LogMetrics m;
  if (per_channel.empty()) return m;

  for (const LogMetrics& ch : per_channel) {
    m.total_txs += ch.total_txs;
    m.duration_s = std::max(m.duration_s, ch.duration_s);
    if (ch.trd.size() > m.trd.size()) m.trd.resize(ch.trd.size(), 0.0);
    for (size_t i = 0; i < ch.trd.size(); ++i) m.trd[i] += ch.trd[i];

    m.failed_txs += ch.failed_txs;
    m.mvcc_failures += ch.mvcc_failures;
    m.phantom_failures += ch.phantom_failures;
    m.endorsement_failures += ch.endorsement_failures;
    if (ch.frd.size() > m.frd.size()) m.frd.resize(ch.frd.size(), 0.0);
    for (size_t i = 0; i < ch.frd.size(); ++i) m.frd[i] += ch.frd[i];

    m.num_blocks += ch.num_blocks;

    for (const auto& [org, n] : ch.endorser_sig) m.endorser_sig[org] += n;
    for (const auto& [cl, n] : ch.invoker_sig) m.invoker_sig[cl] += n;
    for (const auto& [org, n] : ch.invoker_org_sig) {
      m.invoker_org_sig[org] += n;
    }

    for (const auto& [key, freq] : ch.key_freq) m.key_freq[key] += freq;
    for (const auto& [key, acts] : ch.key_activities) {
      m.key_activities[key].insert(acts.begin(), acts.end());
    }
    for (const auto& [key, accessors] : ch.key_accessors) {
      auto& merged = m.key_accessors[key];
      for (const auto& [activity, stats] : accessors) {
        auto& s = merged[activity];
        s.accesses += stats.accesses;
        s.failures += stats.failures;
        s.writes = s.writes || stats.writes;
      }
    }

    m.conflicts.insert(m.conflicts.end(), ch.conflicts.begin(),
                       ch.conflicts.end());
    for (const auto& [pair, n] : ch.activity_conflicts) {
      m.activity_conflicts[pair] += n;
    }
    m.intra_block_conflicts += ch.intra_block_conflicts;
    m.inter_block_conflicts += ch.inter_block_conflicts;
    m.adjacent_same_activity_conflicts +=
        ch.adjacent_same_activity_conflicts;
    m.delta_candidates += ch.delta_candidates;
    m.reorderable_conflicts += ch.reorderable_conflicts;

    for (const auto& [activity, types] : ch.activity_tx_types) {
      auto& merged = m.activity_tx_types[activity];
      for (const auto& [type, n] : types) merged[type] += n;
    }
  }
  m.frd.resize(m.trd.size(), 0.0);  // align interval vectors

  // Derived rates over the merged state, with the batch formulas.
  m.tr = m.duration_s > 0 ? static_cast<double>(m.total_txs) / m.duration_s
                          : static_cast<double>(m.total_txs);
  m.tfr = m.duration_s > 0
              ? static_cast<double>(m.failed_txs) / m.duration_s
              : static_cast<double>(m.failed_txs);
  m.b_sizeavg = m.num_blocks > 0 ? static_cast<double>(m.total_txs) /
                                       static_cast<double>(m.num_blocks)
                                 : 0;
  m.num_activities = m.activity_tx_types.size();

  // Re-apply the hot-key rule to merged per-key failure frequencies: a
  // key hot on no individual channel can still be hot experiment-wide.
  m.hot_keys = HotKeys(m.key_freq, HotKeyThreshold(options, m.failed_txs));
  return m;
}

}  // namespace blockoptr
