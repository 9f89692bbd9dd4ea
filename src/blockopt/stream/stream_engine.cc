#include "blockopt/stream/stream_engine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace blockoptr {

StreamEngine::StreamEngine(const StreamOptions& options)
    : options_(options),
      effective_pane_rows_(std::max<size_t>(
          1, std::min(options.pane_rows,
                      std::max<size_t>(1, options.ring_capacity)))),
      cumulative_(options.recommender.metrics),
      recommender_(options.recommender, options.max_events),
      graph_(options.conflict_window),
      open_{MetricsAccumulator(options.recommender.metrics), {}},
      window_scratch_(options.recommender.metrics),
      commit_tps_("stream.commit_tps", options.series_capacity),
      failures_per_s_("stream.failures_per_s", options.series_capacity),
      mvcc_per_s_("stream.mvcc_per_s", options.series_capacity),
      phantom_per_s_("stream.phantom_per_s", options.series_capacity),
      endorsement_per_s_("stream.endorsement_per_s",
                         options.series_capacity),
      conflicts_per_s_("stream.conflicts_per_s", options.series_capacity),
      window_failure_rate_("stream.window_failure_rate",
                           options.series_capacity),
      hot_key_count_("stream.hot_key_count", options.series_capacity),
      commit_latency_s_("stream.commit_latency_s", options.series_capacity),
      active_recommendations_("stream.active_recommendations",
                              options.series_capacity),
      block_fill_("stream.block_fill", options.series_capacity),
      conflict_edges_("stream.conflict_edges", options.series_capacity) {}

void StreamEngine::SealOpen() {
  if (open_.rows == 0) return;
  ++panes_sealed_;
  sealed_rows_ += open_.rows;
  sealed_.push_back(std::move(open_));
  if (!pane_pool_.empty()) {
    open_ = std::move(pane_pool_.back());
    pane_pool_.pop_back();
  } else {
    open_ = Pane{MetricsAccumulator(options_.recommender.metrics), {}};
  }
}

void StreamEngine::RecyclePane(Pane& retired) {
  if (pane_pool_.size() >= kPanePoolMax) return;
  retired.acc.Reset();
  // Rows stay as husks: the next fill overwrites them in place, reusing
  // their inner vector capacities.
  retired.rows = 0;
  retired.start_ts = 0;
  retired.end_ts = 0;
  retired.flushed = false;
  pane_pool_.push_back(std::move(retired));
}

void StreamEngine::FlushSealed() {
  // Flushed panes always form a prefix of the deque: folds happen in
  // order here, and eviction only ever removes the front.
  for (Pane& pane : sealed_) {
    if (pane.flushed) continue;
    cumulative_.Merge(pane.acc);
    ++pane_merges_;
    pane.flushed = true;
  }
}

void StreamEngine::EvictOverCapacity(double now) {
  while (!sealed_.empty() && sealed_rows_ > options_.ring_capacity) {
    Pane& victim = sealed_.front();
    if (!victim.flushed) {
      cumulative_.Merge(victim.acc);
      ++pane_merges_;
    }
    // Rows that could still have served a window ending now (or later)
    // are lost evidence — the classic ring-overflow signal.
    if (victim.end_ts >= now - options_.window_s) {
      ring_overflow_ += victim.rows;
    }
    sealed_rows_ -= victim.rows;
    RecyclePane(victim);
    sealed_.pop_front();
  }
}

void StreamEngine::OnBlockCommit(const Block& block) {
  ++blocks_seen_;
  uint32_t non_config = 0;
  for (const Transaction& tx : block.transactions) {
    if (tx.is_config || tx.status == TxStatus::kConfig) continue;
    // Id-interned row built in place in the open pane's row storage —
    // the commit hot path materializes no strings, and pane recycling
    // reuses the row's vector capacities so the steady-state feed is
    // allocation-free as well. The pane keeps its rows so a window
    // boundary falling inside it can be honored exactly at evaluation
    // time.
    MetricsRow& row = open_.row_store.size() > open_.rows
                          ? open_.row_store[open_.rows]
                          : open_.row_store.emplace_back();
    RowFromTransactionInto(block, tx, row);
    // Dense commit order over non-config rows — the same numbering
    // CleanLog assigns post-mortem.
    row.commit_order = next_commit_order_++;
    ++entries_seen_;
    ++non_config;

    latency_sum_ += row.commit_timestamp - row.client_timestamp;
    ++latency_count_;

    // The row feeds exactly one accumulator: the open pane. The
    // cumulative view is maintained by folding sealed panes in
    // (MetricsAccumulator::Merge), never by a second per-row feed.
    if (open_.rows == 0) open_.start_ts = row.commit_timestamp;
    open_.end_ts = row.commit_timestamp;
    ++open_.rows;
    open_.acc.OnRow(row);
    graph_.AddNode(row.read_ids, row.write_ids);
  }

  const double t = block.commit_timestamp;
  block_fill_.Record(t, static_cast<double>(non_config));
  conflict_edges_.Record(t, static_cast<double>(graph_.EdgeCount()));

  // Pane boundaries fall only between blocks (all of a block's rows
  // share its commit timestamp, keeping panes pure in window time).
  //
  // The first few blocks after an evaluation seal as single-block
  // micro-panes: the next evaluation fires at the first block past
  // last_eval + window_s, so its window start lands just after the
  // current evaluation — inside these micro-panes. A boundary there
  // means the straddling pane whose suffix must be re-fed row by row is
  // about one block, not a nearly full pane.
  if (open_.rows >= effective_pane_rows_ ||
      (open_.rows > 0 && blocks_since_eval_ < kPostEvalMicroPanes)) {
    SealOpen();
    EvictOverCapacity(t);
  }
  ++blocks_since_eval_;

  if (!have_anchor_) {
    have_anchor_ = true;
    last_eval_t_ = t;
  } else if (t - last_eval_t_ >= options_.window_s) {
    Evaluate(t);
  }
}

void StreamEngine::Evaluate(double t) {
  const double dt = t - last_eval_t_;
  if (dt <= 0) return;

  SealOpen();

  // Retire panes no window ending at or after `t` can reach. (Not
  // overflow: they aged out naturally.)
  const double window_start = std::max(0.0, t - options_.window_s);
  while (!sealed_.empty() && sealed_.front().end_ts < window_start) {
    Pane& victim = sealed_.front();
    if (!victim.flushed) {
      cumulative_.Merge(victim.acc);
      ++pane_merges_;
    }
    sealed_rows_ -= victim.rows;
    RecyclePane(victim);
    sealed_.pop_front();
  }

  // Window metrics: panes fully inside the window fold in as O(distinct
  // keys + conflicts) merges, independent of row count; the one pane
  // straddling window_start contributes only its in-window row suffix,
  // re-fed row by row. The result is row-exact — identical to feeding
  // every retained row with commit_timestamp >= window_start — at
  // O(panes + one pane's rows) per evaluation instead of O(window).
  window_scratch_.Reset();
  for (const Pane& pane : sealed_) {
    if (pane.start_ts >= window_start) {
      window_scratch_.Merge(pane.acc);
      ++pane_merges_;
      continue;
    }
    const auto begin = pane.row_store.begin();
    auto it = std::partition_point(
        begin, begin + static_cast<ptrdiff_t>(pane.rows),
        [&](const MetricsRow& r) { return r.commit_timestamp < window_start; });
    for (auto end = begin + static_cast<ptrdiff_t>(pane.rows); it != end;
         ++it) {
      window_scratch_.OnRow(*it);
    }
  }
  // Hot-keys-only detail: the recommender pass below reads the per-key
  // maps exclusively by hot-key lookup, so the snapshot skips cold-key
  // string materialization (the dominant snapshot cost at high key
  // cardinality) without changing a single recommendation.
  const LogMetrics wm = window_scratch_.Snapshot(
      MetricsAccumulator::SnapshotDetail::kHotKeysOnly);

  // Bring the cumulative view up to `t` before reading its counters.
  FlushSealed();
  EvictOverCapacity(t);

  const auto rate = [&](uint64_t now, uint64_t before) {
    return static_cast<double>(now - before) / dt;
  };
  commit_tps_.Record(t, rate(cumulative_.total_txs(), prev_.total));
  failures_per_s_.Record(t, rate(cumulative_.failed_txs(), prev_.failed));
  mvcc_per_s_.Record(t, rate(cumulative_.mvcc_failures(), prev_.mvcc));
  phantom_per_s_.Record(t,
                        rate(cumulative_.phantom_failures(), prev_.phantom));
  endorsement_per_s_.Record(
      t, rate(cumulative_.endorsement_failures(), prev_.endorsement));
  conflicts_per_s_.Record(
      t, rate(cumulative_.conflicts_detected(), prev_.conflicts));

  const uint64_t lat_n = latency_count_ - prev_.latency_count;
  commit_latency_s_.Record(
      t, lat_n > 0 ? (latency_sum_ - prev_.latency_sum) /
                         static_cast<double>(lat_n)
                   : 0.0);

  window_failure_rate_.Record(
      t, wm.total_txs > 0 ? static_cast<double>(wm.failed_txs) /
                                static_cast<double>(wm.total_txs)
                          : 0.0);
  hot_key_count_.Record(t, static_cast<double>(wm.hot_keys.size()));

  const std::vector<Recommendation>& active =
      recommender_.Evaluate(wm, window_start, t);
  active_recommendations_.Record(t, static_cast<double>(active.size()));

  if (options_.apply && !applied_ && apply_hook_) {
    for (const Recommendation& rec : active) {
      if (apply_hook_(rec)) {
        applied_ = true;
        apply_time_ = t;
        applied_rec_ = rec;
        break;
      }
    }
  }

  prev_.total = cumulative_.total_txs();
  prev_.failed = cumulative_.failed_txs();
  prev_.mvcc = cumulative_.mvcc_failures();
  prev_.phantom = cumulative_.phantom_failures();
  prev_.endorsement = cumulative_.endorsement_failures();
  prev_.conflicts = cumulative_.conflicts_detected();
  prev_.latency_sum = latency_sum_;
  prev_.latency_count = latency_count_;
  last_eval_t_ = t;
  blocks_since_eval_ = 0;
}

void StreamEngine::Finalize(double end_time) {
  if (finalized_) return;
  finalized_ = true;
  if (have_anchor_ && end_time > last_eval_t_) Evaluate(end_time);
  // Fold any remainder (open rows, or sealed panes when no final
  // evaluation fired) so the cumulative view covers the whole run.
  SealOpen();
  FlushSealed();
  apply_hook_ = nullptr;
}

std::vector<const TimeSeries*> StreamEngine::AllSeries() const {
  return {&commit_tps_,          &failures_per_s_,
          &mvcc_per_s_,          &phantom_per_s_,
          &endorsement_per_s_,   &conflicts_per_s_,
          &window_failure_rate_, &hot_key_count_,
          &commit_latency_s_,    &active_recommendations_,
          &block_fill_,          &conflict_edges_};
}

}  // namespace blockoptr
