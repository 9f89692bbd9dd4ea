#ifndef BLOCKOPTR_BLOCKOPT_STREAM_STREAM_ENGINE_H_
#define BLOCKOPTR_BLOCKOPT_STREAM_STREAM_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/stream/conflict_window.h"
#include "blockopt/stream/online_recommender.h"
#include "ledger/block.h"
#include "telemetry/timeseries.h"

namespace blockoptr {

/// Configuration for the streaming analysis engine. The window machinery
/// is capacity-bounded: retained panes, the conflict window, each series
/// and the event log. The cumulative accumulator is not (see
/// StreamEngine).
struct StreamOptions {
  bool enabled = false;
  /// Sliding evidence window (simulated seconds) for the online
  /// recommender; also the evaluation cadence.
  double window_s = 5.0;
  /// Apply the top active recommendation mid-run via the driver's
  /// live-reconfig hook (at most once per run).
  bool apply = false;
  /// Max rows covered by retained sealed panes — the window-evidence
  /// budget (rows beyond it are folded into the cumulative view early,
  /// truncating the window, counted by ring_overflow()).
  size_t ring_capacity = 8192;
  /// Target rows per metrics pane. Each window evaluation merges the
  /// sealed sub-accumulators fully inside the window and re-feeds only
  /// the straddling pane's in-window rows; smaller panes shrink that
  /// re-fed suffix, larger panes amortize merge and seal cost (see the
  /// pane-size ablation in bench_streaming_analysis). Panes also seal at
  /// every evaluation boundary, so this only caps intra-window
  /// granularity. Clamped to ring_capacity.
  size_t pane_rows = 1024;
  /// Max transactions in the incremental conflict graph window. Per-key
  /// posting lists (and so per-commit scan cost) grow with this, which
  /// is why the default stays at a few blocks' worth.
  size_t conflict_window = 256;
  /// Point capacity per stream time series.
  size_t series_capacity = 512;
  /// Max retained recommendation events.
  size_t max_events = 256;
  RecommenderOptions recommender;
};

/// Online BlockOptR: the batch ledger → log → metrics → recommendations
/// pipeline run continuously while the experiment executes. The peer's
/// commit path feeds every committed block in; the engine incrementally
/// derives log rows (same semantics as ExtractBlockchainLog: config
/// transactions occupy a block position but never a commit order),
/// folds them into the open pane and a windowed conflict graph, and
/// periodically re-runs the nine recommendation rules over the sliding
/// window — emitting events when advice appears, changes, or withdraws,
/// and optionally applying the top recommendation through a
/// driver-supplied hook.
///
/// Each row is folded into exactly one accumulator: the open pane. Panes
/// seal at block boundaries once they reach their row target; a window
/// evaluation merges the sealed panes lying fully inside the window
/// (O(distinct keys) per pane, independent of row count) and re-feeds
/// only the in-window row suffix of the one pane straddling the window
/// start — so window metrics are row-exact while the steady-state
/// evaluation cost is O(panes + one pane's rows), not O(window) rows.
/// The same sealed panes fold into the cumulative whole-run accumulator,
/// whose state is then field-for-field identical to one accumulator fed
/// every row (MetricsAccumulator::Merge). Sealed panes are retained
/// until they age out of every reachable window, so a short-gap final
/// evaluation still sees full evidence. Pane boundaries fall only
/// between blocks, and all transactions of a block share one commit
/// timestamp, so panes are pure in window time.
///
/// The engine is passive: it schedules no simulator events and its state
/// depends only on the committed block sequence, so streaming exports
/// inherit the sweep-determinism contract.
///
/// Memory: retained panes (ring_capacity rows), the conflict window, the
/// series and the event log are bounded by their options. The cumulative
/// accumulator is not: like the batch pass, it keeps per-key state for
/// every key and one record per detected conflict for the whole run.
class StreamEngine {
 public:
  explicit StreamEngine(const StreamOptions& options);

  /// Driver-supplied applier: receives an active recommendation and
  /// returns true if it was applied (the engine stops trying after the
  /// first success). Must be released before the target network dies —
  /// Finalize() does that.
  void set_apply_hook(std::function<bool(const Recommendation&)> hook) {
    apply_hook_ = std::move(hook);
  }

  /// Feeds one committed block (called from the peer commit path).
  void OnBlockCommit(const Block& block);

  /// Runs a final window evaluation at `end_time`, folds every
  /// outstanding pane into the cumulative view, and drops the apply
  /// hook. Idempotent.
  void Finalize(double end_time);

  // ---- Inspection ----------------------------------------------------
  const StreamOptions& options() const { return options_; }
  /// Cumulative whole-run metrics (field-for-field equal to the batch
  /// pipeline over the same ledger). Complete as of the last evaluation;
  /// Finalize() folds in any open remainder.
  const MetricsAccumulator& cumulative() const { return cumulative_; }
  LogMetrics CumulativeSnapshot() const { return cumulative_.Snapshot(); }
  const OnlineRecommender& recommender() const { return recommender_; }
  const WindowedConflictGraph& conflict_graph() const { return graph_; }

  uint64_t blocks_seen() const { return blocks_seen_; }
  uint64_t entries_seen() const { return entries_seen_; }
  /// Rows folded into the cumulative view while still inside the
  /// evidence window, because retained panes hit ring_capacity (the
  /// window was truncated).
  uint64_t ring_overflow() const { return ring_overflow_; }
  uint64_t evaluations() const { return recommender_.evaluations(); }

  // Pane bookkeeping (exported with the stream state).
  /// Rows in the open (not yet sealed) pane.
  uint64_t open_pane_rows() const { return open_.rows; }
  /// Retained sealed panes / the rows they cover.
  size_t sealed_pane_count() const { return sealed_.size(); }
  uint64_t sealed_rows() const { return sealed_rows_; }
  /// Lifetime counts: panes sealed, and accumulator merges performed
  /// (window assembly + cumulative folds).
  uint64_t panes_sealed() const { return panes_sealed_; }
  uint64_t pane_merges() const { return pane_merges_; }

  bool applied() const { return applied_; }
  double apply_time() const { return apply_time_; }
  /// The recommendation that was applied (valid only when applied()).
  const Recommendation& applied_recommendation() const {
    return applied_rec_;
  }

  /// All stream time series, for export (stable order).
  std::vector<const TimeSeries*> AllSeries() const;

  const TimeSeries& commit_tps() const { return commit_tps_; }
  const TimeSeries& block_fill() const { return block_fill_; }
  const TimeSeries& conflict_edges() const { return conflict_edges_; }

 private:
  /// One pane: a sub-accumulator over a contiguous row range, plus the
  /// commit-timestamp span it covers. The pane keeps its rows
  /// (id-interned, built in place, capacity recycled across pane reuse)
  /// so a window boundary falling inside the pane can be honored exactly
  /// by re-feeding just the in-window suffix. `flushed` panes have
  /// already been folded into cumulative_ but stay retained while a
  /// future window can still reach them.
  struct Pane {
    MetricsAccumulator acc;
    /// Row storage; only the first `rows` elements are live (the rest
    /// are retained husks whose vector capacity the next fill reuses).
    std::vector<MetricsRow> row_store;
    double start_ts = 0;
    double end_ts = 0;
    uint64_t rows = 0;
    bool flushed = false;
  };

  void Evaluate(double t);
  /// Moves the open pane (if nonempty) onto the sealed deque.
  void SealOpen();
  /// Parks a retired pane in the reuse pool (if there is room) so the
  /// next SealOpen inherits its accumulator and row-storage capacities
  /// instead of allocating fresh ones.
  void RecyclePane(Pane& retired);
  /// Folds every unflushed sealed pane into cumulative_, in order.
  void FlushSealed();
  /// Drops retained panes from the front until the covered rows fit
  /// ring_capacity, folding unflushed victims into cumulative_ first and
  /// counting still-in-window rows as overflow.
  void EvictOverCapacity(double now);

  StreamOptions options_;
  size_t effective_pane_rows_;
  std::function<bool(const Recommendation&)> apply_hook_;

  MetricsAccumulator cumulative_;
  OnlineRecommender recommender_;
  WindowedConflictGraph graph_;
  Pane open_;
  std::deque<Pane> sealed_;
  /// Reused per-evaluation window fold (Reset between evaluations), so
  /// each evaluation starts with warm container capacities instead of a
  /// fresh accumulator's cold allocations.
  MetricsAccumulator window_scratch_;
  /// Retired panes parked for reuse as future open panes — a
  /// steady-state pane cycle allocates nothing. Bounded (kPanePoolMax).
  std::vector<Pane> pane_pool_;
  static constexpr size_t kPanePoolMax = 8;

  /// Blocks committed since the last evaluation; the first
  /// kPostEvalMicroPanes of them seal as single-block panes so the next
  /// window start (which lands just past the last evaluation) falls on
  /// or near a pane boundary, minimizing the re-fed straddle suffix.
  uint32_t blocks_since_eval_ = 0;
  static constexpr uint32_t kPostEvalMicroPanes = 2;

  uint64_t next_commit_order_ = 0;
  uint64_t blocks_seen_ = 0;
  uint64_t entries_seen_ = 0;
  uint64_t ring_overflow_ = 0;
  uint64_t sealed_rows_ = 0;
  uint64_t panes_sealed_ = 0;
  uint64_t pane_merges_ = 0;

  bool have_anchor_ = false;
  double last_eval_t_ = 0;
  double latency_sum_ = 0;
  uint64_t latency_count_ = 0;

  // Cumulative counter values at the previous evaluation, for per-window
  // rate deltas.
  struct EvalSnapshot {
    uint64_t total = 0;
    uint64_t failed = 0;
    uint64_t mvcc = 0;
    uint64_t phantom = 0;
    uint64_t endorsement = 0;
    uint64_t conflicts = 0;
    double latency_sum = 0;
    uint64_t latency_count = 0;
  };
  EvalSnapshot prev_;

  bool applied_ = false;
  double apply_time_ = 0;
  Recommendation applied_rec_;
  bool finalized_ = false;

  // Windowed series (bounded; see StreamOptions::series_capacity).
  TimeSeries commit_tps_;
  TimeSeries failures_per_s_;
  TimeSeries mvcc_per_s_;
  TimeSeries phantom_per_s_;
  TimeSeries endorsement_per_s_;
  TimeSeries conflicts_per_s_;
  TimeSeries window_failure_rate_;
  TimeSeries hot_key_count_;
  TimeSeries commit_latency_s_;
  TimeSeries active_recommendations_;
  TimeSeries block_fill_;
  TimeSeries conflict_edges_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_STREAM_STREAM_ENGINE_H_
