#ifndef BLOCKOPTR_DRIVER_REPORT_H_
#define BLOCKOPTR_DRIVER_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "ledger/transaction.h"

namespace blockoptr {

/// Performance summary of one experiment run, mirroring what the paper
/// measures (§5): success rate (successful / total), throughput of
/// successful transactions, and average latency, plus the failure
/// breakdown and latency percentiles.
class PerformanceReport {
 public:
  /// Records a committed transaction (any status).
  void RecordCommit(const Transaction& tx);

  /// Records a transaction rejected by all endorsers (never ordered).
  void RecordEarlyAbort();

  /// Marks the end of the run for throughput computation.
  void Finish(double end_time) { end_time_ = end_time; }

  /// Tail-latency quantiles of one merged-in channel, captured at Merge
  /// time: the merged PercentileTracker pools every channel's samples, so
  /// a channel's own tail is unrecoverable afterwards — and a channel
  /// whose p99 is 3x the others' disappears into the pooled quantile.
  struct ChannelTail {
    double p50_s = 0;
    double p95_s = 0;
    double p99_s = 0;
    double max_s = 0;
    uint64_t successful = 0;
  };

  /// Folds another (already Finished) report into this one — used to build
  /// the whole-experiment report from per-channel reports. Counters add,
  /// latency accumulators merge, and the wall span becomes the union
  /// (earliest first send -> latest end time), so Throughput() reflects
  /// the combined run. `other`'s tail quantiles are appended to
  /// channel_tails() (its own when it is a leaf report, its recorded tails
  /// when it is itself a merged report), so per-channel p99 survives the
  /// merge.
  void Merge(const PerformanceReport& other);

  /// One entry per merged-in leaf report, in merge order — for the
  /// sharded driver that is channel order, so `channel_tails()[c]` is
  /// channel c's tail. Empty for a leaf (never-merged) report.
  const std::vector<ChannelTail>& channel_tails() const {
    return channel_tails_;
  }

  uint64_t total_committed() const { return total_committed_; }
  uint64_t successful() const { return successful_; }
  uint64_t mvcc_failures() const { return mvcc_failures_; }
  uint64_t phantom_failures() const { return phantom_failures_; }
  uint64_t endorsement_failures() const { return endorsement_failures_; }
  uint64_t early_aborts() const { return early_aborts_; }
  uint64_t failed() const {
    return mvcc_failures_ + phantom_failures_ + endorsement_failures_;
  }

  /// Successful / committed (the paper's success rate), in [0, 1].
  double SuccessRate() const;

  /// Successful transactions per second over the run.
  double Throughput() const;

  /// Mean end-to-end latency (client timestamp -> block commit) of
  /// successful transactions, seconds.
  double AvgLatency() const { return latency_.mean(); }
  double MaxLatency() const { return latency_.max(); }
  double LatencyPercentile(double p) { return latency_pct_.Percentile(p); }

  /// Wall span of the run (first client send -> Finish time); 0 when no
  /// transaction was ever recorded, so an empty run never reports a
  /// negative or garbage duration.
  double duration() const { return saw_first_ ? end_time_ - first_send_ : 0; }

  /// One-line summary: "success=87.2% tput=261.4tps lat=0.413s ...".
  std::string Summary() const;

 private:
  uint64_t total_committed_ = 0;
  uint64_t successful_ = 0;
  uint64_t mvcc_failures_ = 0;
  uint64_t phantom_failures_ = 0;
  uint64_t endorsement_failures_ = 0;
  uint64_t early_aborts_ = 0;
  RunningStats latency_;
  PercentileTracker latency_pct_;
  double first_send_ = 0;
  bool saw_first_ = false;
  double end_time_ = 0;
  std::vector<ChannelTail> channel_tails_;
};

/// Relative change helper for paper-style "% improvement" rows:
/// positive = improvement for throughput/success, and for latency when
/// `lower_is_better`.
double RelativeImprovement(double baseline, double optimized,
                           bool lower_is_better = false);

}  // namespace blockoptr

#endif  // BLOCKOPTR_DRIVER_REPORT_H_
