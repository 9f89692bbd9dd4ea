#include "telemetry/txtrace.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace blockoptr {

namespace {

/// Smallest power of two >= n (n clamped to [16, kMaxTxTraceRing]).
uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 16;
  while (p < n && p < kMaxTxTraceRing) p <<= 1;
  return p;
}

/// Nearest-rank index for percentile p over n sorted samples.
size_t RankIndex(double p, size_t n) {
  if (n == 0) return 0;
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1) rank = 1;
  if (rank > static_cast<double>(n)) rank = static_cast<double>(n);
  return static_cast<size_t>(rank) - 1;
}

constexpr double kExemplarPercentiles[] = {50.0, 95.0, 99.0};
constexpr const char* kExemplarLabels[] = {"p50", "p95", "p99"};

/// Deterministic chain-merge order: by time, transaction events before
/// block events at equal timestamps, then by stage and actor.
bool EventBefore(const TxTraceEvent& a, const TxTraceEvent& b) {
  if (a.t != b.t) return a.t < b.t;
  const bool a_block = a.tx_id == 0;
  const bool b_block = b.tx_id == 0;
  if (a_block != b_block) return b_block;
  if (a.stage != b.stage) return a.stage < b.stage;
  return a.actor < b.actor;
}

}  // namespace

const char* TxStageName(TxStage stage) {
  switch (stage) {
    case TxStage::kSubmit: return "submit";
    case TxStage::kProposalDone: return "proposal_done";
    case TxStage::kEndorseStart: return "endorse_start";
    case TxStage::kEndorseDone: return "endorse_done";
    case TxStage::kEndorseRefused: return "endorse_refused";
    case TxStage::kCollect: return "collect";
    case TxStage::kAssembleDone: return "assemble_done";
    case TxStage::kOrdererEnqueue: return "orderer_enqueue";
    case TxStage::kBlockCut: return "block_cut";
    case TxStage::kCommit: return "commit";
    case TxStage::kEarlyAbort: return "early_abort";
    case TxStage::kRaftPropose: return "raft_propose";
    case TxStage::kRaftReplicate: return "raft_replicate";
    case TxStage::kRaftCommit: return "raft_commit";
    case TxStage::kValidateStart: return "validate_start";
    case TxStage::kValidateDone: return "validate_done";
  }
  return "unknown";
}

const char* CriticalStageName(int stage) {
  static constexpr const char* kNames[kNumCriticalStages] = {
      "submit", "endorse", "assemble", "order", "raft", "commit"};
  return (stage >= 0 && stage < kNumCriticalStages) ? kNames[stage]
                                                    : "unknown";
}

// ---------------------------------------------------------------------------
// ChainIndex: fixed-capacity direct-mapped key -> value table
// ---------------------------------------------------------------------------
//
// Chain keys (tx ids, payload ids, block numbers) are all sequentially
// assigned, so a direct-mapped table with power-of-two slots behaves like a
// sliding window over recent keys: a collision can only come from a key a
// full table-capacity older, whose ring events are long evicted. Overwrite
// is therefore the correct (and allocation-free) collision policy; the
// overwritten chain surfaces as truncated, never silently missing.

void TxTraceRecorder::ChainIndex::Init(uint32_t capacity) {
  const uint32_t cap = RoundUpPow2(capacity);
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
}

void TxTraceRecorder::ChainIndex::Put(uint64_t key, uint32_t seq) {
  Slot& slot = slots_[key & mask_];
  slot.key = key + 1;
  slot.seq = seq;
}

uint32_t TxTraceRecorder::ChainIndex::Get(uint64_t key) const {
  const Slot& slot = slots_[key & mask_];
  return slot.key == key + 1 ? slot.seq : kNoSeq;
}

void TxTraceRecorder::ChainIndex::Erase(uint64_t key) {
  Slot& slot = slots_[key & mask_];
  if (slot.key == key + 1) slot = Slot{};
}

// ---------------------------------------------------------------------------
// TxTraceRecorder
// ---------------------------------------------------------------------------

TxTraceRecorder::TxTraceRecorder(Simulator* sim, TxTraceOptions options)
    : sim_(sim), options_(options) {
  const uint32_t cap = RoundUpPow2(options_.ring_capacity);
  options_.ring_capacity = cap;
  mask_ = cap - 1;
  ring_.assign(cap, TxTraceEvent{});
  tx_index_.Init(std::max(1024u, cap / 4));
  block_index_.Init(std::max(1024u, cap / 16));
  alias_index_.Init(std::max(1024u, cap / 16));
  arena_.reserve(options_.window_event_capacity);
  candidates_.reserve(options_.window_chain_capacity);
  latencies_.reserve(options_.window_chain_capacity);
  scratch_.reserve(256);
  block_scratch_.reserve(64);
  max_chain_.reserve(256);
}

bool TxTraceRecorder::Alive(uint32_t seq) const {
  // Sequences are the low 32 bits of the append counter; wrap-safe age.
  const uint32_t age = static_cast<uint32_t>(appended_) - seq;
  return age >= 1 && age <= options_.ring_capacity && appended_ > 0;
}

uint32_t TxTraceRecorder::Append(const TxTraceEvent& ev, uint32_t prev) {
  const uint32_t seq = static_cast<uint32_t>(appended_);
  TxTraceEvent& slot = ring_[seq & mask_];
  if (appended_ >= options_.ring_capacity) ++summary_.events_evicted;
  slot = ev;
  slot.prev = prev;
  ++appended_;
  ++summary_.events_appended;
  return seq;
}

void TxTraceRecorder::TxEvent(uint64_t tx_id, TxStage stage, uint16_t actor,
                              float dur, uint32_t block_seq) {
  TxTraceEvent ev;
  ev.tx_id = tx_id;
  ev.t = sim_->Now();
  ev.dur = dur;
  ev.block_seq = block_seq;
  ev.actor = actor;
  ev.stage = stage;
  const uint32_t prev = tx_index_.Get(tx_id);
  tx_index_.Put(tx_id, Append(ev, prev));
}

void TxTraceRecorder::BlockEvent(uint32_t payload, TxStage stage,
                                 uint16_t actor, float dur) {
  TxTraceEvent ev;
  ev.tx_id = 0;
  ev.t = sim_->Now();
  ev.dur = dur;
  ev.block_seq = payload;
  ev.actor = actor;
  ev.stage = stage;
  const uint32_t prev = block_index_.Get(payload);
  block_index_.Put(payload, Append(ev, prev));
  if (stage == TxStage::kRaftCommit) {
    last_committed_payload_ = payload;
    have_committed_payload_ = true;
  }
}

void TxTraceRecorder::OnBlockDelivered(uint32_t block_num) {
  // Block delivery runs synchronously inside the Raft commit callback
  // chain, so the last committed payload is this block's payload.
  if (have_committed_payload_) {
    alias_index_.Put(block_num, last_committed_payload_);
  }
}

void TxTraceRecorder::ValidateEvent(uint32_t block_num, TxStage stage,
                                    uint16_t actor, float dur) {
  const uint32_t payload = alias_index_.Get(block_num);
  if (payload == ChainIndex::kNoSeq) return;  // alias aged out
  BlockEvent(payload, stage, actor, dur);
}

bool TxTraceRecorder::ExtractChain(uint32_t tail_seq) {
  scratch_.clear();
  block_scratch_.clear();
  bool truncated = false;

  uint32_t seq = tail_seq;
  uint32_t payload = TxTraceEvent::kNoPrev;
  while (seq != TxTraceEvent::kNoPrev) {
    if (!Alive(seq)) {
      truncated = true;
      break;
    }
    const TxTraceEvent& ev = At(seq);
    scratch_.push_back(ev);
    if (ev.stage == TxStage::kBlockCut) payload = ev.block_seq;
    seq = ev.prev;
  }
  std::reverse(scratch_.begin(), scratch_.end());

  if (payload != TxTraceEvent::kNoPrev) {
    uint32_t bseq = block_index_.Get(payload);
    while (bseq != TxTraceEvent::kNoPrev && bseq != ChainIndex::kNoSeq) {
      if (!Alive(bseq)) {
        truncated = true;
        break;
      }
      const TxTraceEvent& ev = At(bseq);
      // The direct-mapped index can alias a newer payload's chain onto an
      // old key; events disagreeing on the payload mean exactly that.
      if (ev.block_seq != payload) {
        truncated = true;
        break;
      }
      block_scratch_.push_back(ev);
      bseq = ev.prev;
    }
    std::reverse(block_scratch_.begin(), block_scratch_.end());
    // Merge the block leg into the transaction chain by time. Both legs
    // are time-sorted; std::inplace_merge would allocate, so merge into
    // the tail manually: append then rotate via stable sort of two sorted
    // runs. The chains are tiny (tens of events), so a simple insertion
    // merge is fine and allocation-free on warm vectors.
    const size_t tx_len = scratch_.size();
    scratch_.insert(scratch_.end(), block_scratch_.begin(),
                    block_scratch_.end());
    // Manual merge of [0, tx_len) and [tx_len, end): both sorted.
    // In-place: repeatedly bubble the block-leg head left while smaller.
    for (size_t i = tx_len; i < scratch_.size(); ++i) {
      size_t j = i;
      while (j > 0 && EventBefore(scratch_[j], scratch_[j - 1])) {
        std::swap(scratch_[j], scratch_[j - 1]);
        --j;
      }
    }
  }
  return truncated;
}

TxTraceRecorder::PathBreakdown TxTraceRecorder::BreakDown(
    const std::vector<TxTraceEvent>& chain, double t0, double t_end) const {
  PathBreakdown out;
  // Stage boundaries: b[0]=submit time .. b[6]=commit time; missing
  // transitions (truncated chains) collapse that stage's span to zero.
  double b[kNumCriticalStages + 1];
  bool found[kNumCriticalStages + 1] = {};
  b[0] = t0;
  found[0] = true;
  b[kNumCriticalStages] = t_end;

  double raft_propose = 0;
  bool have_propose = false;
  double last_endorse_t = -1, last_endorse_dur = 0;
  double last_validate_t = -1, last_validate_dur = 0;
  double service[kNumCriticalStages] = {};

  for (const TxTraceEvent& ev : chain) {
    switch (ev.stage) {
      case TxStage::kProposalDone:
        b[1] = ev.t;
        found[1] = true;
        service[0] = ev.dur;
        break;
      case TxStage::kEndorseDone:
        if (ev.t > last_endorse_t) {
          last_endorse_t = ev.t;
          last_endorse_dur = ev.dur;
        }
        break;
      case TxStage::kCollect:
        b[2] = ev.t;
        found[2] = true;
        break;
      case TxStage::kAssembleDone:
        b[3] = ev.t;
        found[3] = true;
        service[2] = ev.dur;
        break;
      case TxStage::kOrdererEnqueue:
        service[3] = ev.dur;
        break;
      case TxStage::kBlockCut:
        b[4] = ev.t;
        found[4] = true;
        break;
      case TxStage::kRaftPropose:
        raft_propose = ev.t;
        have_propose = true;
        break;
      case TxStage::kRaftCommit:
        b[5] = ev.t;
        found[5] = true;
        break;
      case TxStage::kValidateDone:
        if (ev.t > last_validate_t) {
          last_validate_t = ev.t;
          last_validate_dur = ev.dur;
        }
        break;
      default:
        break;
    }
  }
  service[1] = last_endorse_dur;
  service[5] = last_validate_dur;

  // Monotonic clamp: each boundary is at least the previous one (missing
  // boundaries inherit it) and at most the commit time, so spans are
  // non-negative and partition [t0, t_end] exactly.
  for (int i = 1; i <= kNumCriticalStages; ++i) {
    if (!found[i]) b[i] = b[i - 1];
    if (b[i] < b[i - 1]) b[i] = b[i - 1];
    if (b[i] > t_end) b[i] = t_end;
  }
  b[kNumCriticalStages] = std::max(t_end, b[kNumCriticalStages - 1]);

  for (int i = 0; i < kNumCriticalStages; ++i) {
    out.span[i] = b[i + 1] - b[i];
  }
  if (found[4] && found[5] && have_propose) {
    service[4] = std::max(0.0, b[5] - std::max(raft_propose, b[4]));
  }
  for (int i = 0; i < kNumCriticalStages; ++i) {
    out.service[i] = std::min(static_cast<double>(service[i]), out.span[i]);
    if (out.service[i] < 0) out.service[i] = 0;
    out.wait[i] = out.span[i] - out.service[i];
  }
  return out;
}

void TxTraceRecorder::RollWindow(double t) {
  if (window_open_ && t >= window_start_ + options_.window_s) {
    SealWindow(window_start_ + options_.window_s);
  }
  if (!window_open_) {
    window_start_ =
        std::floor(t / options_.window_s) * options_.window_s;
    window_open_ = true;
  }
}

void TxTraceRecorder::CommitTx(uint64_t tx_id, double client_timestamp,
                               uint32_t block_num, bool failed) {
  const double now = sim_->Now();
  RollWindow(now);

  TxTraceEvent ev;
  ev.tx_id = tx_id;
  ev.t = now;
  ev.block_seq = block_num;
  ev.stage = TxStage::kCommit;
  if (failed) ev.flags |= TxTraceEvent::kFailed;
  const uint32_t prev = tx_index_.Get(tx_id);
  const uint32_t tail = Append(ev, prev);
  tx_index_.Erase(tx_id);

  const bool truncated = ExtractChain(tail);
  if (truncated) ++summary_.truncated_chains;

  const double latency = std::max(0.0, now - client_timestamp);
  const PathBreakdown bd = BreakDown(scratch_, client_timestamp, now);
  for (int i = 0; i < kNumCriticalStages; ++i) {
    window_stages_[i].span_s += bd.span[i];
    window_stages_[i].service_s += bd.service[i];
    window_stages_[i].wait_s += bd.wait[i];
    ++window_stages_[i].count;
    summary_.stages[i].span_s += bd.span[i];
    summary_.stages[i].service_s += bd.service[i];
    summary_.stages[i].wait_s += bd.wait[i];
    ++summary_.stages[i].count;
  }
  ++window_committed_;
  ++summary_.committed;
  summary_.latency_total_s += latency;
  latencies_.emplace_back(latency, tx_id);

  // Retain the chain as an exemplar candidate while the window budget
  // lasts; the window maximum is always retained exactly.
  const bool retained =
      candidates_.size() < options_.window_chain_capacity &&
      arena_.size() + scratch_.size() <= options_.window_event_capacity;
  Candidate cand;
  cand.latency = latency;
  cand.tx_id = tx_id;
  cand.truncated = truncated || scratch_.empty() ||
                   scratch_.front().stage != TxStage::kSubmit;
  if (retained) {
    cand.offset = static_cast<uint32_t>(arena_.size());
    cand.len = static_cast<uint32_t>(scratch_.size());
    arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
    candidates_.push_back(cand);
  } else {
    ++window_dropped_;
  }
  if (window_committed_ == 1 || latency > max_candidate_.latency ||
      (latency == max_candidate_.latency &&
       tx_id < max_candidate_.tx_id)) {
    max_candidate_ = cand;
    max_in_arena_ = retained;
    if (!retained) {
      max_chain_.assign(scratch_.begin(), scratch_.end());
    }
  }
}

void TxTraceRecorder::AbortTx(uint64_t tx_id) {
  const double now = sim_->Now();
  RollWindow(now);

  TxTraceEvent ev;
  ev.tx_id = tx_id;
  ev.t = now;
  ev.stage = TxStage::kEarlyAbort;
  const uint32_t prev = tx_index_.Get(tx_id);
  const uint32_t tail = Append(ev, prev);
  tx_index_.Erase(tx_id);

  ++window_aborted_;
  ++summary_.aborted;
  if (abort_exemplars_.size() >= 2) return;

  const bool truncated = ExtractChain(tail);
  const double t0 = scratch_.empty() ? now : scratch_.front().t;
  abort_exemplars_.emplace_back();
  CopyExemplar(&abort_exemplars_.back(), scratch_, tx_id,
               std::max(0.0, now - t0), truncated);
  abort_exemplars_.back().label = "abort";
}

void TxTraceRecorder::CopyExemplar(TxTraceExemplar* out,
                                   const std::vector<TxTraceEvent>& ev,
                                   uint64_t tx_id, double latency,
                                   bool truncated) const {
  out->tx_id = tx_id;
  out->latency_s = latency;
  out->truncated = truncated;
  out->events = ev;
  const double t_end = ev.empty() ? 0 : ev.back().t;
  const double t0 = t_end - latency;
  const PathBreakdown bd = BreakDown(ev, t0, t_end);
  for (int i = 0; i < kNumCriticalStages; ++i) {
    out->stage_span_s[i] = bd.span[i];
    out->stage_service_s[i] = bd.service[i];
    out->stage_wait_s[i] = bd.wait[i];
  }
}

void TxTraceRecorder::SealWindow(double end_time) {
  if (!window_open_) return;

  TxTraceWindow w;
  w.start_s = window_start_;
  w.end_s = std::max(end_time, window_start_);
  w.committed = window_committed_;
  w.aborted = window_aborted_;
  w.dropped_chains = window_dropped_;
  for (int i = 0; i < kNumCriticalStages; ++i) w.stages[i] = window_stages_[i];

  if (!latencies_.empty()) {
    std::sort(latencies_.begin(), latencies_.end());
    const size_t n = latencies_.size();
    w.p50_s = latencies_[RankIndex(50.0, n)].first;
    w.p95_s = latencies_[RankIndex(95.0, n)].first;
    w.p99_s = latencies_[RankIndex(99.0, n)].first;
    w.max_s = latencies_[n - 1].first;

    std::sort(candidates_.begin(), candidates_.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.latency != b.latency) return a.latency < b.latency;
                return a.tx_id < b.tx_id;
              });

    auto select = [&](double latency, uint64_t tx_id,
                      const char* label) {
      // Prefer the exact transaction; otherwise the nearest retained
      // latency (ties toward the smaller latency, then tx id).
      const Candidate* best = nullptr;
      bool exact = false;
      for (const Candidate& c : candidates_) {
        if (c.tx_id == tx_id && c.latency == latency) {
          best = &c;
          exact = true;
          break;
        }
      }
      if (best == nullptr) {
        double best_dist = 0;
        for (const Candidate& c : candidates_) {
          const double dist = std::abs(c.latency - latency);
          if (best == nullptr || dist < best_dist) {
            best = &c;
            best_dist = dist;
          }
        }
      }
      if (best == nullptr && !max_in_arena_ && !max_chain_.empty()) {
        // Every candidate was dropped; fall back to the max chain.
        w.exemplars.emplace_back();
        CopyExemplar(&w.exemplars.back(), max_chain_, max_candidate_.tx_id,
                     max_candidate_.latency, max_candidate_.truncated);
        w.exemplars.back().label = label;
        w.exemplars.back().nearest = true;
        return;
      }
      if (best == nullptr) return;
      w.exemplars.emplace_back();
      TxTraceExemplar& ex = w.exemplars.back();
      const auto* base = arena_.data() + best->offset;
      std::vector<TxTraceEvent> chain(base, base + best->len);
      CopyExemplar(&ex, chain, best->tx_id, best->latency, best->truncated);
      ex.label = label;
      ex.nearest = !exact;
    };

    for (size_t q = 0; q < 3; ++q) {
      const auto& target = latencies_[RankIndex(kExemplarPercentiles[q], n)];
      select(target.first, target.second, kExemplarLabels[q]);
    }
    // The maximum is tracked exactly even when its chain fell outside the
    // arena budget.
    w.exemplars.emplace_back();
    TxTraceExemplar& mx = w.exemplars.back();
    if (max_in_arena_) {
      const auto* base = arena_.data() + max_candidate_.offset;
      std::vector<TxTraceEvent> chain(base, base + max_candidate_.len);
      CopyExemplar(&mx, chain, max_candidate_.tx_id, max_candidate_.latency,
                   max_candidate_.truncated);
    } else {
      CopyExemplar(&mx, max_chain_, max_candidate_.tx_id,
                   max_candidate_.latency, max_candidate_.truncated);
    }
    mx.label = "max";
  }

  w.abort_exemplars = std::move(abort_exemplars_);
  abort_exemplars_.clear();
  summary_.windows.push_back(std::move(w));

  // Recycle window state (capacity retained).
  window_open_ = false;
  window_committed_ = 0;
  window_aborted_ = 0;
  window_dropped_ = 0;
  for (auto& s : window_stages_) s = StagePathAgg{};
  latencies_.clear();
  arena_.clear();
  candidates_.clear();
  max_chain_.clear();
  max_candidate_ = Candidate{};
  max_in_arena_ = false;
}

void TxTraceRecorder::Finalize(double end_time) {
  if (finalized_) return;
  finalized_ = true;
  if (window_open_) SealWindow(std::max(end_time, window_start_));
}

// ---------------------------------------------------------------------------
// TxTraceSummary merge
// ---------------------------------------------------------------------------

int TxTraceSummary::DominantStage() const {
  int best = -1;
  double best_span = 0;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    if (stages[i].span_s > best_span) {
      best_span = stages[i].span_s;
      best = i;
    }
  }
  return best;
}

namespace {

/// Count-weighted nearest-rank estimate of percentile `p` over the two
/// windows' quantile summaries (each side contributes its p50/p95/p99/max
/// points weighted by the latency mass they summarize).
double MergedQuantile(const TxTraceWindow& a, const TxTraceWindow& b,
                      double p) {
  struct Point {
    double value;
    double weight;
  };
  Point points[8];
  int n = 0;
  auto add = [&](const TxTraceWindow& w) {
    const double c = static_cast<double>(w.committed);
    if (c <= 0) return;
    points[n++] = {w.p50_s, 0.50 * c};
    points[n++] = {w.p95_s, 0.45 * c};
    points[n++] = {w.p99_s, 0.04 * c};
    points[n++] = {w.max_s, 0.01 * c};
  };
  add(a);
  add(b);
  if (n == 0) return 0;
  for (int i = 1; i < n; ++i) {  // tiny fixed array: insertion sort
    Point p = points[i];
    int j = i;
    while (j > 0 && p.value < points[j - 1].value) {
      points[j] = points[j - 1];
      --j;
    }
    points[j] = p;
  }
  double total = 0;
  for (int i = 0; i < n; ++i) total += points[i].weight;
  const double target = p / 100.0 * total;
  double cum = 0;
  for (int i = 0; i < n; ++i) {
    cum += points[i].weight;
    if (cum >= target) return points[i].value;
  }
  return points[n - 1].value;
}

void MergeWindow(TxTraceWindow* into, const TxTraceWindow& other) {
  TxTraceWindow merged;
  merged.start_s = into->start_s;
  merged.end_s = std::max(into->end_s, other.end_s);
  merged.committed = into->committed + other.committed;
  merged.aborted = into->aborted + other.aborted;
  merged.dropped_chains = into->dropped_chains + other.dropped_chains;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    merged.stages[i] = into->stages[i];
    merged.stages[i].Merge(other.stages[i]);
  }
  merged.p50_s = MergedQuantile(*into, other, 50.0);
  merged.p95_s = MergedQuantile(*into, other, 95.0);
  merged.p99_s = MergedQuantile(*into, other, 99.0);
  merged.max_s = std::max(into->max_s, other.max_s);

  // Re-select exemplars from the union of both sides' retained chains:
  // nearest retained latency per percentile label; the max is exact.
  std::vector<const TxTraceExemplar*> pool;
  for (const auto& e : into->exemplars) pool.push_back(&e);
  for (const auto& e : other.exemplars) pool.push_back(&e);
  auto pick_nearest = [&](double target) -> const TxTraceExemplar* {
    const TxTraceExemplar* best = nullptr;
    double best_dist = 0;
    for (const TxTraceExemplar* e : pool) {
      const double dist = std::abs(e->latency_s - target);
      if (best == nullptr || dist < best_dist ||
          (dist == best_dist && e->tx_id < best->tx_id)) {
        best = e;
        best_dist = dist;
      }
    }
    return best;
  };
  const double targets[3] = {merged.p50_s, merged.p95_s, merged.p99_s};
  for (int q = 0; q < 3; ++q) {
    if (const TxTraceExemplar* e = pick_nearest(targets[q])) {
      merged.exemplars.push_back(*e);
      merged.exemplars.back().label = kExemplarLabels[q];
      merged.exemplars.back().nearest = true;
    }
  }
  const TxTraceExemplar* mx = nullptr;
  for (const TxTraceExemplar* e : pool) {
    if (mx == nullptr || e->latency_s > mx->latency_s ||
        (e->latency_s == mx->latency_s && e->tx_id < mx->tx_id)) {
      mx = e;
    }
  }
  if (mx != nullptr) {
    merged.exemplars.push_back(*mx);
    merged.exemplars.back().label = "max";
    merged.exemplars.back().nearest = false;
  }

  for (const auto& e : into->abort_exemplars) {
    if (merged.abort_exemplars.size() < 2) merged.abort_exemplars.push_back(e);
  }
  for (const auto& e : other.abort_exemplars) {
    if (merged.abort_exemplars.size() < 2) merged.abort_exemplars.push_back(e);
  }
  *into = std::move(merged);
}

}  // namespace

void TxTraceSummary::Merge(const TxTraceSummary& other) {
  committed += other.committed;
  aborted += other.aborted;
  events_appended += other.events_appended;
  events_evicted += other.events_evicted;
  truncated_chains += other.truncated_chains;
  latency_total_s += other.latency_total_s;
  for (int i = 0; i < kNumCriticalStages; ++i) {
    stages[i].Merge(other.stages[i]);
  }

  // Merge-join the window lists on window start time (both sorted).
  std::vector<TxTraceWindow> merged;
  merged.reserve(windows.size() + other.windows.size());
  size_t i = 0, j = 0;
  while (i < windows.size() || j < other.windows.size()) {
    if (j >= other.windows.size() ||
        (i < windows.size() &&
         windows[i].start_s < other.windows[j].start_s)) {
      merged.push_back(std::move(windows[i++]));
    } else if (i >= windows.size() ||
               other.windows[j].start_s < windows[i].start_s) {
      merged.push_back(other.windows[j++]);
    } else {
      merged.push_back(std::move(windows[i++]));
      MergeWindow(&merged.back(), other.windows[j++]);
    }
  }
  windows = std::move(merged);
}

}  // namespace blockoptr
