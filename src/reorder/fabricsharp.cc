#include "reorder/fabricsharp.h"

#include "reorder/conflict_graph.h"

namespace blockoptr {

bool FabricSharpReorderer::ReadsFreshAgainstShadow(
    const ReadWriteSet& rwset) const {
  auto check = [&](const ReadItem& r) {
    auto it = shadow_.find(r.key);
    if (it == shadow_.end()) return true;  // untouched by ordered blocks
    if (!it->second.has_value()) {
      // Key deleted by an ordered transaction; a read of "absent" is fine.
      return !r.version.has_value();
    }
    return r.version.has_value() && *r.version == *it->second;
  };
  for (const auto& r : rwset.reads) {
    if (!check(r)) return false;
  }
  for (const auto& rq : rwset.range_queries) {
    for (const auto& r : rq.results) {
      if (!check(r)) return false;
    }
    // A write into the queried range by an ordered tx that the endorser
    // did not see is a phantom; detect inserts via the shadow keys in
    // [start_key, end_key), an empty end_key reaching the last key.
    if (!rq.end_key.empty() && rq.end_key <= rq.start_key) continue;
    const auto last = rq.end_key.empty() ? shadow_.end()
                                         : shadow_.lower_bound(rq.end_key);
    for (auto it = shadow_.lower_bound(rq.start_key); it != last; ++it) {
      if (!it->second.has_value()) continue;  // a delete inserts nothing
      bool seen = false;
      for (const auto& r : rq.results) {
        if (r.key == it->first) {
          seen = true;
          break;
        }
      }
      if (!seen) return false;  // phantom insert
    }
  }
  return true;
}

void FabricSharpReorderer::ProcessBatch(std::vector<Transaction>& batch) {
  const uint64_t block_num = next_block_num_++;
  if (batch.empty()) return;

  // Pass 1: abort transactions already doomed by earlier ordered blocks.
  std::vector<bool> doomed(batch.size(), false);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!ReadsFreshAgainstShadow(batch[i].rwset)) {
      doomed[i] = true;
      batch[i].pre_aborted = true;
      batch[i].status = TxStatus::kMvccReadConflict;
      ++cross_block_aborts_;
    }
  }

  // Pass 2: serialize the survivors within the block (conflict graph over
  // the survivors only).
  std::vector<const ReadWriteSet*> rwsets;
  std::vector<size_t> survivor_index;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!doomed[i]) {
      rwsets.push_back(&batch[i].rwset);
      survivor_index.push_back(i);
    }
  }

  std::vector<Transaction> out;
  out.reserve(batch.size());
  if (!rwsets.empty()) {
    ConflictGraph graph(rwsets);
    std::vector<int> aborted = graph.BreakCycles();
    std::vector<bool> alive(rwsets.size(), true);
    for (int a : aborted) {
      size_t orig = survivor_index[static_cast<size_t>(a)];
      alive[static_cast<size_t>(a)] = false;
      batch[orig].pre_aborted = true;
      batch[orig].status = TxStatus::kMvccReadConflict;
      ++intra_block_aborts_;
    }
    std::vector<int> order = graph.SerializableOrder(alive);
    for (int i : order) {
      out.push_back(std::move(batch[survivor_index[static_cast<size_t>(i)]]));
    }
  }

  // Update the shadow with the survivors' writes at their final positions.
  for (size_t pos = 0; pos < out.size(); ++pos) {
    for (const auto& w : out[pos].rwset.writes) {
      if (w.is_delete) {
        shadow_[w.key] = std::nullopt;
      } else {
        shadow_[w.key] = Version{block_num, static_cast<uint32_t>(pos)};
      }
    }
  }

  // Aborted transactions are appended (recorded invalid in the block).
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].pre_aborted) out.push_back(std::move(batch[i]));
  }
  batch = std::move(out);
}

}  // namespace blockoptr
