#ifndef BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_
#define BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/interner.h"

namespace blockoptr {

/// Incrementally maintained conflict graph over a sliding window of
/// transactions. Same edge semantics as `reorder::ConflictGraph`: an edge
/// i -> j exists when i *writes* a key that j *reads* (range results
/// included), i != j. Instead of rebuilding the flat sorted (key, tx)
/// arrays per batch, per-key reader/writer posting lists are updated as
/// each transaction arrives and trimmed as the oldest falls out of the
/// window — O(keys + touched postings) per add/evict rather than
/// O(window log window) per block.
///
/// Adjacency lists and postings are append-only sorted vectors, not
/// trees: node sequence numbers only grow, so every insertion lands at
/// the back, and the evicted node always holds the globally smallest
/// live seq, so every removal pops the front. That keeps the per-edge
/// cost at one vector append (no per-edge tree-node allocation), which
/// is what makes the graph cheap enough for the always-on streaming
/// profile.
///
/// Capacity-bounded: at most `max_nodes` live transactions; adding beyond
/// that evicts the oldest (FIFO). `Adjacency()` returns window-relative
/// indices directly comparable to a from-scratch `ConflictGraph` built
/// over the same transactions in arrival order.
class WindowedConflictGraph {
 public:
  explicit WindowedConflictGraph(size_t max_nodes);

  /// Adds one transaction with its sorted-unique RS/WS id sets (a
  /// MetricsRow's `read_ids`/`write_ids`). Returns the node's stable
  /// sequence number. Evicts the oldest node first when the window is
  /// full.
  uint64_t AddNode(const std::vector<KeyId>& read_ids,
                   const std::vector<KeyId>& write_ids);

  /// Removes the oldest live node and every edge incident to it.
  void EvictOldest();

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  size_t max_nodes() const { return max_nodes_; }
  /// Directed edges currently live.
  size_t EdgeCount() const { return edge_count_; }
  /// Sequence number of the oldest live node (0 when empty).
  uint64_t OldestSeq() const { return nodes_.empty() ? 0 : nodes_.front().seq; }
  uint64_t NextSeq() const { return next_seq_; }

  /// Window-relative adjacency (index 0 = oldest live node), each list
  /// sorted ascending — field-for-field comparable to
  /// `ConflictGraph::InvalidatedBy` over the same transactions.
  std::vector<std::vector<int>> Adjacency() const;

 private:
  struct Node {
    uint64_t seq = 0;
    // Kept so eviction knows which postings to trim.
    std::vector<KeyId> read_ids;
    std::vector<KeyId> write_ids;
    // Sorted ascending: edges to newer nodes are appended as they
    // arrive, and eviction only ever removes the minimum seq.
    std::vector<uint64_t> out;  // this node's writes invalidate these readers
    std::vector<uint64_t> in;   // these writers invalidate this node's reads
  };

  /// Per-key posting list of live node seqs, ascending. A flat vector
  /// with a consumed-prefix cursor instead of a deque: push_back on add,
  /// head advance on evict, periodic compaction to bound memory.
  struct Posting {
    std::vector<uint64_t> seqs;
    size_t head = 0;

    bool empty() const { return head == seqs.size(); }
    uint64_t front() const { return seqs[head]; }
    void push_back(uint64_t seq) { seqs.push_back(seq); }
    void pop_front() {
      ++head;
      if (head >= 64 && head * 2 >= seqs.size()) {
        seqs.erase(seqs.begin(), seqs.begin() + static_cast<long>(head));
        head = 0;
      }
    }
  };

  Node& NodeForSeq(uint64_t seq) {
    // Seqs are consecutive across the deque (evictions only pop the
    // front), so the offset from the front seq is the index.
    return nodes_[static_cast<size_t>(seq - nodes_.front().seq)];
  }

  /// Removes `seq` from a sorted edge list. The caller only ever removes
  /// the oldest live node, so the hit is at the front.
  static void EraseSeq(std::vector<uint64_t>& sorted, uint64_t seq);

  /// Grows `side` to cover `id` and returns its posting. Key ids are
  /// dense (interned sequentially from zero), so direct indexing replaces
  /// hashing on the two lookups every transaction key pays; an id never
  /// seen by this graph costs one empty Posting slot.
  static Posting& PostingFor(std::vector<Posting>& side, KeyId id) {
    if (id >= side.size()) side.resize(static_cast<size_t>(id) + 1);
    return side[id];
  }

  size_t max_nodes_;
  uint64_t next_seq_ = 0;
  std::deque<Node> nodes_;
  std::vector<Posting> readers_;  // indexed by KeyId
  std::vector<Posting> writers_;  // indexed by KeyId
  size_t edge_count_ = 0;
  // AddNode scratch (member to avoid per-call allocation).
  std::vector<uint64_t> scratch_;
  // Evicted nodes parked for reuse so a steady-state window recycles
  // its id/edge vector buffers instead of reallocating them per node.
  std::vector<Node> pool_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_
