#ifndef BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_
#define BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/interner.h"

namespace blockoptr {

/// Edge count of the conflict graph over a sliding window of
/// transactions. Same edge semantics as `reorder::ConflictGraph`: an edge
/// i -> j exists when i *writes* a key that j *reads* (range results
/// included), i != j. Per-key reader/writer posting lists are updated as
/// each transaction arrives and trimmed as the oldest falls out of the
/// window — O(keys + touched postings) per add/evict rather than
/// O(window log window) per block.
///
/// The edges themselves are not kept, only counted. Every edge joins a
/// node to a newer one, and eviction always removes the oldest node, so
/// each node counts its live edges to newer nodes: an add bumps the count
/// of each older neighbour, once per direction (a per-node stamp, not a
/// sort + unique, drops a neighbour reached through a second key), and an
/// eviction subtracts the evicted node's count.
///
/// Postings are append-only sorted vectors, not trees: node sequence
/// numbers only grow, so every insertion lands at the back, and the
/// evicted node always holds the globally smallest live seq, so every
/// removal pops the front.
///
/// Capacity-bounded: at most `max_nodes` live transactions; adding beyond
/// that evicts the oldest (FIFO).
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
  /// Directed edges currently live: the total adjacency size of a
  /// `ConflictGraph` over the live transactions in arrival order.
  size_t EdgeCount() const { return edge_count_; }
  /// Sequence number of the oldest live node (0 when empty).
  uint64_t OldestSeq() const { return nodes_.empty() ? 0 : nodes_.front().seq; }
  uint64_t NextSeq() const { return next_seq_; }

 private:
  struct Node {
    uint64_t seq = 0;
    // Kept so eviction knows which postings to trim.
    std::vector<KeyId> read_ids;
    std::vector<KeyId> write_ids;
    // Live edges between this node and newer ones, either direction.
    size_t newer_edges = 0;
    // Seq of the last added node that this node's writes invalidate
    // (out_stamp), or whose writes invalidate this node (in_stamp). Both
    // only ever hold the seq of an earlier add, never the current one's,
    // so a recycled node needs no reset.
    uint64_t out_stamp = 0;
    uint64_t in_stamp = 0;
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
  // Evicted nodes parked for reuse so a steady-state window recycles
  // its id vector buffers instead of reallocating them per node.
  std::vector<Node> pool_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_BLOCKOPT_STREAM_CONFLICT_WINDOW_H_
