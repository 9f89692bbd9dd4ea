#include "blockopt/stream/conflict_window.h"

namespace blockoptr {

WindowedConflictGraph::WindowedConflictGraph(size_t max_nodes)
    : max_nodes_(max_nodes == 0 ? 1 : max_nodes) {}

uint64_t WindowedConflictGraph::AddNode(const std::vector<KeyId>& read_ids,
                                        const std::vector<KeyId>& write_ids) {
  if (nodes_.size() >= max_nodes_) EvictOldest();

  // Existing writers of keys this node reads invalidate it (w -> seq), and
  // its writes invalidate existing readers (seq -> r). Either edge joins an
  // older node to this one, so it is counted on the older node; `stamp`
  // marks the older nodes already linked in this direction. The node is
  // not yet in any posting, so no self-edge can form.
  const uint64_t seq = next_seq_++;
  auto link_older = [&](const std::vector<Posting>& side,
                        const std::vector<KeyId>& ids,
                        uint64_t Node::*stamp) {
    for (KeyId id : ids) {
      if (id >= side.size()) continue;
      const Posting& p = side[id];
      for (size_t i = p.head; i < p.seqs.size(); ++i) {
        Node& older = NodeForSeq(p.seqs[i]);
        if (older.*stamp == seq) continue;
        older.*stamp = seq;
        ++older.newer_edges;
        ++edge_count_;
      }
    }
  };
  link_older(writers_, read_ids, &Node::out_stamp);
  link_older(readers_, write_ids, &Node::in_stamp);

  Node node;
  if (!pool_.empty()) {
    node = std::move(pool_.back());
    pool_.pop_back();
  }
  node.seq = seq;
  node.read_ids = read_ids;
  node.write_ids = write_ids;
  node.newer_edges = 0;
  for (KeyId id : node.read_ids) PostingFor(readers_, id).push_back(seq);
  for (KeyId id : node.write_ids) PostingFor(writers_, id).push_back(seq);
  nodes_.push_back(std::move(node));
  return seq;
}

void WindowedConflictGraph::EvictOldest() {
  if (nodes_.empty()) return;
  Node& victim = nodes_.front();
  const uint64_t seq = victim.seq;

  // The oldest live node has the globally smallest seq, so its posting
  // entries sit at the front of each ascending list.
  for (KeyId id : victim.read_ids) {
    if (id >= readers_.size()) continue;
    Posting& p = readers_[id];
    if (!p.empty() && p.front() == seq) p.pop_front();
  }
  for (KeyId id : victim.write_ids) {
    if (id >= writers_.size()) continue;
    Posting& p = writers_[id];
    if (!p.empty() && p.front() == seq) p.pop_front();
  }

  // Every live edge of the oldest node joins it to a newer one.
  edge_count_ -= victim.newer_edges;
  pool_.push_back(std::move(victim));
  nodes_.pop_front();
}

}  // namespace blockoptr
