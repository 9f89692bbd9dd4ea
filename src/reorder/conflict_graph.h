#ifndef BLOCKOPTR_REORDER_CONFLICT_GRAPH_H_
#define BLOCKOPTR_REORDER_CONFLICT_GRAPH_H_

#include <cstddef>
#include <vector>

#include "ledger/rwset.h"

namespace blockoptr {

/// The intra-batch transaction conflict graph used by the reordering
/// schedulers (Fabric++ [67], FabricSharp [65]).
///
/// There is an edge i -> j when transaction i *writes* a key that
/// transaction j *reads* (including range-query results). Under Fabric's
/// serial in-block validation, if i precedes j in the block, j's read is
/// stale and j aborts; placing j before i saves it. A cycle therefore
/// means not every transaction can be saved — some must be aborted.
class ConflictGraph {
 public:
  explicit ConflictGraph(const std::vector<const ReadWriteSet*>& rwsets);

  size_t size() const { return adj_.size(); }

  /// Successors of i: transactions whose reads are invalidated by i.
  const std::vector<int>& InvalidatedBy(int i) const {
    return adj_[static_cast<size_t>(i)];
  }

  /// Strongly connected components (Tarjan), in reverse topological order.
  std::vector<std::vector<int>> StronglyConnectedComponents() const;

  /// Greedily picks transactions to abort until the graph restricted to
  /// the survivors is acyclic (Fabric++'s cycle-elimination heuristic):
  /// each round takes the first SCC with more than one member in Tarjan's
  /// emission order and drops its member with the highest conflict
  /// degree. Returns the aborted indices, ascending.
  std::vector<int> BreakCycles() const;

  /// Topological order of the *precedence* DAG over `alive` transactions:
  /// for every conflict edge i -> j (i invalidates j), j is placed before
  /// i. Must be called after cycles are broken. Ties follow the original
  /// arrival order (stable). Returns the new order of alive indices.
  std::vector<int> SerializableOrder(const std::vector<bool>& alive) const;

 private:
  std::vector<std::vector<int>> adj_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_REORDER_CONFLICT_GRAPH_H_
