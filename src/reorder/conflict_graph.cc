#include "reorder/conflict_graph.h"

#include <algorithm>
#include <utility>

#include "common/interner.h"

namespace blockoptr {

ConflictGraph::ConflictGraph(const std::vector<const ReadWriteSet*>& rwsets) {
  const size_t n = rwsets.size();
  adj_.assign(n, {});
  removed_.assign(n, false);

  // Readers and writers as two flat sorted (key, tx) arrays over the
  // items' interned ids, intersected with one sequential co-walk: no
  // string-keyed map, no per-key vectors, no per-writer binary searches.
  // A key a transaction touches twice (a point read that is also a range
  // result, two writes) yields duplicate pairs; the final per-list sort +
  // unique drops the duplicate edges, so each adjacency list depends only
  // on which key *sets* intersect. The arrays are reserved exactly, and a
  // first co-walk pass counts each writer's matches so every adjacency
  // list is allocated exactly once.
  std::vector<std::pair<KeyId, int>> readers;
  std::vector<std::pair<KeyId, int>> writers;
  size_t total_reads = 0;
  size_t total_writes = 0;
  for (const ReadWriteSet* rw : rwsets) {
    total_reads += rw->reads.size();
    for (const RangeQueryInfo& rq : rw->range_queries) {
      total_reads += rq.results.size();
    }
    total_writes += rw->writes.size();
  }
  readers.reserve(total_reads);
  writers.reserve(total_writes);
  for (size_t j = 0; j < n; ++j) {
    const ReadWriteSet& rw = *rwsets[j];
    const int tx = static_cast<int>(j);
    for (const ReadItem& r : rw.reads) readers.emplace_back(r.id(), tx);
    for (const RangeQueryInfo& rq : rw.range_queries) {
      for (const ReadItem& r : rq.results) readers.emplace_back(r.id(), tx);
    }
    for (const WriteItem& w : rw.writes) writers.emplace_back(w.id(), tx);
  }
  std::sort(readers.begin(), readers.end());
  std::sort(writers.begin(), writers.end());

  // Both passes walk the same per-key (writer run × reader run) blocks.
  auto for_each_conflict_block = [&](auto&& block) {
    size_t r = 0;
    size_t w = 0;
    while (r < readers.size() && w < writers.size()) {
      if (readers[r].first < writers[w].first) {
        ++r;
      } else if (writers[w].first < readers[r].first) {
        ++w;
      } else {
        const KeyId key = readers[r].first;
        size_t r_end = r;
        while (r_end < readers.size() && readers[r_end].first == key) ++r_end;
        size_t w_end = w;
        while (w_end < writers.size() && writers[w_end].first == key) ++w_end;
        block(r, r_end, w, w_end);
        r = r_end;
        w = w_end;
      }
    }
  };

  std::vector<uint32_t> match_count(n, 0);
  for_each_conflict_block([&](size_t r0, size_t r1, size_t w0, size_t w1) {
    const uint32_t run = static_cast<uint32_t>(r1 - r0);
    for (size_t w = w0; w < w1; ++w) {
      match_count[static_cast<size_t>(writers[w].second)] += run;
    }
  });
  for (size_t i = 0; i < n; ++i) {
    adj_[i].reserve(match_count[i]);
  }
  for_each_conflict_block([&](size_t r0, size_t r1, size_t w0, size_t w1) {
    for (size_t w = w0; w < w1; ++w) {
      const int i = writers[w].second;
      for (size_t r = r0; r < r1; ++r) {
        const int j = readers[r].second;
        if (j != i) adj_[static_cast<size_t>(i)].push_back(j);
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    std::sort(adj_[i].begin(), adj_[i].end());
    adj_[i].erase(std::unique(adj_[i].begin(), adj_[i].end()), adj_[i].end());
  }
}

std::vector<std::vector<int>> ConflictGraph::StronglyConnectedComponents()
    const {
  // Iterative Tarjan.
  const int n = static_cast<int>(adj_.size());
  std::vector<int> index(static_cast<size_t>(n), -1);
  std::vector<int> lowlink(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next_index = 0;

  struct Frame {
    int v;
    size_t child;
  };
  for (int start = 0; start < n; ++start) {
    if (index[static_cast<size_t>(start)] != -1 ||
        removed_[static_cast<size_t>(start)]) {
      continue;
    }
    std::vector<Frame> frames{{start, 0}};
    index[static_cast<size_t>(start)] = lowlink[static_cast<size_t>(start)] =
        next_index++;
    stack.push_back(start);
    on_stack[static_cast<size_t>(start)] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& succ = adj_[static_cast<size_t>(f.v)];
      bool descended = false;
      while (f.child < succ.size()) {
        int w = succ[f.child++];
        if (removed_[static_cast<size_t>(w)]) continue;
        if (index[static_cast<size_t>(w)] == -1) {
          index[static_cast<size_t>(w)] = lowlink[static_cast<size_t>(w)] =
              next_index++;
          stack.push_back(w);
          on_stack[static_cast<size_t>(w)] = true;
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[static_cast<size_t>(w)]) {
          lowlink[static_cast<size_t>(f.v)] =
              std::min(lowlink[static_cast<size_t>(f.v)],
                       index[static_cast<size_t>(w)]);
        }
      }
      if (descended) continue;
      // Done with f.v.
      if (lowlink[static_cast<size_t>(f.v)] ==
          index[static_cast<size_t>(f.v)]) {
        std::vector<int> scc;
        for (;;) {
          int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = false;
          scc.push_back(w);
          if (w == f.v) break;
        }
        sccs.push_back(std::move(scc));
      }
      int v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        int parent = frames.back().v;
        lowlink[static_cast<size_t>(parent)] =
            std::min(lowlink[static_cast<size_t>(parent)],
                     lowlink[static_cast<size_t>(v)]);
      }
    }
  }
  return sccs;
}

std::vector<int> ConflictGraph::BreakCycles() {
  std::vector<int> aborted;
  for (;;) {
    auto sccs = StronglyConnectedComponents();
    // Also handle self-loops (a tx cannot invalidate itself in Fabric —
    // reads are taken before writes — so adj_ never has self-edges; only
    // multi-node SCCs matter).
    std::vector<int>* worst_scc = nullptr;
    for (auto& scc : sccs) {
      if (scc.size() > 1) {
        worst_scc = &scc;
        break;
      }
    }
    if (worst_scc == nullptr) break;
    // Drop the member with the highest degree inside the SCC.
    int victim = (*worst_scc)[0];
    size_t best_degree = 0;
    for (int v : *worst_scc) {
      size_t degree = 0;
      for (int w : adj_[static_cast<size_t>(v)]) {
        if (!removed_[static_cast<size_t>(w)]) ++degree;
      }
      for (int u : *worst_scc) {
        if (u == v || removed_[static_cast<size_t>(u)]) continue;
        if (std::binary_search(adj_[static_cast<size_t>(u)].begin(),
                               adj_[static_cast<size_t>(u)].end(), v)) {
          ++degree;
        }
      }
      if (degree > best_degree) {
        best_degree = degree;
        victim = v;
      }
    }
    removed_[static_cast<size_t>(victim)] = true;
    aborted.push_back(victim);
  }
  std::sort(aborted.begin(), aborted.end());
  return aborted;
}

std::vector<int> ConflictGraph::SerializableOrder(
    const std::vector<bool>& alive) const {
  const int n = static_cast<int>(adj_.size());
  // Precedence edge j -> i for every conflict edge i -> j (the reader must
  // come first). Kahn's algorithm with original-order tie-breaking.
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    if (!alive[static_cast<size_t>(i)]) continue;
    for (int j : adj_[static_cast<size_t>(i)]) {
      if (!alive[static_cast<size_t>(j)]) continue;
      succ[static_cast<size_t>(j)].push_back(i);
      ++indegree[static_cast<size_t>(i)];
    }
  }
  // Min-heap over available nodes keyed by original index keeps ties in
  // arrival order.
  std::vector<int> available;
  for (int i = 0; i < n; ++i) {
    if (alive[static_cast<size_t>(i)] && indegree[static_cast<size_t>(i)] == 0) {
      available.push_back(i);
    }
  }
  std::make_heap(available.begin(), available.end(), std::greater<>());
  std::vector<int> order;
  while (!available.empty()) {
    std::pop_heap(available.begin(), available.end(), std::greater<>());
    int v = available.back();
    available.pop_back();
    order.push_back(v);
    for (int w : succ[static_cast<size_t>(v)]) {
      if (--indegree[static_cast<size_t>(w)] == 0) {
        available.push_back(w);
        std::push_heap(available.begin(), available.end(), std::greater<>());
      }
    }
  }
  return order;
}

}  // namespace blockoptr
