#include "reorder/conflict_graph.h"

#include <algorithm>
#include <utility>

#include "common/interner.h"

namespace blockoptr {

ConflictGraph::ConflictGraph(const std::vector<const ReadWriteSet*>& rwsets) {
  const size_t n = rwsets.size();
  adj_.assign(n, {});

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

namespace {

/// Working state of Tarjan's algorithm, kept by the caller so that
/// repeated passes over one graph allocate only on the first.
struct TarjanScratch {
  struct Visit {
    int index = -1;  // discovery index; -1 = not yet visited
    int lowlink = 0;
    bool on_stack = false;
  };
  std::vector<Visit> visit;
  std::vector<int> stack;
  std::vector<std::pair<int, size_t>> frames;  // (node, next successor)
  std::vector<int> scc;                        // the SCC last emitted
};

/// Iterative Tarjan over the nodes not `removed`, rooted at each unvisited
/// node in index order. Hands each SCC, members in pop order, to
/// `stop(scc)` in emission (reverse topological) order, and returns true
/// as soon as `stop` does; the stopping SCC stays in `s.scc`.
template <typename Stop>
bool Tarjan(const std::vector<std::vector<int>>& adj,
            const std::vector<bool>& removed, TarjanScratch& s, Stop&& stop) {
  const size_t n = adj.size();
  s.visit.assign(n, TarjanScratch::Visit{});
  s.stack.clear();
  s.frames.clear();
  s.stack.reserve(n);
  s.frames.reserve(n);
  s.scc.reserve(n);
  int next_index = 0;
  auto enter = [&](int v) {
    s.visit[static_cast<size_t>(v)] = {next_index, next_index, true};
    ++next_index;
    s.stack.push_back(v);
    s.frames.emplace_back(v, 0);
  };
  for (size_t start = 0; start < n; ++start) {
    if (s.visit[start].index != -1 || removed[start]) continue;
    enter(static_cast<int>(start));
    while (!s.frames.empty()) {
      auto& [v, child] = s.frames.back();
      TarjanScratch::Visit& fv = s.visit[static_cast<size_t>(v)];
      const std::vector<int>& succ = adj[static_cast<size_t>(v)];
      bool descended = false;
      while (child < succ.size()) {
        const int w = succ[child++];
        if (removed[static_cast<size_t>(w)]) continue;
        const TarjanScratch::Visit& wv = s.visit[static_cast<size_t>(w)];
        if (wv.index == -1) {
          enter(w);
          descended = true;
          break;
        }
        if (wv.on_stack) fv.lowlink = std::min(fv.lowlink, wv.index);
      }
      if (descended) continue;
      // Done with v.
      const int done = v;
      const int lowlink = fv.lowlink;
      if (lowlink == fv.index) {
        s.scc.clear();
        for (;;) {
          const int w = s.stack.back();
          s.stack.pop_back();
          s.visit[static_cast<size_t>(w)].on_stack = false;
          s.scc.push_back(w);
          if (w == done) break;
        }
        if (stop(s.scc)) return true;
      }
      s.frames.pop_back();
      if (!s.frames.empty()) {
        const int parent = s.frames.back().first;
        int& parent_lowlink = s.visit[static_cast<size_t>(parent)].lowlink;
        parent_lowlink = std::min(parent_lowlink, lowlink);
      }
    }
  }
  return false;
}

}  // namespace

std::vector<std::vector<int>> ConflictGraph::StronglyConnectedComponents()
    const {
  TarjanScratch scratch;
  const std::vector<bool> none_removed(adj_.size(), false);
  std::vector<std::vector<int>> sccs;
  Tarjan(adj_, none_removed, scratch, [&sccs](const std::vector<int>& scc) {
    sccs.push_back(scc);
    return false;
  });
  return sccs;
}

std::vector<int> ConflictGraph::BreakCycles() const {
  // Each round needs only the first SCC with more than one member (adj_
  // has no self-edges, so a single node is acyclic), so Tarjan stops
  // there, and every round reuses the first round's scratch.
  TarjanScratch scratch;
  std::vector<bool> removed(adj_.size(), false);
  size_t victims = 0;
  // Degree of each member of the round's SCC; other entries are scratch.
  std::vector<size_t> degree;
  while (Tarjan(adj_, removed, scratch, [](const std::vector<int>& scc) {
    return scc.size() > 1;
  })) {
    const std::vector<int>& cycle = scratch.scc;
    // Drop the member with the highest degree: its edges to survivors
    // plus the edges from other members (the first member on a tie).
    if (degree.empty()) degree.resize(adj_.size());
    for (int v : cycle) degree[static_cast<size_t>(v)] = 0;
    for (int v : cycle) {
      for (int w : adj_[static_cast<size_t>(v)]) {
        if (removed[static_cast<size_t>(w)]) continue;
        ++degree[static_cast<size_t>(v)];
        ++degree[static_cast<size_t>(w)];  // read only if w is a member
      }
    }
    int victim = cycle[0];
    size_t best_degree = 0;
    for (int v : cycle) {
      if (degree[static_cast<size_t>(v)] > best_degree) {
        best_degree = degree[static_cast<size_t>(v)];
        victim = v;
      }
    }
    removed[static_cast<size_t>(victim)] = true;
    ++victims;
  }
  std::vector<int> aborted;
  aborted.reserve(victims);
  for (size_t i = 0; i < removed.size(); ++i) {
    if (removed[i]) aborted.push_back(static_cast<int>(i));
  }
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
