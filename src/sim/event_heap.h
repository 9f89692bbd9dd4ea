#ifndef BLOCKOPTR_SIM_EVENT_HEAP_H_
#define BLOCKOPTR_SIM_EVENT_HEAP_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace blockoptr {

/// An implicit 4-ary min-heap specialized for discrete-event handles —
/// any type with `time` and `seq` members, ordered by (time, seq)
/// ascending. This is the exact ordering contract of the simulator's old
/// `std::priority_queue<Event>`: earlier time first, and among equal
/// times, insertion order (seq) first.
///
/// Why 4-ary instead of binary:
///   - Sift-down, the pop hot path, does fewer levels (log4 vs log2) and
///     the four children of a node are contiguous — one cache line for
///     16-to-24-byte handles — so the extra comparisons per level are
///     cheaper than the extra levels.
///   - Sift-up (the push path) is strictly shallower.
/// Unlike `std::priority_queue`, `PopMin()` *moves* the minimum out
/// instead of forcing the top()-copy-then-pop dance.
template <typename Handle>
class FourAryEventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// The (time, seq)-minimum handle. Undefined when empty.
  const Handle& Min() const { return heap_.front(); }

  void Push(Handle h) {
    size_t i = heap_.size();
    heap_.push_back(std::move(h));
    // Sift up: move the hole toward the root until the parent is not
    // later than the new handle.
    while (i > 0) {
      size_t parent = (i - 1) / 4;
      if (!Before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  /// Removes and returns the minimum, moved out (never copied).
  Handle PopMin() {
    Handle min = std::move(heap_.front());
    if (heap_.size() == 1) {
      heap_.pop_back();
      return min;
    }
    Handle last = std::move(heap_.back());
    heap_.pop_back();
    {
      // Sift down: walk the hole toward the leaves, pulling up the
      // earliest of each node's (up to four, contiguous) children.
      size_t i = 0;
      const size_t n = heap_.size();
      for (;;) {
        size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        size_t best = first_child;
        size_t end = first_child + 4 < n ? first_child + 4 : n;
        for (size_t c = first_child + 1; c < end; ++c) {
          if (Before(heap_[c], heap_[best])) best = c;
        }
        if (!Before(heap_[best], last)) break;
        heap_[i] = std::move(heap_[best]);
        i = best;
      }
      heap_[i] = std::move(last);
    }
    return min;
  }

 private:
  static bool Before(const Handle& a, const Handle& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Handle> heap_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_SIM_EVENT_HEAP_H_
