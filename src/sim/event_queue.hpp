// Reusable discrete-event core: a binary min-heap of (time, key, payload)
// entries over a contiguous vector. Ordering is strictly (time, then key) —
// callers encode their tie-break discipline in the 64-bit key (the
// std::function EventLoop uses a global FIFO sequence; the ShardedEventLoop packs an
// (actor, per-actor sequence) pair so simultaneous events order the same
// way at every shard count). The payload is generic: EventLoop stores a
// std::function, the sharded loop a trivially-copyable pooled event, which
// is what keeps the fleet simulator's hot path free of per-event heap
// allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pqtls::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time;
    std::uint64_t key;
    Payload payload;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

  void push(double time, std::uint64_t key, Payload payload) {
    heap_.push_back(Entry{time, key, std::move(payload)});
    sift_up(heap_.size() - 1);
  }

  /// Earliest entry; undefined when empty.
  const Entry& top() const { return heap_.front(); }

  Entry pop() {
    Entry out = std::move(heap_.front());
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return out;
  }

 private:
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t left = 2 * i + 1, best = i;
      if (left < n && before(heap_[left], heap_[best])) best = left;
      if (left + 1 < n && before(heap_[left + 1], heap_[best]))
        best = left + 1;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Entry> heap_;
};

}  // namespace pqtls::sim
