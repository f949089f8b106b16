// Internal machinery shared by the Karmarkar-Karp family (RCKK, forward KK,
// CKK): partitions carrying per-position request sets, kept sorted by
// leading value, and the flat single-pass kernel RCKK and forward KK run
// on.  CKK's DFS copies its partition list at every branch, so it keeps
// the Partition form, which also stays the flat kernel's executable
// specification.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "nfv/scheduling/problem.h"

namespace nfv::sched::detail {

/// A partition in the sense of Algorithm 2: m position values (sorted
/// descending) and, per position, the set of request indices whose rates
/// sum to that value.
struct Partition {
  std::vector<double> values;                        // size m, descending
  std::vector<std::vector<std::uint32_t>> sets;      // size m

  /// Leading (largest) value — the sort key of the Partition_list.
  [[nodiscard]] double head() const { return values.front(); }
};

/// Builds the initial Partition_list: one partition (λ_r/P_r, 0, ..., 0)
/// per request, sorted descending by effective rate (line 1 of Algorithm 2;
/// with uniform P this is the paper's λ_r ordering).
[[nodiscard]] inline std::vector<Partition> initial_partitions(
    const SchedulingProblem& problem) {
  const std::uint32_t m = problem.instance_count;
  std::vector<std::uint32_t> order(problem.request_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return problem.effective_rate(a) >
                            problem.effective_rate(b);
                   });
  std::vector<Partition> list;
  list.reserve(order.size());
  for (const std::uint32_t r : order) {
    Partition p;
    p.values.assign(m, 0.0);
    p.sets.resize(m);
    p.values[0] = problem.effective_rate(r);
    p.sets[0].push_back(r);
    list.push_back(std::move(p));
  }
  return list;
}

/// Combines partitions a and b position-wise: position i of the result is
/// a_i + b_{perm(i)} (sets merged accordingly), then re-sorted descending
/// and normalized by subtracting the last value (lines 3-5).  `perm(i)`
/// = m-1-i for the paper's reverse combine; the identity for forward KK.
template <typename Perm>
[[nodiscard]] Partition combine(const Partition& a, const Partition& b,
                                Perm perm) {
  const std::size_t m = a.values.size();
  Partition merged;
  merged.values.resize(m);
  merged.sets.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = perm(i);
    merged.values[i] = a.values[i] + b.values[j];
    merged.sets[i] = a.sets[i];
    merged.sets[i].insert(merged.sets[i].end(), b.sets[j].begin(),
                          b.sets[j].end());
  }
  // Re-sort positions by value descending, keeping sets attached.
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return merged.values[x] > merged.values[y];
  });
  Partition out;
  out.values.resize(m);
  out.sets.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.values[i] = merged.values[order[i]];
    out.sets[i] = std::move(merged.sets[order[i]]);
  }
  // Normalize: subtract the smallest value from every position.  The
  // offsets discarded here are equal across positions, so the *relative*
  // balance — all any later combine needs — is preserved.
  const double base = out.values.back();
  for (double& v : out.values) v -= base;
  return out;
}

[[nodiscard]] inline Partition combine_reverse(const Partition& a,
                                               const Partition& b) {
  const std::size_t m = a.values.size();
  return combine(a, b, [m](std::size_t i) { return m - 1 - i; });
}

[[nodiscard]] inline Partition combine_forward(const Partition& a,
                                               const Partition& b) {
  return combine(a, b, [](std::size_t i) { return i; });
}

/// Inserts into a descending-by-head list, keeping it sorted (line 6).
///
/// Reference implementation of the Partition_list: O(n) per insert from
/// the vector shift.  CKK uses PartitionHeap below (O(log n) per
/// operation, identical pop order); this stays as the executable
/// specification the heap is unit-tested against.
inline void insert_sorted(std::vector<Partition>& list, Partition p) {
  const auto pos = std::upper_bound(
      list.begin(), list.end(), p,
      [](const Partition& x, const Partition& y) { return x.head() > y.head(); });
  list.insert(pos, std::move(p));
}

/// The Partition_list as a binary max-heap: pop() yields the partition
/// with the largest head, and — like the sorted list, where insert_sorted
/// places a new partition *after* existing equal heads — ties break FIFO
/// by insertion order.  Keying the heap on (head desc, insertion-seq asc)
/// reproduces the list's pop sequence exactly while cutting the
/// Partition_list maintenance from O(n) per combine (vector shift) to
/// O(log n), i.e. O(n log n) total for a full RCKK/KK run.
class PartitionHeap {
 public:
  PartitionHeap() = default;

  /// Heapifies an initial list; element i gets insertion sequence i, so
  /// the pop order of an initial_partitions() vector (already sorted
  /// descending, stable) is preserved.
  explicit PartitionHeap(std::vector<Partition> initial) {
    entries_.reserve(initial.size());
    for (Partition& p : initial) {
      entries_.push_back(Entry{std::move(p), next_seq_++});
    }
    std::make_heap(entries_.begin(), entries_.end(), Before{});
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Largest head (ties: earliest inserted) without removing it.
  [[nodiscard]] const Partition& top() const { return entries_.front().p; }

  /// Sum of every head except the largest — the CKK pruning bound.
  /// O(n), but only reached on un-pruned search nodes.
  [[nodiscard]] double other_heads_sum() const {
    double sum = 0.0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      sum += entries_[i].p.head();
    }
    return sum;
  }

  Partition pop() {
    std::pop_heap(entries_.begin(), entries_.end(), Before{});
    Partition p = std::move(entries_.back().p);
    entries_.pop_back();
    return p;
  }

  void push(Partition p) {
    entries_.push_back(Entry{std::move(p), next_seq_++});
    std::push_heap(entries_.begin(), entries_.end(), Before{});
  }

 private:
  struct Entry {
    Partition p;
    std::uint64_t seq = 0;
  };
  /// std:: heap algorithms keep the *largest* element (by this "less
  /// than") at the front; an earlier seq wins among equal heads.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.p.head() != b.p.head()) return a.p.head() < b.p.head();
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

/// Converts the surviving partition's sets to a per-request instance map
/// (lines 8-10).
[[nodiscard]] inline std::vector<std::uint32_t> to_assignment(
    const Partition& final_partition, std::size_t request_count) {
  std::vector<std::uint32_t> instance_of(request_count, 0);
  for (std::uint32_t k = 0; k < final_partition.sets.size(); ++k) {
    for (const std::uint32_t r : final_partition.sets[k]) {
      instance_of[r] = k;
    }
  }
  return instance_of;
}

/// Flat single-pass KK differencing (RCKK with the reverse pairing,
/// forward KK with the identity): the same pops, combines and final sets
/// as driving PartitionHeap with combine(), without per-combine
/// allocation.
///
///  * Partition p owns row p of one n×m slab of cells (position value plus
///    the head/tail of its request set); a combine writes into the row of
///    the first popped partition, and the second row is dead from then on.
///  * Request sets are splice lists over one next[n] array, so merging two
///    sets is O(1) and a combine is O(m) splices plus a stable insertion
///    sort of the m positions (the unique order std::stable_sort yields).
///  * The heap holds (head, insertion seq, row) and pops on PartitionHeap's
///    key: head desc, then seq asc.
///
/// Values are summed, sorted and normalized with exactly combine()'s
/// floating-point operations, so `instance_of` is bit-identical to the
/// reference path (tests/scheduling/kk_flat_test.cc).  `work` is the
/// number of combines, n − 1.
template <typename Perm>
[[nodiscard]] Schedule flat_kk(const SchedulingProblem& problem, Perm perm) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  struct Cell {
    double value;
    std::uint32_t head;  // first request of the position's set, or kNone
    std::uint32_t tail;  // last request of the set (valid when head is)
  };
  struct Entry {
    double head;
    std::uint64_t seq;
    std::uint32_t row;
  };
  // std:: heap order, as PartitionHeap::Before: largest head on top, the
  // earlier insertion among equal heads.
  const auto before = [](const Entry& a, const Entry& b) {
    if (a.head != b.head) return a.head < b.head;
    return a.seq > b.seq;
  };

  const std::size_t n = problem.request_count();
  const std::size_t m = problem.instance_count;
  // Line 1: requests by effective rate desc; index asc on ties is the
  // order the reference's stable_sort gives, without its buffer.
  std::vector<double> rate(n);
  for (std::size_t r = 0; r < n; ++r) rate[r] = problem.effective_rate(r);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return rate[a] != rate[b] ? rate[a] > rate[b] : a < b;
  });
  std::vector<Cell> slab(n * m, Cell{0.0, kNone, kNone});
  std::vector<std::uint32_t> next(n, kNone);
  std::vector<Entry> heap(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = order[i];
    slab[i * m] = Cell{rate[r], r, r};
    heap[i] = Entry{rate[r], static_cast<std::uint64_t>(i),
                    static_cast<std::uint32_t>(i)};
  }
  std::make_heap(heap.begin(), heap.end(), before);
  std::uint64_t seq = n;

  Schedule out;
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), before);
    const std::uint32_t ra = heap.back().row;
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), before);
    const std::uint32_t rb = heap.back().row;
    heap.pop_back();
    Cell* a = &slab[static_cast<std::size_t>(ra) * m];
    const Cell* b = &slab[static_cast<std::size_t>(rb) * m];
    // Lines 3-4: a_i + b_perm(i), sets spliced a-then-b.
    for (std::size_t i = 0; i < m; ++i) {
      const Cell& bj = b[perm(i, m)];
      a[i].value += bj.value;
      if (bj.head == kNone) continue;
      if (a[i].head == kNone) {
        a[i].head = bj.head;
      } else {
        next[a[i].tail] = bj.head;
      }
      a[i].tail = bj.tail;
    }
    // Stable descending insertion sort: a cell moves only past strictly
    // smaller values.
    for (std::size_t i = 1; i < m; ++i) {
      const Cell c = a[i];
      std::size_t j = i;
      for (; j > 0 && a[j - 1].value < c.value; --j) a[j] = a[j - 1];
      a[j] = c;
    }
    // Line 5: normalize by the smallest position.
    const double base = a[m - 1].value;
    for (std::size_t i = 0; i < m; ++i) a[i].value -= base;
    heap.push_back(Entry{a[0].value, seq++, ra});
    std::push_heap(heap.begin(), heap.end(), before);
    ++out.work;
  }

  // Lines 8-10.
  out.instance_of.assign(n, 0);
  const Cell* last = &slab[static_cast<std::size_t>(heap.front().row) * m];
  for (std::size_t k = 0; k < m; ++k) {
    for (std::uint32_t r = last[k].head; r != kNone; r = next[r]) {
      out.instance_of[r] = static_cast<std::uint32_t>(k);
    }
  }
  return out;
}

/// combine()'s pairings in flat_kk's (position, m) form.
struct ReversePairing {
  std::size_t operator()(std::size_t i, std::size_t m) const {
    return m - 1 - i;
  }
};
struct ForwardPairing {
  std::size_t operator()(std::size_t i, std::size_t /*m*/) const { return i; }
};

}  // namespace nfv::sched::detail
