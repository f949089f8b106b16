// Fixed-width bucket histogram for latency distributions.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace nfv {

/// Histogram over [lo, hi) with `buckets` equal-width buckets plus an
/// underflow and an overflow bucket.  The exact minimum and maximum of the
/// added samples are tracked alongside the buckets so extreme quantiles
/// (p0/p100) are exact instead of bucket-resolution approximations.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  /// Merges another histogram (parallel reduction, mirroring
  /// OnlineStats::merge).  Bucket geometries must match exactly.
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t count() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  /// Exact smallest / largest sample seen (require count() > 0).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Inclusive lower edge of bucket i.
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;

  /// Quantile estimate (requires count() > 0): linear interpolation inside
  /// the bucket holding the target rank, clamped to the exact [min, max] of
  /// the samples — so q=0 returns the minimum, q=1 the maximum, and a
  /// single-sample histogram returns that sample for every q.
  [[nodiscard]] double quantile(double q) const;

  /// ASCII rendering, one bucket per row, bars scaled to `width` columns.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

  /// Restores serialized state (checkpointing); `counts` must match the
  /// constructed bucket count and the totals must be consistent.
  void restore(const std::vector<std::size_t>& counts, std::size_t underflow,
               std::size_t overflow, double min, double max);

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
  double min_ = 0.0;  ///< valid only when total_ > 0
  double max_ = 0.0;
};

/// Sliding-window histogram: a ring of at most `span` per-window Histogram
/// slots over a shared geometry.  Samples land in the newest slot;
/// `rotate()` opens a new window and drops the oldest once `span` is
/// exceeded; `merged()` folds the ring into one Histogram (Histogram::merge
/// is associative, so a windowed view computed incrementally equals one
/// computed from scratch — the same merge contract the parallel reductions
/// rely on).
class WindowedHistogram {
 public:
  WindowedHistogram(double lo, double hi, std::size_t buckets,
                    std::size_t span);

  /// Adds a sample to the current (newest) window.
  void add(double x);

  /// Closes the current window and opens a fresh one, evicting the oldest
  /// window when more than `span` would remain.
  void rotate();

  /// All retained windows merged oldest-to-newest.
  [[nodiscard]] Histogram merged() const;

  [[nodiscard]] std::size_t span() const { return span_; }
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }
  [[nodiscard]] const Histogram& window(std::size_t i) const {
    return windows_[i];
  }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_; }

  /// Replaces the retained windows with `windows` (checkpointing); each
  /// must share this geometry and there must be 1..span of them.
  void restore(std::deque<Histogram> windows);

 private:
  double lo_;
  double hi_;
  std::size_t buckets_;
  std::size_t span_;
  std::deque<Histogram> windows_;  ///< oldest first; back() is current
};

}  // namespace nfv
