// Thread-safe metrics registry for the whole pipeline.
//
// Metrics are named counters (monotone uint64), gauges (last-write double)
// and histograms (nfv::Histogram + OnlineStats under one lock).  A metric
// name may carry labels, flattened into the registry key with labeled():
//
//   obs::count(obs::labeled("placement.passes", {{"algo", "BFDSU"}}));
//   -> counter "placement.passes{algo=BFDSU}"
//
// Null-sink design: instrumentation sites call the free helpers (count /
// gauge_set / observe) or construct ScopedSpan, which consult a global
// registry pointer.  When no registry is installed — the default — each
// call is one relaxed atomic load and a not-taken branch: no allocation,
// no locking, no string handling.  Telemetry is enabled by installing a
// registry for a scope (ScopedMetrics), typically from the CLI when a
// --metrics-out flag is present.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/common/histogram.h"
#include "nfv/common/stats.h"

namespace nfv::obs {

/// Monotone event counter; add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins double; set()/add() are lock-free.
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Value-distribution metric: a fixed-bucket Histogram for quantiles plus
/// an OnlineStats accumulator for exact mean/extrema.  observe() locks.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets)
      : hist_(lo, hi, buckets) {}

  void observe(double x) {
    const std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
    stats_.add(x);
  }

  /// Merges another metric's samples (parallel reduction); bucket
  /// geometries must match.
  void merge(const HistogramMetric& other);

  [[nodiscard]] Histogram snapshot_histogram() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  [[nodiscard]] OnlineStats snapshot_stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
  OnlineStats stats_;
};

/// One label dimension of a metric name.
struct Label {
  std::string_view key;
  std::string_view value;
};

/// Flattens a name plus labels into the registry key:
/// labeled("a.b", {{"k","v"},{"x","y"}}) == "a.b{k=v,x=y}".
[[nodiscard]] std::string labeled(std::string_view name,
                                  std::initializer_list<Label> labels);

/// Thread-safe metric store.  Lookup takes a mutex; the returned references
/// are stable for the registry's lifetime, so hot paths can resolve a
/// handle once and update lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric.  Heterogeneous lookup: no string
  /// allocation when the metric already exists.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The bucket geometry arguments apply on first creation only.
  HistogramMetric& histogram(std::string_view name, double lo, double hi,
                             std::size_t buckets);

  /// Point-in-time copy of every metric, sorted by name.
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    [[nodiscard]] bool empty() const {
      return counters.empty() && gauges.empty() && histograms.empty();
    }
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Serializes snapshot() as a JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

class JsonWriter;

/// Writes `snap` as one JSON object (the shape write_json() emits); the run
/// report's `metrics` section is the same object.
void write_snapshot(JsonWriter& w, const MetricsRegistry::Snapshot& snap);

/// The globally installed registry, or nullptr when telemetry is disabled.
[[nodiscard]] MetricsRegistry* registry() noexcept;

/// Installs (or clears, with nullptr) the global registry; returns the
/// previous one.  Not synchronized against in-flight helpers — install
/// before the instrumented work starts and uninstall after it ends.
MetricsRegistry* set_registry(MetricsRegistry* r) noexcept;

/// RAII install/uninstall of a registry as the global sink.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& r) : prev_(set_registry(&r)) {}
  ~ScopedMetrics() { set_registry(prev_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

// ---------------------------------------------------------------------------
// Fast-path helpers: one relaxed atomic load + branch when disabled.
// ---------------------------------------------------------------------------

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* r = registry()) r->counter(name).add(delta);
}

inline void gauge_set(std::string_view name, double x) {
  if (MetricsRegistry* r = registry()) r->gauge(name).set(x);
}

inline void observe(std::string_view name, double x, double lo, double hi,
                    std::size_t buckets = 50) {
  if (MetricsRegistry* r = registry()) {
    r->histogram(name, lo, hi, buckets).observe(x);
  }
}

}  // namespace nfv::obs
