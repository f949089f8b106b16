#include "nfv/obs/metrics.h"

#include <ostream>

#include "nfv/common/error.h"
#include "nfv/obs/fields.h"
#include "nfv/obs/json.h"

namespace nfv::obs {

namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};

}  // namespace

MetricsRegistry* registry() noexcept {
  return g_registry.load(std::memory_order_relaxed);
}

MetricsRegistry* set_registry(MetricsRegistry* r) noexcept {
  return g_registry.exchange(r, std::memory_order_relaxed);
}

void HistogramMetric::merge(const HistogramMetric& other) {
  // Lock ordering by address prevents deadlock on concurrent cross-merges.
  if (this == &other) return;
  const std::lock_guard<std::mutex> a(this < &other ? mu_ : other.mu_);
  const std::lock_guard<std::mutex> b(this < &other ? other.mu_ : mu_);
  hist_.merge(other.hist_);
  stats_.merge(other.stats_);
}

std::string labeled(std::string_view name,
                    std::initializer_list<Label> labels) {
  std::string out(name);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += '=';
    out += l.value;
  }
  out += '}';
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, double lo,
                                            double hi, std::size_t buckets) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<HistogramMetric>(lo, hi, buckets))
              .first->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    const OnlineStats stats = h->snapshot_stats();
    s.count = stats.count();
    if (s.count > 0) {
      const Histogram hist = h->snapshot_histogram();
      s.mean = stats.mean();
      s.min = stats.min();
      s.max = stats.max();
      s.p50 = hist.quantile(0.50);
      s.p90 = hist.quantile(0.90);
      s.p99 = hist.quantile(0.99);
    }
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  JsonWriter w(os);
  write_snapshot(w, snapshot());
}

void write_snapshot(JsonWriter& w, const MetricsRegistry::Snapshot& snap) {
  FieldWriter v(w);
  w.begin_object();
  v.object("counters", [&] {
    for (const auto& c : snap.counters) v(c.name, c.value);
  });
  v.object("gauges", [&] {
    for (const auto& g : snap.gauges) v(g.name, g.value);
  });
  v.object("histograms", [&] {
    for (const auto& h : snap.histograms) {
      v.object(h.name, [&] {
        v("count", h.count);
        v("mean", h.mean);
        v("min", h.min);
        v("max", h.max);
        v("p50", h.p50);
        v("p90", h.p90);
        v("p99", h.p99);
      });
    }
  });
  w.end_object();
}

}  // namespace nfv::obs
