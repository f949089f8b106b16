#include "nfv/obs/flight_recorder.h"

#include <ostream>

#include "nfv/common/error.h"
#include "nfv/obs/json.h"

namespace nfv::obs {

namespace {

std::atomic<FlightRecorder*> g_flight_recorder{nullptr};

}  // namespace

FlightRecorder* flight_recorder() noexcept {
  return g_flight_recorder.load(std::memory_order_relaxed);
}

FlightRecorder* set_flight_recorder(FlightRecorder* fr) noexcept {
  return g_flight_recorder.exchange(fr, std::memory_order_relaxed);
}

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {
  NFV_REQUIRE(capacity > 0);
}

void FlightRecorder::record(const FlightEntry& entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = entry;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEntry> out;
  const std::size_t n = recorded_ < ring_.size()
                            ? static_cast<std::size_t>(recorded_)
                            : ring_.size();
  out.reserve(n);
  // Oldest first: when the ring has wrapped, next_ points at the oldest.
  const std::size_t start = recorded_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::dump_json(std::ostream& os) const {
  const std::vector<FlightEntry> snapshot = entries();
  JsonWriter w(os);
  FieldWriter v(w);
  w.begin_object();
  v("schema", kFlightSchema);
  v("capacity", ring_.size());
  v("recorded", recorded());
  v.array("entries", snapshot, [&](const FlightEntry& e) { fields(v, e); });
  w.end_object();
}

}  // namespace nfv::obs
