// Flight recorder (DESIGN.md §14): a fixed-size in-memory ring of the last
// K engine decisions, mirroring the obs null-sink pattern — when no
// recorder is installed a probe costs one relaxed atomic load and an
// untaken branch; when installed, recording overwrites a preallocated slot
// (zero allocation steady-state).  The ring is dumped to JSON
// ("nfvpr.flight/1") on crash, on checkpoint write, or at exit via
// `nfvpr serve --flight-recorder-dump-on-exit`.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>
#include <vector>

#include "nfv/obs/fields.h"

namespace nfv::obs {

inline constexpr std::string_view kFlightSchema = "nfvpr.flight/1";

/// One recorded decision.  Fixed-size POD: the string fields are views of
/// static literals (serve::to_string / workload::to_string), so recording
/// never allocates.
struct FlightEntry {
  std::uint64_t index = 0;
  double time = 0.0;
  std::string_view kind;      ///< event kind name (static literal)
  std::string_view decision;  ///< engine decision name (static literal)
  std::uint32_t request = 0;
  std::uint32_t migrations = 0;
  std::uint32_t scale_outs = 0;
  std::uint32_t scale_ins = 0;
  std::uint32_t admitted_from_queue = 0;
  std::uint32_t evacuated = 0;
  std::uint32_t parked = 0;
  std::uint32_t retry_admitted = 0;
  std::uint32_t shed_fault = 0;
  std::uint32_t shed_overload = 0;
  bool degraded = false;
};

void fields(auto& v, Of<FlightEntry> auto& e) {
  v("index", e.index);
  v("t", e.time);
  v("kind", e.kind);
  v("decision", e.decision);
  v("request", e.request);
  v("migrations", e.migrations);
  v("scale_outs", e.scale_outs);
  v("scale_ins", e.scale_ins);
  v("admitted_from_queue", e.admitted_from_queue);
  v("evacuated", e.evacuated);
  v("parked", e.parked);
  v("retry_admitted", e.retry_admitted);
  v("shed_fault", e.shed_fault);
  v("shed_overload", e.shed_overload);
  v("degraded", e.degraded);
}

class FlightRecorder {
 public:
  /// Preallocates a ring of `capacity` (> 0) slots.
  explicit FlightRecorder(std::size_t capacity);

  /// Overwrites the oldest slot once the ring is full.  Thread-safe.
  void record(const FlightEntry& entry);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Total entries ever recorded (>= size retained).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Retained entries, oldest first.
  [[nodiscard]] std::vector<FlightEntry> entries() const;

  /// Dumps {"schema": "nfvpr.flight/1", ...} with the retained entries
  /// oldest-first.  Safe to call mid-flight (takes the ring lock).
  void dump_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<FlightEntry> ring_;
  std::size_t next_ = 0;           ///< slot the next record lands in
  std::uint64_t recorded_ = 0;
};

/// Process-wide recorder; nullptr (the default) disables recording.
[[nodiscard]] FlightRecorder* flight_recorder() noexcept;
/// Installs `fr` and returns the previous recorder.
FlightRecorder* set_flight_recorder(FlightRecorder* fr) noexcept;

/// RAII installer mirroring ScopedMetrics / the tracer scope.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& fr)
      : previous_(set_flight_recorder(&fr)) {}
  ~ScopedFlightRecorder() { set_flight_recorder(previous_); }
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
};

/// Probe: records into the installed recorder, or does nothing (one
/// relaxed atomic load) when none is installed.
inline void flight_record(const FlightEntry& entry) {
  if (FlightRecorder* fr = flight_recorder()) fr->record(entry);
}

}  // namespace nfv::obs
