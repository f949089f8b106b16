// Request lifecycle tracing for the serving engine (DESIGN.md §14): the
// causal path of every request — admit → place@node → migrations →
// evacuations → retry backoffs → depart/shed — recorded at the engine's
// decision points and rendered as Chrome trace-event spans (same format as
// obs::Tracer, so a serve run opens directly in chrome://tracing with one
// row per request).
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "nfv/obs/fields.h"

namespace nfv::obs {

inline constexpr std::string_view kLifecycleSchema = "nfvpr.lifecycle/1";

/// No node attached to this stage (admission, parking, shedding...).
inline constexpr std::uint32_t kLifecycleNoNode = 0xffffffffu;

class LifecycleParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class LifecycleStage : std::uint8_t {
  kAdmit,         ///< request accepted (on arrival, from queue, or retry)
  kPlace,         ///< one chain hop bound to an instance on `node`
  kQueue,         ///< parked in the FIFO waiting room
  kReject,        ///< dropped on arrival (queue full)
  kMigrate,       ///< one hop moved to `node` (rebalance / relocate)
  kEvacuate,      ///< one broken hop re-placed on `node` after a failure
  kPark,          ///< evacuated with nowhere to go; waiting with backoff
  kRetryBackoff,  ///< a retry attempt failed; backoff doubled (rung = attempt)
  kRetryAdmit,    ///< re-admitted from the retry queue (rung = attempt)
  kShedFault,     ///< dropped by the fault ladder
  kShedOverload,  ///< dropped by degraded-mode load shedding
  kShed,          ///< dropped because a rate change made it unservable
  kDepart,        ///< trace-visible departure
};

[[nodiscard]] std::string_view to_string(LifecycleStage stage);

/// One decision-point event on a request's causal path.
struct LifecycleEvent {
  std::uint64_t event_index = 0;  ///< trace event that caused it
  double time = 0.0;              ///< trace time
  std::uint32_t request = 0;
  LifecycleStage stage = LifecycleStage::kAdmit;
  std::uint32_t node = kLifecycleNoNode;
  /// Stage-specific detail: hop index for place/migrate/evacuate, ladder
  /// rung (attempt count) for park/retry stages, 0 otherwise.
  std::uint32_t rung = 0;

  friend bool operator==(const LifecycleEvent&,
                         const LifecycleEvent&) = default;
};

/// A checkpoint's compact lifecycle tuple: [index, t, request, stage, node,
/// rung].
void fields(auto& v, Of<LifecycleEvent> auto& e) {
  v("event_index", e.event_index);
  v("t", e.time);
  v.require(std::isfinite(e.time), "lifecycle tuple time must be finite");
  v("request", e.request);
  v("stage", e.stage,
    Below{static_cast<std::uint64_t>(LifecycleStage::kDepart) + 1});
  v("node", e.node);
  v("rung", e.rung);
}

/// Renders events as a Chrome trace-event JSON array ("ph": "X" complete
/// spans, tid = request id): each stage spans until the request's next
/// stage (or `trace_end`), so the whole run reads as per-request swimlanes.
/// Event order must be the engine's recording order (event index, then
/// intra-event order).
void write_lifecycle_trace(const std::vector<LifecycleEvent>& events,
                           double trace_end, std::ostream& os);

/// Parses a lifecycle trace written by write_lifecycle_trace back into
/// recording order; throws LifecycleParseError on malformed input.
[[nodiscard]] std::vector<LifecycleEvent> load_lifecycle(
    std::string_view text);

}  // namespace nfv::obs
