// ScalingController (DESIGN.md §16): the deterministic per-VNF instance
// sizing loop of the serving engine.  The engine feeds it one observation
// vector per decision window (event-time boundaries of
// AutoscaleConfig::scale_interval, exactly like the timeline windows) and
// applies the returned deltas through the existing scale-out /
// drain-then-retire paths.
//
// The controller owns only the sizing decision: EWMA forecaster state,
// per-VNF cooldown clocks, and the flap/blocked counters.  The engine
// owns the actuation (node picks, draining migrations, retirement) so the
// decisions compose with churn evacuation and the degradation ladder.
//
// Everything here is a pure function of the replayed event prefix — no
// RNG, no wall clock — and the whole state is checkpointed verbatim, so
// a resumed run decides bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "nfv/serve/policy.h"

namespace nfv::serve {

/// Controller-side aggregates for reports and the bench.
struct AutoscaleTotals {
  std::uint64_t decisions = 0;         ///< windows evaluated
  std::uint64_t flaps = 0;             ///< direction reversals inside the
                                       ///< flap guard (2 × cooldown windows)
  std::uint64_t blocked_cooldown = 0;  ///< deltas suppressed by cooldown
};

void fields(auto& v, obs::Of<AutoscaleTotals> auto& t) {
  v("decisions", t.decisions);
  v("flaps", t.flaps);
  v("blocked_cooldown", t.blocked_cooldown);
}

class ScalingController {
 public:
  ScalingController(AutoscaleConfig config, std::size_t vnf_count);

  [[nodiscard]] bool enabled() const { return config_.enabled(); }
  [[nodiscard]] const AutoscaleConfig& config() const { return config_; }

  /// Evaluates one decision window.  `window` must be the boundary index
  /// (strictly increasing across calls); `observations` is indexed by VNF.
  /// Returns per-VNF instance-count deltas: cooldown-gated, clamped to
  /// ±max_step, flap-counted.  The reference stays valid until the next
  /// call.
  [[nodiscard]] const std::vector<std::int32_t>& on_window(
      std::uint64_t window, const std::vector<VnfObservation>& observations);

  [[nodiscard]] const AutoscaleTotals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<VnfPolicyState>& vnf_states() const {
    return states_;
  }

  /// Checkpoint restore: the serializer writes states()/totals() verbatim
  /// and puts them back here (checkpoint.cc).
  void restore(std::vector<VnfPolicyState> states, AutoscaleTotals totals);

 private:
  AutoscaleConfig config_;
  std::vector<VnfPolicyState> states_;
  AutoscaleTotals totals_;
  std::vector<std::int32_t> deltas_;  ///< reused per-window result buffer
};

}  // namespace nfv::serve
