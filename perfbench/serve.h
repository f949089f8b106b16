// Serve-side measurement shared by the serve workloads and by the
// solve workload's online-replay probe (README.md "Per-layer metrics").
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "nfv/serve/checkpoint.h"
#include "nfv/serve/engine.h"
#include "nfv/workload/btrace.h"

namespace perfbench {

struct PassOptions {
  std::uint64_t events = 0;            ///< trace events to apply
  std::uint64_t checkpoint_every = 0;  ///< 0 = no checkpoints
  bool mid_restore = false;  ///< continue on a restored engine mid-pass
  double sample_dt = 0.05;   ///< trace seconds between state samples
  std::uint64_t eq16_every = 100;  ///< events between Eq. 16 samples
  bool layer_probes = false;  ///< RCKK on live memberships at Eq. 16 samples
  /// Called after each event, outside every timed region.
  std::function<void()> between_events;
};

/// What one pass over the steady window measured.
struct PassStats {
  std::uint64_t events = 0;
  /// Decode + on_event + checkpoint save + restore wall time.
  double busy_s = 0.0;
  std::vector<double> decide_us;
  std::array<std::vector<double>, 5> decide_by_kind_us;  ///< by event kind
  double last_time = 0.0;  ///< trace time of the last applied event
  std::uint64_t checkpoints_in_pass = 0;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::uint64_t checkpoint_bytes_max = 0;
  std::vector<double> eq16_ms;  ///< pooled predicted_latencies() samples
  std::vector<double> eq16_rescan_us;
  std::vector<double> instances;  ///< time-sampled active instances
  std::vector<double> nodes;      ///< time-sampled nodes in service
  std::vector<double> live;       ///< time-sampled live requests
  std::vector<double> rckk_us;    ///< per-VNF RCKK on live memberships
  std::vector<double> rckk_work;
  std::vector<double> rckk_members;
  double decode_ns_per_event = 0.0;
  nfv::serve::ServeSummary first;
  nfv::serve::ServeSummary last;
  double members_per_vnf = 0.0;  ///< at the end of the pass

  /// Deterministic fingerprint; equal across passes of one seed.
  [[nodiscard]] std::vector<double> fingerprint() const;
};

/// Applies `options.events` events from `decoder` to `engine`, timing each
/// decode and on_event, sampling state, and checking the engine's
/// invariants from outside (failures land in `result`).
PassStats run_pass(std::optional<nfv::serve::ServeEngine>& engine,
                   nfv::workload::BinaryTraceDecoder& decoder,
                   const nfv::topo::Topology& topology,
                   const std::vector<nfv::workload::Vnf>& vnfs,
                   const PassOptions& options, Tracer& tracer,
                   RunResult& result);

/// Probes the serve layers a pass did not exercise, on the engine's end
/// state: a NODE_DOWN on the node with most instances, a checkpoint
/// save/restore, and a tight decode loop over `btrace` from `start`.
void probe_end_state(std::optional<nfv::serve::ServeEngine>& engine,
                     const nfv::topo::Topology& topology,
                     const std::vector<nfv::workload::Vnf>& vnfs,
                     const std::string& btrace,
                     const nfv::serve::BinaryTraceCursor& start,
                     std::uint64_t start_index, std::uint64_t events,
                     PassStats& stats, Tracer& tracer, RunResult& result);

/// Appends the serve/workload/scheduling-live per-layer metrics.
void report_serve_layers(const PassStats& traced, RunResult& result);

/// The solve workload's probe of the serve layers: serves one offline
/// instance online (every request arrives, 1 in 7 changes rate, 1 in 3
/// departs) and reports the serve per-layer metrics for it.
void probe_online_replay(const nfv::core::SystemModel& model, Tracer& tracer,
                         RunResult& result);

}  // namespace perfbench
