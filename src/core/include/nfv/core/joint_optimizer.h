// The paper's two-phase pipeline (Sec. IV): place VNF chains, then schedule
// requests onto service instances, and evaluate the joint objective
// Eq. 16 — per-request response latency plus (Σ_v η_v^r − 1)·L of
// inter-node link latency.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nfv/common/ids.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/placement/algorithm.h"
#include "nfv/placement/metrics.h"
#include "nfv/scheduling/algorithm.h"
#include "nfv/scheduling/metrics.h"
#include "nfv/topology/topology.h"
#include "nfv/workload/vnf.h"

namespace nfv::core {

/// A full problem instance: where VNFs may run and who wants them.
struct SystemModel {
  topo::Topology topology;
  workload::Workload workload;

  void validate() const;
};

/// Pipeline configuration.
struct JointConfig {
  std::string placement_algorithm = "BFDSU";
  std::string scheduling_algorithm = "RCKK";
  /// When set, phase 1 builds its algorithm from this factory instead of
  /// make_placement_algorithm(placement_algorithm); the solver portfolio
  /// (DESIGN.md §17) injects budgeted PSO/LP/BFDSU backends through it.
  /// `placement_algorithm` stays the display name for reports.
  std::function<std::unique_ptr<placement::PlacementAlgorithm>()>
      placement_factory;
  /// Admission-control utilization ceiling ρ_max per instance.
  double rho_max = 0.999;
  /// Per-hop latency L of Eq. 16; defaults to the topology's mean link
  /// latency when unset.
  std::optional<double> link_latency;
  /// Fan-out width for multi-start placement and per-VNF scheduling.
  /// Results are bit-identical for any thread count (see DESIGN.md §10).
  exec::ExecConfig exec;
};

/// Scheduling context of one VNF: its m-way partitioning problem plus the
/// mapping from problem positions back to request ids.
struct VnfSchedulingContext {
  sched::SchedulingProblem problem;
  std::vector<RequestId> members;  ///< problem position -> request id
};

/// Per-request outcome under the joint solution.
struct RequestOutcome {
  bool admitted = false;          ///< admitted at every VNF of its chain
  double response_latency = 0.0;  ///< Σ_chain W(f, k_r)   (0 if rejected)
  double link_latency = 0.0;      ///< (nodes_traversed − 1) · L
  std::uint32_t nodes_traversed = 0;  ///< Σ_v η_v^r

  [[nodiscard]] double total_latency() const {
    return response_latency + link_latency;
  }
};

/// Complete result of one pipeline run.
struct JointResult {
  bool feasible = false;  ///< placement succeeded & all schedules stable
  placement::Placement placement;
  placement::PlacementMetrics placement_metrics;
  std::vector<VnfSchedulingContext> contexts;    ///< per VNF
  std::vector<sched::Schedule> schedules;        ///< per VNF
  std::vector<sched::AdmissionResult> admissions;///< per VNF
  std::vector<RequestOutcome> requests;          ///< per request

  // Aggregates over admitted requests / all instances.
  double total_latency = 0.0;       ///< Eq. 16 objective
  double avg_total_latency = 0.0;   ///< per admitted request
  double avg_response = 0.0;        ///< mean W over all service instances
  double job_rejection_rate = 0.0;  ///< rejected requests / |R|
};

/// Two-phase optimizer.  Stateless; all randomness flows through the seed.
class JointOptimizer {
 public:
  explicit JointOptimizer(JointConfig config);

  /// Runs placement, then per-VNF scheduling + admission, then evaluates
  /// Eq. 16.  Throws std::invalid_argument for unknown algorithm names.
  [[nodiscard]] JointResult run(const SystemModel& model,
                                std::uint64_t seed) const;

  [[nodiscard]] const JointConfig& config() const { return config_; }

 private:
  [[nodiscard]] JointResult run_impl(const SystemModel& model,
                                     std::uint64_t seed) const;

  JointConfig config_;
};

/// Builds the per-VNF scheduling contexts for a workload (member lists in
/// request-id order).  Exposed for benches that schedule without placing.
[[nodiscard]] std::vector<VnfSchedulingContext> make_scheduling_contexts(
    const workload::Workload& workload);

}  // namespace nfv::core
