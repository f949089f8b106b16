// Machine-readable run reports ("nfvpr.run_report/1"): one JSON object per
// run with the schema, command and seed, then one section per stage the
// command ran — placement, scheduling, requests, des, serve, solver and
// metrics, in that order.  Absent sections are omitted, never emitted
// empty, so diffs across commands stay meaningful.
//
// The keys of each section are the field lists below (the serve section's
// are ServeSummary's and LoggedOutcome's, nfv/serve/engine.h).  The obs
// library owns serialization, loading, pretty-printing and diffing; the
// core library converts solver results into a RunReport
// (nfv/core/report_builder.h).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nfv/obs/fields.h"
#include "nfv/obs/json.h"
#include "nfv/obs/metrics.h"

namespace nfv::obs {

inline constexpr std::string_view kRunReportSchema = "nfvpr.run_report/1";

struct PlacementSection {
  bool present = false;
  bool feasible = false;
  std::string algorithm;
  std::uint64_t iterations = 0;
  std::uint64_t nodes_in_service = 0;
  std::uint64_t node_count = 0;
  double avg_utilization = 0.0;
  double occupation = 0.0;
};

void fields(auto& v, Of<PlacementSection> auto& p) {
  v("feasible", p.feasible);
  v("algorithm", p.algorithm);
  v("iterations", p.iterations);
  v("nodes_in_service", p.nodes_in_service);
  v("node_count", p.node_count);
  v("avg_utilization", p.avg_utilization);
  v("occupation", p.occupation);
}

struct VnfScheduleEntry {
  std::string vnf;                       ///< catalog name, e.g. "FW-3"
  std::uint32_t instances = 0;           ///< M_f
  double service_rate = 0.0;             ///< μ_f
  double delivery_prob = 0.0;            ///< P
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t work = 0;                ///< algorithm work units
  std::vector<double> instance_load;     ///< Λ_k per instance (Eq. 7)
  std::vector<double> instance_response; ///< W(f,k) per instance (Eq. 12)
};

void fields(auto& v, Of<VnfScheduleEntry> auto& e) {
  v("vnf", e.vnf);
  v("instances", e.instances);
  v("service_rate", e.service_rate);
  v("delivery_prob", e.delivery_prob);
  v("admitted", e.admitted);
  v("rejected", e.rejected);
  v("work", e.work);
  v("instance_load", e.instance_load);
  v("instance_response", e.instance_response);
}

struct SchedulingSection {
  bool present = false;
  std::string algorithm;
  std::vector<VnfScheduleEntry> vnfs;
};

void fields(auto& v, Of<SchedulingSection> auto& s) {
  v("algorithm", s.algorithm);
  v.array("vnfs", s.vnfs, [&](auto& e) { fields(v, e); });
}

struct RequestSection {
  bool present = false;
  std::uint64_t total = 0;
  std::uint64_t admitted = 0;
  double rejection_rate = 0.0;
  double avg_total_latency = 0.0;  ///< Eq. 16 per admitted request
  double avg_response = 0.0;       ///< mean instance W (Eq. 15)
};

void fields(auto& v, Of<RequestSection> auto& r) {
  v("total", r.total);
  v("admitted", r.admitted);
  v("rejection_rate", r.rejection_rate);
  v("avg_total_latency", r.avg_total_latency);
  v("avg_response", r.avg_response);
}

struct DesSection {
  bool present = false;
  std::uint64_t events = 0;
  double measured_window = 0.0;
  bool truncated = false;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t buffer_drops = 0;
  std::uint64_t fault_retransmissions = 0;
  std::uint64_t station_drops = 0;
  std::uint64_t station_fault_drops = 0;
  std::uint64_t station_failures = 0;
  double avg_utilization = 0.0;  ///< mean station utilization
  double mean_latency = 0.0;     ///< delivered-weighted end-to-end mean
  double total_downtime = 0.0;   ///< summed station down-seconds
};

void fields(auto& v, Of<DesSection> auto& d) {
  v("events", d.events);
  v("measured_window", d.measured_window);
  v("truncated", d.truncated);
  v("generated", d.generated);
  v("delivered", d.delivered);
  v("retransmissions", d.retransmissions);
  v("buffer_drops", d.buffer_drops);
  v("fault_retransmissions", d.fault_retransmissions);
  v("station_drops", d.station_drops);
  v("station_fault_drops", d.station_fault_drops);
  v("station_failures", d.station_failures);
  v("avg_utilization", d.avg_utilization);
  v("mean_latency", d.mean_latency);
  v("total_downtime", d.total_downtime);
}

struct MetricsSection {
  bool present = false;
  MetricsRegistry::Snapshot snapshot;
};

/// The `serve` section, written by the serve library from the field lists
/// its checkpoints share (serve::make_serve_section); absent when empty.
struct ServeSection {
  std::function<void(FieldWriter&)> write;
};

/// One backend's line in a solver portfolio race (DESIGN.md §17).
struct SolverBackendEntry {
  std::string id;  ///< "bfdsu" | "lp" | "pso"
  bool feasible = false;
  std::uint64_t rejected = 0;
  double objective = 0.0;  ///< Eq. 16 latency (node count for place races)
  std::uint64_t work = 0;  ///< placement iterations consumed
};

void fields(auto& v, Of<SolverBackendEntry> auto& b) {
  v("id", b.id);
  v("feasible", b.feasible);
  v("rejected", b.rejected);
  v("objective", b.objective);
  v("work", b.work);
}

/// Outcome of a --solver portfolio race (DESIGN.md §17).
struct SolverSection {
  bool present = false;
  std::string solver;  ///< requested id ("portfolio" or a single backend)
  std::string winner;  ///< backend the reported result came from
  bool deterministic = false;  ///< work-budget race (clock ignored)
  std::uint64_t budget_work = 0;
  double budget_ms = 0.0;
  std::vector<SolverBackendEntry> backends;  ///< in backend-id order
};

void fields(auto& v, Of<SolverSection> auto& s) {
  v("solver", s.solver);
  v("winner", s.winner);
  v("deterministic", s.deterministic);
  v("budget", s.budget_work);
  v("budget_ms", s.budget_ms);
  v.array("backends", s.backends, [&](auto& b) { fields(v, b); });
}

struct RunReport {
  std::string command;
  std::uint64_t seed = 0;
  PlacementSection placement;
  SchedulingSection scheduling;
  RequestSection requests;
  DesSection des;
  ServeSection serve;
  SolverSection solver;
  MetricsSection metrics;
};

/// Serializes a report under kRunReportSchema.
void write_run_report(const RunReport& report, std::ostream& os);

/// Parses a saved run report; throws std::invalid_argument on malformed
/// JSON or a missing/unknown "schema" field.
[[nodiscard]] JsonValue load_run_report(std::string_view text);

/// Human-readable summary of a loaded report.
[[nodiscard]] std::string pretty_print_report(const JsonValue& report);

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One numeric leaf that differs between two reports.
struct DiffEntry {
  std::string path;  ///< dotted path, e.g. "requests.avg_total_latency"
  double before = 0.0;
  double after = 0.0;
  double delta = 0.0;
  /// 100·(after−before)/|before|; ±inf when before == 0 and after != 0.
  double pct = 0.0;
  /// +1 when a higher value is worse (latency, drops, ...), −1 when a
  /// higher value is better (availability, admitted, ...), 0 when neutral.
  int direction = 0;
  /// True when the change exceeds the threshold in the worsening
  /// direction.
  bool regression = false;
  /// True when the change exceeds the threshold in the improving
  /// direction.
  bool improvement = false;
};

/// A leaf present on only one side of a diff, with its rendered value —
/// such metrics print as added/removed instead of being silently dropped.
struct LeafChange {
  std::string path;
  std::string value;  ///< rendered value on the side it exists on
};

struct ReportDiff {
  std::vector<DiffEntry> changed;        ///< numeric leaves that moved
  std::vector<std::string> only_before;  ///< paths absent from `after`
  std::vector<std::string> only_after;   ///< paths absent from `before`
  std::vector<LeafChange> removed;       ///< only_before, with values
  std::vector<LeafChange> added;         ///< only_after, with values
  /// Paths whose leaf is numeric in one report but not the other — a
  /// schema change, reported explicitly rather than dropped.
  std::vector<std::string> type_changed;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
};

/// Compares every numeric leaf of two reports.  `threshold_pct` is the
/// minimum |relative change| (percent) for a directional metric to count
/// as a regression/improvement.
[[nodiscard]] ReportDiff diff_reports(const JsonValue& before,
                                      const JsonValue& after,
                                      double threshold_pct = 1.0);

/// Markdown rendering of a diff: regressions first, then improvements,
/// then neutral changes; structural differences at the end.
[[nodiscard]] std::string render_diff(const ReportDiff& diff);

}  // namespace nfv::obs
