// The solve-paper workload: seeded paper-scale offline instances, each
// solved with JointOptimizer (BFDSU+RCKK) and raced with PortfolioDriver
// (README.md).  The measured loop runs on one thread: on a shared 4-core
// host a 2-thread pool made solve times swing by up to 2x between runs of
// one seed.  The traced run still times both widths (exec.*_speedup).
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "serve.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 50;
constexpr std::uint32_t kVnfs = 30;
constexpr std::uint32_t kRequests = 1000;
constexpr std::uint32_t kTemplates = 16;
constexpr std::uint32_t kRequestsPerInstance = 20;
constexpr std::size_t kInstances = 64;
constexpr std::uint32_t kThreads = 1;
constexpr std::uint32_t kSetupReps = 5;

/// Quality of one solve; deterministic for a seed.
struct Quality {
  bool feasible = false;
  double offered = 0.0;
  double admitted = 0.0;
  double offered_rate = 0.0;
  double admitted_rate = 0.0;
  double instances = 0.0;  ///< service instances serving >= 1 request
  double nodes = 0.0;
  std::vector<double> latency_ms;  ///< Eq. 16 per admitted request

  friend bool operator==(const Quality&, const Quality&) = default;
};

Quality quality_of(const nfv::core::SystemModel& model,
                   const nfv::core::JointResult& r) {
  Quality q;
  q.feasible = r.feasible;
  const auto& requests = model.workload.requests;
  q.offered = static_cast<double>(requests.size());
  for (const auto& req : requests) q.offered_rate += req.arrival_rate;
  if (!r.feasible) return q;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!r.requests[i].admitted) continue;
    q.admitted += 1.0;
    q.admitted_rate += requests[i].arrival_rate;
    q.latency_ms.push_back(r.requests[i].total_latency() * 1e3);
  }
  for (std::size_t f = 0; f < r.schedules.size(); ++f) {
    std::vector<std::uint32_t> used;
    const auto& schedule = r.schedules[f];
    for (std::size_t pos = 0; pos < schedule.instance_of.size(); ++pos) {
      if (r.admissions[f].admitted[pos]) {
        used.push_back(schedule.instance_of[pos]);
      }
    }
    std::sort(used.begin(), used.end());
    q.instances += static_cast<double>(
        std::unique(used.begin(), used.end()) - used.begin());
  }
  q.nodes = static_cast<double>(r.placement_metrics.nodes_in_service);
  return q;
}

}  // namespace

PaperInstance paper_instance(std::uint64_t seed, std::size_t index) {
  nfv::Rng rng = nfv::Rng(seed).fork(index);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = kVnfs;
  wcfg.request_count = kRequests;
  wcfg.chain_template_count = kTemplates;
  wcfg.requests_per_instance = kRequestsPerInstance;
  PaperInstance inst;
  inst.model.topology = nfv::topo::make_star(kNodes, {1000.0, 5000.0}, {}, rng);
  inst.model.workload = nfv::workload::WorkloadGenerator(wcfg).generate(rng);
  inst.solve_seed = rng.next();
  return inst;
}

std::vector<PaperInstance> paper_pool(std::uint64_t seed) {
  std::vector<PaperInstance> pool;
  for (std::size_t i = 0; i < kInstances; ++i) {
    pool.push_back(paper_instance(seed, i));
  }
  return pool;
}

RunResult run_solve_workload(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  Tracer untraced(false);
  std::vector<double> setup_s;
  std::vector<PaperInstance> pool;
  const std::uint32_t reps = options.trace ? 1 : kSetupReps;
  // Set-up, as timed by setup_s: generating the instance pool.
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    pool = paper_pool(options.seed);
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> solve_ms, race_ms, decide_us;
  std::vector<Quality> first_cycle;
  std::size_t cycles = 0;
  const auto measure_start = Clock::now();
  do {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const PaperInstance& inst = pool[i];
      const SolveSample s =
          solve_and_race(inst.model, inst.solve_seed, kThreads, untraced, result);
      solve_ms.push_back(s.solve_s * 1e3);
      race_ms.push_back(s.race_s * 1e3);
      decide_us.push_back(s.solve_s * 1e6 /
                          static_cast<double>(inst.model.workload.requests.size()));
      Quality q = quality_of(inst.model, s.solve);
      if (cycles == 0) {
        first_cycle.push_back(std::move(q));
      } else if (!(q == first_cycle[i])) {
        result.fail("solve of instance " + std::to_string(i) + " in cycle " +
                    std::to_string(cycles + 1) + " differs from cycle 1");
      }
    }
    ++cycles;
  } while (!options.trace && seconds_since(measure_start) < options.seconds);

  double offered = 0.0, admitted = 0.0, offered_rate = 0.0,
         admitted_rate = 0.0, instances = 0.0, nodes = 0.0, feasible = 0.0;
  std::vector<double> latency_ms;
  for (const Quality& q : first_cycle) {
    offered += q.offered;
    admitted += q.admitted;
    offered_rate += q.offered_rate;
    admitted_rate += q.admitted_rate;
    instances += q.instances;
    nodes += q.nodes;
    feasible += q.feasible ? 1.0 : 0.0;
    latency_ms.insert(latency_ms.end(), q.latency_ms.begin(),
                      q.latency_ms.end());
  }
  char line[320];
  std::snprintf(line, sizeof line,
                "workload solve-paper: %zu instances x %zu cycle(s) solved "
                "and raced (%s), %.0f feasible; %zu nodes, %u VNFs, %u "
                "requests, %u chain templates, %u requests per instance, "
                "%u threads",
                pool.size(), cycles, std::string(kRaceSpec).c_str(), feasible,
                kNodes, kVnfs, kRequests, kTemplates, kRequestsPerInstance,
                kThreads);
  result.note(line);

  if (options.trace) {
    OfflineLayerStats offline;
    {
      const Tracer::Scope root(tracer, "bench.traced_run", "bench");
      for (const PaperInstance& inst : pool) {
        offline.probe(inst.model, inst.solve_seed, tracer, result);
      }
      probe_online_replay(pool.front().model, tracer, result);
      offline.report(result);
    }
    const double traced_p50 = quantile(offline.solve_serial_s, 0.5) * 1e3;
    const double untraced_p50 = quantile(solve_ms, 0.5);
    result.add("bench.trace_overhead_pct",
               100.0 * (traced_p50 / untraced_p50 - 1.0), "%");
    std::snprintf(line, sizeof line,
                  "tracing overhead: traced solve_p50_ms %.3f vs untraced "
                  "%.3f (same seed, one cycle each)",
                  traced_p50, untraced_p50);
    result.note(line);
    report_layer_shares(tracer, result);
    return result;
  }

  double total_solve_s = 0.0;
  for (const double ms : solve_ms) total_solve_s += ms * 1e-3;
  result.add("events_per_s",
             static_cast<double>(kRequests) *
                 static_cast<double>(solve_ms.size()) / total_solve_s,
             "ev/s");
  result.add("decide_p50_us", quantile(decide_us, 0.5), "us");
  result.add("decide_p99_us", quantile(decide_us, 0.99), "us");
  result.add("solve_p50_ms", quantile(solve_ms, 0.5), "ms");
  result.add("solve_p90_ms", quantile(solve_ms, 0.9), "ms");
  result.add("race_p50_ms", quantile(race_ms, 0.5), "ms");
  result.add("setup_s", quantile(setup_s, 0.5), "s");
  result.add("admitted_frac", admitted / offered, "ratio");
  result.add("availability", admitted_rate / offered_rate, "ratio");
  result.add("eq16_mean_ms", mean(latency_ms), "ms");
  result.add("eq16_p99_ms", quantile(latency_ms, 0.99), "ms");
  const double n = static_cast<double>(first_cycle.size());
  result.add("instances_mean", instances / n, "count");
  result.add("nodes_in_service", nodes / n, "count");
  std::snprintf(line, sizeof line,
                "samples: %zu solves, %zu races, %zu set-ups",
                solve_ms.size(), race_ms.size(), setup_s.size());
  result.note(line);
  return result;
}

}  // namespace perfbench
