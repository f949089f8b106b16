#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "nfv/core/solver.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/placement/algorithm.h"
#include "nfv/scheduling/algorithm.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::string_view layer) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  id_ = static_cast<std::int32_t>(tracer.spans_.size());
  const std::int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back({name, layer, tracer.now_ns(), 0, parent});
  tracer.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(id_)].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[std::string(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double Tracer::root_seconds() const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"schema\": \"perfbench.spans/1\", \"spans\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%.*s\", \"layer\": \"%.*s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}%s\n",
                 i, static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<int>(s.layer.size()), s.layer.data(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

FastestCpu::FastestCpu(std::chrono::milliseconds period)
    : tid_(static_cast<int>(gettid())), period_(period) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
  thread_ = std::thread([this] { run(); });
}

FastestCpu::~FastestCpu() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // Hand the thread back to every CPU it started with.
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int cpu : cpus_) CPU_SET(static_cast<std::size_t>(cpu), &all);
  if (!cpus_.empty()) (void)sched_setaffinity(tid_, sizeof all, &all);
}

double FastestCpu::time_spin_on(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return 0.0;
  sched_yield();  // let the move happen before the clock starts
  // ~0.5 ms of integer and cache work on a fast vCPU.
  static std::uint32_t table[1u << 14];
  static volatile std::uint32_t sink;
  std::uint32_t x = 1;
  const auto start = Clock::now();
  for (int i = 0; i < 200000; ++i) {
    x = x * 1664525u + 1013904223u;
    table[x >> 18] += x;
  }
  const double s = seconds_since(start);
  sink = table[x >> 18];
  return s;
}

void FastestCpu::run() {
  if (cpus_.size() < 2) return;
  std::size_t current = cpus_.size();  // none pinned yet
  std::vector<double> spin(cpus_.size());
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      spin[i] = time_spin_on(cpus_[i]);
    }
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(spin.begin(), spin.end()) - spin.begin());
    if (current == cpus_.size() || spin[best] * 1.1 < spin[current]) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(static_cast<std::size_t>(cpus_[best]), &one);
      if (sched_setaffinity(tid_, sizeof one, &one) == 0) {
        current = best;
        ++moves_;
      }
    }
    lock.lock();
    wake_.wait_for(lock, period_, [this] { return stop_; });
  }
}

void RunResult::fail(std::string what, std::uint64_t operations) {
  check_failures.push_back(std::move(what));
  failed += operations;
}

// ---------------------------------------------------------------------------
// Offline probes
// ---------------------------------------------------------------------------

namespace {

std::uint64_t rejected_requests(const nfv::core::JointResult& r) {
  return static_cast<std::uint64_t>(
      std::count_if(r.requests.begin(), r.requests.end(),
                    [](const auto& o) { return !o.admitted; }));
}

void check_node_capacity(const nfv::core::SystemModel& model,
                         const nfv::core::JointResult& r, RunResult& result) {
  if (!r.feasible) return;
  std::vector<double> placed(model.topology.compute_count(), 0.0);
  for (std::size_t f = 0; f < r.placement.assignment.size(); ++f) {
    const auto& node = r.placement.assignment[f];
    if (!node) {
      result.fail("feasible solve left VNF " + std::to_string(f) + " unplaced");
      return;
    }
    placed[node->index()] += model.workload.vnfs[f].total_demand();
  }
  for (std::size_t v = 0; v < placed.size(); ++v) {
    const double cap = model.topology.capacity(nfv::NodeId{
        static_cast<std::uint32_t>(v)});
    if (placed[v] > cap * (1.0 + 1e-9)) {
      result.fail("node " + std::to_string(v) + " holds demand " +
                  std::to_string(placed[v]) + " > A_v " + std::to_string(cap));
    }
  }
}

/// The race's total order: feasible first, then fewer rejections, then the
/// lower Eq. 16 objective.  Rejections are recounted from the requests.
bool worse_than(const nfv::core::JointResult& a,
                const nfv::core::JointResult& b) {
  if (a.feasible != b.feasible) return !a.feasible;
  const std::uint64_t rejected_a = rejected_requests(a);
  const std::uint64_t rejected_b = rejected_requests(b);
  if (rejected_a != rejected_b) return rejected_a > rejected_b;
  return a.total_latency > b.total_latency;
}

}  // namespace

SolveSample solve_and_race(const nfv::core::SystemModel& model,
                           std::uint64_t seed, std::uint32_t threads,
                           Tracer& tracer, RunResult& result) {
  nfv::core::JointConfig config;
  config.exec.threads = threads;
  const nfv::core::JointOptimizer optimizer(config);
  const nfv::core::PortfolioDriver driver(
      config, nfv::core::parse_solver_spec(kRaceSpec));
  SolveSample sample;
  {
    const Tracer::Scope span(tracer, "core.JointOptimizer.run", "core");
    const auto start = Clock::now();
    sample.solve = optimizer.run(model, seed);
    sample.solve_s = seconds_since(start);
  }
  nfv::core::SolverOutcome race;
  {
    const Tracer::Scope span(tracer, "core.PortfolioDriver.run", "core");
    const auto start = Clock::now();
    race = driver.run(model, seed);
    sample.race_s = seconds_since(start);
  }
  result.attempted += 2;
  check_node_capacity(model, sample.solve, result);
  check_node_capacity(model, race.result, result);
  // The winner must be no worse than bfdsu raced alone on the same model,
  // seed and budget: a run outside the race, untimed.
  const nfv::core::PortfolioDriver solo(
      config, nfv::core::parse_solver_spec(kSoloSpec));
  if (worse_than(race.result, solo.run(model, seed).result)) {
    result.fail("race winner " + race.winner +
                " is worse than bfdsu run alone");
  }
  return sample;
}

PhaseSample solve_phases(const nfv::core::SystemModel& model,
                         std::uint64_t seed, Tracer& tracer) {
  PhaseSample out;
  nfv::Rng rng(seed);
  {
    const Tracer::Scope span(tracer, "placement.BfdsuPlacement.place",
                             "placement");
    const auto start = Clock::now();
    const auto problem =
        nfv::placement::make_problem(model.topology, model.workload);
    const auto placed =
        nfv::placement::make_placement_algorithm("BFDSU")->place(problem, rng);
    out.place_s = seconds_since(start);
    out.place_iterations = placed.iterations;
  }
  std::vector<nfv::core::VnfSchedulingContext> contexts;
  {
    const Tracer::Scope span(tracer, "core.make_scheduling_contexts", "core");
    const auto start = Clock::now();
    contexts = nfv::core::make_scheduling_contexts(model.workload);
    out.contexts_s = seconds_since(start);
  }
  {
    const Tracer::Scope span(tracer, "scheduling.RckkScheduling.schedule",
                             "scheduling");
    // Fanned out per VNF over the installed pool, as JointOptimizer does.
    std::vector<nfv::Rng> children;
    for (std::size_t f = 0; f < contexts.size(); ++f) {
      children.push_back(rng.fork(f));
    }
    const nfv::sched::RckkScheduling rckk;
    const auto start = Clock::now();
    const std::vector<std::uint64_t> work =
        nfv::exec::parallel_map(contexts.size(), [&](std::size_t f) {
          return rckk.schedule(contexts[f].problem, children[f]).work;
        });
    out.schedule_s = seconds_since(start);
    out.schedule_work =
        std::accumulate(work.begin(), work.end(), std::uint64_t{0});
  }
  return out;
}

void OfflineLayerStats::probe(const nfv::core::SystemModel& model,
                              std::uint64_t seed, Tracer& tracer,
                              RunResult& result) {
  nfv::exec::ThreadPool pool(2);
  {
    const nfv::exec::ScopedPool scope(pool);
    const SolveSample s = solve_and_race(model, seed, 2, tracer, result);
    solve_s.push_back(s.solve_s);
    race_s.push_back(s.race_s);
  }
  const SolveSample s = solve_and_race(model, seed, 1, tracer, result);
  solve_serial_s.push_back(s.solve_s);
  race_serial_s.push_back(s.race_s);
  // Each phase keeps its median of three warm repetitions.
  std::vector<PhaseSample> reps;
  for (int rep = 0; rep < 3; ++rep) {
    reps.push_back(solve_phases(model, seed, tracer));
  }
  const auto median_of = [&](double PhaseSample::*field) {
    std::vector<double> v;
    for (const PhaseSample& p : reps) v.push_back(p.*field);
    return quantile(v, 0.5);
  };
  PhaseSample median = reps.front();
  median.place_s = median_of(&PhaseSample::place_s);
  median.contexts_s = median_of(&PhaseSample::contexts_s);
  median.schedule_s = median_of(&PhaseSample::schedule_s);
  phases.push_back(median);
}

void OfflineLayerStats::report(RunResult& result) const {
  std::vector<double> place, iterations, contexts, schedule, work;
  for (const PhaseSample& p : phases) {
    place.push_back(p.place_s * 1e3);
    iterations.push_back(static_cast<double>(p.place_iterations));
    contexts.push_back(p.contexts_s * 1e3);
    schedule.push_back(p.schedule_s * 1e3);
    work.push_back(static_cast<double>(p.schedule_work));
  }
  const double solve_ms = mean(solve_serial_s) * 1e3;
  result.add("placement.place_ms", mean(place), "ms");
  result.add("placement.iterations", mean(iterations), "count");
  result.add("core.contexts_ms", mean(contexts), "ms");
  result.add("scheduling.schedule_ms", mean(schedule), "ms");
  result.add("scheduling.work", mean(work), "count");
  result.add("core.solve_residual_ms",
             solve_ms - mean(place) - mean(contexts) - mean(schedule), "ms");
  result.add("placement.solve_share_pct", 100.0 * mean(place) / solve_ms, "%");
  result.add("scheduling.solve_share_pct", 100.0 * mean(schedule) / solve_ms,
             "%");
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  result.add("exec.solve_speedup", sum(solve_serial_s) / sum(solve_s), "x");
  result.add("exec.race_speedup", sum(race_serial_s) / sum(race_s), "x");
  char line[256];
  std::snprintf(line, sizeof line,
                "offline phase split over %zu solve(s), base = mean "
                "JointOptimizer::run %.3f ms: placement %.1f%%, contexts "
                "%.1f%%, scheduling %.1f%%, residual (admission + Eq. 16, "
                "derived) %.1f%%",
                phases.size(), solve_ms, 100.0 * mean(place) / solve_ms,
                100.0 * mean(contexts) / solve_ms,
                100.0 * mean(schedule) / solve_ms,
                100.0 *
                    (solve_ms - mean(place) - mean(contexts) -
                     mean(schedule)) /
                    solve_ms);
  result.note(line);
}

void report_layer_shares(const Tracer& tracer, RunResult& result) {
  const double wall = tracer.root_seconds();
  char line[256];
  std::snprintf(line, sizeof line,
                "traced wall %.3f s over %zu spans; self time by layer:", wall,
                tracer.span_count());
  result.note(line);
  for (const auto& [layer, self] : tracer.self_seconds()) {
    std::snprintf(line, sizeof line, "  %-10s %10.3f ms  %5.1f%% of %.3f s",
                  layer.c_str(), self * 1e3,
                  wall > 0.0 ? 100.0 * self / wall : 0.0, wall);
    result.note(line);
  }
}

}  // namespace perfbench
