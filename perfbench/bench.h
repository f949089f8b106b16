// Shared pieces of the end-to-end benchmark (README.md): wall-clock
// helpers, the in-memory span recorder of traced runs, the result record
// every workload fills, and the offline probes both workload families use.
//
// Everything here times calls into the libraries' public API from the
// outside; nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nfv/common/stats.h"
#include "nfv/core/joint_optimizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using nfv::mean;
using nfv::quantile;

/// In-memory span recorder.  A disabled tracer records nothing, so the
/// untraced runs that produce the end-to-end metrics pay one branch per
/// scope.  Layer names are the repository's module names (workload, serve,
/// scheduling, placement, core, exec) plus "bench" for the benchmark's own
/// bookkeeping.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// RAII span: opened on construction, closed on destruction, parented
  /// to the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::string_view layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t id_ = -1;
  };

  /// Self time per layer in seconds: each span's duration minus the part
  /// its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Wall time covered by root spans.
  [[nodiscard]] double root_seconds() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  /// Writes every span as JSON ("perfbench.spans/1"); false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string_view name;
    std::string_view layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// CPU placement for untraced runs.  The vCPUs of a shared host run the
/// same work at speeds up to 2x apart, and which vCPU is slow changes
/// within seconds, so a run on a fixed CPU, or spread evenly over all of
/// them, is fast or slow by chance.  While alive, a FastestCpu keeps the
/// thread that created it on the fastest CPU the process may use: every
/// period it times the same short spin on each CPU and moves the thread
/// when another CPU ran it more than 10% faster than the thread's own.
/// A host without affinity control leaves the thread where it is.
class FastestCpu {
 public:
  explicit FastestCpu(std::chrono::milliseconds period);
  ~FastestCpu();
  FastestCpu(const FastestCpu&) = delete;
  FastestCpu& operator=(const FastestCpu&) = delete;

  [[nodiscard]] std::size_t cpu_count() const { return cpus_.size(); }
  /// Moves made so far.
  [[nodiscard]] std::size_t moves() const { return moves_.load(); }

 private:
  void run();
  /// Seconds the spin took on `cpu`, run from the picker's own thread.
  double time_spin_on(int cpu);

  int tid_ = 0;
  std::chrono::milliseconds period_;
  std::vector<int> cpus_;
  std::atomic<std::size_t> moves_{0};
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  ///< declared last: started after the rest is set
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the end-to-end or per-layer metrics (by
/// --trace), the operation counts, failed checks, and free-form lines
/// describing what the workload exercised.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check covering `operations` operations.
  void fail(std::string what, std::uint64_t operations = 1);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required: run.py passes run_seconds
  bool trace = false;
  std::string spans_out;
};

/// Each runs one workload; `tracer` is enabled exactly when options.trace.
RunResult run_serve_workload(const RunOptions& options, Tracer& tracer);
RunResult run_solve_workload(const RunOptions& options, Tracer& tracer);

// ---------------------------------------------------------------------------
// Offline probes shared by both workload families.
// ---------------------------------------------------------------------------

/// One paper-scale instance from solve-paper's generator: a 50-node star
/// with A_v in [1000, 5000], 30 VNFs, 1,000 requests, 16 chain templates,
/// 20 requests per instance.  (seed, i) is the i-th instance solve-paper
/// solves for that seed; `solve_seed` seeds its solver.
struct PaperInstance {
  nfv::core::SystemModel model;
  std::uint64_t solve_seed = 0;
};
PaperInstance paper_instance(std::uint64_t seed, std::size_t index);
/// The 64 instances solve-paper solves for `seed`.
std::vector<PaperInstance> paper_pool(std::uint64_t seed);

/// The portfolio every race runs: all backends under a deterministic work
/// budget, so race results repeat exactly for a seed at any thread count.
inline constexpr std::string_view kRaceSpec = "portfolio:work=16,det=1";
/// The race's bfdsu backend alone, under the same budget.
inline constexpr std::string_view kSoloSpec = "bfdsu:work=16,det=1";

struct SolveSample {
  double solve_s = 0.0;
  double race_s = 0.0;
  nfv::core::JointResult solve;
};

/// Solves `model` with JointOptimizer (BFDSU+RCKK) and races it with
/// PortfolioDriver; checks per-node placed demand against A_v and the
/// race winner against an untimed run of bfdsu alone (kSoloSpec),
/// recording failures in `result`.
SolveSample solve_and_race(const nfv::core::SystemModel& model,
                           std::uint64_t seed, std::uint32_t threads,
                           Tracer& tracer, RunResult& result);

/// Outside-in phase split of one solve, each phase timed by calling the
/// layer's public entry point the way JointOptimizer does.
struct PhaseSample {
  double place_s = 0.0;
  std::uint64_t place_iterations = 0;
  double contexts_s = 0.0;
  double schedule_s = 0.0;
  std::uint64_t schedule_work = 0;
};
PhaseSample solve_phases(const nfv::core::SystemModel& model,
                         std::uint64_t seed, Tracer& tracer);

/// Accumulates the offline per-layer metrics over solves of one run.
struct OfflineLayerStats {
  std::vector<PhaseSample> phases;     ///< serial, like every workload
  std::vector<double> solve_s;         ///< 2 threads
  std::vector<double> race_s;          ///< 2 threads
  std::vector<double> solve_serial_s;  ///< 1 thread
  std::vector<double> race_serial_s;   ///< 1 thread

  /// Times solve and race at 2 and at 1 thread, then the serial phase
  /// split.
  void probe(const nfv::core::SystemModel& model, std::uint64_t seed,
             Tracer& tracer, RunResult& result);
  /// Appends the placement/core/scheduling/exec per-layer metrics.
  void report(RunResult& result) const;
};

/// Appends one line per layer: self time and share of the traced wall.
void report_layer_shares(const Tracer& tracer, RunResult& result);

}  // namespace perfbench
