// nfv_perfbench: the end-to-end benchmark of the serve engine and the
// offline solver (README.md).
//
//   nfv_perfbench --workload serve-steady-1k --seed 1 --seconds 20 --trace 0
//
// Prints what the workload exercised, a host and build record, every
// metric by name with its unit, and as the last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run whose spans go to --spans-out.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"

namespace {

constexpr const char* kWorkloads[] = {"serve-steady-1k", "serve-faults-ckpt",
                                      "solve-paper"};

bool known_workload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "nfv_perfbench: %s\nusage: nfv_perfbench --workload "
               "{serve-steady-1k|serve-faults-ckpt|solve-paper} --seconds S "
               "[--seed N] [--trace 0|1] [--spans-out PATH]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void print_host_record(const perfbench::RunOptions& options,
                       std::size_t steered_cpus) {
  // Every workload's measured loop runs on one thread; the traced run's
  // exec probes time solves at 1 and 2 threads.
  const unsigned threads = 1;
  std::printf(
      "host: nproc=%u compiler=\"%s\" build_type=%s optimized=%s NDEBUG=%s "
      "flags=\"%s\" threads=%u fastest_cpu_of=%zu seed=%llu seconds=%g "
      "trace=%d\n",
      std::thread::hardware_concurrency(), __VERSION__, NFV_BENCH_BUILD_TYPE,
      optimized_build() ? "yes" : "no",
#ifdef NDEBUG
      "defined",
#else
      "undefined",
#endif
      NFV_BENCH_CXX_FLAGS, threads, steered_cpus,
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  if (!optimized_build()) {
    const char* warning =
        "WARNING: the libraries were NOT built optimised (need -O2 or -O3 "
        "and NDEBUG); every timing below is meaningless\n";
    std::fputs(warning, stdout);
    std::fputs(warning, stderr);
  }
}

void print_result(const perfbench::RunResult& result) {
  const bool correct = result.failed == 0 && result.check_failures.empty();
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
  for (const std::string& f : result.check_failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
  for (const auto& m : result.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::uint64_t attempted = result.attempted > 0 ? result.attempted : 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(
                  std::min(result.failed, attempted)));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(("missing value for " + arg).c_str());
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage(("bad number for " + arg).c_str());
    }
  }
  if (!known_workload(options.workload)) return usage("unknown --workload");
  if (!(options.seconds > 0.0)) return usage("--seconds S (> 0) is required");

  // Untraced runs stay on the fastest CPU (see FastestCpu); traced runs
  // stay put so the 2-thread exec probe's workers may use every CPU.
  std::optional<perfbench::FastestCpu> fastest;
  if (!options.trace) fastest.emplace(std::chrono::milliseconds(250));
  print_host_record(options, fastest ? fastest->cpu_count() : 0);
  perfbench::Tracer tracer(options.trace);
  perfbench::RunResult result;
  try {
    result = options.workload == "solve-paper"
                 ? perfbench::run_solve_workload(options, tracer)
                 : perfbench::run_serve_workload(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfv_perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    result = {};
    result.fail(std::string("run aborted: ") + e.what());
  }
  if (!options.trace && result.check_failures.empty()) {
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (const auto& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
  }
  if (options.trace && !options.spans_out.empty()) {
    if (!tracer.write_json(options.spans_out)) {
      std::fprintf(stderr, "nfv_perfbench: cannot write %s\n",
                   options.spans_out.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", tracer.span_count(),
                  options.spans_out.c_str());
    }
  }
  if (fastest) {
    result.note("cpu moves to a faster CPU: " +
                std::to_string(fastest->moves()));
  }
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  print_result(result);
  return result.check_failures.empty() ? 0 : 1;
}
