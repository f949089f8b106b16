// The serve workloads: serve-steady-1k and serve-faults-ckpt (README.md).
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "serve.h"
#include "nfv/topology/builders.h"
#include "nfv/workload/generator.h"

namespace perfbench {

namespace {

using nfv::serve::ServeEngine;

constexpr std::size_t kNodes = 32;
constexpr std::uint32_t kVnfs = 16;
/// Wall time between two reference solve-and-race samples.  They run
/// between events throughout the passes, so they sample the same host
/// conditions as the serve figures (~100 samples in a 20 s run).
constexpr std::chrono::milliseconds kReferenceEvery{150};

struct ServeSpec {
  std::string_view name;
  std::uint32_t base_requests = 100;  ///< chain templates for the stream
  std::uint32_t base_templates = 0;
  /// Live requests the warm-up must reach; the stream's own equilibrium
  /// target sits 5% above it, so the trace crosses it on its approach
  /// instead of after a long random walk around its equilibrium.
  std::size_t live_target = 0;
  nfv::workload::EventStreamConfig stream;
  std::uint64_t window_events = 0;
  nfv::serve::ServeConfig config;
  std::uint64_t checkpoint_every = 0;
  bool mid_restore = false;
  double sample_dt = 0.05;
  std::uint64_t eq16_every = 100;
  std::uint32_t setup_reps = 3;
};

ServeSpec steady_1k() {
  ServeSpec s;
  s.name = "serve-steady-1k";
  s.live_target = 1000;
  s.stream.mean_interarrival = 1e-3;
  s.stream.rate_change_fraction = 0.15;
  s.window_events = 2000;
  s.sample_dt = 0.05;
  s.eq16_every = 100;
  s.setup_reps = 3;
  return s;
}

ServeSpec faults_ckpt() {
  ServeSpec s;
  s.name = "serve-faults-ckpt";
  s.base_requests = 40;
  s.base_templates = 8;
  s.live_target = 100;
  s.stream.mean_interarrival = 1e-3;
  s.stream.rate_change_fraction = 0.15;
  s.stream.churn_node_count = 8;
  s.stream.node_mtbf = 2.0;
  s.stream.node_mttr = 0.5;
  s.stream.ramp_amplitude = 0.5;
  s.stream.ramp_period = 8.0;
  s.stream.burst_every = 5.0;
  s.stream.burst_length = 1.0;
  s.stream.burst_factor = 2.0;
  s.window_events = 30000;
  s.config.autoscale.policy = nfv::serve::ScalePolicy::kReactive;
  s.config.snapshot_every = 1.0;
  s.checkpoint_every = 1000;
  s.mid_restore = true;
  s.sample_dt = 0.25;
  s.eq16_every = 500;
  s.setup_reps = 5;
  return s;
}

/// The serve engine after warm-up, plus the inputs it was built from.
/// `base` holds the datacenter topology and the workload whose VNFs and
/// chain templates the trace uses.
struct WarmState {
  nfv::core::SystemModel base;
  std::string btrace;
  std::uint64_t warm_events = 0;
  nfv::serve::BinaryTraceCursor cursor;
  std::optional<ServeEngine> engine;
};

/// Index just past the first event at which the trace's own live count
/// reaches `target`.
std::uint64_t warm_up_length(const nfv::workload::EventTrace& trace,
                             std::size_t target) {
  std::size_t live = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto kind = trace.events[i].kind;
    if (kind == nfv::workload::StreamEventKind::kArrive) ++live;
    if (kind == nfv::workload::StreamEventKind::kDepart) --live;
    if (live >= target) return i + 1;
  }
  throw std::runtime_error("trace never reaches its target population");
}

/// The datacenter every serve seed runs on: the topology and base
/// workload `nfvpr generate-topology` / `generate-workload` emit at their
/// default seed.  Only the trace comes from the run's seed, so a seed
/// varies the traffic, not the machine park it lands on.
constexpr std::uint64_t kDatacenterSeed = 1;

/// Set-up, as timed by setup_s: input generation, btrace encode, engine
/// construction and the warm-up replay.
WarmState set_up(const ServeSpec& spec, std::uint64_t seed) {
  WarmState w;
  nfv::Rng topology_rng(kDatacenterSeed);
  w.base.topology =
      nfv::topo::make_star(kNodes, {1000.0, 5000.0}, {}, topology_rng);
  nfv::workload::WorkloadConfig wcfg;
  wcfg.vnf_count = kVnfs;
  wcfg.request_count = spec.base_requests;
  wcfg.chain_template_count = spec.base_templates;
  nfv::Rng workload_rng(kDatacenterSeed);
  w.base.workload =
      nfv::workload::WorkloadGenerator(wcfg).generate(workload_rng);
  const nfv::workload::Workload& base = w.base.workload;
  nfv::Rng rng(seed);
  nfv::workload::EventStreamConfig stream = spec.stream;
  stream.target_population = spec.live_target + spec.live_target / 20;
  stream.event_count = 12 * spec.live_target + spec.window_events;
  nfv::workload::EventTrace trace =
      nfv::workload::EventStreamGenerator(base, stream).generate(rng);
  w.warm_events = warm_up_length(trace, spec.live_target);
  if (w.warm_events + spec.window_events > trace.events.size()) {
    throw std::runtime_error("trace too short for warm-up plus window");
  }
  trace.events.resize(w.warm_events + spec.window_events);
  w.btrace = nfv::workload::save_binary_trace_string(trace);

  w.engine.emplace(w.base.topology, base.vnfs, spec.config);
  nfv::workload::BinaryTraceDecoder decoder(w.btrace);
  nfv::workload::StreamEvent event;
  for (std::uint64_t i = 0; i < w.warm_events; ++i) {
    decoder.next(event);
    (void)w.engine->on_event(event);
  }
  w.cursor = {decoder.byte_offset(), decoder.last_time_bits()};
  return w;
}

PassOptions pass_options(const ServeSpec& spec) {
  PassOptions o;
  o.events = spec.window_events;
  o.checkpoint_every = spec.checkpoint_every;
  o.mid_restore = spec.mid_restore;
  o.sample_dt = spec.sample_dt;
  o.eq16_every = spec.eq16_every;
  return o;
}

/// Rewinds to the start of the steady window from the warm checkpoint
/// (untimed) and runs one pass.
PassStats rewind_and_run(const WarmState& w, const std::string& warm_ckpt,
                         const PassOptions& options,
                         std::optional<ServeEngine>& engine, Tracer& tracer,
                         RunResult& result) {
  std::uint64_t cursor = 0;
  nfv::serve::BinaryTraceCursor btrace;
  bool has_btrace = false;
  const nfv::core::SystemModel& base = w.base;
  engine.emplace(nfv::serve::restore_checkpoint(
      warm_ckpt, base.topology, base.workload.vnfs, &cursor, &btrace,
      &has_btrace));
  nfv::workload::BinaryTraceDecoder decoder(w.btrace);
  decoder.seek(btrace.byte_offset, cursor, btrace.time_bits);
  return run_pass(engine, decoder, base.topology, base.workload.vnfs, options,
                  tracer, result);
}

void describe(const ServeSpec& spec, const WarmState& w,
              const PassStats& pass, std::size_t passes, RunResult& result) {
  char line[400];
  std::snprintf(
      line, sizeof line,
      "workload %.*s: warm-up %llu events (trace live count reaches %zu), "
      "steady window %llu events x %zu pass(es); live min/mean/max "
      "%.0f/%.1f/%.0f; members per VNF %.1f; instances mean %.1f; "
      "node-downs %llu; checkpoints %zu per pass; btrace %zu bytes",
      static_cast<int>(spec.name.size()), spec.name.data(),
      static_cast<unsigned long long>(w.warm_events),
      spec.live_target,
      static_cast<unsigned long long>(pass.events), passes,
      quantile(pass.live, 0.0), mean(pass.live), quantile(pass.live, 1.0),
      pass.members_per_vnf, mean(pass.instances),
      static_cast<unsigned long long>(pass.last.node_downs -
                                      pass.first.node_downs),
      pass.save_ms.size(), w.btrace.size());
  result.note(line);
}

}  // namespace

RunResult run_serve_workload(const RunOptions& options, Tracer& tracer) {
  const ServeSpec spec =
      options.workload == "serve-steady-1k" ? steady_1k() : faults_ckpt();
  RunResult result;
  Tracer untraced(false);

  // Set up several times; every repetition must land in the same state.
  std::vector<double> setup_s;
  WarmState warm;
  std::optional<ServeEngine::Snapshot> first_snapshot;
  const std::uint32_t reps = options.trace ? 1 : spec.setup_reps;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    warm = set_up(spec, options.seed);
    setup_s.push_back(seconds_since(start));
    const auto snap = warm.engine->snapshot();
    if (!first_snapshot) {
      first_snapshot = snap;
    } else if (snap != *first_snapshot) {
      result.fail("warm-up is not deterministic across set-ups");
    }
  }
  const std::string warm_ckpt = nfv::serve::save_checkpoint_string(
      *warm.engine, warm.warm_events, &warm.cursor);
  warm.engine.reset();

  const PassOptions popts = pass_options(spec);
  std::optional<ServeEngine> engine;
  std::vector<PassStats> passes;
  std::vector<double> solve_ms, race_ms;
  const auto untraced_pass = [&](const PassOptions& opts) {
    PassStats pass =
        rewind_and_run(warm, warm_ckpt, opts, engine, untraced, result);
    if (!passes.empty() && pass.fingerprint() != passes.front().fingerprint()) {
      result.fail("pass " + std::to_string(passes.size() + 1) +
                      " differs from pass 1 on the same seed",
                  pass.events);
    }
    passes.push_back(std::move(pass));
  };
  const auto events_per_s = [&] {
    double events = 0.0, busy = 0.0;
    for (const PassStats& p : passes) {
      events += static_cast<double>(p.events);
      busy += p.busy_s;
    }
    return events / busy;
  };

  if (options.trace) {
    // The traced pass sits between two untraced ones on the same seed;
    // their difference is the tracing overhead.
    untraced_pass(popts);
    PassOptions traced_opts = popts;
    traced_opts.layer_probes = true;
    PassStats traced;
    OfflineLayerStats offline;
    {
      const Tracer::Scope root(tracer, "bench.traced_run", "bench");
      traced = rewind_and_run(warm, warm_ckpt, traced_opts, engine, tracer,
                              result);
      const PaperInstance reference = paper_instance(kDatacenterSeed, 0);
      offline.probe(reference.model, reference.solve_seed, tracer, result);
      probe_end_state(engine, warm.base.topology, warm.base.workload.vnfs,
                      warm.btrace,
                      warm.cursor, warm.warm_events, spec.window_events,
                      traced, tracer, result);
    }
    untraced_pass(popts);
    describe(spec, warm, passes.front(), passes.size(), result);
    report_serve_layers(traced, result);
    offline.report(result);
    const double traced_eps =
        static_cast<double>(traced.events) / traced.busy_s;
    result.add("bench.trace_overhead_pct",
               100.0 * (events_per_s() / traced_eps - 1.0), "%");
    char line[200];
    std::snprintf(line, sizeof line,
                  "tracing overhead: traced events_per_s %.1f vs untraced "
                  "%.1f (same seed, one traced pass between two untraced)",
                  traced_eps, events_per_s());
    result.note(line);
    report_layer_shares(tracer, result);
    return result;
  }

  // The serve path never solves offline, so solve_* and race_* time
  // solve-paper's instances at seed 1 in turn, in this process: a control
  // that a serve-only change should leave alone.  A single instance's
  // times split into one mode per vCPU speed, and their median jumped
  // between the modes from run to run; over the pool the distribution is
  // continuous.  (The datacenter's own base instance solves in ~0.3 ms,
  // where run-to-run noise reached 1.7x.)
  const std::vector<PaperInstance> references = paper_pool(kDatacenterSeed);
  std::size_t next_instance = 0;
  PassOptions measured = popts;
  auto next_reference = Clock::now() + kReferenceEvery;
  measured.between_events = [&] {
    if (Clock::now() < next_reference) return;
    const PaperInstance& reference = references[next_instance];
    next_instance = (next_instance + 1) % references.size();
    const SolveSample s = solve_and_race(reference.model, reference.solve_seed,
                                         1, untraced, result);
    solve_ms.push_back(s.solve_s * 1e3);
    race_ms.push_back(s.race_s * 1e3);
    next_reference = Clock::now() + kReferenceEvery;
  };
  const auto measure_start = Clock::now();
  do {
    untraced_pass(measured);
  } while (seconds_since(measure_start) < options.seconds);

  std::vector<double> decide_us;
  for (const PassStats& p : passes) {
    decide_us.insert(decide_us.end(), p.decide_us.begin(), p.decide_us.end());
  }
  const PassStats& first = passes.front();
  describe(spec, warm, first, passes.size(), result);
  std::string rates = "events_per_s by pass:";
  for (const PassStats& p : passes) {
    char rate[32];
    std::snprintf(rate, sizeof rate, " %.1f",
                  static_cast<double>(p.events) / p.busy_s);
    rates += rate;
  }
  result.note(rates);
  const double window_arrivals =
      static_cast<double>(first.last.arrivals - first.first.arrivals);
  const double window_failed = static_cast<double>(
      (first.last.rejected - first.first.rejected) +
      (first.last.shed - first.first.shed) +
      (first.last.shed_fault - first.first.shed_fault) +
      (first.last.shed_overload - first.first.shed_overload));
  result.add("events_per_s", events_per_s(), "ev/s");
  result.add("decide_p50_us", quantile(decide_us, 0.5), "us");
  result.add("decide_p99_us", quantile(decide_us, 0.99), "us");
  result.add("solve_p50_ms", quantile(solve_ms, 0.5), "ms");
  result.add("solve_p90_ms", quantile(solve_ms, 0.9), "ms");
  result.add("race_p50_ms", quantile(race_ms, 0.5), "ms");
  result.add("setup_s", quantile(setup_s, 0.5), "s");
  result.add("admitted_frac",
             window_arrivals > 0 ? 1.0 - window_failed / window_arrivals : 1.0,
             "ratio");
  result.add("availability", first.last.availability, "ratio");
  result.add("eq16_mean_ms", mean(first.eq16_ms), "ms");
  result.add("eq16_p99_ms", quantile(first.eq16_ms, 0.99), "ms");
  result.add("instances_mean", mean(first.instances), "count");
  result.add("nodes_in_service", mean(first.nodes), "count");
  char line[200];
  std::snprintf(line, sizeof line,
                "samples: %zu on_event timings, %zu solves and races of "
                "solve-paper's seed-1 instances, %zu set-ups",
                decide_us.size(), solve_ms.size(), setup_s.size());
  result.note(line);
  return result;
}

}  // namespace perfbench
