#include "serve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nfv/scheduling/algorithm.h"

namespace perfbench {

namespace {

using nfv::serve::ServeEngine;
using nfv::workload::StreamEventKind;

constexpr std::size_t kind_index(StreamEventKind kind) {
  return static_cast<std::size_t>(kind);
}

/// Terminal and live buckets every arrival must land in exactly once.
std::uint64_t accounted(const nfv::serve::ServeSummary& s) {
  return s.live_requests + s.queued_requests + s.retry_queued + s.rejected +
         s.departures + s.shed + s.shed_fault + s.shed_overload;
}

/// Time-sampled state plus the outside-in invariant checks.
void sample_state(const ServeEngine& engine, std::uint64_t events_covered,
                  PassStats& stats, Tracer& tracer, RunResult& result) {
  const Tracer::Scope span(tracer, "bench.sample", "bench");
  const nfv::serve::ServeSummary s = engine.summary();
  stats.instances.push_back(static_cast<double>(s.active_instances));
  stats.nodes.push_back(static_cast<double>(s.nodes_in_service));
  stats.live.push_back(static_cast<double>(s.live_requests));
  if (s.arrivals != accounted(s)) {
    result.fail("accounting identity broken: arrivals " +
                    std::to_string(s.arrivals) + " != accounted " +
                    std::to_string(accounted(s)),
                events_covered);
  }
  if (s.max_migrations_per_rebalance > engine.config().migration_budget) {
    result.fail("a rebalance moved " +
                    std::to_string(s.max_migrations_per_rebalance) +
                    " requests > K = " +
                    std::to_string(engine.config().migration_budget),
                events_covered);
  }
  const ServeEngine::Snapshot snap = engine.snapshot();
  for (const auto& inst : snap.instances) {
    if (std::binary_search(snap.nodes_down.begin(), snap.nodes_down.end(),
                           inst.node)) {
      result.fail("active instance on down node " + std::to_string(inst.node),
                  events_covered);
      break;
    }
  }
}

void sample_live_rckk(const ServeEngine& engine, PassStats& stats,
                      Tracer& tracer) {
  const Tracer::Scope probe(tracer, "bench.rckk_live_probe", "bench");
  const nfv::workload::Workload live = engine.live_workload();
  const auto contexts = nfv::core::make_scheduling_contexts(live);
  const nfv::sched::RckkScheduling rckk;
  nfv::Rng rng(0);
  for (const auto& ctx : contexts) {
    if (ctx.members.empty()) continue;
    const Tracer::Scope span(tracer, "scheduling.RckkScheduling.schedule",
                             "scheduling");
    const auto start = Clock::now();
    const nfv::sched::Schedule schedule = rckk.schedule(ctx.problem, rng);
    stats.rckk_us.push_back(seconds_since(start) * 1e6);
    stats.rckk_work.push_back(static_cast<double>(schedule.work));
    stats.rckk_members.push_back(static_cast<double>(ctx.members.size()));
  }
}

double members_per_vnf(const ServeEngine& engine) {
  const nfv::workload::Workload live = engine.live_workload();
  std::size_t hops = 0;
  std::vector<bool> used(live.vnfs.size(), false);
  for (const auto& r : live.requests) {
    hops += r.chain.size();
    for (const auto f : r.chain) used[f.index()] = true;
  }
  const auto vnfs = std::count(used.begin(), used.end(), true);
  return vnfs > 0 ? static_cast<double>(hops) / static_cast<double>(vnfs)
                  : 0.0;
}

}  // namespace

std::vector<double> PassStats::fingerprint() const {
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  return {static_cast<double>(events),
          static_cast<double>(last.arrivals),
          static_cast<double>(last.admitted),
          static_cast<double>(last.rejected),
          static_cast<double>(last.shed + last.shed_fault + last.shed_overload),
          static_cast<double>(last.migrations),
          static_cast<double>(last.rebalances),
          static_cast<double>(last.scale_outs),
          static_cast<double>(last.node_downs),
          static_cast<double>(last.autoscale_decisions),
          static_cast<double>(last.work),
          last.availability,
          sum(eq16_ms),
          sum(instances),
          sum(nodes),
          static_cast<double>(checkpoint_bytes_max)};
}

PassStats run_pass(std::optional<ServeEngine>& engine,
                   nfv::workload::BinaryTraceDecoder& decoder,
                   const nfv::topo::Topology& topology,
                   const std::vector<nfv::workload::Vnf>& vnfs,
                   const PassOptions& options, Tracer& tracer,
                   RunResult& result) {
  const Tracer::Scope pass_span(tracer, "bench.pass", "bench");
  PassStats stats;
  stats.first = engine->summary();
  const std::uint64_t base_index = decoder.decoded();
  const std::uint64_t checkpoints =
      options.checkpoint_every > 0 ? options.events / options.checkpoint_every
                                   : 0;
  // Restore mid-pass at the middle checkpoint (the first when there is
  // only one).
  const std::uint64_t restore_at =
      options.mid_restore && checkpoints > 0
          ? options.checkpoint_every * std::max<std::uint64_t>(1, checkpoints / 2)
          : 0;
  double next_sample = -std::numeric_limits<double>::infinity();
  std::uint64_t last_sample = 0;
  nfv::workload::StreamEvent event;
  for (std::uint64_t i = 0; i < options.events; ++i) {
    const auto t0 = Clock::now();
    {
      const Tracer::Scope span(tracer, "workload.BinaryTraceDecoder.next",
                               "workload");
      if (!decoder.next(event)) {
        throw std::runtime_error("trace ran dry inside the steady window");
      }
    }
    const auto t1 = Clock::now();
    {
      const Tracer::Scope span(tracer, "serve.ServeEngine.on_event", "serve");
      (void)engine->on_event(event);
    }
    const auto t2 = Clock::now();
    const double decide_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count();
    stats.busy_s += std::chrono::duration<double>(t2 - t0).count();
    stats.decide_us.push_back(decide_us);
    stats.decide_by_kind_us[kind_index(event.kind)].push_back(decide_us);
    ++stats.events;
    stats.last_time = event.time;

    const std::uint64_t done = i + 1;
    if (options.checkpoint_every > 0 && done % options.checkpoint_every == 0) {
      const nfv::serve::BinaryTraceCursor cursor{decoder.byte_offset(),
                                                 decoder.last_time_bits()};
      std::string text;
      {
        const Tracer::Scope span(tracer, "serve.save_checkpoint_string",
                                 "serve");
        const auto start = Clock::now();
        text = nfv::serve::save_checkpoint_string(*engine, base_index + done,
                                                  &cursor);
        const double s = seconds_since(start);
        stats.busy_s += s;
        stats.save_ms.push_back(s * 1e3);
        ++stats.checkpoints_in_pass;
      }
      stats.checkpoint_bytes_max =
          std::max<std::uint64_t>(stats.checkpoint_bytes_max, text.size());
      if (done == restore_at) {
        const ServeEngine::Snapshot before = engine->snapshot();
        std::uint64_t restored_cursor = 0;
        nfv::serve::BinaryTraceCursor restored_btrace;
        bool has_btrace = false;
        std::optional<ServeEngine> restored;
        {
          const Tracer::Scope span(tracer, "serve.restore_checkpoint", "serve");
          const auto start = Clock::now();
          restored.emplace(nfv::serve::restore_checkpoint(
              text, topology, vnfs, &restored_cursor, &restored_btrace,
              &has_btrace));
          const double s = seconds_since(start);
          stats.busy_s += s;
          stats.restore_ms.push_back(s * 1e3);
        }
        if (restored->snapshot() != before ||
            restored_cursor != base_index + done || !has_btrace ||
            restored_btrace.byte_offset != cursor.byte_offset ||
            restored_btrace.time_bits != cursor.time_bits) {
          result.fail("mid-run restore_checkpoint does not reproduce the "
                      "live engine",
                      options.events - done);
        }
        engine = std::move(restored);
      }
    }
    if (event.time >= next_sample) {
      sample_state(*engine, done - last_sample, stats, tracer, result);
      last_sample = done;
      next_sample = std::isfinite(next_sample)
                        ? next_sample + options.sample_dt
                        : event.time + options.sample_dt;
      while (next_sample <= event.time) next_sample += options.sample_dt;
    }
    if (done % options.eq16_every == 0) {
      std::vector<double> latencies;
      {
        const Tracer::Scope span(tracer,
                                 "serve.ServeEngine.predicted_latencies",
                                 "serve");
        const auto start = Clock::now();
        latencies = engine->predicted_latencies();
        stats.eq16_rescan_us.push_back(seconds_since(start) * 1e6);
      }
      for (const double l : latencies) stats.eq16_ms.push_back(l * 1e3);
      if (options.layer_probes) sample_live_rckk(*engine, stats, tracer);
    }
    if (options.between_events) options.between_events();
  }
  {
    const Tracer::Scope span(tracer, "bench.sample", "bench");
    stats.last = engine->summary();
    stats.members_per_vnf = members_per_vnf(*engine);
  }
  result.attempted += stats.events;
  return stats;
}

void probe_end_state(std::optional<ServeEngine>& engine,
                     const nfv::topo::Topology& topology,
                     const std::vector<nfv::workload::Vnf>& vnfs,
                     const std::string& btrace,
                     const nfv::serve::BinaryTraceCursor& start,
                     std::uint64_t start_index, std::uint64_t events,
                     PassStats& stats, Tracer& tracer, RunResult& result) {
  const Tracer::Scope probe(tracer, "bench.end_state_probe", "bench");
  if (stats.save_ms.empty()) {
    std::string text;
    {
      const Tracer::Scope span(tracer, "serve.save_checkpoint_string", "serve");
      const auto t = Clock::now();
      text = nfv::serve::save_checkpoint_string(*engine, 0);
      stats.save_ms.push_back(seconds_since(t) * 1e3);
    }
    stats.checkpoint_bytes_max = text.size();
    std::uint64_t cursor = 0;
    const auto before = engine->snapshot();
    const Tracer::Scope span(tracer, "serve.restore_checkpoint", "serve");
    const auto t = Clock::now();
    const ServeEngine restored =
        nfv::serve::restore_checkpoint(text, topology, vnfs, &cursor);
    stats.restore_ms.push_back(seconds_since(t) * 1e3);
    if (restored.snapshot() != before) {
      result.fail("probe restore_checkpoint does not reproduce the engine");
    }
    ++result.attempted;
  }
  if (stats.decide_by_kind_us[kind_index(StreamEventKind::kNodeDown)]
          .empty()) {
    // Fail the node carrying the most active instances (lowest id on ties).
    const auto snap = engine->snapshot();
    std::vector<std::uint32_t> per_node(topology.compute_count(), 0);
    for (const auto& inst : snap.instances) ++per_node[inst.node];
    const auto busiest = static_cast<std::uint32_t>(
        std::max_element(per_node.begin(), per_node.end()) - per_node.begin());
    nfv::workload::StreamEvent down;
    down.kind = StreamEventKind::kNodeDown;
    down.node = busiest;
    down.time = stats.last_time;
    const Tracer::Scope span(tracer, "serve.ServeEngine.on_event", "serve");
    const auto t = Clock::now();
    (void)engine->on_event(down);
    stats.decide_by_kind_us[kind_index(StreamEventKind::kNodeDown)].push_back(
        seconds_since(t) * 1e6);
    ++result.attempted;
  }
  {
    // A tight decode loop over the window, repeated for >= 50 ms: per-event
    // spans would cost more than the decode they time.
    const Tracer::Scope span(tracer, "workload.decode_loop", "workload");
    nfv::workload::BinaryTraceDecoder decoder(btrace);
    nfv::workload::StreamEvent event;
    std::uint64_t decoded = 0;
    const auto t = Clock::now();
    do {
      decoder.seek(start.byte_offset, start_index, start.time_bits);
      for (std::uint64_t i = 0; i < events && decoder.next(event); ++i) {
        ++decoded;
      }
    } while (seconds_since(t) < 0.05);
    stats.decode_ns_per_event = seconds_since(t) * 1e9 /
                                static_cast<double>(std::max<std::uint64_t>(
                                    decoded, 1));
  }
}

void report_serve_layers(const PassStats& traced, RunResult& result) {
  const auto& by_kind = traced.decide_by_kind_us;
  const auto& down = by_kind[kind_index(StreamEventKind::kNodeDown)];
  const double events = static_cast<double>(std::max<std::uint64_t>(
      traced.events, 1));
  const auto delta = [&](std::uint64_t nfv::serve::ServeSummary::*field) {
    return static_cast<double>(traced.last.*field - traced.first.*field);
  };
  result.add("serve.on_event.arrive_us",
             mean(by_kind[kind_index(StreamEventKind::kArrive)]), "us");
  result.add("serve.on_event.depart_us",
             mean(by_kind[kind_index(StreamEventKind::kDepart)]), "us");
  result.add("serve.on_event.rate_change_us",
             mean(by_kind[kind_index(StreamEventKind::kRateChange)]), "us");
  result.add("serve.on_event.node_down_p50_us", quantile(down, 0.5), "us");
  result.add("serve.on_event.node_down_max_us", quantile(down, 1.0), "us");
  result.add("serve.work_per_event",
             delta(&nfv::serve::ServeSummary::work) / events, "count");
  result.add("serve.rebalances_per_event",
             delta(&nfv::serve::ServeSummary::rebalances) / events, "count");
  result.add("serve.migrations_per_event",
             delta(&nfv::serve::ServeSummary::migrations) / events, "count");
  result.add("scheduling.rckk_live_us", mean(traced.rckk_us), "us");
  result.add("scheduling.rckk_live_work", mean(traced.rckk_work), "count");
  result.add("scheduling.rckk_live_members", mean(traced.rckk_members),
             "count");
  result.add("serve.eq16_rescan_us", mean(traced.eq16_rescan_us), "us");
  result.add("serve.checkpoint.save_p50_ms", quantile(traced.save_ms, 0.5),
             "ms");
  result.add("serve.checkpoint.save_max_ms", quantile(traced.save_ms, 1.0),
             "ms");
  result.add("serve.checkpoint.bytes_max",
             static_cast<double>(traced.checkpoint_bytes_max), "B");
  result.add("serve.checkpoint.restore_ms", mean(traced.restore_ms), "ms");
  result.add("serve.evacuations",
             delta(&nfv::serve::ServeSummary::evacuated_requests), "count");
  result.add("serve.autoscale_decisions",
             delta(&nfv::serve::ServeSummary::autoscale_decisions), "count");
  result.add("serve.scale_outs",
             delta(&nfv::serve::ServeSummary::scale_outs), "count");
  result.add("serve.scale_ins", delta(&nfv::serve::ServeSummary::scale_ins),
             "count");
  result.add("workload.decode_ns_per_event", traced.decode_ns_per_event, "ns");

  // Derived shares, each with its base.
  const double decide_mean = mean(traced.decide_us);
  const double rebalances = delta(&nfv::serve::ServeSummary::rebalances);
  const double rckk_share =
      decide_mean > 0.0
          ? 100.0 * (rebalances / events) * mean(traced.rckk_us) / decide_mean
          : 0.0;
  result.add("serve.rebalance_solve_share_pct", rckk_share, "%");
  double checkpoint_s = 0.0;
  for (const double ms : traced.save_ms) checkpoint_s += ms * 1e-3;
  for (const double ms : traced.restore_ms) checkpoint_s += ms * 1e-3;
  // Probe checkpoints (taken after the pass) are not part of its wall.
  const bool in_pass = traced.checkpoints_in_pass > 0;
  const double ckpt_share =
      in_pass && traced.busy_s > 0.0 ? 100.0 * checkpoint_s / traced.busy_s
                                     : 0.0;
  result.add("serve.checkpoint_share_pct", ckpt_share, "%");

  char line[320];
  std::snprintf(line, sizeof line,
                "rebalance solving (derived): %.3f rebalances/event x %.1f us "
                "mean RCKK solve of a live membership (%.0f members) = %.1f%% "
                "of the mean on_event %.1f us (base: %llu traced events)",
                rebalances / events, mean(traced.rckk_us),
                mean(traced.rckk_members), rckk_share, decide_mean,
                static_cast<unsigned long long>(traced.events));
  result.note(line);
  std::snprintf(line, sizeof line,
                "checkpoints: %zu saves (p50 %.2f ms, max %.2f ms, max %llu "
                "bytes) + %zu restores = %.3f s, %.1f%% of the pass's %.3f s "
                "serve wall%s",
                traced.save_ms.size(), quantile(traced.save_ms, 0.5),
                quantile(traced.save_ms, 1.0),
                static_cast<unsigned long long>(traced.checkpoint_bytes_max),
                traced.restore_ms.size(), checkpoint_s, ckpt_share,
                traced.busy_s, in_pass ? "" : " (end-state probe only)");
  result.note(line);
}

void probe_online_replay(const nfv::core::SystemModel& model, Tracer& tracer,
                         RunResult& result) {
  const Tracer::Scope probe(tracer, "bench.online_replay_probe", "bench");
  nfv::workload::EventTrace trace;
  trace.vnf_count = static_cast<std::uint32_t>(model.workload.vnfs.size());
  double time = 0.0;
  const auto push = [&](StreamEventKind kind, const nfv::workload::Request& r,
                        double rate) {
    nfv::workload::StreamEvent e;
    time += 1e-3;
    e.time = time;
    e.kind = kind;
    e.request = static_cast<std::uint32_t>(r.id.index());
    e.rate = rate;
    if (kind == StreamEventKind::kArrive) {
      e.delivery_prob = r.delivery_prob;
      for (const auto f : r.chain) {
        e.chain.push_back(static_cast<std::uint32_t>(f.index()));
      }
    }
    trace.events.push_back(std::move(e));
  };
  const auto& requests = model.workload.requests;
  for (const auto& r : requests) push(StreamEventKind::kArrive, r, r.arrival_rate);
  for (std::size_t i = 0; i < requests.size(); i += 7) {
    push(StreamEventKind::kRateChange, requests[i],
         requests[i].arrival_rate * 1.5);
  }
  for (std::size_t i = 0; i < requests.size(); i += 3) {
    push(StreamEventKind::kDepart, requests[i], 0.0);
  }
  const std::string btrace = nfv::workload::save_binary_trace_string(trace);
  std::optional<ServeEngine> engine;
  engine.emplace(model.topology, model.workload.vnfs);
  nfv::workload::BinaryTraceDecoder decoder(btrace);
  const nfv::serve::BinaryTraceCursor start{decoder.byte_offset(),
                                            decoder.last_time_bits()};
  PassOptions options;
  options.events = trace.events.size();
  options.sample_dt = 0.05;
  options.eq16_every = 100;
  options.layer_probes = true;
  PassStats stats = run_pass(engine, decoder, model.topology,
                             model.workload.vnfs, options, tracer, result);
  probe_end_state(engine, model.topology, model.workload.vnfs, btrace, start,
                  0, trace.events.size(), stats, tracer, result);
  report_serve_layers(stats, result);
}

}  // namespace perfbench
