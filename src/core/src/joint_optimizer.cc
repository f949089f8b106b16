#include "nfv/core/joint_optimizer.h"

#include <algorithm>
#include <optional>

#include "nfv/common/error.h"
#include "nfv/exec/thread_pool.h"
#include "nfv/obs/metrics.h"
#include "nfv/obs/trace.h"

namespace nfv::core {

void SystemModel::validate() const {
  NFV_REQUIRE(topology.frozen());
  NFV_REQUIRE(!workload.vnfs.empty());
  NFV_REQUIRE(!workload.requests.empty());
  for (std::size_t i = 0; i < workload.vnfs.size(); ++i) {
    NFV_REQUIRE(workload.vnfs[i].id.index() == i);  // dense ids
  }
  for (const auto& r : workload.requests) {
    NFV_REQUIRE(!r.chain.empty());
    for (const VnfId f : r.chain) {
      NFV_REQUIRE(f.index() < workload.vnfs.size());
    }
  }
}

std::vector<VnfSchedulingContext> make_scheduling_contexts(
    const workload::Workload& workload) {
  std::vector<VnfSchedulingContext> contexts(workload.vnfs.size());
  for (std::size_t f = 0; f < workload.vnfs.size(); ++f) {
    const workload::Vnf& vnf = workload.vnfs[f];
    contexts[f].problem.instance_count = vnf.instance_count;
    contexts[f].problem.service_rate = vnf.service_rate;
  }
  // One sweep over every chain — O(Σ|chain|) — instead of the |F|·|R|
  // membership scan of re-testing uses() per (VNF, request) pair.  The
  // stamp dedupes repeated VNFs inside one chain so each request joins a
  // VNF's member list once, in request order, exactly as before.
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> seen_in(workload.vnfs.size(), kNoRequest);
  for (std::uint32_t r_idx = 0; r_idx < workload.requests.size(); ++r_idx) {
    const workload::Request& r = workload.requests[r_idx];
    for (const VnfId f : r.chain) {
      if (seen_in[f.index()] == r_idx) continue;
      seen_in[f.index()] = r_idx;
      VnfSchedulingContext& ctx = contexts[f.index()];
      if (ctx.members.empty()) {
        ctx.problem.delivery_prob = r.delivery_prob;
      } else {
        NFV_REQUIRE(r.delivery_prob == ctx.problem.delivery_prob);
      }
      ctx.problem.arrival_rates.push_back(r.arrival_rate);
      ctx.members.push_back(r.id);
    }
  }
  for (auto& ctx : contexts) ctx.problem.validate();
  return contexts;
}

namespace {

/// Positions of each request inside its chain VNFs' scheduling problems,
/// stored CSR-style aligned with the chains: entry offsets[r] + j is the
/// problem position of request r at chain offset j.  O(Σ|chain|) memory —
/// the dense |F|×|R| lookup this replaces is quadratic at scale.
struct ChainPositionIndex {
  std::vector<std::size_t> offsets;     // size |R| + 1
  std::vector<std::uint32_t> position;  // size Σ|chain|

  [[nodiscard]] std::uint32_t at(std::size_t request_index,
                                 std::size_t chain_offset) const {
    return position[offsets[request_index] + chain_offset];
  }
};

ChainPositionIndex make_chain_position_index(
    const workload::Workload& workload,
    const std::vector<VnfSchedulingContext>& contexts) {
  ChainPositionIndex index;
  index.offsets.resize(workload.requests.size() + 1, 0);
  for (std::size_t r = 0; r < workload.requests.size(); ++r) {
    index.offsets[r + 1] = index.offsets[r] + workload.requests[r].chain.size();
  }
  index.position.resize(index.offsets.back());
  // Member lists were appended in request order, so walking the requests
  // in the same order means "the next unconsumed member of VNF f is this
  // request"; cursor[f] tracks that.  Repeated VNFs in one chain reuse
  // the position claimed at their first occurrence (stamp + last_pos).
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> cursor(contexts.size(), 0);
  std::vector<std::uint32_t> seen_in(contexts.size(), kNoRequest);
  std::vector<std::uint32_t> first_pos(contexts.size(), 0);
  for (std::uint32_t r_idx = 0; r_idx < workload.requests.size(); ++r_idx) {
    const auto& chain = workload.requests[r_idx].chain;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const std::size_t f = chain[j].index();
      if (seen_in[f] != r_idx) {
        seen_in[f] = r_idx;
        first_pos[f] = cursor[f]++;
      }
      index.position[index.offsets[r_idx] + j] = first_pos[f];
    }
  }
  return index;
}

/// Eq. 16 evaluation + aggregates: admitted iff admitted at every chain
/// VNF, response sums the post-admission W(f, k), link latency charges L
/// per extra node.
/// Requires placement/contexts/schedules/admissions filled in; sets
/// requests, the aggregates, and feasible = true.
void evaluate_objective(const SystemModel& model, const JointConfig& config,
                        JointResult& result) {
  const obs::ScopedSpan eval_span("core.joint.evaluate");

  const double link_l =
      config.link_latency.value_or(model.topology.mean_link_latency());

  const ChainPositionIndex positions =
      make_chain_position_index(model.workload, result.contexts);

  result.requests.resize(model.workload.requests.size());
  std::size_t admitted_count = 0;
  double total = 0.0;
  // Distinct-node scratch reused across requests: chains are short, so a
  // sort+unique over a small vector beats a per-request std::set (one
  // node allocation per chain element) by a wide margin.
  std::vector<std::uint32_t> nodes_scratch;
  for (const auto& r : model.workload.requests) {
    RequestOutcome& out = result.requests[r.id.index()];
    out.admitted = true;
    nodes_scratch.clear();
    double response = 0.0;
    for (std::size_t j = 0; j < r.chain.size(); ++j) {
      const VnfId f = r.chain[j];
      const std::uint32_t pos = positions.at(r.id.index(), j);
      const auto& admission = result.admissions[f.index()];
      if (!admission.admitted[pos]) {
        out.admitted = false;
        break;
      }
      const std::uint32_t k = result.schedules[f.index()].instance_of[pos];
      const auto& m = admission.admitted_metrics;
      const double mu_eff = result.contexts[f.index()].problem.delivery_prob *
                            result.contexts[f.index()].problem.service_rate;
      const double load = m.instance_load[k];
      NFV_CHECK(load < mu_eff);  // admission guarantees stability
      response += 1.0 / (mu_eff - load);  // W(f, k), Eq. 12
      nodes_scratch.push_back(
          result.placement.assignment[f.index()]->value());
    }
    if (!out.admitted) {
      out.response_latency = 0.0;
      out.link_latency = 0.0;
      out.nodes_traversed = 0;
      continue;
    }
    std::sort(nodes_scratch.begin(), nodes_scratch.end());
    nodes_scratch.erase(
        std::unique(nodes_scratch.begin(), nodes_scratch.end()),
        nodes_scratch.end());
    out.response_latency = response;
    out.nodes_traversed = static_cast<std::uint32_t>(nodes_scratch.size());
    out.link_latency =
        static_cast<double>(out.nodes_traversed - 1) * link_l;
    total += out.total_latency();
    ++admitted_count;
  }
  obs::count("core.joint.admitted", admitted_count);
  obs::count("core.joint.rejected",
             model.workload.requests.size() - admitted_count);
  result.total_latency = total;
  result.avg_total_latency =
      admitted_count > 0 ? total / static_cast<double>(admitted_count) : 0.0;
  result.job_rejection_rate =
      1.0 - static_cast<double>(admitted_count) /
                static_cast<double>(model.workload.requests.size());

  // Mean W over all service instances (post-admission loads).
  const std::size_t vnf_count = model.workload.vnfs.size();
  double response_sum = 0.0;
  std::size_t instance_count = 0;
  for (std::size_t f = 0; f < vnf_count; ++f) {
    const auto& m = result.admissions[f].admitted_metrics;
    const double mu_eff = result.contexts[f].problem.delivery_prob *
                          result.contexts[f].problem.service_rate;
    for (const double load : m.instance_load) {
      NFV_CHECK(load < mu_eff);
      response_sum += 1.0 / (mu_eff - load);
      ++instance_count;
    }
  }
  result.avg_response =
      instance_count > 0
          ? response_sum / static_cast<double>(instance_count)
          : 0.0;
  result.feasible = true;
}

}  // namespace

JointOptimizer::JointOptimizer(JointConfig config)
    : config_(std::move(config)) {
  NFV_REQUIRE(config_.rho_max > 0.0 && config_.rho_max <= 1.0);
  if (config_.link_latency) NFV_REQUIRE(*config_.link_latency >= 0.0);
  config_.exec.validate();
}

JointResult JointOptimizer::run(const SystemModel& model,
                                std::uint64_t seed) const {
  // Honor the configured thread count when no pool is installed yet; an
  // already-installed pool (CLI --threads, bench harness) wins so nested
  // runs share one fan-out width.
  if (config_.exec.threads > 1 && exec::pool() == nullptr &&
      !exec::ThreadPool::on_worker_thread()) {
    exec::ThreadPool local(config_.exec.threads);
    const exec::ScopedPool scope(local);
    return run_impl(model, seed);
  }
  return run_impl(model, seed);
}

JointResult JointOptimizer::run_impl(const SystemModel& model,
                                     std::uint64_t seed) const {
  const obs::ScopedSpan run_span("core.joint.run");
  obs::count("core.joint.runs");
  model.validate();
  const auto placer =
      config_.placement_factory
          ? config_.placement_factory()
          : placement::make_placement_algorithm(config_.placement_algorithm);
  NFV_REQUIRE(placer != nullptr);
  const auto scheduler =
      sched::make_scheduling_algorithm(config_.scheduling_algorithm);
  NFV_REQUIRE(scheduler != nullptr);

  JointResult result;
  Rng rng(seed);

  // Phase 1: placement (Algorithm 1 or a baseline).
  {
    const obs::ScopedSpan span("core.joint.placement");
    const placement::PlacementProblem pp =
        placement::make_problem(model.topology, model.workload);
    result.placement = placer->place(pp, rng);
    result.placement_metrics = placement::evaluate(pp, result.placement);
  }
  if (!result.placement.feasible) return result;  // feasible stays false

  // Phase 2: per-VNF request scheduling + admission control.  The per-VNF
  // problems are independent (Algorithm 2 runs once per VNF), so they fan
  // out over the pool; child RNGs are forked serially in index order
  // first, which keeps both the parent stream and each child stream
  // identical to the serial execution.
  {
    const obs::ScopedSpan span("core.joint.scheduling");
    result.contexts = make_scheduling_contexts(model.workload);
    std::vector<Rng> children;
    children.reserve(result.contexts.size());
    for (std::size_t f = 0; f < result.contexts.size(); ++f) {
      children.push_back(rng.fork(f));
    }
    struct VnfSolution {
      sched::Schedule schedule;
      sched::AdmissionResult admission;
    };
    std::vector<VnfSolution> solved =
        exec::parallel_map(result.contexts.size(), [&](std::size_t f) {
          const VnfSchedulingContext& ctx = result.contexts[f];
          VnfSolution s;
          s.schedule = scheduler->schedule(ctx.problem, children[f]);
          s.admission =
              sched::apply_admission(ctx.problem, s.schedule, config_.rho_max);
          return s;
        });
    result.schedules.reserve(solved.size());
    result.admissions.reserve(solved.size());
    for (VnfSolution& s : solved) {
      result.schedules.push_back(std::move(s.schedule));
      result.admissions.push_back(std::move(s.admission));
    }
  }
  evaluate_objective(model, config_, result);
  return result;
}

}  // namespace nfv::core
