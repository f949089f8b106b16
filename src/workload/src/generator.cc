#include "nfv/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "nfv/workload/catalog.h"

namespace nfv::workload {

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(config) {
  NFV_REQUIRE(config_.vnf_count >= 1);
  NFV_REQUIRE(config_.request_count >= 1);
  NFV_REQUIRE(config_.min_chain_length >= 1);
  NFV_REQUIRE(config_.max_chain_length >= config_.min_chain_length);
  NFV_REQUIRE(config_.arrival_rate_min > 0.0);
  NFV_REQUIRE(config_.arrival_rate_max >= config_.arrival_rate_min);
  NFV_REQUIRE(config_.delivery_prob > 0.0 && config_.delivery_prob <= 1.0);
  NFV_REQUIRE(config_.requests_per_instance >= 1);
  NFV_REQUIRE(config_.service_headroom > 1.0);
  if (config_.fixed_demand_per_instance) {
    NFV_REQUIRE(*config_.fixed_demand_per_instance > 0.0);
  }
}

Workload WorkloadGenerator::generate(Rng& rng) const {
  const auto catalog = vnf_catalog();
  Workload w;
  w.vnfs.reserve(config_.vnf_count);

  // Pick catalog types: the core six first (the paper always deploys NAT,
  // FW, IDS, LB, WANOpt, FlowMonitor), then uniform draws; indices beyond
  // the catalog wrap to replicas of earlier types ("regard each replica as
  // a new VNF").
  std::vector<std::uint32_t> types;
  types.reserve(config_.vnf_count);
  const auto core = core_six_indices();
  for (std::uint32_t i = 0; i < config_.vnf_count; ++i) {
    if (i < core.size() && config_.vnf_count >= core.size()) {
      types.push_back(core[i]);
    } else {
      types.push_back(
          static_cast<std::uint32_t>(rng.below(catalog.size())));
    }
  }

  for (std::uint32_t i = 0; i < config_.vnf_count; ++i) {
    const VnfType& type = catalog[types[i]];
    Vnf f;
    f.id = VnfId{i};
    f.name = std::string(type.name) + "-" + std::to_string(i);
    f.catalog_index = types[i];
    f.demand_per_instance =
        config_.fixed_demand_per_instance
            ? *config_.fixed_demand_per_instance
            : rng.uniform(type.demand_min, type.demand_max);
    // M_f and μ_f are finalized below once chain membership is known.
    w.vnfs.push_back(std::move(f));
  }

  // Chains: distinct VNFs, canonical category order (middleboxes are
  // traversed gateway→security→shaping→...→routing in practice; a stable
  // order also makes runs comparable).
  std::vector<std::uint32_t> vnf_order(config_.vnf_count);
  std::iota(vnf_order.begin(), vnf_order.end(), 0);
  std::stable_sort(vnf_order.begin(), vnf_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return static_cast<int>(catalog[types[a]].category) <
                            static_cast<int>(catalog[types[b]].category);
                   });
  std::vector<std::uint32_t> rank(config_.vnf_count);
  for (std::uint32_t pos = 0; pos < config_.vnf_count; ++pos) {
    rank[vnf_order[pos]] = pos;
  }

  w.requests.reserve(config_.request_count);
  const std::uint32_t max_len =
      std::min(config_.max_chain_length, config_.vnf_count);
  const std::uint32_t min_len = std::min(config_.min_chain_length, max_len);
  auto sample_chain = [&]() {
    const auto len = static_cast<std::uint32_t>(
        rng.uniform_int(min_len, max_len));
    // Sample `len` distinct VNF indices (Floyd's algorithm).
    std::vector<std::uint32_t> picked;
    picked.reserve(len);
    for (std::uint32_t j = config_.vnf_count - len; j < config_.vnf_count;
         ++j) {
      auto candidate = static_cast<std::uint32_t>(rng.below(j + 1));
      if (std::find(picked.begin(), picked.end(), candidate) != picked.end()) {
        candidate = j;
      }
      picked.push_back(candidate);
    }
    std::sort(picked.begin(), picked.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return rank[a] < rank[b];
              });
    std::vector<VnfId> chain;
    chain.reserve(len);
    for (const std::uint32_t v : picked) chain.emplace_back(v);
    return chain;
  };
  // Optional bounded template pool (trace-driven service-type regime).
  std::vector<std::vector<VnfId>> templates;
  for (std::uint32_t t = 0; t < config_.chain_template_count; ++t) {
    templates.push_back(sample_chain());
  }
  for (std::uint32_t i = 0; i < config_.request_count; ++i) {
    Request r;
    r.id = RequestId{i};
    r.chain = templates.empty()
                  ? sample_chain()
                  : templates[rng.below(templates.size())];
    r.arrival_rate =
        rng.uniform(config_.arrival_rate_min, config_.arrival_rate_max);
    r.delivery_prob = config_.delivery_prob;
    w.requests.push_back(std::move(r));
  }

  // Ensure every VNF is used at least once: append unused VNFs to the
  // shortest requests' chains (preserving canonical order).
  std::vector<std::uint32_t> use_count(config_.vnf_count, 0);
  for (const Request& r : w.requests) {
    for (const VnfId f : r.chain) ++use_count[f.index()];
  }
  for (std::uint32_t f = 0; f < config_.vnf_count; ++f) {
    if (use_count[f] > 0) continue;
    auto lightest = std::min_element(
        w.requests.begin(), w.requests.end(),
        [](const Request& a, const Request& b) {
          return a.chain.size() < b.chain.size();
        });
    lightest->chain.emplace_back(f);
    std::sort(lightest->chain.begin(), lightest->chain.end(),
              [&](VnfId a, VnfId b) { return rank[a.index()] < rank[b.index()]; });
    use_count[f] = 1;
  }

  // Finalize M_f (Eq. 3: M_f ≤ |R_f|) and μ_f.  |R_f| and
  // offered_f = Σ_{r ∈ R_f} λ_r / P_r come from one sweep over the chains,
  // adding in request order as a per-VNF scan would; the stamp counts a
  // VNF repeated inside one chain once.
  constexpr std::uint32_t kNoRequest = 0xffffffffu;
  std::vector<std::uint32_t> users(config_.vnf_count, 0);
  std::vector<double> offered(config_.vnf_count, 0.0);
  std::vector<std::uint32_t> seen_in(config_.vnf_count, kNoRequest);
  for (std::uint32_t r_idx = 0; r_idx < w.requests.size(); ++r_idx) {
    const Request& r = w.requests[r_idx];
    for (const VnfId f : r.chain) {
      if (seen_in[f.index()] == r_idx) continue;
      seen_in[f.index()] = r_idx;
      ++users[f.index()];
      offered[f.index()] += r.effective_rate();
    }
  }
  for (Vnf& f : w.vnfs) {
    const std::uint32_t users_f = users[f.id.index()];
    NFV_CHECK(users_f > 0);
    const auto wanted = static_cast<std::uint32_t>(std::ceil(
        static_cast<double>(users_f) /
        static_cast<double>(config_.requests_per_instance)));
    f.instance_count = std::clamp<std::uint32_t>(wanted, 1, users_f);
    switch (config_.service_rate_policy) {
      case ServiceRatePolicy::kCatalog: {
        const VnfType& type = vnf_catalog()[f.catalog_index];
        f.service_rate = rng.uniform(type.service_rate_min,
                                     type.service_rate_max);
        break;
      }
      case ServiceRatePolicy::kScaledToLoad:
        f.service_rate = config_.service_headroom * offered[f.id.index()] /
                         static_cast<double>(f.instance_count);
        break;
    }
    NFV_CHECK(f.service_rate > 0.0);
  }
  return w;
}

}  // namespace nfv::workload
