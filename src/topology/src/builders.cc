#include "nfv/topology/builders.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace nfv::topo {

double CapacitySpec::sample(Rng& rng) const {
  NFV_REQUIRE(min > 0.0 && max >= min);
  if (min == max) return min;
  return rng.uniform(min, max);
}

Topology make_star(std::size_t nodes, const CapacitySpec& cap,
                   const LinkSpec& link, Rng& rng) {
  NFV_REQUIRE(nodes >= 1);
  Topology t;
  const std::uint32_t hub = t.add_switch("sw0");
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId v = t.add_compute(cap.sample(rng), "node" + std::to_string(i));
    // Each compute-to-compute path crosses two links; split L between them
    // so one inter-node hop costs exactly link.latency in path_latency().
    t.connect(t.vertex_of(v), hub, link.latency / 2.0);
  }
  t.freeze();
  return t;
}

Topology make_linear(std::size_t nodes, const CapacitySpec& cap,
                     const LinkSpec& link, Rng& rng) {
  NFV_REQUIRE(nodes >= 1);
  Topology t;
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(t.add_compute(cap.sample(rng), "node" + std::to_string(i)));
  }
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    t.connect_nodes(ids[i], ids[i + 1], link.latency);
  }
  t.freeze();
  return t;
}

Topology make_leaf_spine(std::size_t spines, std::size_t leaves,
                         std::size_t hosts_per_leaf, const CapacitySpec& cap,
                         const LinkSpec& link, Rng& rng) {
  NFV_REQUIRE(leaves >= 1);
  return make_leaf_spine(
      spines, std::vector<std::size_t>(leaves, hosts_per_leaf), cap, link,
      rng);
}

Topology make_leaf_spine(std::size_t spines,
                         const std::vector<std::size_t>& hosts_per_leaf,
                         const CapacitySpec& cap, const LinkSpec& link,
                         Rng& rng) {
  NFV_REQUIRE(spines >= 1 && !hosts_per_leaf.empty());
  for (const std::size_t hosts : hosts_per_leaf) NFV_REQUIRE(hosts >= 1);
  Topology t;
  std::vector<std::uint32_t> spine_idx;
  spine_idx.reserve(spines);
  for (std::size_t s = 0; s < spines; ++s) {
    spine_idx.push_back(t.add_switch("spine" + std::to_string(s)));
  }
  for (std::size_t l = 0; l < hosts_per_leaf.size(); ++l) {
    const std::uint32_t leaf = t.add_switch("leaf" + std::to_string(l));
    for (const std::uint32_t spine : spine_idx) {
      t.connect(leaf, spine, link.latency);
    }
    for (std::size_t h = 0; h < hosts_per_leaf[l]; ++h) {
      const NodeId v = t.add_compute(
          cap.sample(rng),
          "host" + std::to_string(l) + "." + std::to_string(h));
      t.connect(t.vertex_of(v), leaf, link.latency);
    }
  }
  t.freeze();
  return t;
}

Topology make_fat_tree(std::size_t k, const CapacitySpec& cap,
                       const LinkSpec& link, Rng& rng) {
  NFV_REQUIRE(k >= 2 && k % 2 == 0);
  Topology t;
  const std::size_t half = k / 2;
  // Core layer: (k/2)^2 switches arranged in half groups of half.
  std::vector<std::uint32_t> core(half * half);
  for (std::size_t i = 0; i < core.size(); ++i) {
    core[i] = t.add_switch("core" + std::to_string(i));
  }
  for (std::size_t pod = 0; pod < k; ++pod) {
    std::vector<std::uint32_t> aggregation(half);
    std::vector<std::uint32_t> edge(half);
    for (std::size_t a = 0; a < half; ++a) {
      aggregation[a] = t.add_switch("agg" + std::to_string(pod) + "." +
                                    std::to_string(a));
      // Aggregation switch a connects to core group a.
      for (std::size_t c = 0; c < half; ++c) {
        t.connect(aggregation[a], core[a * half + c], link.latency);
      }
    }
    for (std::size_t e = 0; e < half; ++e) {
      edge[e] = t.add_switch("edge" + std::to_string(pod) + "." +
                             std::to_string(e));
      for (const std::uint32_t agg : aggregation) {
        t.connect(edge[e], agg, link.latency);
      }
      for (std::size_t h = 0; h < half; ++h) {
        const NodeId v = t.add_compute(
            cap.sample(rng), "host" + std::to_string(pod) + "." +
                                 std::to_string(e) + "." + std::to_string(h));
        t.connect(t.vertex_of(v), edge[e], link.latency);
      }
    }
  }
  t.freeze();
  return t;
}

Topology make_random_connected(std::size_t nodes, double avg_degree,
                               const CapacitySpec& cap, const LinkSpec& link,
                               Rng& rng) {
  NFV_REQUIRE(nodes >= 1);
  NFV_REQUIRE(avg_degree >= 0.0);
  Topology t;
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(t.add_compute(cap.sample(rng), "node" + std::to_string(i)));
  }
  // Random spanning tree (each new node attaches to a uniform earlier one)
  // guarantees connectivity.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 1; i < nodes; ++i) {
    const auto j = static_cast<std::size_t>(rng.below(i));
    edges.emplace_back(j, i);
    t.connect_nodes(ids[j], ids[i], link.latency);
  }
  // Extra edges until the average degree target is met (or the graph is
  // complete).
  const std::size_t target_edges = std::min(
      nodes * (nodes - 1) / 2,
      static_cast<std::size_t>(avg_degree * static_cast<double>(nodes) / 2.0));
  auto has_edge = [&edges](std::size_t a, std::size_t b) {
    if (a > b) std::swap(a, b);
    return std::find(edges.begin(), edges.end(), std::make_pair(a, b)) !=
           edges.end();
  };
  std::size_t attempts = 0;
  while (edges.size() < target_edges && attempts < 100 * nodes) {
    ++attempts;
    auto a = static_cast<std::size_t>(rng.below(nodes));
    auto b = static_cast<std::size_t>(rng.below(nodes));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (has_edge(a, b)) continue;
    edges.emplace_back(a, b);
    t.connect_nodes(ids[a], ids[b], link.latency);
  }
  t.freeze();
  return t;
}

}  // namespace nfv::topo
