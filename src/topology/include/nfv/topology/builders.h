// Parameterized topology builders standing in for the SNDlib-derived
// "scale-up network topologies" of Sec. V-A.2 (4–50 compute nodes,
// capacities 1–5000 units, sufficient switch/link capacity).
#pragma once

#include <cstddef>
#include <vector>

#include "nfv/common/rng.h"
#include "nfv/topology/topology.h"

namespace nfv::topo {

/// How builders assign A_v to compute nodes.
struct CapacitySpec {
  double min = 5000.0;  ///< inclusive
  double max = 5000.0;  ///< inclusive
  /// Draws a capacity; uniform in [min, max] (degenerate when equal).
  [[nodiscard]] double sample(Rng& rng) const;
};

/// Per-hop latency L assigned to every link (paper Eq. 16 uses one constant
/// L = propagation + transmission delay between two compute nodes).
struct LinkSpec {
  double latency = 1e-4;  ///< 100 µs per hop by default
};

/// N compute nodes on one switch (the paper's placement experiments never
/// exercise multi-hop paths, so a star is the faithful minimal graph).
[[nodiscard]] Topology make_star(std::size_t nodes, const CapacitySpec& cap,
                                 const LinkSpec& link, Rng& rng);

/// Chain of compute nodes through per-pair switches; maximizes hop spread.
[[nodiscard]] Topology make_linear(std::size_t nodes, const CapacitySpec& cap,
                                   const LinkSpec& link, Rng& rng);

/// Two-tier leaf-spine: `leaves` top-of-rack switches each serving
/// `hosts_per_leaf` compute nodes, all leaves connected to all `spines`.
[[nodiscard]] Topology make_leaf_spine(std::size_t spines, std::size_t leaves,
                                       std::size_t hosts_per_leaf,
                                       const CapacitySpec& cap,
                                       const LinkSpec& link, Rng& rng);
/// Same, with leaf l serving `hosts_per_leaf[l]` (>= 1) compute nodes; a
/// uniform vector builds exactly the topology of the overload above.
[[nodiscard]] Topology make_leaf_spine(
    std::size_t spines, const std::vector<std::size_t>& hosts_per_leaf,
    const CapacitySpec& cap, const LinkSpec& link, Rng& rng);

/// k-ary fat-tree (k even): (k/2)^2 core switches, k pods of k switches,
/// k^3/4 compute nodes.
[[nodiscard]] Topology make_fat_tree(std::size_t k, const CapacitySpec& cap,
                                     const LinkSpec& link, Rng& rng);

/// Random connected graph over compute nodes (spanning tree + extra edges up
/// to the requested average degree), modelling irregular SNDlib instances.
[[nodiscard]] Topology make_random_connected(std::size_t nodes,
                                             double avg_degree,
                                             const CapacitySpec& cap,
                                             const LinkSpec& link, Rng& rng);

}  // namespace nfv::topo
