#include "nfv/topology/builders.h"

#include <gtest/gtest.h>

namespace nfv::topo {
namespace {

const CapacitySpec kFixedCap{1000.0, 1000.0};
const LinkSpec kLink{2.0};

TEST(CapacitySpec, DegenerateRangeIsConstant) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(kFixedCap.sample(rng), 1000.0);
}

TEST(CapacitySpec, SamplesWithinRange) {
  Rng rng(2);
  const CapacitySpec spec{100.0, 5000.0};
  for (int i = 0; i < 1000; ++i) {
    const double c = spec.sample(rng);
    EXPECT_GE(c, 100.0);
    EXPECT_LT(c, 5000.0);
  }
}

TEST(MakeStar, OneInterNodeHopCostsOneL) {
  Rng rng(3);
  const Topology t = make_star(10, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 10u);
  EXPECT_EQ(t.switch_count(), 1u);
  // Star splits L across the two links, so node-to-node latency == L.
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId{0}, NodeId{9}), kLink.latency);
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{9}), 2u);
}

TEST(MakeLinear, EndToEndLatencyScalesWithLength) {
  Rng rng(4);
  const Topology t = make_linear(5, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 5u);
  EXPECT_EQ(t.switch_count(), 0u);
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId{0}, NodeId{4}), 4 * kLink.latency);
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{4}), 4u);
}

TEST(MakeLeafSpine, ShapeAndConnectivity) {
  Rng rng(5);
  const Topology t = make_leaf_spine(2, 4, 3, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 12u);
  EXPECT_EQ(t.switch_count(), 6u);  // 2 spines + 4 leaves
  // Same-leaf hosts: host -> leaf -> host = 2 hops.
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{1}), 2u);
  // Cross-leaf hosts: host -> leaf -> spine -> leaf -> host = 4 hops.
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{3}), 4u);
}

TEST(MakeLeafSpine, UnevenLeavesHostExactlyTheirCounts) {
  Rng rng(5);
  const Topology t = make_leaf_spine(2, {2, 1, 1}, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 4u);
  EXPECT_EQ(t.switch_count(), 5u);  // 2 spines + 3 leaves
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{1}), 2u);  // both on leaf 0
  EXPECT_EQ(t.hop_distance(NodeId{1}, NodeId{2}), 4u);  // leaf 0 -> leaf 1
  EXPECT_THROW((void)make_leaf_spine(2, {2, 0}, kFixedCap, kLink, rng),
               std::invalid_argument);

  // A uniform vector is the scalar overload, sample for sample.
  const CapacitySpec drawn{1000.0, 5000.0};
  Rng a(9);
  Rng b(9);
  const Topology scalar = make_leaf_spine(2, 4, 3, drawn, kLink, a);
  const Topology vec = make_leaf_spine(2, {3, 3, 3, 3}, drawn, kLink, b);
  ASSERT_EQ(scalar.compute_count(), vec.compute_count());
  for (std::uint32_t v = 0; v < scalar.compute_count(); ++v) {
    EXPECT_EQ(scalar.capacity(NodeId(v)), vec.capacity(NodeId(v)));
  }
}

TEST(MakeFatTree, K4HasSixteenHosts) {
  Rng rng(6);
  const Topology t = make_fat_tree(4, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 16u);  // k^3/4
  EXPECT_EQ(t.switch_count(), 20u);   // 4 core + 4*(2+2)
  // Same-edge hosts are 2 hops apart; cross-pod hosts are 6.
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{1}), 2u);
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{15}), 6u);
}

TEST(MakeFatTree, RejectsOddK) {
  Rng rng(7);
  EXPECT_THROW((void)make_fat_tree(3, kFixedCap, kLink, rng),
               std::invalid_argument);
}

TEST(MakeRandomConnected, AlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const Topology t = make_random_connected(12, 3.0, kFixedCap, kLink, rng);
    EXPECT_EQ(t.compute_count(), 12u);
    // freeze() throws on disconnection, so reaching here proves it; still
    // check one far pair.
    EXPECT_LT(t.hop_distance(NodeId{0}, NodeId{11}), 12u);
  }
}

TEST(MakeRandomConnected, DegreeTargetAddsEdges) {
  Rng rng1(8);
  const Topology sparse = make_random_connected(20, 0.0, kFixedCap, kLink, rng1);
  Rng rng2(8);
  const Topology dense = make_random_connected(20, 5.0, kFixedCap, kLink, rng2);
  EXPECT_EQ(sparse.link_count(), 19u);  // spanning tree only
  EXPECT_GT(dense.link_count(), sparse.link_count());
  EXPECT_LE(dense.link_count(), 50u);   // avg_degree*n/2
}

TEST(MakeRandomConnected, SingleNode) {
  Rng rng(9);
  const Topology t = make_random_connected(1, 2.0, kFixedCap, kLink, rng);
  EXPECT_EQ(t.compute_count(), 1u);
  EXPECT_EQ(t.link_count(), 0u);
}

TEST(Builders, PaperScaleRange) {
  // Sec. V-A.2: 4 to 50 compute nodes, capacities up to 5000.
  Rng rng(10);
  const CapacitySpec cap{1.0, 5000.0};
  for (const std::size_t n : {4u, 20u, 50u}) {
    Rng local = rng.fork(n);
    const Topology t = make_star(n, cap, kLink, local);
    EXPECT_EQ(t.compute_count(), n);
    for (const NodeId v : t.nodes()) {
      EXPECT_GE(t.capacity(v), 1.0);
      EXPECT_LE(t.capacity(v), 5000.0);
    }
  }
}

}  // namespace
}  // namespace nfv::topo
