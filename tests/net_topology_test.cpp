#include "net/topology.h"

#include <gtest/gtest.h>

#include "net/routing.h"

namespace ccml {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kTor, "b");
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.node(a).kind, NodeKind::kHost);
  EXPECT_EQ(t.node(b).name, "b");

  const LinkId l = t.add_link(a, b, Rate::gbps(50));
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_EQ(t.link(l).src, a);
  EXPECT_EQ(t.link(l).dst, b);
  EXPECT_DOUBLE_EQ(t.link(l).capacity.to_gbps(), 50.0);
}

TEST(Topology, DuplexLink) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const auto [fwd, rev] = t.add_duplex_link(a, b, Rate::gbps(10));
  EXPECT_EQ(t.link(fwd).src, a);
  EXPECT_EQ(t.link(rev).src, b);
  EXPECT_EQ(t.find_link(a, b), fwd);
  EXPECT_EQ(t.find_link(b, a), rev);
}

TEST(Topology, FindMissingLinkIsInvalid) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  EXPECT_FALSE(t.find_link(a, b).valid());
}

TEST(Topology, LinksFrom) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kTor, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const NodeId c = t.add_node(NodeKind::kHost, "c");
  t.add_link(a, b, Rate::gbps(1));
  t.add_link(a, c, Rate::gbps(1));
  EXPECT_EQ(t.links_from(a).size(), 2u);
  EXPECT_TRUE(t.links_from(b).empty());
}

TEST(Topology, DumbbellShape) {
  const Topology t = Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50));
  // 2 switches + 2 senders + 2 receivers.
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.hosts().size(), 4u);
  // 1 bottleneck cable + 4 host cables, duplex = 10 directed links.
  EXPECT_EQ(t.link_count(), 10u);
}

TEST(Topology, DumbbellBottleneckCapacity) {
  const Topology t = Topology::dumbbell(1, Rate::gbps(100), Rate::gbps(50));
  // Link 0 is swL->swR per construction.
  EXPECT_DOUBLE_EQ(t.link(LinkId{0}).capacity.to_gbps(), 50.0);
  EXPECT_EQ(t.node(t.link(LinkId{0}).src).kind, NodeKind::kTor);
}

TEST(Topology, LeafSpineShape) {
  const Topology t =
      Topology::leaf_spine(4, 8, 2, Rate::gbps(50), Rate::gbps(100));
  EXPECT_EQ(t.hosts().size(), 32u);
  // 4 tors + 2 spines + 32 hosts.
  EXPECT_EQ(t.node_count(), 38u);
  // Cables: 32 host uplinks + 4*2 fabric = 40, duplex = 80 directed.
  EXPECT_EQ(t.link_count(), 80u);
}

TEST(Topology, LeafSpineHostsConnectToTors) {
  const Topology t =
      Topology::leaf_spine(2, 2, 2, Rate::gbps(50), Rate::gbps(100));
  for (const NodeId h : t.hosts()) {
    const auto& links = t.links_from(h);
    ASSERT_EQ(links.size(), 1u);
    EXPECT_EQ(t.node(t.link(links[0]).dst).kind, NodeKind::kTor);
  }
}

TEST(Topology, FatTreeShape) {
  const Topology t = Topology::fat_tree(4, Rate::gbps(50));
  // k=4: 16 hosts, 4 pods x (2 edge + 2 agg) = 16 switches, 4 core.
  EXPECT_EQ(t.hosts().size(), 16u);
  EXPECT_EQ(t.node_count(), 16u + 16u + 4u);
  // Cables: 16 host + 4 pods * 4 edge-agg + 4 pods * 4 agg-core = 48,
  // duplex = 96 directed links.
  EXPECT_EQ(t.link_count(), 96u);
}

TEST(Topology, FatTreeFullBisection) {
  const Topology t = Topology::fat_tree(4, Rate::gbps(50));
  const Router r(t);
  const auto hosts = t.hosts();
  // Cross-pod path: host -> edge -> agg -> core -> agg -> edge -> host.
  const auto paths = r.equal_cost_paths(hosts.front(), hosts.back());
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].hops(), 6u);
  // k=4 gives 4 equal-cost cross-pod paths (one per core switch).
  EXPECT_EQ(paths.size(), 4u);
}

TEST(Topology, FatTreeIntraPodPath) {
  const Topology t = Topology::fat_tree(4, Rate::gbps(50));
  const Router r(t);
  const auto hosts = t.hosts();
  // hosts 0,1 share an edge switch; hosts 0,2 share a pod but not an edge.
  EXPECT_EQ(r.equal_cost_paths(hosts[0], hosts[1])[0].hops(), 2u);
  EXPECT_EQ(r.equal_cost_paths(hosts[0], hosts[2])[0].hops(), 4u);
}

TEST(Topology, NodeKindNames) {
  EXPECT_STREQ(to_string(NodeKind::kHost), "host");
  EXPECT_STREQ(to_string(NodeKind::kTor), "tor");
  EXPECT_STREQ(to_string(NodeKind::kSpine), "spine");
  EXPECT_STREQ(to_string(NodeKind::kCore), "core");
}

TEST(Topology, LinkNamesAreReadable) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "alice");
  const NodeId b = t.add_node(NodeKind::kHost, "bob");
  const LinkId l = t.add_link(a, b, Rate::gbps(1));
  EXPECT_EQ(t.link(l).name, "alice->bob");
}

// Node names reach traces, reports and snapshots, so the generators must
// keep them byte for byte.
TEST(Topology, GeneratedNodeNames) {
  const auto names = [](const Topology& t) {
    std::string out;
    for (const NodeInfo& n : t.nodes()) out += n.name + " ";
    return out;
  };
  EXPECT_EQ(names(Topology::dumbbell(2, Rate::gbps(50), Rate::gbps(50))),
            "swL swR src0 dst0 src1 dst1 ");
  EXPECT_EQ(names(Topology::leaf_spine(2, 2, 2, Rate::gbps(50),
                                       Rate::gbps(100))),
            "tor0 tor1 spine0 spine1 h0_0 h0_1 h1_0 h1_1 ");
  EXPECT_EQ(names(Topology::fat_tree(2, Rate::gbps(50))),
            "core0_0 p0_edge0 p0_agg0 p0_e0_h0 p1_edge0 p1_agg0 p1_e0_h0 ");
}

}  // namespace
}  // namespace ccml
