// Tests for the pluggable election metric of the distributed protocol:
// the degree variant must converge to the degree oracle, realizing the
// paper's closing claim that the self-stabilizing construction carries
// over to other clusterization metrics.
#include <gtest/gtest.h>

#include "cluster/baselines.hpp"
#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

TEST(ProtocolMetric, DegreeVariantConvergesToDegreeOracle) {
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(120, rng);
    const auto g = topology::unit_disk_graph(pts, 0.12);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto oracle = cluster::cluster_highest_degree(g, ids);

    core::ProtocolConfig config;
    config.metric = core::ElectionMetric::Degree;
    config.delta_hint = g.max_degree();
    core::DensityProtocol protocol(ids, config, rng.split());
    sim::PerfectDelivery loss;
    sim::ShardedNetwork network(g, protocol, loss, 1);
    network.run(80);

    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto& s = protocol.state(p);
      ASSERT_TRUE(s.metric_valid);
      EXPECT_DOUBLE_EQ(s.metric, static_cast<double>(g.degree(p)));
      ASSERT_TRUE(s.head_valid);
      EXPECT_EQ(s.head, oracle.head_id[p]) << "trial " << trial;
    }
  }
}

TEST(ProtocolMetric, DegreeVariantSelfStabilizes) {
  util::Rng rng(2);
  const auto pts = topology::uniform_points(100, rng);
  const auto g = topology::unit_disk_graph(pts, 0.13);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = cluster::cluster_highest_degree(g, ids);

  core::ProtocolConfig config;
  config.metric = core::ElectionMetric::Degree;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);
  network.run(60);

  util::Rng chaos(3);
  protocol.corrupt_all(chaos);
  network.run(80);
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_EQ(protocol.state(p).head, oracle.head_id[p]);
  }
}

TEST(ProtocolMetric, MetricsDisagreeWhereExpected) {
  // Sanity: on a star-with-satellites the degree metric crowns the hub,
  // while density can prefer an interlinked clique elsewhere. Build hub
  // (high degree, no links among neighbors) + triangle (low degree,
  // dense): two different heads.
  graph::Graph g(9);
  for (graph::NodeId leaf = 1; leaf <= 5; ++leaf) g.add_edge(0, leaf);
  g.add_edge(6, 7);
  g.add_edge(7, 8);
  g.add_edge(6, 8);
  g.add_edge(5, 6);  // connect components
  g.finalize();
  // Hub gets the largest id so density ties cannot crown it.
  const topology::IdAssignment ids{8, 0, 1, 2, 3, 4, 5, 6, 7};

  core::ProtocolConfig degree_config;
  degree_config.metric = core::ElectionMetric::Degree;
  degree_config.delta_hint = g.max_degree();
  core::DensityProtocol degree_protocol(ids, degree_config, util::Rng(4));

  core::ProtocolConfig density_config;
  density_config.delta_hint = g.max_degree();
  core::DensityProtocol density_protocol(ids, density_config, util::Rng(5));

  sim::PerfectDelivery loss;
  sim::ShardedNetwork dg(g, degree_protocol, loss, 1);
  sim::ShardedNetwork dn(g, density_protocol, loss, 1);
  dg.run(40);
  dn.run(40);

  // Degree: hub 0 (degree 5) wins its neighborhood despite its bad id.
  EXPECT_EQ(degree_protocol.state(0).head, ids[0]);
  // Density: all hub-side densities tie at 1.0, so the smallest id (leaf
  // 1) beats the hub; the triangle elects node 7 (1.5, smaller id of the
  // tied corner pair).
  EXPECT_EQ(density_protocol.state(1).head, ids[1]);
  EXPECT_EQ(density_protocol.state(7).head, ids[7]);
  EXPECT_NE(density_protocol.state(0).head,
            degree_protocol.state(0).head);
}

}  // namespace
}  // namespace ssmwn
