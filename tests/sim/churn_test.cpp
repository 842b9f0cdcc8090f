// Tests for the topology-dynamics generators (link flaps, node churn)
// and the protocol's behavior under them.
#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/protocol.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ssmwn {
namespace {

TEST(Churn, DropLinksKeepsExpectedFraction) {
  util::Rng rng(1);
  const auto pts = topology::uniform_points(300, rng);
  const auto base = topology::unit_disk_graph(pts, 0.1);
  util::RunningStats kept;
  for (int trial = 0; trial < 20; ++trial) {
    const auto flapped = sim::drop_links(base, 0.3, rng);
    kept.add(static_cast<double>(flapped.edge_count()) /
             static_cast<double>(base.edge_count()));
  }
  EXPECT_NEAR(kept.mean(), 0.7, 0.03);
}

TEST(Churn, DropLinksBoundaries) {
  util::Rng rng(2);
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(sim::drop_links(g, 0.0, rng).edge_count(), 2u);
  EXPECT_EQ(sim::drop_links(g, 1.0, rng).edge_count(), 0u);
  EXPECT_THROW(sim::drop_links(g, 1.5, rng), std::invalid_argument);
}

TEST(Churn, MaskNodesIsolatesDownNodes) {
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<char> alive{1, 0, 1, 1};
  const auto masked = sim::mask_nodes(g, alive);
  EXPECT_EQ(masked.degree(1), 0u);
  EXPECT_EQ(masked.degree(0), 0u);  // its only neighbor is down
  EXPECT_TRUE(masked.adjacent(2, 3));
}

TEST(Churn, NodeChurnRatesRespected) {
  sim::NodeChurn churn(2000, /*down_rate=*/0.1, /*up_rate=*/0.3,
                       util::Rng(3));
  // Stationary availability = up / (up + down) = 0.75.
  for (int warmup = 0; warmup < 100; ++warmup) churn.step();
  util::RunningStats alive;
  for (int t = 0; t < 100; ++t) {
    churn.step();
    alive.add(static_cast<double>(churn.alive_count()) / 2000.0);
  }
  EXPECT_NEAR(alive.mean(), 0.75, 0.03);
}

TEST(Churn, MaskNodesPreservesIndicesAndNodeCount) {
  // Down nodes keep their index — the protocol addresses nodes by graph
  // index across windows, so masking must never compact or reorder.
  const auto g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                       {4, 5}, {5, 0}});
  const std::vector<char> alive{1, 0, 1, 1, 0, 1};
  const auto masked = sim::mask_nodes(g, alive);
  EXPECT_EQ(masked.node_count(), g.node_count());
  // Surviving adjacency is exactly the subgraph between up nodes, at
  // the original indices.
  EXPECT_TRUE(masked.adjacent(2, 3));
  EXPECT_FALSE(masked.adjacent(0, 1));  // 1 is down
  EXPECT_FALSE(masked.adjacent(3, 4));  // 4 is down
  EXPECT_FALSE(masked.adjacent(4, 5));
  EXPECT_TRUE(masked.adjacent(5, 0));   // both up, edge survives
  EXPECT_EQ(masked.degree(1), 0u);
  EXPECT_EQ(masked.degree(4), 0u);
  // All-up mask is an identity on the edge set.
  const auto all_up = sim::mask_nodes(g, std::vector<char>(6, 1));
  EXPECT_EQ(all_up.edge_count(), g.edge_count());
}

TEST(Churn, NodeChurnSojournTimesAreGeometric) {
  // Up sojourns end with probability down_rate per window, so their
  // lengths are geometric with mean 1/down_rate; same for down sojourns
  // with up_rate. Measure both from a long trajectory.
  const double down_rate = 0.2;
  const double up_rate = 0.4;
  sim::NodeChurn churn(400, down_rate, up_rate, util::Rng(11));
  std::vector<std::size_t> sojourn(400, 0);
  std::vector<char> prev = churn.alive();
  util::RunningStats up_lengths, down_lengths;
  for (int t = 0; t < 400; ++t) {
    const auto& now = churn.step();
    for (std::size_t p = 0; p < now.size(); ++p) {
      if (now[p] == prev[p]) {
        ++sojourn[p];
      } else {
        // A completed sojourn in the previous state.
        (prev[p] ? up_lengths : down_lengths)
            .add(static_cast<double>(sojourn[p] + 1));
        sojourn[p] = 0;
      }
    }
    prev = now;
  }
  ASSERT_GT(up_lengths.count(), 1000u);
  ASSERT_GT(down_lengths.count(), 1000u);
  EXPECT_NEAR(up_lengths.mean(), 1.0 / down_rate, 0.25);
  EXPECT_NEAR(down_lengths.mean(), 1.0 / up_rate, 0.15);
}

TEST(Churn, NodeChurnStartsAllUp) {
  sim::NodeChurn churn(10, 0.5, 0.5, util::Rng(1));
  EXPECT_EQ(churn.alive_count(), 10u);
  EXPECT_EQ(churn.alive().size(), 10u);
}

TEST(Churn, NodeChurnRejectsBadRates) {
  EXPECT_THROW(sim::NodeChurn(5, -0.1, 0.5, util::Rng(4)),
               std::invalid_argument);
  EXPECT_THROW(sim::NodeChurn(5, 0.1, 1.5, util::Rng(4)),
               std::invalid_argument);
}

TEST(Churn, ProtocolTracksFlappingTopology) {
  // The protocol must keep converging to the oracle of whatever the
  // current topology is, as links flap between two configurations.
  util::Rng rng(5);
  const auto pts = topology::uniform_points(80, rng);
  const auto base = topology::unit_disk_graph(pts, 0.15);
  const auto ids = topology::random_ids(base.node_count(), rng);
  const auto degraded = sim::drop_links(base, 0.25, rng);

  core::ProtocolConfig config;
  config.delta_hint = base.max_degree();
  config.cache_max_age = 4;
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(base, protocol, loss, 1);

  auto matches = [&](const graph::Graph& g) {
    const auto oracle = core::cluster_density(g, ids, {});
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto& s = protocol.state(p);
      if (!s.head_valid || s.head != oracle.head_id[p]) return false;
    }
    return true;
  };

  network.run(60);
  EXPECT_TRUE(matches(base));
  network.set_graph(degraded);
  network.run(80);
  EXPECT_TRUE(matches(degraded));
  network.set_graph(base);
  network.run(80);
  EXPECT_TRUE(matches(base));
}

}  // namespace
}  // namespace ssmwn
