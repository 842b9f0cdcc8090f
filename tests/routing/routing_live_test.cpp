// Cluster-backbone routing under live topology deltas (satellite of the
// verify PR): when mobility patches the graph through
// `apply_topology_delta`, routes must be recomputed on the *patched*
// graph — a router (or its gateway table) built on the old topology may
// silently forward over severed links. These tests pin (a) that the
// recomputed routers never use a stale gateway (every route is valid on
// the current graph, zero failures) and (b) that a router rebuilt from
// the incrementally patched graph is route-for-route interchangeable
// with one built from a from-scratch rebuild.
#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/protocol.hpp"
#include "graph/dynamic.hpp"
#include "mobility/mobility.hpp"
#include "routing/routing.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/deployments.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"

namespace ssmwn {
namespace {

constexpr double kRadius = 0.14;

TEST(RoutingLive, RecomputedRoutesAreValidAfterEveryDelta) {
  auto w = testsupport::make_deployment(150, kRadius, 42);
  topology::LiveTopology live(w.points, kRadius);
  util::Rng rng(7);
  mobility::RandomDirection mover(w.points.size(), {0.0, 10.0}, 1000.0,
                                  rng.split());

  // The protocol runs live on the evolving graph, exactly as in the
  // dynamic-topology campaign mode; routing is rebuilt per window from
  // the *current* clustering of the *current* graph.
  core::ProtocolConfig pconfig;
  pconfig.delta_hint =
      std::max<std::uint64_t>(2, live.graph().max_degree());
  core::DensityProtocol protocol(w.ids, pconfig, rng.split());
  sim::PerfectDelivery medium;
  sim::ShardedNetwork network(live.graph(), protocol, medium, 1, 1);

  util::Rng pair_rng(99);
  for (int window = 0; window < 8; ++window) {
    mover.step(w.points, 2.0);
    const auto& delta = live.update(w.points);
    network.apply_topology_delta(delta);
    network.run(4);

    const auto clustering = core::cluster_density(live.graph(), w.ids, {});
    routing::FlatRouter flat(live.graph());
    routing::HierarchicalRouter hier(live.graph(), clustering);
    // No stale-gateway use: on the current graph, the hierarchical
    // router must never fail a pair the flat router can serve, and
    // every hop it emits must be a live radio link.
    const auto stats =
        routing::compare_routers(live.graph(), flat, hier, 60, pair_rng);
    EXPECT_EQ(stats.failures, 0u) << "window " << window;
    for (int probe = 0; probe < 20; ++probe) {
      const auto src = static_cast<graph::NodeId>(
          pair_rng.index(live.graph().node_count()));
      const auto dst = static_cast<graph::NodeId>(
          pair_rng.index(live.graph().node_count()));
      const auto route = hier.route(src, dst);
      if (!route.ok()) continue;  // disconnected pair
      EXPECT_TRUE(routing::valid_route(live.graph(), route, src, dst))
          << "window " << window << " " << src << "->" << dst;
    }
  }
}

TEST(RoutingLive, PatchedGraphRoutesMatchScratchRebuild) {
  auto w = testsupport::make_deployment(120, kRadius, 11);
  topology::LiveTopology live(w.points, kRadius);
  util::Rng rng(3);
  mobility::RandomWaypoint mover(w.points.size(), {0.0, 6.0}, 1000.0,
                                 rng.split());

  for (int window = 0; window < 5; ++window) {
    mover.step(w.points, 2.0);
    (void)live.update(w.points);
    const graph::Graph scratch =
        topology::unit_disk_graph(w.points, kRadius);

    const auto clustering_live =
        core::cluster_density(live.graph(), w.ids, {});
    const auto clustering_scratch =
        core::cluster_density(scratch, w.ids, {});
    routing::HierarchicalRouter hier_live(live.graph(), clustering_live);
    routing::HierarchicalRouter hier_scratch(scratch, clustering_scratch);
    ASSERT_EQ(hier_live.cluster_count(), hier_scratch.cluster_count())
        << "window " << window;

    util::Rng pair_rng(1000 + window);
    for (int probe = 0; probe < 40; ++probe) {
      const auto src = static_cast<graph::NodeId>(
          pair_rng.index(scratch.node_count()));
      const auto dst = static_cast<graph::NodeId>(
          pair_rng.index(scratch.node_count()));
      const auto a = hier_live.route(src, dst);
      const auto b = hier_scratch.route(src, dst);
      // The graphs are edge-identical, the clusterings deterministic:
      // the routers must agree hop for hop.
      EXPECT_EQ(a.hops, b.hops) << "window " << window << " " << src
                                << "->" << dst;
    }
  }
}

TEST(RoutingLive, StaleRouterWouldUseSeveredLinks) {
  // The failure mode the recompute discipline prevents, demonstrated:
  // a router built before a perturbation emits at least one route that
  // is invalid on the post-perturbation graph. (If this ever becomes
  // unreproducible the test should be retuned, not deleted — it is the
  // reason the live path rebuilds routers per window.)
  auto w = testsupport::make_deployment(150, kRadius, 19);
  const graph::Graph before = topology::unit_disk_graph(w.points, kRadius);
  const auto clustering = core::cluster_density(before, w.ids, {});
  routing::HierarchicalRouter stale(before, clustering);

  util::Rng rng(5);
  mobility::RandomDirection mover(w.points.size(), {5.0, 10.0}, 1000.0,
                                  rng.split());
  mover.step(w.points, 8.0);  // a big step severs many links
  const graph::Graph after = topology::unit_disk_graph(w.points, kRadius);

  std::size_t broken = 0;
  util::Rng pair_rng(23);
  for (int probe = 0; probe < 200; ++probe) {
    const auto src =
        static_cast<graph::NodeId>(pair_rng.index(after.node_count()));
    const auto dst =
        static_cast<graph::NodeId>(pair_rng.index(after.node_count()));
    const auto route = stale.route(src, dst);
    if (route.ok() && !routing::valid_route(after, route, src, dst)) {
      ++broken;
    }
  }
  EXPECT_GT(broken, 0u)
      << "vehicular-speed perturbation left every stale route valid?";
}

}  // namespace
}  // namespace ssmwn
