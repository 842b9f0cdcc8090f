// Protocol-under-mobility re-convergence — the first end-to-end
// exercise of the paper's actual theorem: the distributed protocol runs
// *continuously* while the topology changes underneath it, and after
// every perturbation it must re-converge to the legitimate
// configuration of the new graph, on both execution engines, without
// ever being restarted.
#include <gtest/gtest.h>

#include <vector>

#include "core/clustering.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "graph/dynamic.hpp"
#include "mobility/mobility.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

TEST(LiveReconvergence, SyncEngineRecoversAcrossMobilityWindows) {
  util::Rng rng(20050612);
  const std::size_t n = 120;
  const double radius = 0.16;
  auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  mobility::RandomDirection mover(n, {0.0, 3.0}, 1000.0, rng.split());

  topology::LiveTopology topo(points, radius);
  auto protocol = make_protocol(topo.graph(), ids, 11);
  sim::PerfectDelivery medium;
  sim::ShardedNetwork network(topo.graph(), protocol, medium, 1, 1);

  core::ClusteringResult oracle = core::cluster_density(topo.graph(), ids, {});
  core::LegitimacyCheck legitimacy(topo.graph(), protocol, &oracle);
  auto settle = [&](std::size_t max_steps) {
    legitimacy.reset();
    return stabilize::run_until_stable([&] { network.step(); },
                                       [&] { return legitimacy.check(); },
                                       /*confirm_steps=*/3, max_steps);
  };

  ASSERT_TRUE(settle(200).converged) << "cold start never converged";

  std::size_t reconverged = 0;
  for (int window = 0; window < 12; ++window) {
    mover.step(points, 2.0);
    const auto& delta = topo.update(points);
    network.apply_topology_delta(delta);
    oracle = core::cluster_density(topo.graph(), ids, {});
    if (settle(200).converged) ++reconverged;
  }
  // The protocol keeps running across perturbations; every window must
  // re-reach the new oracle within the budget.
  EXPECT_EQ(reconverged, 12u);
}

TEST(LiveReconvergence, RemovedEdgeInvalidatesCachesImmediately) {
  // Two nodes in range, protocol converged, then the link is severed:
  // the topology-aware hook must evict the neighbor entries at once
  // rather than letting them age out.
  const topology::IdAssignment ids{10, 20, 30};
  std::vector<topology::Point> points{{0.1, 0.1}, {0.15, 0.1}, {0.9, 0.9}};
  topology::LiveTopology topo(points, 0.1);
  ASSERT_EQ(topo.graph().edge_count(), 1u);

  auto protocol = make_protocol(topo.graph(), ids, 3);
  sim::PerfectDelivery medium;
  sim::ShardedNetwork network(topo.graph(), protocol, medium, 1, 1);
  network.run(5);
  ASSERT_TRUE(protocol.state(0).cache.contains(ids[1]));
  ASSERT_TRUE(protocol.state(1).cache.contains(ids[0]));

  points[1] = {0.5, 0.5};  // walks out of range
  const auto& delta = topo.update(points);
  ASSERT_EQ(delta.removed.size(), 1u);
  network.apply_topology_delta(delta);
  EXPECT_FALSE(protocol.state(0).cache.contains(ids[1]));
  EXPECT_FALSE(protocol.state(1).cache.contains(ids[0]));
}

TEST(LiveReconvergence, AsyncEngineRecoversWithScheduledPerturbations) {
  util::Rng rng(77);
  const std::size_t n = 80;
  const double radius = 0.2;
  auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  mobility::RandomDirection mover(n, {0.0, 3.0}, 1000.0, rng.split());

  topology::LiveTopology topo(points, radius);
  auto protocol = make_protocol(topo.graph(), ids, 5);
  util::Rng chaos(99);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery medium;
  sim::AsyncConfig config;
  config.period_s = 1.0;
  sim::AsyncNetwork network(topo.graph(), protocol, medium, config,
                            util::Rng(123));

  core::ClusteringResult oracle = core::cluster_density(topo.graph(), ids, {});
  core::LegitimacyCheck legitimacy(topo.graph(), protocol, &oracle);
  auto settle = [&] {
    legitimacy.reset();
    return sim::settle_async(
        network, [&] { return legitimacy.check(); }, /*horizon_periods=*/150);
  };
  ASSERT_TRUE(settle().converged) << "cold start never converged";

  std::size_t reconverged = 0;
  for (int window = 0; window < 6; ++window) {
    mover.step(points, 2.0);
    network.schedule_topology_update(
        network.now(), [&]() -> const graph::EdgeDelta& {
          return topo.update(points);
        });
    // Fire the perturbation (events at time ≤ now, including the one
    // just scheduled) so the oracle below sees the new graph.
    network.run_until(network.now());
    oracle = core::cluster_density(topo.graph(), ids, {});
    if (settle().converged) ++reconverged;
  }
  EXPECT_EQ(reconverged, 6u);
  EXPECT_EQ(network.topology_updates(), 6u);
}

TEST(LiveReconvergence, AsyncTraceIsDeterministicWithTopologyEvents) {
  auto run_trace = [](std::vector<sim::Event>& trace) {
    util::Rng rng(31);
    const std::size_t n = 40;
    auto points = topology::uniform_points(n, rng);
    const auto ids = topology::random_ids(n, rng);
    mobility::RandomDirection mover(n, {0.0, 5.0}, 1000.0, rng.split());

    topology::LiveTopology topo(points, 0.25);
    auto protocol = make_protocol(topo.graph(), ids, 1);
    sim::BernoulliDelivery medium(0.9, util::Rng(7));
    sim::AsyncConfig config;
    config.period_s = 1.0;
    sim::AsyncNetwork network(topo.graph(), protocol, medium, config,
                              util::Rng(2));
    network.set_event_log(&trace);
    for (int window = 0; window < 5; ++window) {
      network.run_for(4.0);
      mover.step(points, 2.0);
      network.schedule_topology_update(
          network.now(), [&]() -> const graph::EdgeDelta& {
            return topo.update(points);
          });
    }
    network.run_for(4.0);
  };
  std::vector<sim::Event> a, b;
  run_trace(a);
  run_trace(b);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const sim::Event& e) {
    return e.kind == sim::EventKind::kTopology;
  }));
}

TEST(LiveReconvergence, InFlightFrameOnSeveredLinkIsDropped) {
  // Sender broadcasts, then the link breaks while the frame is still in
  // flight (long link delay): the frame must expire, not deliver.
  const topology::IdAssignment ids{1, 2};
  std::vector<topology::Point> points{{0.2, 0.2}, {0.25, 0.2}};
  topology::LiveTopology topo(points, 0.1);
  ASSERT_EQ(topo.graph().edge_count(), 1u);

  auto protocol = make_protocol(topo.graph(), ids, 9);
  sim::PerfectDelivery medium;
  sim::AsyncConfig config;
  config.period_s = 1.0;
  config.period_jitter = 0.0;
  config.link_delay_s = 10.0;  // frames hang in flight for 10 s
  config.link_delay_jitter = 0.0;
  config.daemon = sim::DaemonKind::kSynchronous;
  sim::AsyncNetwork network(topo.graph(), protocol, medium, config,
                            util::Rng(4));

  network.run_for(0.5);  // both nodes broadcast at t=0; deliveries at t=10
  ASSERT_GT(network.frames_in_flight(), 0u);
  points[1] = {0.8, 0.8};
  network.schedule_topology_update(network.now(),
                                   [&]() -> const graph::EdgeDelta& {
                                     return topo.update(points);
                                   });
  network.run_for(1.0);  // applies the update; link is now gone
  network.run_for(15.0);  // the t=10 deliveries fire... and must expire
  EXPECT_GE(network.messages_expired(), 2u);
  EXPECT_EQ(network.messages_delivered(), 0u);
  EXPECT_FALSE(protocol.state(0).cache.contains(ids[1]));
  EXPECT_FALSE(protocol.state(1).cache.contains(ids[0]));
}

}  // namespace
}  // namespace ssmwn
