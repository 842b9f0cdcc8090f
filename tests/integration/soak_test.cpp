// Soak tests: the protocol under a *repeating* adversary — periodic
// corruption, sustained loss, and node churn at the same time. After the
// adversary stops, the system must always converge (self-stabilization
// is exactly the guarantee that no reachable state is a trap).
#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/protocol.hpp"
#include "sim/churn.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "sim/trace.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

TEST(Soak, RepeatedCorruptionNeverTrapsTheProtocol) {
  util::Rng rng(11);
  const auto pts = topology::uniform_points(90, rng);
  const auto g = topology::unit_disk_graph(pts, 0.14);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto oracle = core::cluster_density(g, ids, {});

  core::ProtocolConfig config;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);

  util::Rng chaos(12);
  for (int round = 0; round < 10; ++round) {
    // Hit a random fraction with arbitrary state, every 15 steps.
    protocol.corrupt_fraction(chaos, chaos.uniform(0.1, 0.9));
    network.run(15);
  }
  // Adversary stops; the system must converge to the oracle.
  network.run(60);
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_EQ(protocol.state(p).head, oracle.head_id[p]) << "node " << p;
  }
}

TEST(Soak, LossPlusChurnPlusCorruption) {
  util::Rng rng(13);
  const auto pts = topology::uniform_points(70, rng);
  const auto base = topology::unit_disk_graph(pts, 0.16);
  const auto ids = topology::random_ids(base.node_count(), rng);

  core::ProtocolConfig config;
  config.delta_hint = base.max_degree();
  config.cache_max_age = 10;
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::BernoulliDelivery medium(0.75, rng.split());
  sim::ShardedNetwork network(base, protocol, medium, 1);
  sim::NodeChurn churn(base.node_count(), 0.02, 0.3, rng.split());

  util::Rng chaos(14);
  std::vector<graph::Graph> snapshots;  // keep graphs alive for the net
  snapshots.reserve(40);
  for (int phase = 0; phase < 30; ++phase) {
    churn.step();
    snapshots.push_back(sim::mask_nodes(
        base, std::span<const char>(churn.alive().data(),
                                    churn.alive().size())));
    network.set_graph(snapshots.back());
    if (phase % 7 == 3) protocol.corrupt_fraction(chaos, 0.3);
    network.run(5);
  }

  // Storm over: all nodes back up, medium still lossy. Must re-converge
  // to the oracle of the full topology.
  network.set_graph(base);
  const auto oracle = core::cluster_density(base, ids, {});
  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] {
        for (graph::NodeId p = 0; p < base.node_count(); ++p) {
          const auto& s = protocol.state(p);
          if (!s.head_valid || s.head != oracle.head_id[p]) return false;
        }
        return true;
      },
      /*confirm_steps=*/15, /*max_steps=*/1500);
  EXPECT_TRUE(report.converged);
}

TEST(Soak, ClosureUnderSilentSteps) {
  // Closure half of self-stabilization: once legitimate, the state never
  // changes again without external perturbation — verified over a long
  // quiet run with the trace recorder.
  util::Rng rng(15);
  const auto pts = topology::uniform_points(120, rng);
  const auto g = topology::unit_disk_graph(pts, 0.12);
  const auto ids = topology::random_ids(g.node_count(), rng);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);
  network.run(100);  // certainly converged

  sim::HeadTrace trace;
  trace.observe(protocol.head_values());
  auto dag_before = protocol.dag_id_values();
  auto parents_before = protocol.parent_values();
  network.run(200);
  trace.observe(protocol.head_values());
  EXPECT_TRUE(trace.changes().empty());
  EXPECT_EQ(protocol.dag_id_values(), dag_before);
  EXPECT_EQ(protocol.parent_values(), parents_before);
}

}  // namespace
}  // namespace ssmwn
