// Exact-match oracle test for the DAG mode: when the distributed
// protocol is seeded with a known locally-unique coloring, the N1 rule
// keeps it (newId never redraws a clean name), so the protocol must
// converge to *exactly* the configuration the offline solver computes
// for those same DAG names — head for head, parent for parent.
#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

TEST(DagOracle, SeededProtocolMatchesOfflineSolverExactly) {
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pts = topology::uniform_points(120, rng);
    const auto g = topology::unit_disk_graph(pts, 0.12);
    const auto ids = topology::random_ids(g.node_count(), rng);

    // Offline coloring + offline clustering under it.
    const auto dag = core::build_dag_ids(g, ids, {}, rng);
    ASSERT_TRUE(dag.converged);
    core::ClusterOptions opt;
    opt.use_dag_ids = true;
    const auto oracle = core::cluster_density(g, ids, opt, dag.ids);

    // Distributed protocol seeded with the same names. The name space
    // must match the offline one so no node deems its name out of range.
    core::ProtocolConfig config;
    config.cluster.use_dag_ids = true;
    config.dag_name_space = dag.name_space;
    config.delta_hint = g.max_degree();
    core::DensityProtocol protocol(ids, config, rng.split());
    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      protocol.mutable_state(p).dag_id = dag.ids[p];
    }

    sim::PerfectDelivery loss;
    sim::ShardedNetwork network(g, protocol, loss, 1);
    network.run(80);

    for (graph::NodeId p = 0; p < g.node_count(); ++p) {
      const auto& s = protocol.state(p);
      EXPECT_EQ(s.dag_id, dag.ids[p]) << "name redrawn at " << p;
      ASSERT_TRUE(s.head_valid && s.parent_valid);
      EXPECT_EQ(s.head, oracle.head_id[p]) << "trial " << trial;
      EXPECT_EQ(s.parent, ids[oracle.parent[p]]) << "trial " << trial;
    }
  }
}

TEST(DagOracle, SeededProtocolSurvivesCorruptionOfEverythingButNames) {
  // Corrupt the election variables (density, head, parent) of every
  // node, leaving DAG names and caches alone: the protocol must return
  // to exactly the oracle configuration. (Full corruption including
  // caches may plant phantom name collisions that legitimately trigger
  // renaming, after which a *different but valid* configuration is
  // reached — that case is covered by the protocol sweep tests.)
  util::Rng rng(2);
  const auto pts = topology::uniform_points(100, rng);
  const auto g = topology::unit_disk_graph(pts, 0.13);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto dag = core::build_dag_ids(g, ids, {}, rng);
  core::ClusterOptions opt;
  opt.use_dag_ids = true;
  const auto oracle = core::cluster_density(g, ids, opt, dag.ids);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.dag_name_space = dag.name_space;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    protocol.mutable_state(p).dag_id = dag.ids[p];
  }
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);
  network.run(60);

  util::Rng chaos(3);
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    auto s = protocol.mutable_state(p);
    s.metric = chaos.uniform(0.0, 8.0);
    s.metric_valid = chaos.chance(0.8);
    s.head = chaos.below(2 * g.node_count());
    s.head_valid = chaos.chance(0.8);
    s.parent = chaos.below(2 * g.node_count());
    s.parent_valid = chaos.chance(0.8);
  }
  network.run(80);
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    EXPECT_EQ(protocol.state(p).head, oracle.head_id[p]);
  }
}

}  // namespace
}  // namespace ssmwn
