// Paper-shape integration tests: miniature versions of the evaluation
// benches, asserted under ctest so the test suite alone demonstrates the
// reproduction claims (the benches re-run them at paper scale).
#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "core/protocol.hpp"
#include "metrics/cluster_metrics.hpp"
#include "routing/broadcast.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "sim/trace.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ssmwn {
namespace {

TEST(PaperShapes, Table3DagBuildsInAboutTwoRounds) {
  util::Rng rng(1);
  util::RunningStats rounds;
  for (int trial = 0; trial < 15; ++trial) {
    const auto pts = topology::uniform_points(500, rng);
    const auto g = topology::unit_disk_graph(pts, 0.07);
    const auto ids = topology::random_ids(g.node_count(), rng);
    const auto dag = core::build_dag_ids(g, ids, {}, rng);
    ASSERT_TRUE(dag.converged);
    rounds.add(static_cast<double>(dag.rounds));
  }
  EXPECT_GE(rounds.mean(), 1.0);
  EXPECT_LE(rounds.mean(), 3.0);
}

TEST(PaperShapes, Table4ClusterCountFallsWithRange) {
  util::Rng rng(2);
  util::RunningStats small_r, large_r;
  for (int trial = 0; trial < 8; ++trial) {
    const auto pts = topology::uniform_points(500, rng);
    const auto ids = topology::random_ids(pts.size(), rng);
    small_r.add(static_cast<double>(
        core::cluster_density(topology::unit_disk_graph(pts, 0.06), ids, {})
            .cluster_count()));
    large_r.add(static_cast<double>(
        core::cluster_density(topology::unit_disk_graph(pts, 0.12), ids, {})
            .cluster_count()));
  }
  EXPECT_GT(small_r.mean(), 1.7 * large_r.mean());
}

TEST(PaperShapes, Table4DagChangesNothingOnRandomIds) {
  // Table 4 reports *mean cluster counts* over many deployments, which
  // the DAG leaves essentially unchanged on random identifiers
  // (individual tie-broken head identities may flip, but the population
  // does not). Averaged like the paper's 1000-run means.
  util::Rng rng(3);
  util::RunningStats plain_counts, dag_counts;
  for (int trial = 0; trial < 15; ++trial) {
    const auto pts = topology::uniform_points(400, rng);
    const auto g = topology::unit_disk_graph(pts, 0.08);
    const auto ids = topology::random_ids(g.node_count(), rng);
    plain_counts.add(
        static_cast<double>(core::cluster_density(g, ids, {}).cluster_count()));
    const auto dag = core::build_dag_ids(g, ids, {}, rng);
    core::ClusterOptions opt;
    opt.use_dag_ids = true;
    dag_counts.add(static_cast<double>(
        core::cluster_density(g, ids, opt, dag.ids).cluster_count()));
  }
  EXPECT_NEAR(plain_counts.mean(), dag_counts.mean(),
              0.12 * plain_counts.mean());
}

TEST(PaperShapes, Table5GridCollapseAndDagRescue) {
  const std::size_t side = 20;
  const auto pts = topology::grid_points(side);
  const auto g = topology::unit_disk_graph(pts, 1.45 / side);
  const auto ids = topology::sequential_ids(g.node_count());
  const auto collapsed = core::cluster_density(g, ids, {});
  EXPECT_EQ(collapsed.cluster_count(), 1u);
  const auto stats = metrics::analyze(g, collapsed);
  EXPECT_GE(stats.max_tree_depth, side / 2);

  util::Rng rng(4);
  const auto dag = core::build_dag_ids(g, ids, {}, rng);
  core::ClusterOptions opt;
  opt.use_dag_ids = true;
  const auto rescued = core::cluster_density(g, ids, opt, dag.ids);
  EXPECT_GT(rescued.cluster_count(), 8u);
  EXPECT_LT(metrics::analyze(g, rescued).mean_tree_depth, 5.0);
}

TEST(PaperShapes, StabilizationLinearWithoutDagFlatWithIt) {
  // Steps to quiescence on adversarial lines of growing length.
  auto measure = [](std::size_t n, bool use_dag, std::uint64_t seed) {
    graph::Graph g(n);
    for (graph::NodeId p = 0; p + 1 < n; ++p) g.add_edge(p, p + 1);
    g.finalize();
    core::ProtocolConfig config;
    config.cluster.use_dag_ids = use_dag;
    config.delta_hint = 2;
    core::DensityProtocol protocol(topology::sequential_ids(n), config,
                                   util::Rng(seed));
    sim::PerfectDelivery loss;
    sim::ShardedNetwork network(g, protocol, loss, 1);
    sim::HeadTrace trace;
    trace.observe(protocol.head_values());
    for (std::size_t step = 0; step < 4 * n; ++step) {
      network.step();
      trace.observe(protocol.head_values());
    }
    return trace.quiescent_since();
  };
  const auto plain_small = measure(12, false, 5);
  const auto plain_large = measure(48, false, 6);
  const auto dag_small = measure(12, true, 7);
  const auto dag_large = measure(48, true, 8);
  EXPECT_GE(plain_large, 3 * plain_small);  // ~linear growth
  EXPECT_LE(dag_large, dag_small + 10);     // ~flat
}

TEST(PaperShapes, FusionEnforcesHeadSpacing) {
  util::Rng rng(9);
  const auto pts = topology::uniform_points(500, rng);
  const auto g = topology::unit_disk_graph(pts, 0.07);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ClusterOptions opt;
  opt.fusion = true;
  const auto r = core::cluster_density(g, ids, opt);
  const auto stats = metrics::analyze(g, r);
  if (stats.cluster_count >= 2 && stats.min_head_separation > 0) {
    EXPECT_GE(stats.min_head_separation, 3u);
  }
}

TEST(PaperShapes, ClusterizedBroadcastSavesTraffic) {
  util::Rng rng(10);
  const auto pts = topology::uniform_points(500, rng);
  const auto g = topology::unit_disk_graph(pts, 0.09);
  const auto ids = topology::random_ids(g.node_count(), rng);
  const auto clustering = core::cluster_density(g, ids, {});
  const auto f = routing::flood(g, 0);
  const auto c = routing::cluster_broadcast(g, clustering, 0);
  EXPECT_EQ(c.covered, f.covered);
  EXPECT_LT(c.transmissions, f.transmissions);
}

}  // namespace
}  // namespace ssmwn
