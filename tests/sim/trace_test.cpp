// Tests for the head-change execution tracer.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

TEST(Trace, RecordsChangesAgainstBaseline) {
  sim::HeadTrace trace;
  EXPECT_EQ(trace.observe({1, 2, 3}), 0u);  // baseline
  EXPECT_EQ(trace.observe({1, 2, 3}), 0u);
  EXPECT_EQ(trace.observe({1, 9, 3}), 1u);
  EXPECT_EQ(trace.observe({7, 9, 8}), 2u);
  EXPECT_EQ(trace.changes().size(), 3u);
  EXPECT_EQ(trace.changes()[0].node, 1u);
  EXPECT_EQ(trace.changes()[0].old_head, 2u);
  EXPECT_EQ(trace.changes()[0].new_head, 9u);
  EXPECT_EQ(trace.nodes_touched(), 3u);
  EXPECT_EQ(trace.steps_observed(), 4u);
  EXPECT_EQ(trace.quiescent_since(), 4u);
}

TEST(Trace, QuiescenceOnNoChanges) {
  sim::HeadTrace trace;
  trace.observe({5, 5});
  trace.observe({5, 5});
  EXPECT_EQ(trace.quiescent_since(), 0u);
  EXPECT_TRUE(trace.changes().empty());
}

TEST(Trace, RenderIsBoundedByLimit) {
  sim::HeadTrace trace;
  trace.observe({0, 0, 0, 0});
  trace.observe({1, 1, 1, 1});
  trace.observe({2, 2, 2, 2});
  const auto text = trace.render(3);
  EXPECT_NE(text.find("step 1"), std::string::npos);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

TEST(Trace, RenderListsEveryChangeWithinLimit) {
  sim::HeadTrace trace;
  trace.observe({3, 4});
  trace.observe({5, 4});  // node 0: 3 → 5 at step 1
  const auto text = trace.render(10);
  EXPECT_NE(text.find("step 1"), std::string::npos);
  EXPECT_NE(text.find("node 0"), std::string::npos);
  EXPECT_EQ(text.find("more)"), std::string::npos);  // nothing elided
}

TEST(Trace, NodesTouchedCountsDistinctNodes) {
  sim::HeadTrace trace;
  trace.observe({1, 1, 1});
  trace.observe({2, 1, 1});  // node 0 changes
  trace.observe({3, 1, 1});  // node 0 changes again
  EXPECT_EQ(trace.changes().size(), 2u);
  EXPECT_EQ(trace.nodes_touched(), 1u);  // still just node 0
}

TEST(Trace, ShrinkingSnapshotOnlyComparesCommonPrefix) {
  // A snapshot shorter than the baseline (e.g. observing a masked
  // sub-deployment) must not read past either vector.
  sim::HeadTrace trace;
  trace.observe({1, 2, 3, 4});
  EXPECT_EQ(trace.observe({9, 2}), 1u);  // only node 0 differs in common
  EXPECT_EQ(trace.changes().size(), 1u);
  EXPECT_EQ(trace.changes()[0].node, 0u);
}

TEST(Trace, AsyncExecutionQuiescesInEventTime) {
  // The tracer is engine-agnostic: drive it from the event engine by
  // sampling head values every virtual period; churn must die out.
  util::Rng rng(9);
  const auto pts = topology::uniform_points(90, rng);
  const auto g = topology::unit_disk_graph(pts, 0.14);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::AsyncNetwork network(g, protocol, loss, sim::AsyncConfig{},
                            rng.split());

  sim::HeadTrace trace;
  trace.observe(protocol.head_values());
  for (int period = 0; period < 60; ++period) {
    network.run_for(1.0);
    trace.observe(protocol.head_values());
  }
  EXPECT_GT(trace.changes().size(), 0u);
  EXPECT_LT(trace.quiescent_since(), 40u);
}

TEST(Trace, ProtocolExecutionQuiescesAndStaysQuiet) {
  // Trace a real protocol run: head churn must die out and never resume
  // (the "closure" half of self-stabilization).
  util::Rng rng(6);
  const auto pts = topology::uniform_points(100, rng);
  const auto g = topology::unit_disk_graph(pts, 0.13);
  const auto ids = topology::random_ids(g.node_count(), rng);
  core::ProtocolConfig config;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);

  sim::HeadTrace trace;
  trace.observe(protocol.head_values());
  for (int step = 0; step < 60; ++step) {
    network.step();
    trace.observe(protocol.head_values());
  }
  EXPECT_GT(trace.changes().size(), 0u);        // something happened
  EXPECT_LT(trace.quiescent_since(), 25u);      // and then it stopped
  const std::size_t quiet_at = trace.quiescent_since();
  // Confirm nothing after the quiescence point.
  for (const auto& change : trace.changes()) {
    EXPECT_LT(change.step, quiet_at);
  }
}

}  // namespace
}  // namespace ssmwn
