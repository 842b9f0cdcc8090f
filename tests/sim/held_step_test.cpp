// Held receivers in full stepping: a receiver the engine offered whole
// (node-level redelivery) and the protocol accepted has every cached
// entry exactly as its previous sweep read it, so when that sweep was a
// fixpoint the engine skips this one (maybe_tick); and a node whose
// whole step was held repeats its frame, so the engine copies last
// step's row instead of building and grading it (frame_held). Both are
// pure cost model. Every test here steps the engine in lockstep with
// the reference oracle — which sweeps, builds and ages everything, every
// step — bitwise with ages included, across the events that must
// release a hold: an entry the sweep saw and end_step then evicted,
// external mutation, severed links, a stepping switch, and the
// self-checking density mode.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/engine_lockstep.hpp"
#include "topology/incremental.hpp"

namespace ssmwn {
namespace {

using testsupport::connected_node;
using testsupport::kEngines;
using testsupport::kSettleSteps;
using testsupport::label;
using testsupport::Lockstep;
using testsupport::make_world;
using testsupport::settle;
using testsupport::StepCounts;
using testsupport::World;

/// Asserts `steps` steps of a full hold: every receiver node-level,
/// every sweep skipped, every row reused.
void expect_full_hold(Lockstep& run, std::size_t n, int steps) {
  for (int s = 0; s < steps && !run.diverged(); ++s) {
    const StepCounts c = run.step_counts();
    EXPECT_EQ(c.node_redeliveries, n) << "hold step " << s;
    EXPECT_EQ(c.sweeps_skipped, n) << "hold step " << s;
    EXPECT_EQ(c.rows_reused, n) << "hold step " << s;
  }
}

/// Settled, perfect medium: each of the three counters advances by
/// exactly n per step, and the state (ages included) still matches the
/// oracle that sweeps, builds and ages every node.
TEST(HeldStep, FullHoldSkipsEverySweepAndReusesEveryRow) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    const StepCounts start = run.totals();
    expect_full_hold(run, n, 10);
    EXPECT_EQ(run.totals().sweeps_skipped - start.sweeps_skipped, 10 * n);
    EXPECT_EQ(run.totals().rows_reused - start.rows_reused, 10 * n);
  }
}

/// Bernoulli loss: row hints never arm, so nothing is ever held.
TEST(HeldStep, LossyMediumNeverHolds) {
  const World w = make_world();
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 0.8);
    for (int s = 0; s < 40 && !run.diverged(); ++s) run.step();
    EXPECT_EQ(run.totals().sweeps_skipped, 0u);
    EXPECT_EQ(run.totals().rows_reused, 0u);
  }
}

/// The eviction trap. A planted phantom with a dominating metric is in
/// the cache every sweep reads while it lives, so those sweeps reach a
/// fixpoint that elects it (parent = phantom). end_step then evicts it.
/// On the next step the node hears only bit-equal rows and its cache
/// size equals its degree again, so it is offered whole and accepts —
/// but its previous fixpoint was computed over a cache that no longer
/// exists, so the sweep must run. Skipping it would keep the phantom as
/// parent and diverge from the oracle.
TEST(HeldStep, SweepThatSawAnEvictedEntryIsNotSkipped) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  const topology::ProtocolId phantom = 0xDEAD0002ULL;  // ids are < n
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    run.mutate([v, phantom](core::DensityProtocol& p) {
      auto s = p.mutable_state(v);
      core::DensityProtocol::CacheEntry entry;
      entry.dag_id = 1;
      entry.metric = 1000.0;  // beats every real density
      entry.metric_valid = true;
      s.cache[phantom] = std::move(entry);
    });
    run.step();
    ASSERT_EQ(run.protocol().state(v).parent, phantom)
        << "the sweep did not see the phantom";
    std::size_t steps_with_phantom = 1;
    while (run.protocol().state(v).cache.contains(phantom) &&
           !run.diverged()) {
      ASSERT_LT(steps_with_phantom, 2 * kSettleSteps) << "never evicted";
      run.step();
      ++steps_with_phantom;
    }
    // The step after the eviction is the one that must not skip v.
    for (int s = 0; s < 3 && !run.diverged(); ++s) run.step();
    EXPECT_NE(run.protocol().state(v).parent, phantom);
    settle(run, n);
    expect_full_hold(run, n, 3);
  }
}

/// External mutation between steps, in a held world: `mutable_state`
/// (writing a shared variable only — the cache still matches), a
/// fractional corruption, and a reboot. The resync flag must keep a
/// mutated node from reusing its stale row and from skipping its sweep;
/// the world then re-settles into a full hold.
TEST(HeldStep, ExternalMutationsReleaseTheHold) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    expect_full_hold(run, n, 1);

    // A scribbled metric: v's next frame must carry it (its row cannot
    // be last step's), and v's next sweep must run to repair it.
    run.mutate([v](core::DensityProtocol& p) {
      p.mutable_state(v).metric = 7.25;
    });
    StepCounts c = run.step_counts();
    EXPECT_LT(c.rows_reused, n);
    EXPECT_LT(c.sweeps_skipped, n);
    settle(run, n);
    expect_full_hold(run, n, 2);

    run.corrupt_fraction(99, 0.1);
    c = run.step_counts();
    EXPECT_LT(c.rows_reused, n);
    settle(run, n);
    expect_full_hold(run, n, 2);

    run.mutate([v](core::DensityProtocol& p) { p.reset_node(v); });
    c = run.step_counts();
    EXPECT_LT(c.rows_reused, n);
    EXPECT_LT(c.sweeps_skipped, n);
    settle(run, n);
    expect_full_hold(run, n, 2);
  }
}

/// A severed link (a node moved away, reported through
/// apply_topology_delta) evicts cache entries at both endpoints between
/// steps: the engine drops its row hints, so the next step reuses no row
/// and skips no sweep, and the world re-settles bit-identically.
TEST(HeldStep, SeveredLinkReleasesTheHold) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    topology::LiveTopology live(w.points, w.radius);
    Lockstep run(live.graph(), w.ids, config, 1.0);
    settle(run, n);
    expect_full_hold(run, n, 1);
    auto moved = w.points;
    moved[v] = {1.0 - moved[v].x, 1.0 - moved[v].y};
    const auto& delta = live.update(moved);
    ASSERT_FALSE(delta.removed.empty()) << "the move severed no link";
    run.apply_topology_delta(delta);
    const StepCounts c = run.step_counts();
    EXPECT_EQ(c.rows_reused, 0u);
    EXPECT_EQ(c.sweeps_skipped, 0u);
    settle(run, n);
    expect_full_hold(run, n, 3);
  }
}

/// An empty topology delta changed nothing: the next step is still a
/// full hold — every receiver node-level, every shard skipped — rather
/// than a release of every hold and a boundary rebuild.
TEST(HeldStep, EmptyTopologyDeltaKeepsTheHold) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    expect_full_hold(run, n, 1);
    run.apply_topology_delta(graph::EdgeDelta{});
    const StepCounts c = run.step_counts();
    EXPECT_EQ(c.node_redeliveries, n);
    EXPECT_EQ(c.shards_skipped, config.shards);
  }
}

/// Full → dirty → full on a held world, with a fault injected while
/// dirty: the dirty stepper neither skips by hold nor reuses rows, the
/// first full step after it has no rows to reuse and no hints, and the
/// hold comes back — bit-identical to the oracle throughout.
TEST(HeldStep, SteppingSwitchFullDirtyFull) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    expect_full_hold(run, n, 2);
    run.engine().set_stepping(sim::Stepping::kDirty);
    run.corrupt_fraction(5, 0.05);
    for (int s = 0; s < 6 && !run.diverged(); ++s) {
      const StepCounts c = run.step_counts();
      EXPECT_EQ(c.sweeps_skipped, 0u);
      EXPECT_EQ(c.rows_reused, 0u);
    }
    run.engine().set_stepping(sim::Stepping::kFull);
    const StepCounts c = run.step_counts();
    EXPECT_EQ(c.rows_reused, 0u);
    EXPECT_EQ(c.sweeps_skipped, 0u);
    settle(run, n);
    expect_full_hold(run, n, 3);
  }
}

/// The self-checking density mode recomputes e(N_p) at every R1 firing
/// and throws on a mismatch with the maintained count. Holds skip those
/// firings; every sweep that does run must still find the count exact,
/// through a recovery from a mass fault.
TEST(HeldStep, CheckedDensityMaintenanceHoldsBitIdentically) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  for (const auto& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0,
                 core::DensityMaintenance::kChecked);
    settle(run, n);
    expect_full_hold(run, n, 2);
    run.corrupt_fraction(17, 0.3);
    settle(run, n);
    expect_full_hold(run, n, 2);
  }
}

/// Unit semantics of the protocol half: frame_held after a held step,
/// dropped by external mutation; maybe_tick skips only an accepted node
/// whose last sweep was a fixpoint.
TEST(HeldStep, ProtocolHoldQueriesDeclineWhenUnsafe) {
  const World w = make_world();
  auto protocol = testsupport::make_full_protocol(w.graph, w.ids, 1);
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(w.graph, protocol, loss, 1, 1);
  network.run(kSettleSteps);
  const graph::NodeId v = connected_node(w.graph);
  const std::size_t degree = w.graph.degree(v);
  ASSERT_TRUE(protocol.frame_held(v));

  // Not offered whole this step: the sweep runs.
  EXPECT_TRUE(protocol.maybe_tick(v));
  protocol.end_step(v);  // an unheld step: the frame is no longer held
  EXPECT_FALSE(protocol.frame_held(v));
  network.step();  // rebuilds v's row; v is held again
  ASSERT_TRUE(protocol.frame_held(v));

  // Mutation without a write still drops the hold until a sweep resyncs.
  { auto s = protocol.mutable_state(v); (void)s; }
  EXPECT_FALSE(protocol.frame_held(v));
  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree));
  network.step();  // the resync step: v runs the per-edge path and sweeps
  EXPECT_FALSE(protocol.frame_held(v));
  network.step();
  EXPECT_TRUE(protocol.frame_held(v));

  // Accepted with a fixpoint behind it: the sweep is skipped, and the
  // skip leaves the frame held.
  ASSERT_TRUE(protocol.redeliver_node_unchanged(v, degree));
  EXPECT_FALSE(protocol.maybe_tick(v));
  protocol.end_step(v);
  EXPECT_TRUE(protocol.frame_held(v));

  // Tracking on: the hold paths are off.
  protocol.set_activity_tracking(true);
  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree));
  protocol.set_activity_tracking(false);
}

}  // namespace
}  // namespace ssmwn
