// Lockstep harness for the engine's redelivery and held-step fast paths:
// sim::ShardedNetwork (fast paths armed) and the reference oracle
// (owning frames, no row hints, every delivery the full path, every
// node swept and aged every step) step the same world from identically
// seeded protocols and loss models, and every step is checked bitwise —
// cache ages included. Any byte a fast path fails to write, or writes
// when it should not, shows up as a divergence.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/reference_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn::testsupport {

/// The full variant (DAG names + fusion) with `delta_hint` sized from
/// the graph; `maintenance` picks the e(N_p) cost model.
inline core::DensityProtocol make_full_protocol(
    const graph::Graph& g, const topology::IdAssignment& ids,
    std::uint64_t seed,
    core::DensityMaintenance maintenance =
        core::DensityMaintenance::kIncremental) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  config.density_maintenance = maintenance;
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

/// The engine under test: its shard and thread counts.
struct EngineConfig {
  std::size_t shards;
  unsigned threads;
};

inline std::string label(const EngineConfig& c) {
  return "S=" + std::to_string(c.shards) +
         " threads=" + std::to_string(c.threads);
}

inline constexpr EngineConfig kEngines[] = {{1, 1}, {1, 4}, {4, 1}, {4, 4}};

/// The engine's per-step work counters, as deltas over one step.
struct StepCounts {
  std::uint64_t node_redeliveries = 0;
  std::uint64_t sweeps_skipped = 0;
  std::uint64_t rows_reused = 0;
  std::uint64_t shards_skipped = 0;
  std::uint64_t messages = 0;
  std::uint64_t delta_rows = 0;

  bool operator==(const StepCounts&) const = default;
};

/// Both executions observe the same graph object, so a caller that
/// patches it (and tells both through apply_topology_delta) keeps them
/// on one topology.
class Lockstep {
 public:
  Lockstep(const graph::Graph& g, const topology::IdAssignment& ids,
           EngineConfig config, double tau,
           core::DensityMaintenance maintenance =
               core::DensityMaintenance::kIncremental)
      : Lockstep(g, ids,
                 graph::plan_contiguous_shards(g.node_count(), config.shards)
                     .bounds,
                 config.threads, sim::make_loss_model(tau, util::Rng(41)),
                 sim::make_loss_model(tau, util::Rng(41)), maintenance) {}

  /// Explicit shard bounds (e.g. a spatial plan's) and one loss model
  /// per execution; the two must make identical decisions when polled
  /// in the same order.
  Lockstep(const graph::Graph& g, const topology::IdAssignment& ids,
           std::vector<std::size_t> bounds, unsigned threads,
           std::unique_ptr<sim::LossModel> loss_fast,
           std::unique_ptr<sim::LossModel> loss_slow,
           core::DensityMaintenance maintenance =
               core::DensityMaintenance::kIncremental)
      : fast_(make_full_protocol(g, ids, 7, maintenance)),
        slow_(make_full_protocol(g, ids, 7, maintenance)),
        loss_fast_(std::move(loss_fast)),
        loss_slow_(std::move(loss_slow)),
        engine_(g, fast_, *loss_fast_, std::move(bounds), threads),
        oracle_(g, slow_, *loss_slow_) {}

  /// Applies the same external mutation to both protocols.
  template <typename F>
  void mutate(F&& f) {
    f(fast_);
    f(slow_);
  }

  /// Corrupts each protocol from its own identically seeded stream, so
  /// both hit the same nodes with the same garbage.
  void corrupt_fraction(std::uint64_t seed, double fraction) {
    util::Rng a(seed), b(seed);
    EXPECT_EQ(fast_.corrupt_fraction(a, fraction),
              slow_.corrupt_fraction(b, fraction));
  }

  /// Tells both executions that their shared graph was just patched.
  void apply_topology_delta(const graph::EdgeDelta& delta) {
    engine_.apply_topology_delta(delta);
    oracle_.apply_topology_delta(delta);
  }

  /// Points both executions at another graph (same node count).
  void set_graph(const graph::Graph& g) {
    engine_.set_graph(g);
    oracle_.set_graph(g);
  }

  /// One lockstep step; returns this step's counter deltas. Fails the
  /// test (non-fatally) on any bitwise divergence.
  StepCounts step_counts() {
    const StepCounts before = totals();
    engine_.step();
    oracle_.step();
    const auto div = core::first_divergent_node(fast_, slow_);
    EXPECT_EQ(div, std::nullopt)
        << "step " << oracle_.steps_run() << ":\n"
        << (div ? core::describe_divergence(fast_, slow_, *div) : "");
    diverged_ = diverged_ || div.has_value();
    const StepCounts after = totals();
    return {after.node_redeliveries - before.node_redeliveries,
            after.sweeps_skipped - before.sweeps_skipped,
            after.rows_reused - before.rows_reused,
            after.shards_skipped - before.shards_skipped,
            after.messages - before.messages,
            after.delta_rows - before.delta_rows};
  }

  /// One lockstep step; returns this step's node-level redeliveries.
  std::uint64_t step() { return step_counts().node_redeliveries; }

  [[nodiscard]] StepCounts totals() const {
    return {engine_.node_redeliveries(), engine_.sweeps_skipped(),
            engine_.rows_reused(), engine_.shards_skipped(),
            engine_.messages_delivered(), engine_.delta_rows_graded()};
  }
  [[nodiscard]] std::uint64_t node_redeliveries() const {
    return engine_.node_redeliveries();
  }
  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] const core::DensityProtocol& protocol() const {
    return fast_;
  }
  [[nodiscard]] sim::ShardedNetwork<core::DensityProtocol>& engine() {
    return engine_;
  }

 private:
  core::DensityProtocol fast_;
  core::DensityProtocol slow_;
  std::unique_ptr<sim::LossModel> loss_fast_;
  std::unique_ptr<sim::LossModel> loss_slow_;
  sim::ShardedNetwork<core::DensityProtocol> engine_;
  ReferenceNetwork<core::DensityProtocol> oracle_;
  bool diverged_ = false;
};

/// A settling world: 200 nodes, mean degree ~8, some of them isolated
/// (degree-0 receivers take the node-level path vacuously).
struct World {
  std::vector<topology::Point> points;
  graph::Graph graph;
  topology::IdAssignment ids;
  double radius = 0.11;
};

inline World make_world() {
  util::Rng rng(20051003);
  const std::size_t n = 200;
  World w;
  w.points = topology::uniform_points(n, rng);
  w.ids = topology::random_ids(n, rng);
  w.graph = topology::unit_disk_graph(w.points, w.radius);
  return w;
}

inline constexpr std::size_t kSettleSteps = 60;

/// Steps until the hold is steady; fails unless the last step already
/// took the node-level path for every receiver.
inline void settle(Lockstep& run, std::size_t n) {
  std::uint64_t last = 0;
  for (std::size_t s = 0; s < kSettleSteps && !run.diverged(); ++s) {
    last = run.step();
  }
  ASSERT_EQ(last, n) << "world did not reach a steady hold";
}

/// The first node with at least one neighbor.
inline graph::NodeId connected_node(const graph::Graph& g) {
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    if (g.degree(p) > 0) return p;
  }
  ADD_FAILURE() << "world has no edge";
  return 0;
}

}  // namespace ssmwn::testsupport
