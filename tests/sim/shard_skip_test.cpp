// Held steps are skipped. In full stepping, a step with row hints valid
// on a loss-free medium and every node frame_held would be the
// identity, ages included, so every shard skips it outright. Every test
// here steps the engine in lockstep with the reference oracle — which
// sweeps, builds and ages everything, every step — bitwise with ages
// included, at S ∈ {1, 4, 16} spatial shards on 1 and 4 threads,
// across the events that must end a hold: a mutation between steps, a
// lossy step, topology changes and a stepping switch. The per-step work
// counters must also read exactly what one unsharded shard reads, so a
// skip books what the skipped step would have booked.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/engine_lockstep.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

using testsupport::EngineConfig;
using testsupport::label;
using testsupport::Lockstep;
using testsupport::StepCounts;

constexpr std::size_t kSpatialShards = 16;
constexpr EngineConfig kSkipEngines[] = {{1, 1},  {1, 4},  {4, 1},
                                         {4, 4},  {16, 1}, {16, 4}};
constexpr std::size_t kMaxSettleSteps = 200;

/// 1500 nodes, mean degree ~9.5, renumbered cell-major for 16 spatial
/// shards (bands of the field), as the benches shard their worlds.
struct SpatialWorld {
  std::vector<topology::Point> points;
  graph::Graph graph;
  topology::IdAssignment ids;
  double radius = 0.045;
  std::vector<std::size_t> bounds;  // the 16-shard plan
};

SpatialWorld make_spatial_world() {
  util::Rng rng(20240611);
  const std::size_t n = 1500;
  SpatialWorld w;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto plan =
      graph::plan_spatial_shards(points, w.radius, kSpatialShards);
  w.points = graph::permuted(plan, points);
  w.ids = graph::permuted(plan, ids);
  w.graph = topology::unit_disk_graph(w.points, w.radius);
  w.bounds = plan.bounds;
  return w;
}

/// The 16-shard plan merged into `shards` (1, 4 or 16) bands.
std::vector<std::size_t> bounds_for(const SpatialWorld& w,
                                    std::size_t shards) {
  std::vector<std::size_t> out;
  const std::size_t stride = kSpatialShards / shards;
  for (std::size_t s = 0; s < w.bounds.size(); s += stride) {
    out.push_back(w.bounds[s]);
  }
  return out;
}

std::size_t shard_of(std::span<const std::size_t> bounds, graph::NodeId p) {
  std::size_t s = 0;
  while (bounds[s + 1] <= p) ++s;
  return s;
}

/// A medium that is perfect until told otherwise: while `*lossy` is set
/// it drops each frame with probability 1 − τ. Two instances with the
/// same seed decide identically when polled in the same order.
class GatedLoss final : public sim::LossModel {
 public:
  GatedLoss(const bool* lossy, double tau, util::Rng rng)
      : lossy_(lossy), tau_(tau), rng_(rng) {}
  [[nodiscard]] bool delivered(graph::NodeId, graph::NodeId) override {
    return !*lossy_ || rng_.uniform() < tau_;
  }
  [[nodiscard]] bool always_delivers() const noexcept override {
    return !*lossy_;
  }

 private:
  const bool* lossy_;
  double tau_;
  util::Rng rng_;
};

/// One configuration's run of a scenario: the lockstep pair plus the
/// log of every step's counters.
class Driver {
 public:
  Driver(const graph::Graph& g, const SpatialWorld& w, EngineConfig c,
         const bool* lossy)
      : shards_(c.shards),
        run_(g, w.ids, bounds_for(w, c.shards), c.threads,
             std::make_unique<GatedLoss>(lossy, 0.7, util::Rng(41)),
             std::make_unique<GatedLoss>(lossy, 0.7, util::Rng(41))) {}

  /// One lockstep step; a step skips every shard or none.
  StepCounts step() {
    log_.push_back(run_.step_counts());
    const std::size_t skipped = log_.back().shards_skipped;
    EXPECT_TRUE(skipped == 0 || skipped == shards_)
        << skipped << " of " << shards_ << " shards skipped";
    return log_.back();
  }

  /// Steps until a step skips every shard (every node held); fails
  /// unless that happens within kMaxSettleSteps.
  void settle() {
    for (std::size_t s = 0; s < kMaxSettleSteps && !run_.diverged(); ++s) {
      if (step().shards_skipped == shards_) return;
    }
    FAIL() << "world did not reach a full hold";
  }

  /// Asserts `steps` steps in which every shard skips.
  void expect_full_skips(std::size_t n, int steps) {
    for (int s = 0; s < steps && !run_.diverged(); ++s) {
      const StepCounts c = step();
      EXPECT_EQ(c.shards_skipped, shards_) << "hold step " << s;
      EXPECT_EQ(c.node_redeliveries, n) << "hold step " << s;
      EXPECT_EQ(c.sweeps_skipped, n) << "hold step " << s;
      EXPECT_EQ(c.rows_reused, n) << "hold step " << s;
      EXPECT_EQ(c.delta_rows, 0u) << "hold step " << s;
    }
  }

  Lockstep& run() { return run_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] const std::vector<StepCounts>& log() const { return log_; }

 private:
  std::size_t shards_;
  Lockstep run_;
  std::vector<StepCounts> log_;
};

/// Plays `scenario` on every configuration; the first one (one shard,
/// one thread) is the counter reference: every other configuration must
/// log the same per-step work counters, shard skips aside.
template <typename Scenario>
void play_everywhere(const SpatialWorld& w, const graph::Graph& g,
                     const bool* lossy, Scenario&& scenario) {
  std::vector<StepCounts> reference;
  for (const auto& config : kSkipEngines) {
    SCOPED_TRACE(label(config));
    Driver d(g, w, config, lossy);
    scenario(d);
    std::vector<StepCounts> log = d.log();
    for (StepCounts& c : log) c.shards_skipped = 0;
    if (reference.empty()) {
      reference = std::move(log);
      continue;
    }
    ASSERT_EQ(log.size(), reference.size());
    for (std::size_t s = 0; s < log.size(); ++s) {
      EXPECT_EQ(log[s], reference[s]) << "counters differ at step " << s;
    }
  }
}

/// The first node of shard `s` with a neighbor.
graph::NodeId connected_node_in(const graph::Graph& g,
                                std::span<const std::size_t> bounds,
                                std::size_t s) {
  for (std::size_t p = bounds[s]; p < bounds[s + 1]; ++p) {
    if (g.degree(static_cast<graph::NodeId>(p)) > 0) {
      return static_cast<graph::NodeId>(p);
    }
  }
  ADD_FAILURE() << "shard " << s << " has no edge";
  return static_cast<graph::NodeId>(bounds[s]);
}

/// A read-write touch of one node (mutable_state, nothing written) ends
/// the hold for exactly two steps: the mutated node resyncs through the
/// full path, then its row is rebuilt once more. Every other node stays
/// held through both, so the counters read n − 1 and n, not 0.
TEST(ShardSkip, MutationEndsTheHoldForTwoSteps) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  const bool lossy = false;
  play_everywhere(w, w.graph, &lossy, [&](Driver& d) {
    const graph::NodeId x =
        connected_node_in(w.graph, w.bounds, kSpatialShards / 2);
    d.settle();
    d.expect_full_skips(n, 2);
    d.run().mutate([x](core::DensityProtocol& p) {
      auto s = p.mutable_state(x);
      (void)s;
    });
    const StepCounts first = d.step();
    EXPECT_EQ(first.shards_skipped, 0u);
    EXPECT_EQ(first.node_redeliveries, n - 1);
    EXPECT_EQ(first.sweeps_skipped, n - 1);
    EXPECT_EQ(first.rows_reused, n - 1);
    const StepCounts second = d.step();
    EXPECT_EQ(second.shards_skipped, 0u);
    EXPECT_EQ(second.node_redeliveries, n);
    EXPECT_EQ(second.sweeps_skipped, n);
    EXPECT_EQ(second.rows_reused, n - 1);
    d.expect_full_skips(n, 2);
  });
}

/// The buffer the first arena build after a held step swaps in holds
/// the rows of two builds ago. Every heard row agrees in both buffers
/// (its listeners accepted it bit-equal before the hold), but an
/// isolated sender's row need not: here its header changed at the last
/// build before the hold. Held through the next build, that row must be
/// copied from the held buffer rather than trusted in place (held steps
/// must leave its grade saying it changed), or the step after grades
/// the isolated node's rebuilt, unchanged row against a stale one and
/// books a delta row that never was.
TEST(ShardSkip, IsolatedRowChangedBeforeASkipIsNotReusedInPlace) {
  const testsupport::World w = testsupport::make_world();
  const std::size_t n = w.graph.node_count();
  const std::size_t shard_counts[] = {1, 4, 16};
  for (const std::size_t shards : shard_counts) {
    for (const unsigned threads : {1u, 4u}) {
      const EngineConfig config{shards, threads};
      SCOPED_TRACE(label(config));
      const auto bounds = graph::plan_contiguous_shards(n, shards).bounds;
      // An isolated node, and a connected node of the same shard.
      graph::NodeId lone = 0;
      graph::NodeId mate = 0;
      bool found = false;
      for (graph::NodeId p = 0; p < n && !found; ++p) {
        if (w.graph.degree(p) != 0) continue;
        const std::size_t s = shard_of(bounds, p);
        for (std::size_t q = bounds[s]; q < bounds[s + 1]; ++q) {
          if (w.graph.degree(static_cast<graph::NodeId>(q)) > 0) {
            lone = p;
            mate = static_cast<graph::NodeId>(q);
            found = true;
            break;
          }
        }
      }
      ASSERT_TRUE(found) << "no isolated node shares a shard with an edge";
      Lockstep run(w.graph, w.ids, config, 1.0);
      const auto full_skip = [&] {
        for (std::size_t s = 0; s < kMaxSettleSteps && !run.diverged(); ++s) {
          if (run.step_counts().shards_skipped == shards) return;
        }
        FAIL() << "world did not reach a full hold";
      };
      full_skip();
      // The last build before the hold rebuilds the isolated node's
      // repaired row.
      run.mutate([lone](core::DensityProtocol& p) {
        p.mutable_state(lone).metric = 7.25;
      });
      full_skip();
      EXPECT_EQ(run.step_counts().shards_skipped, shards);
      // The next build runs while it stays held...
      run.mutate([mate](core::DensityProtocol& p) {
        auto s = p.mutable_state(mate);
        (void)s;
      });
      EXPECT_EQ(run.step_counts().delta_rows, 0u);
      // ...then it rebuilds an unchanged row, graded against the buffer
      // that step left behind.
      run.mutate([lone](core::DensityProtocol& p) {
        auto s = p.mutable_state(lone);
        (void)s;
      });
      const StepCounts c = run.step_counts();
      EXPECT_EQ(c.delta_rows, 0u);
      EXPECT_EQ(c.rows_reused, n - 2);
      full_skip();
    }
  }
}

/// Repeated fractional corruption between steps: the hold ends and
/// comes back as each recovery ripples outward and settles.
TEST(ShardSkip, CorruptFractionBetweenSteps) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  const bool lossy = false;
  play_everywhere(w, w.graph, &lossy, [&](Driver& d) {
    d.settle();
    for (std::uint64_t round = 0; round < 6; ++round) {
      d.run().corrupt_fraction(500 + round,
                               0.004 * static_cast<double>(round + 1));
      for (int s = 0; s < 7; ++s) d.step();
    }
    d.settle();
    d.expect_full_skips(n, 2);
  });
}

/// A lossy step skips nothing, and the loss-free step after it has no
/// valid row hints, so it skips nothing either.
TEST(ShardSkip, LossyStepEndsTheHold) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  bool lossy = false;
  play_everywhere(w, w.graph, &lossy, [&](Driver& d) {
    d.settle();
    d.expect_full_skips(n, 1);
    lossy = true;
    EXPECT_EQ(d.step().shards_skipped, 0u);
    lossy = false;
    EXPECT_EQ(d.step().shards_skipped, 0u);
    d.settle();
    d.expect_full_skips(n, 2);
  });
}

/// A non-empty topology delta (one node jumps across the field) drops
/// the row hints and restales the boundary lists.
TEST(ShardSkip, TopologyDeltaEndsTheHold) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  const bool lossy = false;
  topology::LiveTopology live(w.points, w.radius);
  play_everywhere(w, live.graph(), &lossy, [&](Driver& d) {
    const graph::NodeId v = connected_node_in(w.graph, w.bounds, 0);
    d.settle();
    d.expect_full_skips(n, 1);
    auto moved = w.points;
    moved[v] = {1.0 - moved[v].x, 1.0 - moved[v].y};
    const graph::EdgeDelta delta = live.update(moved);
    ASSERT_FALSE(delta.empty());
    d.run().apply_topology_delta(delta);
    EXPECT_EQ(d.step().shards_skipped, 0u);
    d.settle();
    d.expect_full_skips(n, 2);
    // Back where it was, so the next configuration starts on w.graph.
    d.run().apply_topology_delta(live.update(w.points));
    d.settle();
  });
}

/// A wholesale graph swap ends the hold too.
TEST(ShardSkip, SetGraphEndsTheHold) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  const bool lossy = false;
  auto moved = w.points;
  for (std::size_t p = 0; p < moved.size(); p += 97) {
    moved[p] = {moved[p].y, moved[p].x};
  }
  const graph::Graph swapped = topology::unit_disk_graph(moved, w.radius);
  play_everywhere(w, w.graph, &lossy, [&](Driver& d) {
    d.settle();
    d.expect_full_skips(n, 1);
    d.run().set_graph(swapped);
    EXPECT_EQ(d.step().shards_skipped, 0u);
    d.settle();
    d.expect_full_skips(n, 2);
  });
}

/// Full → dirty → full with a fault injected while dirty: the dirty
/// stepper never skips by hold, the first full step after it has no
/// rows and no hints, and the skips come back.
TEST(ShardSkip, SteppingSwitchFullDirtyFull) {
  const SpatialWorld w = make_spatial_world();
  const std::size_t n = w.graph.node_count();
  const bool lossy = false;
  play_everywhere(w, w.graph, &lossy, [&](Driver& d) {
    d.settle();
    d.expect_full_skips(n, 2);
    d.run().engine().set_stepping(sim::Stepping::kDirty);
    d.run().corrupt_fraction(5, 0.05);
    for (int s = 0; s < 6; ++s) EXPECT_EQ(d.step().shards_skipped, 0u);
    d.run().engine().set_stepping(sim::Stepping::kFull);
    EXPECT_EQ(d.step().shards_skipped, 0u);
    d.settle();
    d.expect_full_skips(n, 2);
  });
}

}  // namespace
}  // namespace ssmwn
