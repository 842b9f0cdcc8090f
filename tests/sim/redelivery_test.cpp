// The redelivery fast paths: when the step engine proves a sender's
// frame row unchanged since the previous step (bit-identical, or
// id-sequence-identical with churned payloads), delivery collapses to an
// age reset or a straight payload overwrite; when every row a receiver
// hears is bit-identical, the receiver's whole step (per-edge age resets
// plus its aging sweep) collapses to one node-level call. These paths
// are pure cost model — every test here pins them bitwise against an
// execution that never takes them, including across the external
// mutations (faults, topology deltas, planted cache entries) that must
// force a resync.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/incremental.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

core::DensityProtocol make_protocol(const graph::Graph& g,
                                    const topology::IdAssignment& ids,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  return core::DensityProtocol(ids, config, util::Rng(seed));
}

/// Arena engine (fast paths armed) vs legacy engine (no row hints, full
/// deliver every time), identical protocol state, lockstep: any byte the
/// fast paths fail to write shows up as a divergence. Faults injected
/// mid-run are the adversarial part — a redelivery that ignored the
/// resync flag would preserve planted garbage the full path overwrites.
TEST(Redelivery, ArenaFastPathsBitIdenticalToLegacyEngine) {
  util::Rng rng(20050612);
  const std::size_t n = 250;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.11);

  auto fast = make_protocol(g, ids, 5);
  auto slow = make_protocol(g, ids, 5);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_fast(g, fast, loss_a, 1);
  sim::Network net_slow(g, slow, loss_b, 1);
  net_slow.set_legacy_engine(true);

  util::Rng chaos_a(77), chaos_b(77);
  for (std::size_t step = 0; step < 40; ++step) {
    if (step == 12) {
      // Deep in the settled regime, where nearly every row redelivers.
      ASSERT_EQ(fast.corrupt_fraction(chaos_a, 0.15),
                slow.corrupt_fraction(chaos_b, 0.15));
    }
    if (step == 26) {
      fast.reset_node(3);
      slow.reset_node(3);
    }
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "step " << step << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
  EXPECT_EQ(net_fast.messages_delivered(), net_slow.messages_delivered());
}

/// Topology deltas clobber row identity (nodes hear different senders,
/// caches are pruned): the engine must drop its hints and the next sweep
/// must land on the same bytes the hint-free engine produces.
TEST(Redelivery, TopologyDeltasInvalidateHintsBitIdentically) {
  util::Rng rng(11);
  const std::size_t n = 150;
  const double radius = 0.14;
  auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);

  topology::LiveTopology topo(points, radius);
  auto fast = make_protocol(topo.graph(), ids, 9);
  auto slow = make_protocol(topo.graph(), ids, 9);
  sim::PerfectDelivery loss_a, loss_b;
  sim::Network net_fast(topo.graph(), fast, loss_a, 1);
  sim::Network net_slow(topo.graph(), slow, loss_b, 1);
  net_slow.set_legacy_engine(true);

  util::Rng jitter(13);
  for (int window = 0; window < 6; ++window) {
    net_fast.run(8);
    net_slow.run(8);
    // Nudge a few nodes; LiveTopology turns that into an edge delta.
    for (int moves = 0; moves < 5; ++moves) {
      const auto v = jitter.below(n);
      points[v] = {jitter.uniform(), jitter.uniform()};
    }
    const auto& delta = topo.update(points);
    net_fast.apply_topology_delta(delta);
    net_slow.apply_topology_delta(delta);
    net_fast.step();
    net_slow.step();
    const auto div = core::first_divergent_node(fast, slow);
    ASSERT_EQ(div, std::nullopt)
        << "window " << window << ":\n"
        << core::describe_divergence(fast, slow, *div);
  }
}

/// Unit semantics of the protocol-side half of the contract.
TEST(Redelivery, ProtocolFastPathsDeclineWhenUnsafe) {
  util::Rng rng(3);
  const std::size_t n = 40;
  const auto points = topology::uniform_points(n, rng);
  const auto ids = topology::random_ids(n, rng);
  const auto g = topology::unit_disk_graph(points, 0.25);

  auto protocol = make_protocol(g, ids, 1);
  sim::PerfectDelivery loss;
  sim::Network network(g, protocol, loss, 1);
  network.run(10);  // settled: caches mirror neighborhoods

  graph::NodeId sender = 0, receiver = 0;
  bool found = false;
  for (graph::NodeId p = 0; p < static_cast<graph::NodeId>(n) && !found;
       ++p) {
    for (const auto q : g.neighbors(p)) {
      sender = p;
      receiver = q;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "deployment has no edge";

  core::DensityProtocol::FrameHeader header;
  std::vector<core::DensityProtocol::Digest> digests(
      protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);

  // Settled and untouched: both fast paths accept.
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));

  // Unknown sender id: the receiver has no entry to refresh.
  core::DensityProtocol::FrameHeader phantom = header;
  phantom.id = 0xFFFFFFFF;  // ids are random_ids(n) values, not this
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, phantom));
  EXPECT_FALSE(protocol.deliver_payload(receiver, phantom, digests));

  // Digest-list length mismatch: the engine's proof cannot apply.
  if (!digests.empty()) {
    std::vector<core::DensityProtocol::Digest> shorter(digests.begin(),
                                                       digests.end() - 1);
    EXPECT_FALSE(protocol.deliver_payload(receiver, header, shorter));
  }

  // External mutation raises the resync flag: both paths must decline
  // until the next full sweep clears it.
  { auto s = protocol.mutable_state(receiver); (void)s; }
  EXPECT_FALSE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_FALSE(protocol.deliver_payload(receiver, header, digests));
  network.step();  // full sweep: end_step clears the flag
  digests.resize(protocol.digest_count(sender));
  protocol.make_frame(sender, header, digests);
  EXPECT_TRUE(protocol.redeliver_unchanged(receiver, header));
  EXPECT_TRUE(protocol.deliver_payload(receiver, header, digests));
}

// --- node-level redelivery --------------------------------------------

/// A synchronous engine under test: flat (`shards == 0`) or sharded.
struct EngineConfig {
  std::size_t shards;
  unsigned threads;
};

std::string label(const EngineConfig& c) {
  return (c.shards == 0 ? std::string("flat")
                        : "sharded S=" + std::to_string(c.shards)) +
         " threads=" + std::to_string(c.threads);
}

constexpr EngineConfig kEngines[] = {{0, 1}, {0, 4}, {4, 1}, {4, 4}};

/// The engine under test and the legacy oracle (owning frames, no row
/// hints, every delivery the full path) step the same world in
/// lockstep from identically seeded protocols and loss models. Every
/// step is checked bitwise — ages included — and reports how many
/// receivers took the node-level path.
class Lockstep {
 public:
  Lockstep(const graph::Graph& g, const topology::IdAssignment& ids,
           EngineConfig config, double tau)
      : fast_(make_protocol(g, ids, 7)),
        slow_(make_protocol(g, ids, 7)),
        loss_fast_(sim::make_loss_model(tau, util::Rng(41))),
        loss_slow_(sim::make_loss_model(tau, util::Rng(41))),
        oracle_(g, slow_, *loss_slow_, 1) {
    oracle_.set_legacy_engine(true);
    if (config.shards == 0) {
      flat_.emplace(g, fast_, *loss_fast_, config.threads);
    } else {
      sharded_.emplace(g, fast_, *loss_fast_, config.shards, config.threads);
    }
  }

  /// Applies the same external mutation to both protocols.
  template <typename F>
  void mutate(F&& f) {
    f(fast_);
    f(slow_);
  }

  /// One lockstep step; returns this step's node-level redeliveries.
  /// Fails the test (non-fatally) on any bitwise divergence.
  std::uint64_t step() {
    const std::uint64_t before = node_redeliveries();
    if (flat_) {
      flat_->step();
    } else {
      sharded_->step();
    }
    oracle_.step();
    const auto div = core::first_divergent_node(fast_, slow_);
    EXPECT_EQ(div, std::nullopt)
        << "step " << oracle_.steps_run() << ":\n"
        << (div ? core::describe_divergence(fast_, slow_, *div) : "");
    diverged_ = diverged_ || div.has_value();
    return node_redeliveries() - before;
  }

  [[nodiscard]] std::uint64_t node_redeliveries() const {
    return flat_ ? flat_->node_redeliveries() : sharded_->node_redeliveries();
  }
  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] const core::DensityProtocol& protocol() const {
    return fast_;
  }

 private:
  core::DensityProtocol fast_;
  core::DensityProtocol slow_;
  std::unique_ptr<sim::LossModel> loss_fast_;
  std::unique_ptr<sim::LossModel> loss_slow_;
  sim::Network<core::DensityProtocol> oracle_;
  std::optional<sim::Network<core::DensityProtocol>> flat_;
  std::optional<sim::ShardedNetwork<core::DensityProtocol>> sharded_;
  bool diverged_ = false;
};

/// A settling world: 200 nodes, mean degree ~8, some of them isolated
/// (degree-0 receivers take the node-level path vacuously).
struct World {
  graph::Graph graph;
  topology::IdAssignment ids;
};

World make_world() {
  util::Rng rng(20051003);
  const std::size_t n = 200;
  const auto points = topology::uniform_points(n, rng);
  World w;
  w.ids = topology::random_ids(n, rng);
  w.graph = topology::unit_disk_graph(points, 0.11);
  return w;
}

constexpr std::size_t kSettleSteps = 60;

/// Steps until the hold is steady; fails unless the last step already
/// took the node-level path for every receiver.
void settle(Lockstep& run, std::size_t n) {
  std::uint64_t last = 0;
  for (std::size_t s = 0; s < kSettleSteps && !run.diverged(); ++s) {
    last = run.step();
  }
  ASSERT_EQ(last, n) << "world did not reach a steady hold";
}

/// The first node with at least one neighbor.
graph::NodeId connected_node(const graph::Graph& g) {
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    if (g.degree(p) > 0) return p;
  }
  ADD_FAILURE() << "world has no edge";
  return 0;
}

/// Perfect medium, settled: every receiver hears only bit-equal rows, so
/// the counter advances by exactly n per step — and the state (cache
/// ages included) still matches the oracle that ages every entry.
TEST(NodeRedelivery, SteadyHoldTakesNodePathForEveryReceiver) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  for (const EngineConfig& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    const std::uint64_t start = run.node_redeliveries();
    for (int s = 0; s < 10; ++s) EXPECT_EQ(run.step(), n);
    EXPECT_EQ(run.node_redeliveries() - start, 10 * n);
  }
}

/// Bernoulli loss: row hints never arm, so the node-level path must
/// never run — while the lossy execution stays bitwise the oracle's.
TEST(NodeRedelivery, LossyMediumNeverTakesNodePath) {
  const World w = make_world();
  for (const EngineConfig& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 0.8);
    for (int s = 0; s < 40 && !run.diverged(); ++s) run.step();
    EXPECT_EQ(run.node_redeliveries(), 0u);
  }
}

/// `mutable_state` raises the node's resync flag even when nothing is
/// written: that node runs the per-edge path for one step (its end_step
/// clears the flag), everyone else keeps the node-level path.
TEST(NodeRedelivery, MutableStateExcludesNodeForOneStep) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  for (const EngineConfig& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    run.mutate([v](core::DensityProtocol& p) { (void)p.mutable_state(v); });
    EXPECT_EQ(run.step(), n - 1);
    EXPECT_EQ(run.step(), n);
  }
}

/// A planted phantom entry (a neighbor that does not exist) makes the
/// cache one larger than the degree. The node must not take the
/// node-level path while the phantom lives: skipping its aging sweep
/// would freeze the phantom's age. From the second step on, the node's
/// incoming rows are bit-equal again and its resync flag is clear, so
/// only the cache-size guard stands between it and that skip.
TEST(NodeRedelivery, PlantedPhantomExcludesNodeUntilEvicted) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  const topology::ProtocolId phantom = 0xDEAD0000ULL;  // ids are < n
  for (const EngineConfig& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    run.mutate([v, phantom](core::DensityProtocol& p) {
      auto s = p.mutable_state(v);
      core::DensityProtocol::CacheEntry entry;
      entry.dag_id = 3;
      entry.metric = 0.5;
      entry.metric_valid = true;
      s.cache[phantom] = std::move(entry);
    });
    std::size_t steps_with_phantom = 0;
    while (run.protocol().state(v).cache.contains(phantom) &&
           !run.diverged()) {
      ASSERT_LT(steps_with_phantom, 2 * kSettleSteps) << "never evicted";
      EXPECT_LT(run.step(), n);
      ++steps_with_phantom;
    }
    EXPECT_EQ(steps_with_phantom,
              run.protocol().config().cache_max_age + 1);
    settle(run, n);  // recovers the full node-level hold
  }
}

/// One neighbor's entry swapped for a phantom: cache size still equals
/// the degree and (the phantom aside) every incoming row is bit-equal,
/// so only the resync flag keeps the node on the per-edge path, which
/// re-inserts the missing neighbor and starts aging the phantom out.
TEST(NodeRedelivery, SwappedNeighborTakesResyncPath) {
  const World w = make_world();
  const std::size_t n = w.graph.node_count();
  const graph::NodeId v = connected_node(w.graph);
  const topology::ProtocolId gone = w.ids[w.graph.neighbors(v)[0]];
  const topology::ProtocolId phantom = 0xDEAD0001ULL;
  for (const EngineConfig& config : kEngines) {
    SCOPED_TRACE(label(config));
    Lockstep run(w.graph, w.ids, config, 1.0);
    settle(run, n);
    run.mutate([v, gone, phantom](core::DensityProtocol& p) {
      auto s = p.mutable_state(v);
      core::DensityProtocol::CacheEntry entry = std::move(s.cache[gone]);
      ASSERT_TRUE(s.cache.erase(gone));
      entry.age = 1;
      s.cache[phantom] = std::move(entry);
    });
    ASSERT_EQ(run.protocol().state(v).cache.size(), w.graph.degree(v));
    EXPECT_LT(run.step(), n);
    EXPECT_TRUE(run.protocol().state(v).cache.contains(gone));
    settle(run, n);
  }
}

/// Unit semantics of the node-level call's protocol half.
TEST(NodeRedelivery, ProtocolNodePathDeclinesWhenUnsafe) {
  const World w = make_world();
  auto protocol = make_protocol(w.graph, w.ids, 1);
  sim::PerfectDelivery loss;
  sim::Network network(w.graph, protocol, loss, 1);
  network.run(kSettleSteps);
  const graph::NodeId v = connected_node(w.graph);
  const std::size_t degree = w.graph.degree(v);

  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree + 1));
  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree - 1));
  { auto s = protocol.mutable_state(v); (void)s; }
  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree));
  network.step();  // full sweep: end_step clears the resync flag
  protocol.set_activity_tracking(true);
  EXPECT_FALSE(protocol.redeliver_node_unchanged(v, degree));
  protocol.set_activity_tracking(false);

  // Accepted: the same step's end_step must leave every age alone.
  ASSERT_TRUE(protocol.redeliver_node_unchanged(v, degree));
  std::vector<std::uint32_t> ages;
  for (const auto& [id, entry] : protocol.state(v).cache) {
    ages.push_back(entry.age);
  }
  protocol.end_step(v);
  std::size_t k = 0;
  for (const auto& [id, entry] : protocol.state(v).cache) {
    EXPECT_EQ(entry.age, ages[k++]);
  }
  // The flag is one-shot: the next end_step ages as usual.
  protocol.end_step(v);
  for (const auto& [id, entry] : protocol.state(v).cache) {
    EXPECT_EQ(entry.age, 2u);
  }
}

}  // namespace
}  // namespace ssmwn
