// Energy accounting under the async engine and under live
// re-convergence (satellite of the verify PR): battery draw is a pure
// function of the head schedule, so energy totals must be bit-identical
// across step-engine thread counts, across repeated async runs of the
// same seed under every daemon, and across a live topology-delta
// re-convergence — any drift means an engine leaked nondeterminism into
// the head trajectory.
#include <gtest/gtest.h>

#include <vector>

#include "core/protocol.hpp"
#include "energy/energy.hpp"
#include "mobility/mobility.hpp"
#include "sim/async_network.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "support/deployments.hpp"
#include "topology/incremental.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

constexpr energy::EnergyConfig kBudget{
    .capacity = 1000.0, .member_cost = 1.0, .head_premium = 4.0};

std::vector<double> residuals(const energy::EnergyStore& store) {
  std::vector<double> out(store.node_count());
  for (graph::NodeId p = 0; p < store.node_count(); ++p) {
    out[p] = store.residual(p);
  }
  return out;
}

/// Runs `steps` synchronous rounds on `threads` workers, charging one
/// energy window per round from the protocol's current head flags.
std::vector<double> sync_energy_run(unsigned threads, std::size_t steps) {
  const auto w = testsupport::make_deployment(120, 0.13, 77);
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  core::DensityProtocol protocol(w.ids, config, util::Rng(5));
  util::Rng chaos(55);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery medium;
  sim::ShardedNetwork network(w.graph, protocol, medium, 1, threads);
  energy::EnergyStore store(w.graph.node_count(), kBudget);
  for (std::size_t s = 0; s < steps; ++s) {
    network.step();
    const auto heads = protocol.head_flags();
    store.charge_window({heads.data(), heads.size()});
  }
  return residuals(store);
}

TEST(EnergyAsync, SyncEnergyTotalsAreThreadCountInvariant) {
  const auto serial = sync_energy_run(1, 40);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(sync_energy_run(threads, 40), serial)
        << "threads=" << threads;
  }
  // And something actually drained.
  double spent = 0.0;
  for (const double r : serial) spent += kBudget.capacity - r;
  EXPECT_GT(spent, 0.0);
}

/// One async run charging a window per broadcast period; deterministic
/// from its seed for any daemon.
std::vector<double> async_energy_run(sim::DaemonKind daemon,
                                     std::uint64_t seed) {
  const auto w = testsupport::make_deployment(90, 0.14, 31);
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  config.cache_max_age = 32;  // cover the unfair daemon's slow victims
  core::DensityProtocol protocol(w.ids, config, util::Rng(seed));
  util::Rng chaos(seed ^ 0xC0FFEE);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery medium;
  sim::AsyncConfig async;
  async.daemon = daemon;
  sim::AsyncNetwork network(w.graph, protocol, medium, async,
                            util::Rng(seed ^ 0xFEED));
  energy::EnergyStore store(w.graph.node_count(), kBudget);
  for (int period = 0; period < 60; ++period) {
    network.run_for(async.period_s);
    const auto heads = protocol.head_flags();
    store.charge_window({heads.data(), heads.size()});
  }
  return residuals(store);
}

TEST(EnergyAsync, AsyncEnergyTotalsAreDeterministicPerDaemon) {
  for (const auto daemon :
       {sim::DaemonKind::kSynchronous, sim::DaemonKind::kRandomized,
        sim::DaemonKind::kUnfairRoundRobin}) {
    const auto first = async_energy_run(daemon, 13);
    const auto second = async_energy_run(daemon, 13);
    EXPECT_EQ(first, second)
        << "daemon " << static_cast<int>(daemon) << " not reproducible";
    double spent = 0.0;
    for (const double r : first) spent += kBudget.capacity - r;
    EXPECT_GT(spent, 0.0);
  }
}

TEST(EnergyAsync, LiveReconvergenceKeepsAccountingDeterministic) {
  // Energy under live topology change, on both engines: same seed, same
  // deltas, same charge schedule — run twice, compare bitwise.
  const auto run = [](unsigned threads) {
    auto w = testsupport::make_deployment(100, 0.14, 63);
    topology::LiveTopology live(w.points, 0.14);
    util::Rng rng(17);
    mobility::RandomDirection mover(w.points.size(), {0.0, 8.0}, 1000.0,
                                    rng.split());
    core::ProtocolConfig config;
    config.delta_hint =
        std::max<std::uint64_t>(2, live.graph().max_degree());
    core::DensityProtocol protocol(w.ids, config, rng.split());
    sim::PerfectDelivery medium;
    sim::ShardedNetwork network(live.graph(), protocol, medium, 1, threads);
    energy::EnergyStore store(live.graph().node_count(), kBudget);
    for (int window = 0; window < 10; ++window) {
      mover.step(w.points, 2.0);
      network.apply_topology_delta(live.update(w.points));
      for (int round = 0; round < 4; ++round) {
        network.step();
        const auto heads = protocol.head_flags();
        store.charge_window({heads.data(), heads.size()});
      }
    }
    return residuals(store);
  };
  const auto serial = run(1);
  EXPECT_EQ(run(1), serial);
  EXPECT_EQ(run(4), serial);  // the parallel step engine too
}

}  // namespace
}  // namespace ssmwn
