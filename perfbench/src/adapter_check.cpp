// adapter-test: the traced adapter must not change a single bit.
//
// Two protocols from one seed step in lockstep at small n — one through
// sim::ShardedNetwork<DensityProtocol>, one through
// sim::ShardedNetwork<TracedProtocol> — on 4 threads over 16 spatial
// shards, through a cold start, a mass fault (corrupt_all) and a
// dirty-stepping tail. After every step core::first_divergent_node must
// find nothing, the engines' message and delta-row counters must agree,
// and the adapter's completed deliveries must equal the engine's
// message count. It also checks that the recovery window drove every
// delivery path, so the comparison covered the fast paths.
#include <cstdio>

#include "common.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "traced_protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

bool adapter_check() {
  using namespace ssmwn;
  constexpr double kLambda = 3000.0;
  constexpr std::size_t kShards = 16;
  constexpr std::size_t kFaultStep = 15;
  constexpr std::size_t kDirtyStep = 40;
  constexpr std::size_t kSteps = 50;

  util::Rng rng(20050612);
  const double radius = std::sqrt(8.0 / (3.14159 * kLambda));
  const auto points = topology::poisson_points(kLambda, rng);
  const auto g0 = topology::unit_disk_graph(points, radius);
  const auto ids0 = topology::random_ids(g0.node_count(), rng);
  const auto plan = graph::plan_spatial_shards(points, radius, kShards);
  const graph::Graph g = graph::permute_graph(g0, plan);
  const auto ids = graph::permuted(plan, ids0);

  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol plain(ids, config, util::Rng(7));
  core::DensityProtocol inner(ids, config, util::Rng(7));
  Tracer tracer(g, plan.bounds);
  TracedProtocol traced(inner, tracer);
  sim::PerfectDelivery loss_a, loss_b;
  sim::ShardedNetwork<core::DensityProtocol> net_a(g, plain, loss_a,
                                                   plan.bounds, kThreads);
  sim::ShardedNetwork<TracedProtocol> net_b(g, traced, loss_b, plan.bounds,
                                            kThreads);

  bool ok = true;
  const auto fail = [&](std::size_t step, const std::string& why) {
    std::fprintf(stderr, "adapter-test: step %zu: %s\n", step, why.c_str());
    ok = false;
  };
  CallCounts at_dirty;
  for (std::size_t s = 0; s < kSteps && ok; ++s) {
    if (s == kFaultStep) {
      util::Rng fa(99), fb(99);
      plain.corrupt_all(fa);
      inner.corrupt_all(fb);
    }
    if (s == kDirtyStep) {
      at_dirty = tracer.counts();
      net_a.set_stepping(sim::Stepping::kDirty);
      net_b.set_stepping(sim::Stepping::kDirty);
    }
    net_a.step();
    net_b.step();
    if (const auto div = core::first_divergent_node(plain, inner)) {
      fail(s, "state diverged at node " + std::to_string(*div) + ":\n" +
                  core::describe_divergence(plain, inner, *div));
    }
    if (net_a.messages_delivered() != net_b.messages_delivered() ||
        net_a.delta_rows_graded() != net_b.delta_rows_graded()) {
      fail(s, "engine counters diverged");
    }
    if (s < kDirtyStep && tracer.counts().deliveries() != net_b.messages_delivered()) {
      fail(s, "traced deliveries != engine messages");
    }
  }
  const CallCounts c = at_dirty.deliveries() ? at_dirty : tracer.counts();
  if (ok && (c.full == 0 || c.payload == 0 || c.delta == 0 || c.unchanged == 0)) {
    fail(kDirtyStep, "a delivery path never ran (full " + std::to_string(c.full) +
                         ", payload " + std::to_string(c.payload) + ", delta " +
                         std::to_string(c.delta) + ", unchanged " +
                         std::to_string(c.unchanged) + ")");
  }
  std::printf("adapter-test: %s — n=%zu, %zu shards, %u threads, %zu steps "
              "(fault at %zu, dirty from %zu); deliveries full %llu payload "
              "%llu delta %llu unchanged %llu\n",
              ok ? "PASS" : "FAIL", g.node_count(), kShards, kThreads, kSteps,
              kFaultStep, kDirtyStep, static_cast<unsigned long long>(c.full),
              static_cast<unsigned long long>(c.payload),
              static_cast<unsigned long long>(c.delta),
              static_cast<unsigned long long>(c.unchanged));
  return ok;
}

}  // namespace perfbench
