// Table 2 — the knowledge schedule of the distributed protocol.
//
// "Step 1: 1-neighbors -> neighborhood table. Step 2: + 2-neighbors ->
//  its density. Step 3: + neighbors' density -> its father." The head
// value then travels one hop per step down the clusterization tree.
//
// We run the message-passing protocol from a cold start on random
// geometry and report, after each step, the fraction of nodes whose
// neighborhood table / density / parent / head already equal the stable
// (oracle) values. The paper's schedule predicts the 100% column
// thresholds: neighbors at step 1, density at step 2, parent at step 3,
// head at step 3 + tree depth.
#include <cstdio>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "graph/forest.hpp"
#include "sim/sharded_network.hpp"

namespace {

using namespace ssmwn;

struct Fractions {
  double neighbors = 0.0;
  double density = 0.0;
  double parent = 0.0;
  double head = 0.0;
};

Fractions measure(const core::DensityProtocol& protocol,
                  const graph::Graph& g, const topology::IdAssignment& ids,
                  const core::ClusteringResult& oracle) {
  Fractions f;
  const auto n = static_cast<double>(g.node_count());
  for (graph::NodeId p = 0; p < g.node_count(); ++p) {
    const auto& s = protocol.state(p);
    bool nbrs_ok = s.cache.size() == g.degree(p);
    if (nbrs_ok) {
      for (graph::NodeId q : g.neighbors(p)) {
        if (!s.cache.contains(ids[q])) {
          nbrs_ok = false;
          break;
        }
      }
    }
    if (nbrs_ok) f.neighbors += 1.0;
    if (s.metric_valid && s.metric == oracle.metric[p]) f.density += 1.0;
    if (s.parent_valid && s.parent == ids[oracle.parent[p]]) f.parent += 1.0;
    if (s.head_valid && s.head == oracle.head_id[p]) f.head += 1.0;
  }
  f.neighbors /= n;
  f.density /= n;
  f.parent /= n;
  f.head /= n;
  return f;
}

}  // namespace

int main() {
  const std::size_t runs = util::bench_runs(20);
  bench::print_header(
      "Table 2 — what a node can compute after each step",
      "step 1: neighborhood table; step 2: density; step 3: father; "
      "head after 3 + tree depth",
      runs);

  util::Rng root(util::bench_seed());
  const std::size_t max_steps = 12;
  std::vector<Fractions> totals(max_steps + 1);
  util::RunningStats depth_stats;

  for (std::size_t run = 0; run < runs; ++run) {
    util::Rng rng = root.split();
    const auto inst = bench::poisson_instance(400.0, 0.08, rng);
    if (inst.graph.node_count() == 0) continue;
    const auto oracle = core::cluster_density(inst.graph, inst.ids, {});
    const auto forest = oracle.forest();
    std::size_t depth = 0;
    for (graph::NodeId h : oracle.heads) {
      depth = std::max<std::size_t>(depth, forest.tree_depth(h));
    }
    depth_stats.add(static_cast<double>(depth));

    core::ProtocolConfig config;
    config.delta_hint = inst.graph.max_degree();
    core::DensityProtocol protocol(inst.ids, config, rng.split());
    sim::PerfectDelivery loss;
    sim::ShardedNetwork network(inst.graph, protocol, loss, 1);
    for (std::size_t step = 1; step <= max_steps; ++step) {
      network.step();
      const auto f = measure(protocol, inst.graph, inst.ids, oracle);
      totals[step].neighbors += f.neighbors;
      totals[step].density += f.density;
      totals[step].parent += f.parent;
      totals[step].head += f.head;
    }
  }

  util::Table table(
      "Fraction of nodes with stable knowledge after k steps (mean over "
      "runs; Poisson(400), R=0.08, cold start)");
  table.header({"step", "neighbor table", "density", "father", "cluster-head"});
  const auto denom = static_cast<double>(runs);
  for (std::size_t step = 1; step <= max_steps; ++step) {
    table.row({util::Table::integer(static_cast<long long>(step)),
               util::Table::num(totals[step].neighbors / denom, 3),
               util::Table::num(totals[step].density / denom, 3),
               util::Table::num(totals[step].parent / denom, 3),
               util::Table::num(totals[step].head / denom, 3)});
  }
  table.note("paper schedule: column reaches 1.0 at steps 1 / 2 / 3 / 3+depth");
  table.note("mean clusterization tree depth here: " +
             util::Table::num(depth_stats.mean(), 2));
  bench::print(table);

  const bool schedule_holds =
      totals[1].neighbors / denom > 0.999 &&
      totals[2].density / denom > 0.999 && totals[3].parent / denom > 0.999 &&
      totals[max_steps].head / denom > 0.999;
  std::printf("Knowledge schedule of Table 2 holds: %s\n",
              schedule_holds ? "yes" : "NO");
  return schedule_holds ? 0 : 1;
}
