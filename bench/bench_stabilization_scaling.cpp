// Section 4's headline claim — expected-constant stabilization time.
//
// Lemma 2: stabilization time is proportional to the height of the
// ≺-DAG, which is constant when densities are well-spread (random
// geometry) or when the constant-height DAG renaming is used. Without
// the DAG, adversarial identifiers make the height — and hence the
// stabilization time — grow with the network scale.
//
// We run the distributed protocol from a cold start on line topologies
// of growing size (the purest adversarial case: all interior densities
// equal, ids sequential) and on growing random deployments, and report
// steps until the state stops changing:
//
//   * adversarial ids, no DAG   -> grows linearly with n  (the pathology)
//   * adversarial ids, with DAG -> flat (expected constant)
//   * random geometry (constant intensity), no DAG -> flat
#include <cstdio>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"

namespace {

using namespace ssmwn;

std::size_t steps_to_quiescence(const graph::Graph& g,
                                const topology::IdAssignment& ids,
                                bool use_dag, util::Rng& rng) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = use_dag;
  config.delta_hint = std::max<std::uint64_t>(2, g.max_degree());
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);

  auto snapshot = [&] {
    return std::make_pair(protocol.head_values(), protocol.parent_values());
  };
  auto last = snapshot();
  const std::size_t max_steps = 4 * g.node_count() + 200;
  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] {
        auto now = snapshot();
        const bool same = now == last;
        last = std::move(now);
        return same;
      },
      /*confirm_steps=*/6, max_steps);
  return report.converged ? report.stabilization_step : max_steps;
}

graph::Graph line(std::size_t n) {
  graph::Graph g(n);
  for (graph::NodeId p = 0; p + 1 < n; ++p) g.add_edge(p, p + 1);
  g.finalize();
  return g;
}

}  // namespace

int main() {
  const std::size_t runs = util::bench_runs(5);
  bench::print_header(
      "Scaling — stabilization steps vs network size",
      "Theorem 1 + Lemma 2: constant expected stabilization with the DAG "
      "(or well-spread densities); linear in n without it under "
      "adversarial ids",
      runs);

  util::Rng root(util::bench_seed());
  const std::size_t sizes[] = {16, 32, 64, 128};

  util::Table table("Steps until the distributed state stops changing "
                    "(cold start, mean over runs)");
  table.header({"n", "line, seq ids, no DAG", "line, seq ids, with DAG",
                "random geometry, no DAG"});
  std::vector<double> pathological, fixed, random_geo;
  for (const std::size_t n : sizes) {
    util::RunningStats no_dag, with_dag, rand_stats;
    const auto g = line(n);
    const auto ids = topology::sequential_ids(n);
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng = root.split();
      no_dag.add(static_cast<double>(
          steps_to_quiescence(g, ids, /*use_dag=*/false, rng)));
      with_dag.add(static_cast<double>(
          steps_to_quiescence(g, ids, /*use_dag=*/true, rng)));
      // Random deployment with the same node count at constant density
      // (area scaled so mean degree stays ~8).
      util::Rng rng2 = root.split();
      const double radius = std::sqrt(8.0 / (3.14159 * n));
      const auto pts = topology::uniform_points(n, rng2);
      const auto rg = topology::unit_disk_graph(pts, radius);
      const auto rids = topology::random_ids(n, rng2);
      rand_stats.add(static_cast<double>(
          steps_to_quiescence(rg, rids, /*use_dag=*/false, rng2)));
    }
    table.row({util::Table::integer(static_cast<long long>(n)),
               util::Table::num(no_dag.mean(), 1),
               util::Table::num(with_dag.mean(), 1),
               util::Table::num(rand_stats.mean(), 1)});
    pathological.push_back(no_dag.mean());
    fixed.push_back(with_dag.mean());
    random_geo.push_back(rand_stats.mean());
  }
  table.note("expected: column 2 grows ~linearly; columns 3 and 4 stay flat");
  bench::print(table);

  // Shape: pathological case grows by >= 2x from smallest to largest;
  // the DAG and random columns grow by < 2.5x (flat-ish).
  const bool grows = pathological.back() >= 2.0 * pathological.front();
  const bool dag_flat = fixed.back() < 2.5 * std::max(1.0, fixed.front());
  const bool rand_flat =
      random_geo.back() < 2.5 * std::max(1.0, random_geo.front());
  const bool ok = grows && dag_flat && rand_flat;
  std::printf("Constant-vs-linear stabilization contrast reproduced: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
