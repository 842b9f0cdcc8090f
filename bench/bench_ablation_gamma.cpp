// Ablation — tuning the DAG name space |γ| (the trade-off discussed
// after Theorem 1).
//
// "A large value of |γ| decreases the expected convergence time of N1. On
//  the other hand, a small value of |γ| decreases the DAG's height, and
//  thus the expected convergence time of subsequent algorithms."
//
// We sweep |γ| ∈ {δ+1, 2δ, δ², δ³} (the δ⁶ of [11] is shown for scale at
// small δ) and report: renaming rounds, resulting ≺-DAG height, and the
// number of distributed steps until the full protocol stabilizes on the
// adversarial grid — the end-to-end quantity the constant-height DAG is
// for.
#include <cstdio>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"

namespace {

using namespace ssmwn;

/// Steps for the distributed protocol (with DAG ids enabled, names in
/// [0, name_space)) to reach and hold a stable configuration on `g`.
std::size_t protocol_stabilization_steps(const graph::Graph& g,
                                         const topology::IdAssignment& ids,
                                         std::uint64_t name_space,
                                         util::Rng& rng) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.dag_name_space = name_space;
  config.delta_hint = g.max_degree();
  core::DensityProtocol protocol(ids, config, rng.split());
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(g, protocol, loss, 1);

  // Legitimacy: the distributed state stopped changing (head values and
  // DAG names), checked against a snapshot.
  auto snapshot = [&] {
    return std::make_pair(protocol.head_values(), protocol.dag_id_values());
  };
  auto last = snapshot();
  const auto report = stabilize::run_until_stable(
      [&] { network.step(); },
      [&] {
        auto now = snapshot();
        const bool same = now == last;
        last = std::move(now);
        return same;
      },
      /*confirm_steps=*/8, /*max_steps=*/400);
  return report.converged ? report.stabilization_step : 400;
}

}  // namespace

int main() {
  const std::size_t runs = util::bench_runs(10);
  bench::print_header(
      "Ablation — DAG name space |gamma| vs renaming cost, DAG height and "
      "stabilization time",
      "Section 4.1: larger gamma -> faster renaming; smaller gamma -> "
      "lower DAG height -> faster clustering stabilization",
      runs);

  const std::size_t side = 16;  // grid kept small: protocol sim is costly
  const auto inst = bench::grid_instance(side, 0.05 * 32.0 / side);
  const auto delta = static_cast<std::uint64_t>(inst.graph.max_degree());

  struct Choice {
    const char* label;
    std::uint64_t gamma;
  };
  const Choice choices[] = {
      {"delta+1", delta + 1},
      {"2*delta", 2 * delta},
      {"delta^2 (paper)", delta * delta + 1},
      {"delta^3", delta * delta * delta + 1},
  };

  util::Rng root(util::bench_seed());
  util::Table table("Grid " + std::to_string(side) + "x" +
                    std::to_string(side) + ", adversarial ids, delta = " +
                    std::to_string(delta));
  table.header({"|gamma|", "renaming rounds", "DAG height",
                "protocol stabilization steps"});
  std::vector<double> heights;
  std::vector<double> rounds_list;
  for (const auto& choice : choices) {
    util::RunningStats rounds, height, stab;
    for (std::size_t run = 0; run < runs; ++run) {
      util::Rng rng = root.split();
      core::DagOptions opt;
      opt.name_space = choice.gamma;
      const auto dag = core::build_dag_ids(inst.graph, inst.ids, opt, rng);
      rounds.add(static_cast<double>(dag.rounds));
      height.add(static_cast<double>(core::dag_height(inst.graph, dag.ids)));
      stab.add(static_cast<double>(protocol_stabilization_steps(
          inst.graph, inst.ids, choice.gamma, rng)));
    }
    table.row({choice.label, util::Table::num(rounds.mean()),
               util::Table::num(height.mean()),
               util::Table::num(stab.mean(), 1)});
    heights.push_back(height.mean());
    rounds_list.push_back(rounds.mean());
  }
  table.note("expected: height grows with |gamma|; renaming rounds shrink "
             "(or stay ~2) as |gamma| grows");
  bench::print(table);

  const bool height_monotone = heights.front() <= heights.back();
  const bool rounds_reasonable =
      rounds_list.front() >= rounds_list.back() - 0.5;
  const bool ok = height_monotone && rounds_reasonable;
  std::printf("Gamma trade-off reproduced: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
