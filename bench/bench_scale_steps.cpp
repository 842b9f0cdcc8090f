// Step-engine throughput at scale — the hot path this repo's north star
// rides on.
//
// The paper's step-count results (Table 2: neighbors after 1 step,
// density after 2, head after 3 + tree depth) are interesting exactly
// when a "step" over the whole field is cheap. This bench measures
// steady-state Network::step() throughput for the distributed density
// protocol on grid and random-geometric deployments at n ∈ {1k, 10k,
// 100k}, across three engines:
//
//   * seed    — the pre-arena engine: per-step owning ProtocolFrames,
//               one digest-vector heap allocation per node per step
//   * arena   — flat preallocated frame buffers, zero steady-state
//               allocations, one thread
//   * parallel — the arena engine, phases fanned out over T worker
//               threads
//
// Steps/sec and speedups vs the seed engine are reported per topology,
// with the arena engine's count of receivers that took the node-level
// redelivery (every heard row bit-equal) in its timed steps.
//
// Environment:
//   SSMWN_SCALE_MAX_N  cap on n (default 100000; CI smoke uses 1000)
//   SSMWN_THREADS      worker count for the parallel row (default:
//                      hardware concurrency)
//   SSMWN_SEED         experiment seed
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "sim/network.hpp"

namespace {

using namespace ssmwn;

core::DensityProtocol make_protocol(const bench::Instance& inst,
                                    util::Rng& rng) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, inst.graph.max_degree());
  return core::DensityProtocol(inst.ids, config, rng.split());
}

/// One engine's timed window: steps/sec plus the receivers that took
/// the node-level redelivery during it (n per step once every row is
/// bit-equal; always 0 on the seed engine).
struct Measurement {
  double sps = 0.0;
  std::uint64_t node_redeliveries = 0;
};

/// Steady-state steps/sec: warm caches first, then time `steps` steps.
Measurement measure(const bench::Instance& inst, util::Rng& rng, bool legacy,
                    unsigned threads, std::size_t steps) {
  util::Rng local = rng;  // identical protocol state for every engine
  auto protocol = make_protocol(inst, local);
  sim::PerfectDelivery loss;
  sim::Network network(inst.graph, protocol, loss, threads);
  network.set_legacy_engine(legacy);
  network.run(5);  // warm-up: fill caches, size arena buffers

  const std::uint64_t before = network.node_redeliveries();
  const auto start = std::chrono::steady_clock::now();
  network.run(steps);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {static_cast<double>(steps) / elapsed,
          network.node_redeliveries() - before};
}

std::size_t steps_for(std::size_t n) {
  if (n >= 100000) return 3;
  if (n >= 10000) return 10;
  return 30;
}

struct TopologyRow {
  const char* name;
  bench::Instance instance;
};

}  // namespace

int main() {
  const auto max_n = static_cast<std::size_t>(
      util::env_int("SSMWN_SCALE_MAX_N", 100000));
  auto threads =
      static_cast<unsigned>(util::env_int("SSMWN_THREADS", 0));
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  bench::print_header(
      "Scale — steady-state step throughput (CSR + frame arena + workers)",
      "Engine for the Table 2 knowledge schedule at production scale; "
      "same protocol state for every engine (determinism asserted by "
      "tests/sim/parallel_step_test)",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("scale_steps");
  const std::size_t sizes[] = {1000, 10000, 100000};

  util::Table table("Steps per second, steady state (higher is better)");
  table.header({"topology", "n", "mean deg", "seed 1t",
                "arena 1t", "parallel " + std::to_string(threads) + "t",
                "arena/seed", "parallel/seed", "node-level/step"});

  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    const std::size_t steps = steps_for(n);
    util::Rng rng = root.split();

    // Grid: the paper's adversarial deployment. Points are spaced 1/side
    // apart in the unit square; radius 1.2/side connects the
    // 4-neighborhood but not the diagonals.
    const auto side = static_cast<std::size_t>(std::llround(std::sqrt(
        static_cast<double>(n))));
    TopologyRow rows[] = {
        {"grid", bench::grid_instance(
                     side, 1.2 / static_cast<double>(side))},
        {"random geometric", bench::poisson_instance(
                                 static_cast<double>(n),
                                 std::sqrt(8.0 / (3.14159 *
                                                  static_cast<double>(n))),
                                 rng)},
    };

    for (auto& row : rows) {
      const auto& inst = row.instance;
      const std::size_t nodes = inst.graph.node_count();
      const double mean_degree =
          nodes == 0 ? 0.0
                     : 2.0 * static_cast<double>(inst.graph.edge_count()) /
                           static_cast<double>(nodes);
      const double seed_sps =
          measure(inst, rng, /*legacy=*/true, 1, steps).sps;
      const Measurement arena = measure(inst, rng, /*legacy=*/false, 1, steps);
      const double arena_sps = arena.sps;
      const double par_sps =
          measure(inst, rng, /*legacy=*/false, threads, steps).sps;
      table.row({row.name, util::Table::integer(
                               static_cast<long long>(nodes)),
                 util::Table::num(mean_degree, 1),
                 util::Table::num(seed_sps, 1), util::Table::num(arena_sps, 1),
                 util::Table::num(par_sps, 1),
                 util::Table::num(arena_sps / seed_sps, 2) + "x",
                 util::Table::num(par_sps / seed_sps, 2) + "x",
                 util::Table::integer(static_cast<long long>(
                     arena.node_redeliveries / steps))});
      json.add(std::string(row.name) + "/seed", nodes, 1, "steps_per_s",
               seed_sps);
      json.add(std::string(row.name) + "/arena", nodes, 1, "steps_per_s",
               arena_sps);
      json.add(std::string(row.name) + "/parallel", nodes, threads,
               "steps_per_s", par_sps);
      json.add(std::string(row.name) + "/arena-node-redeliveries", nodes, 1,
               "count", static_cast<double>(arena.node_redeliveries));
    }
  }
  table.note("seed = per-step owning frames (pre-arena engine); arena = "
             "flat reusable buffers; parallel Nt = arena phases on N threads");
  table.note("all engines step the identical protocol state; steady state "
             "after 5 warm-up steps");
  table.note("node-level/step = receivers whose delivery and cache aging "
             "collapsed to one call (every heard row bit-equal); n once "
             "the whole field holds, identical for any thread count");
  bench::print(table);
  json.write();
  return 0;
}
