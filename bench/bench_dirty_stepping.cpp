// Quiescence-aware stepping throughput: dirty-region vs full sweeps on
// a converged live-mobility run.
//
// The dirty stepper (sim/activity.hpp + Network::step_dirty) claims
// that once the protocol has converged, a mobility tick that perturbs a
// handful of links should cost O(affected region), not O(n·degree):
// only nodes whose closed neighborhood changed re-run their rules, and
// activity propagates exactly one hop per tick while it still changes
// anything. This bench plays the SAME recorded delta stream through two
// identically seeded protocol+engine pairs — one full, one dirty — and
// measures steady-state ticks/s at n ∈ {1k, 10k, 100k}. The run doubles
// as a bitwise-equivalence gate: after the timed window the two
// populations must be bit-identical (shared variables, caches, RNG
// state), so a stepping bug fails the binary rather than flattering it.
//
// Scenario: one node per thousand is mobile (pedestrian, 0-1.6 m/s);
// the rest form a static converged mesh. This is the regime the dirty
// stepper targets — couriers moving through a deployed sensor field.
// When EVERY node moves at once the per-tick link churn is spread over
// the whole area and the dirty region covers the graph, so dirty
// stepping degenerates to full stepping plus bookkeeping (measured
// ~0.85x); that regime belongs to the full stepper and the docs say so.
//
// Environment:
//   SSMWN_DIRTY_MAX_N  cap on n (default 100000; CI smoke uses 1000)
//   SSMWN_SEED         experiment seed
#include <chrono>
#include <span>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "mobility/mobility.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "topology/incremental.hpp"

namespace {

using namespace ssmwn;

// Converge for kSettleSteps on the static graph, replay kWarmTicks
// deltas untimed (the dirty activity set reaches steady state), then
// time kTimedTicks. Both sides run the identical schedule.
constexpr std::size_t kSettleSteps = 40;
constexpr std::size_t kWarmTicks = 10;

std::size_t ticks_for(std::size_t n) {
  if (n >= 100000) return 20;
  if (n >= 10000) return 100;
  return 400;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SideResult {
  double ticks_per_s = 0.0;
  std::uint64_t nodes_stepped = 0;
  std::uint64_t nodes_skipped = 0;
};

/// Plays settle + warm-up + timed window for one stepping mode against
/// a private copy of the graph, patched tick by tick from the shared
/// recorded delta stream. The protocol and graph live in the caller's
/// stores so the final populations can be diffed after both sides ran.
SideResult run_side(const graph::Graph& initial,
                    const topology::IdAssignment& ids,
                    const std::vector<graph::EdgeDelta>& deltas,
                    std::uint64_t protocol_seed, sim::Stepping stepping,
                    std::optional<core::DensityProtocol>& protocol_store,
                    std::optional<graph::DynamicGraph>& graph_store) {
  graph_store.emplace();
  graph_store->reset(initial);

  core::ProtocolConfig pconfig;
  pconfig.delta_hint = std::max<std::uint64_t>(2, initial.max_degree());
  util::Rng protocol_rng(protocol_seed);
  protocol_store.emplace(ids, pconfig, protocol_rng);

  sim::PerfectDelivery perfect;
  sim::ShardedNetwork network(graph_store->view(), *protocol_store, perfect,
                              1, 1);
  network.set_stepping(stepping);

  for (std::size_t s = 0; s < kSettleSteps; ++s) network.step();
  for (std::size_t t = 0; t < kWarmTicks && t < deltas.size(); ++t) {
    graph_store->apply_delta(deltas[t]);
    network.apply_topology_delta(deltas[t]);
    network.step();
  }

  SideResult out;
  const std::uint64_t stepped_before = network.activity().nodes_stepped();
  const std::uint64_t skipped_before = network.activity().nodes_skipped();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = kWarmTicks; t < deltas.size(); ++t) {
    graph_store->apply_delta(deltas[t]);
    network.apply_topology_delta(deltas[t]);
    network.step();
  }
  const double elapsed = seconds_since(start);
  out.ticks_per_s =
      static_cast<double>(deltas.size() - kWarmTicks) / elapsed;
  out.nodes_stepped = network.activity().nodes_stepped() - stepped_before;
  out.nodes_skipped = network.activity().nodes_skipped() - skipped_before;
  return out;
}

}  // namespace

int main() {
  const auto max_n =
      static_cast<std::size_t>(util::env_int("SSMWN_DIRTY_MAX_N", 100000));
  const double dt_s = 0.1;
  const double world_m = 1000.0;
  const mobility::SpeedRange speeds{0.0, 1.6};

  bench::print_header(
      "Dirty-region stepping — quiescence-aware vs full protocol sweeps",
      "Steady-state cost of a converged protocol under live mobility "
      "(radius set for mean degree ~10 at every n)",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("dirty_stepping");
  util::Table table("Protocol ticks per second, converged + live mobility "
                    "(higher is better)");
  table.header({"n", "mean deg", "full t/s", "dirty t/s", "speedup",
                "stepped", "skipped"});

  bool equivalent = true;
  const std::size_t sizes[] = {1000, 10000, 100000};
  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    // Density held constant across n: mean degree ≈ 10.
    const double radius =
        std::sqrt(10.0 / (3.14159265358979 * static_cast<double>(n)));

    util::Rng rng = root.split();
    auto points = topology::uniform_points(n, rng);
    const auto ids = topology::random_ids(n, rng);
    const std::uint64_t protocol_seed = rng();
    const std::size_t movers = std::max<std::size_t>(1, n / 1000);

    // Record the shared delta stream once; both sides replay it, so the
    // mobility/topology cost cannot favor either stepper. Only the first
    // `movers` points move — the mover owns exactly that prefix.
    topology::LiveTopology live(points, radius);
    const graph::Graph initial = live.graph();
    mobility::RandomDirection mover(movers, speeds, world_m, rng.split());
    std::vector<graph::EdgeDelta> deltas;
    deltas.reserve(kWarmTicks + ticks_for(n));
    for (std::size_t t = 0; t < kWarmTicks + ticks_for(n); ++t) {
      mover.step(std::span(points).first(movers), dt_s);
      deltas.push_back(live.update(points));
    }

    std::optional<core::DensityProtocol> full_store, dirty_store;
    std::optional<graph::DynamicGraph> full_graph, dirty_graph;
    const SideResult full =
        run_side(initial, ids, deltas, protocol_seed, sim::Stepping::kFull,
                 full_store, full_graph);
    const SideResult dirty =
        run_side(initial, ids, deltas, protocol_seed, sim::Stepping::kDirty,
                 dirty_store, dirty_graph);

    // Equivalence gate: same seeds, same deltas, same tick count — the
    // two populations must be bit-identical down to RNG state.
    if (const auto node =
            core::first_divergent_node(*full_store, *dirty_store)) {
      std::printf("FAIL: dirty stepping diverged from full at n=%zu "
                  "node=%u\n%s\n",
                  n, static_cast<unsigned>(*node),
                  core::describe_divergence(*full_store, *dirty_store, *node)
                      .c_str());
      equivalent = false;
    }

    const double mean_degree = 2.0 *
                               static_cast<double>(initial.edge_count()) /
                               static_cast<double>(n);
    const double speedup = dirty.ticks_per_s / full.ticks_per_s;
    table.row({util::Table::integer(static_cast<long long>(n)),
               util::Table::num(mean_degree, 1),
               util::Table::num(full.ticks_per_s, 1),
               util::Table::num(dirty.ticks_per_s, 1),
               util::Table::num(speedup, 2) + "x",
               util::Table::integer(
                   static_cast<long long>(dirty.nodes_stepped)),
               util::Table::integer(
                   static_cast<long long>(dirty.nodes_skipped))});
    json.add("full", n, 1, "ticks/s", full.ticks_per_s);
    json.add("dirty", n, 1, "ticks/s", dirty.ticks_per_s);
    json.add("dirty", n, 1, "speedup", speedup);
  }

  table.note("both steppers replay the identical recorded delta stream "
             "from identical protocol seeds; the binary exits nonzero if "
             "their final states differ in any bit");
  table.note("'stepped'/'skipped' = dirty-side rule sweeps run vs elided "
             "in the timed window; 1 mover per 1000 nodes, pedestrian "
             "0-1.6 m/s, dt = 0.1 s");
  bench::print(table);
  json.write();
  return equivalent ? 0 : 1;
}
