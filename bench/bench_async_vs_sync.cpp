// Synchronous stepper vs event-driven engine — throughput and
// convergence cost.
//
// Two execution models now drive the same protocol (see
// src/sim/scheduler.hpp): the lockstep Δ(τ) stepper and the
// asynchronous event engine (per-node jittered broadcast periods,
// per-link delays, randomized daemon). This bench answers two
// questions per deployment size:
//
//   * raw engine speed — steps/sec (sync) and events/sec (async) in
//     steady state;
//   * convergence cost from an adversarial initial state — steps and
//     messages for the sync engine, virtual seconds and messages for
//     the async engine (messages-to-convergence is the paper-relevant
//     cost an asynchronous deployment actually pays).
//
// Environment:
//   SSMWN_ASYNC_MAX_N  cap on n (default 10000; CI smoke uses 1000)
//   SSMWN_SEED         experiment seed
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_support.hpp"
#include "core/protocol.hpp"
#include "sim/async_network.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"

namespace {

using namespace ssmwn;

core::DensityProtocol make_protocol(const bench::Instance& inst,
                                    std::uint64_t seed) {
  core::ProtocolConfig config;
  config.delta_hint = std::max<std::uint64_t>(2, inst.graph.max_degree());
  return core::DensityProtocol(inst.ids, config, util::Rng(seed));
}

struct SyncResult {
  double steps_per_sec = 0.0;
  std::size_t steps_to_converge = 0;
  std::uint64_t messages = 0;  // deliveries until convergence
  bool converged = false;
};

SyncResult measure_sync(const bench::Instance& inst,
                        const core::ClusteringResult& oracle,
                        std::uint64_t seed) {
  auto protocol = make_protocol(inst, seed);
  util::Rng chaos(seed ^ 0xC0FFEE);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery loss;
  sim::ShardedNetwork network(inst.graph, protocol, loss, 1, 1);

  // One sync step delivers every directed edge.
  const std::uint64_t messages_per_step = 2 * inst.graph.edge_count();
  auto legitimate = [&] {
    for (graph::NodeId p = 0; p < inst.graph.node_count(); ++p) {
      const auto& s = protocol.state(p);
      if (!s.head_valid || s.head != oracle.head_id[p]) return false;
    }
    return true;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto report = stabilize::run_until_stable(
      [&] { network.step(); }, legitimate, /*confirm_steps=*/3,
      /*max_steps=*/500);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SyncResult out;
  out.converged = report.converged;
  out.steps_to_converge = report.stabilization_step;
  out.messages = messages_per_step * report.stabilization_step;
  out.steps_per_sec =
      static_cast<double>(report.steps_executed) / elapsed;
  return out;
}

struct AsyncResult {
  double events_per_sec = 0.0;
  double converge_vtime_s = 0.0;
  std::uint64_t messages = 0;
  bool converged = false;
};

AsyncResult measure_async(const bench::Instance& inst,
                          const core::ClusteringResult& oracle,
                          std::uint64_t seed) {
  auto protocol = make_protocol(inst, seed);
  util::Rng chaos(seed ^ 0xC0FFEE);
  protocol.corrupt_all(chaos);
  sim::PerfectDelivery loss;
  sim::AsyncConfig config;  // defaults: 1 s period ±10%, 20 ms links
  sim::AsyncNetwork network(inst.graph, protocol, loss, config,
                            util::Rng(seed ^ 0xA51C));

  auto legitimate = [&] {
    for (graph::NodeId p = 0; p < inst.graph.node_count(); ++p) {
      const auto& s = protocol.state(p);
      if (!s.head_valid || s.head != oracle.head_id[p]) return false;
    }
    return true;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto report = stabilize::run_until_stable_virtual(
      [&] {
        network.run_for(config.period_s);
        return network.now_seconds();
      },
      [&] { return network.messages_delivered(); }, legitimate,
      /*confirm_s=*/3.0 * config.period_s, /*max_time_s=*/500.0);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  AsyncResult out;
  out.converged = report.converged;
  out.converge_vtime_s = report.stabilization_time_s;
  out.messages = report.messages_to_converge;
  out.events_per_sec =
      static_cast<double>(network.events_processed()) / elapsed;
  return out;
}

}  // namespace

int main() {
  const auto max_n =
      static_cast<std::size_t>(util::env_int("SSMWN_ASYNC_MAX_N", 10000));

  bench::print_header(
      "Async vs sync — engine throughput and convergence cost",
      "Self-stabilization under the asynchronous regime the theorem is "
      "stated for (PAPER.md §4); sync numbers give the lockstep baseline",
      1);

  util::Rng root(util::bench_seed());
  bench::JsonReport json("async_vs_sync");
  const std::size_t sizes[] = {1000, 10000};

  util::Table table(
      "Convergence from corrupt_all, basic variant, tau = 1 "
      "(async: randomized daemon, defaults)");
  table.header({"n", "mean deg", "sync steps/s", "async events/s",
                "sync conv steps", "sync msgs", "async conv t(s)",
                "async msgs"});

  for (const std::size_t n : sizes) {
    if (n > max_n) continue;
    util::Rng rng = root.split();
    const auto inst = bench::poisson_instance(
        static_cast<double>(n),
        std::sqrt(8.0 / (3.14159 * static_cast<double>(n))), rng);
    const auto oracle = core::cluster_density(inst.graph, inst.ids, {});
    const std::uint64_t seed = rng();

    const auto sync = measure_sync(inst, oracle, seed);
    const auto async = measure_async(inst, oracle, seed);

    table.row({util::Table::integer(
                   static_cast<long long>(inst.graph.node_count())),
               util::Table::num(2.0 *
                                    static_cast<double>(inst.graph.edge_count()) /
                                    static_cast<double>(inst.graph.node_count()),
                                1),
               util::Table::num(sync.steps_per_sec, 1),
               util::Table::num(async.events_per_sec, 0),
               sync.converged
                   ? util::Table::integer(
                         static_cast<long long>(sync.steps_to_converge))
                   : std::string("n/a"),
               util::Table::integer(static_cast<long long>(sync.messages)),
               async.converged ? util::Table::num(async.converge_vtime_s, 1)
                               : std::string("n/a"),
               util::Table::integer(static_cast<long long>(async.messages))});
    json.add("sync", n, 1, "steps_per_s", sync.steps_per_sec);
    json.add("async", n, 1, "events_per_s", async.events_per_sec);
    json.add("async", n, 1, "messages_to_convergence",
             static_cast<double>(async.messages));
    if (!sync.converged || !async.converged) {
      std::printf("WARNING: n=%zu did not converge (sync=%d async=%d)\n", n,
                  sync.converged, async.converged);
    }
  }
  table.note("sync msgs = deliveries until convergence (2|E| per step); "
             "async msgs = event-counted deliveries until the final "
             "legitimate run began");
  table.note("async defaults: period 1 s ±10%, link delay 20 ms ±50%, "
             "randomized daemon");
  bench::print(table);
  json.write();
  return 0;
}
