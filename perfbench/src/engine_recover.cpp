// engine-recover: the protocol driven to quiescence on the sharded
// step engine — the path a `ssmwn protocol` user waits on at scale.
//
// One deployment: Poisson(λ = 100 000) points with mean degree 8, the
// paper's full variant (DAG ids + fusion), renumbered cell-major into 16
// spatial shards and stepped by sim::ShardedNetwork on 4 threads (full
// stepping, perfect medium). Three phases follow:
//   cold    — fresh protocol state until confirmed legitimate;
//   recover — kRecoveries episodes of corrupt_all, each until confirmed
//             legitimate again;
//   steady  — a fixed hold of kHoldSteps steps.
// "Confirmed legitimate" is stabilize::run_until_stable over
// core::LegitimacyCheck with the certifier's 4-round confirmation.
//
// Untraced runs repeat deployments until --seconds have passed (at least
// kMinDeployments). Every episode must end legitimate, and the first
// deployment's cold start is first replayed on one thread: its step,
// message and delta-row counts and head hash must match the 4-thread
// run exactly. Traced runs step kTracedDeployments deployments twice —
// plain, then through TracedProtocol — and report per-layer metrics
// plus the tracing overhead on every end-to-end metric.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/legitimacy.hpp"
#include "core/protocol.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "traced_protocol.hpp"
#include "util/rng.hpp"
#include "verify/trial.hpp"

namespace perfbench {
namespace {

using namespace ssmwn;

constexpr double kLambda = 100000.0;  // Poisson intensity (expected n)
constexpr double kMeanDegree = 8.0;
constexpr std::size_t kShards = 16;
constexpr std::size_t kRecoveries = 3;  // corrupt_all episodes per deployment
constexpr std::size_t kHoldSteps = 40;
constexpr std::size_t kMaxSteps = 400;
constexpr std::size_t kMinDeployments = 3;
constexpr std::size_t kTracedDeployments = 2;
constexpr const char* kPhaseNames[] = {"cold", "recover", "steady"};

struct SetupTimes {
  double points_s = 0.0;
  double udg_s = 0.0;
  double partition_s = 0.0;
  double init_s = 0.0;
  [[nodiscard]] double total() const {
    return points_s + udg_s + partition_s + init_s;
  }
};

/// One deployment, already renumbered cell-major into spatial shards.
struct World {
  graph::Graph graph;
  topology::IdAssignment ids;
  std::vector<std::size_t> bounds;
  double cross_shard_edge_frac = 0.0;
  std::uint64_t protocol_seed = 0;
  std::uint64_t fault_seed = 0;
};

World make_world(std::uint64_t seed, double lambda, SetupTimes& t) {
  util::Rng rng(seed);
  World w;
  const double radius = std::sqrt(kMeanDegree / (3.14159 * lambda));
  auto t0 = Clock::now();
  const auto points = topology::poisson_points(lambda, rng);
  t.points_s = seconds_since(t0);
  t0 = Clock::now();
  const graph::Graph g = topology::unit_disk_graph(points, radius);
  t.udg_s = seconds_since(t0);
  const auto ids = topology::random_ids(g.node_count(), rng);
  t0 = Clock::now();
  const auto plan = graph::plan_spatial_shards(points, radius, kShards);
  w.graph = graph::permute_graph(g, plan);
  w.ids = graph::permuted(plan, ids);
  w.bounds = plan.bounds;
  t.partition_s = seconds_since(t0);
  std::uint64_t cross = 0;
  const auto offsets = w.graph.csr_offsets();
  const auto flat = w.graph.csr_neighbors();
  for (std::size_t s = 0; s + 1 < w.bounds.size(); ++s) {
    for (std::size_t p = w.bounds[s]; p < w.bounds[s + 1]; ++p) {
      for (std::size_t e = offsets[p]; e < offsets[p + 1]; ++e) {
        cross += flat[e] < w.bounds[s] || flat[e] >= w.bounds[s + 1];
      }
    }
  }
  w.cross_shard_edge_frac =
      flat.empty() ? 0.0 : static_cast<double>(cross) / static_cast<double>(flat.size());
  w.protocol_seed = rng();
  w.fault_seed = rng();
  return w;
}

core::DensityProtocol make_protocol(const World& w) {
  core::ProtocolConfig config;
  config.cluster.use_dag_ids = true;
  config.cluster.fusion = true;
  config.delta_hint = std::max<std::uint64_t>(2, w.graph.max_degree());
  return core::DensityProtocol(w.ids, config, util::Rng(w.protocol_seed));
}

std::uint64_t head_hash(const core::DensityProtocol& p) {
  const auto heads = p.head_values();
  return fnv1a(heads.data(), heads.size() * sizeof(heads[0]));
}

/// What one phase of one deployment did. Counters are exact; the
/// `traced` block is filled only through TracedProtocol.
struct PhaseStats {
  std::size_t steps = 0;
  double wall_s = 0.0;
  double check_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t delta_rows = 0;
  std::vector<double> step_s;
  std::vector<double> episode_s;  // wall time of each episode
  bool legitimate = false;
  std::uint64_t heads = 0;  // FNV-1a chain of head hashes at episode ends
  // traced
  CallCounts calls;
  std::array<double, kKinds> busy_s{};
  double self_s = 0.0;
  double idle_s = 0.0;
  double thread_s = 0.0;

  [[nodiscard]] bool same_work(const PhaseStats& o) const {
    return steps == o.steps && messages == o.messages &&
           delta_rows == o.delta_rows && legitimate == o.legitimate &&
           heads == o.heads;
  }
};

struct Deployment {
  SetupTimes setup;
  double cross_shard_edge_frac = 0.0;
  int phases = 3;
  PhaseStats phase[3];
};

/// Steps one deployment through its three phases. `P` is either the
/// protocol itself or TracedProtocol over it (then `tracer` is set).
template <typename P>
class PhaseRunner {
 public:
  PhaseRunner(const World& w, core::DensityProtocol& inner, P& stepped,
         unsigned threads, Tracer* tracer)
      : world_(&w),
        inner_(&inner),
        network_(w.graph, stepped, loss_, w.bounds, threads),
        legit_(w.graph, inner),
        tracer_(tracer),
        threads_(network_.thread_count()) {}

  /// Runs the first `phases` phases (1 = cold start only).
  void run(Deployment& out, int phases) {
    stabilize(out.phase[0]);
    if (phases == 1) return;
    util::Rng fault(world_->fault_seed);
    for (std::size_t k = 0; k < kRecoveries; ++k) {
      inner_->corrupt_all(fault);
      stabilize(out.phase[1]);
    }
    hold(out.phase[2]);
  }

 private:
  void step(PhaseStats& ps) {
    std::vector<std::array<double, kKinds>> before;
    if (tracer_) before = tracer_->busy();
    const auto t0 = Clock::now();
    network_.step();
    const double wall = seconds_since(t0);
    ps.step_s.push_back(wall);
    if (!tracer_) return;
    const auto after = tracer_->busy();
    std::array<double, kKinds> peak{};
    double busy = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      double slot_total = 0.0;
      for (unsigned k = 0; k < kKinds; ++k) {
        const double b = after[i][k] - before[i][k];
        peak[k] = std::max(peak[k], b);
        slot_total += b;
      }
      busy += slot_total;
    }
    // Imbalance: thread time spent waiting for the slowest thread of
    // each protocol phase (threads with no shard in a step wait all of it).
    double critical = 0.0;
    for (unsigned k = 0; k < kKinds; ++k) critical += peak[k];
    ps.idle_s += critical * static_cast<double>(threads_) - busy;
    ps.self_s += wall * static_cast<double>(threads_) - busy;
    ps.thread_s += wall * static_cast<double>(threads_);
  }

  /// Runs one episode of a phase; a phase's stats accumulate over its
  /// episodes (the recover phase has kRecoveries of them).
  template <typename F>
  void phase(PhaseStats& ps, F&& body) {
    const std::uint64_t m0 = network_.messages_delivered();
    const std::uint64_t d0 = network_.delta_rows_graded();
    CallCounts c0;
    std::array<double, kKinds> b0{};
    if (tracer_) {
      c0 = tracer_->counts();
      b0 = busy_sum();
    }
    const auto t0 = Clock::now();
    body();
    const double wall = seconds_since(t0);
    ps.wall_s += wall;
    ps.episode_s.push_back(wall);
    ps.messages += network_.messages_delivered() - m0;
    ps.delta_rows += network_.delta_rows_graded() - d0;
    const std::uint64_t h = head_hash(*inner_);
    ps.heads = fnv1a(&h, sizeof h, ps.heads);
    if (tracer_) {
      ps.calls += tracer_->counts() - c0;
      const auto b1 = busy_sum();
      for (unsigned k = 0; k < kKinds; ++k) ps.busy_s[k] += b1[k] - b0[k];
    }
  }

  bool check(PhaseStats& ps) {
    const auto t0 = Clock::now();
    const bool ok = legit_.check();
    ps.check_s += seconds_since(t0);
    return ok;
  }

  void stabilize(PhaseStats& ps) {
    legit_.reset();
    phase(ps, [&] {
      const auto report = stabilize::run_until_stable(
          [&] { step(ps); }, [&] { return check(ps); },
          verify::kDefaultConfirmRounds, kMaxSteps);
      ps.steps += report.steps_executed;
      ps.legitimate = report.converged && (ps.episode_s.empty() || ps.legitimate);
    });
  }

  void hold(PhaseStats& ps) {
    phase(ps, [&] {
      for (std::size_t s = 0; s < kHoldSteps; ++s) step(ps);
    });
    ps.steps += kHoldSteps;
    // Outside the timed hold: the checker's baseline is the recovery's
    // last confirmed check, so one check tests that nothing moved.
    ps.legitimate = check(ps);
  }

  [[nodiscard]] std::array<double, kKinds> busy_sum() const {
    std::array<double, kKinds> out{};
    for (const auto& slot : tracer_->busy()) {
      for (unsigned k = 0; k < kKinds; ++k) out[k] += slot[k];
    }
    return out;
  }

  const World* world_;
  core::DensityProtocol* inner_;
  sim::PerfectDelivery loss_;
  sim::ShardedNetwork<P> network_;
  core::LegitimacyCheck legit_;
  Tracer* tracer_;
  unsigned threads_;
};

/// Sets up and runs one deployment; `traced` steps it through the
/// adapter. Setup covers deployment, partition, protocol and engine
/// construction.
Deployment run_deployment(std::uint64_t seed, double lambda, unsigned threads,
                          bool traced, int phases = 3) {
  Deployment d;
  d.phases = phases;
  World w = make_world(seed, lambda, d.setup);
  d.cross_shard_edge_frac = w.cross_shard_edge_frac;
  const auto t0 = Clock::now();
  core::DensityProtocol protocol = make_protocol(w);
  if (traced) {
    Tracer tracer(w.graph, w.bounds);
    TracedProtocol adapter(protocol, tracer);
    PhaseRunner<TracedProtocol> runner(w, protocol, adapter, threads, &tracer);
    d.setup.init_s = seconds_since(t0);
    runner.run(d, phases);
  } else {
    PhaseRunner<core::DensityProtocol> runner(w, protocol, protocol, threads,
                                         nullptr);
    d.setup.init_s = seconds_since(t0);
    runner.run(d, phases);
  }
  return d;
}

void gate(const Deployment& d, const Deployment* reference, Result& out,
          const std::string& label) {
  for (int p = 0; p < d.phases; ++p) {
    out.attempt();
    const PhaseStats& ps = d.phase[p];
    if (!ps.legitimate) {
      out.failed_op(label + ": phase " + kPhaseNames[p] +
                    " did not end legitimate");
    } else if (reference && p < reference->phases &&
               !ps.same_work(reference->phase[p])) {
      out.failed_op(label + ": phase " + kPhaseNames[p] +
                    " differs from the reference (steps/messages/delta "
                    "rows/head hash)");
    }
  }
}

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> converge_s;  // cold start to confirmed legitimacy
  std::vector<double> recover_ms;  // corrupt_all to confirmed legitimacy
  std::vector<double> steady_sps;
};

void collect(const Deployment& d, EndToEnd& e) {
  e.setup_s.push_back(d.setup.total());
  e.converge_s.push_back(d.phase[0].wall_s);
  for (const double s : d.phase[1].episode_s) {
    e.recover_ms.push_back(s * 1e3);
  }
  e.steady_sps.push_back(static_cast<double>(d.phase[2].steps) /
                         d.phase[2].wall_s);
}

void report_end_to_end(const EndToEnd& e, double peak_rss_mb, Result& out) {
  out.add("setup_s", median(e.setup_s), "s");
  out.add("latency_p50_ms", median(e.recover_ms), "ms");
  out.add("latency_p90_ms", quantile(e.recover_ms, 0.9), "ms");
  out.add("throughput_per_s", median(e.steady_sps), "1/s");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
  // The same figures under their workload-specific names.
  out.add("converge_s", median(e.converge_s), "s");
  out.add("recover_s", median(e.recover_ms) / 1e3, "s");
  out.add("steady_steps_per_s", median(e.steady_sps), "1/s");
}

std::uint64_t deployment_seed(std::uint64_t seed, std::size_t d) {
  util::Rng rng(seed ^ 0x656e67696e65ull);  // "engine"
  std::uint64_t s = 0;
  for (std::size_t i = 0; i <= d; ++i) s = rng();
  return s;
}

void print_deployment(std::size_t i, const Deployment& d, const char* tag) {
  std::printf("  %s deployment %zu: setup %.3f s", tag, i, d.setup.total());
  for (int p = 0; p < d.phases; ++p) {
    std::printf(" | %s %zu steps %.3f s heads %016llx", kPhaseNames[p],
                d.phase[p].steps, d.phase[p].wall_s,
                static_cast<unsigned long long>(d.phase[p].heads));
  }
  std::printf("\n");
}

}  // namespace

void run_engine_recover(const Options& opt, Result& out) {
  const auto start = Clock::now();
  // Reference first: the first deployment's cold start on one thread
  // (the full cycle on one thread would cost more than the measured
  // pass). Running it first also takes the process's first-touch page
  // faults out of the measured deployments.
  const Deployment reference =
      run_deployment(deployment_seed(opt.seed, 0), kLambda, 1, false, 1);
  print_deployment(0, reference, "1-thread reference");
  gate(reference, nullptr, out, "reference");

  std::vector<Deployment> plain;
  EndToEnd e2e;
  const auto measured = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (opt.trace ? i >= kTracedDeployments
                  : (i >= kMinDeployments && seconds_since(measured) >= opt.seconds)) {
      break;
    }
    plain.push_back(run_deployment(deployment_seed(opt.seed, i), kLambda,
                                   kThreads, false));
    print_deployment(i, plain.back(), "plain");
    collect(plain.back(), e2e);
    gate(plain.back(), i == 0 ? &reference : nullptr, out,
         "deployment " + std::to_string(i));
  }

  if (!opt.trace) {
    report_end_to_end(e2e, vm_hwm_mb(), out);
    return;
  }

  // Traced pass over the same deployments: identical work, per-layer
  // timings, overhead against the plain pass. The adapter's own
  // lockstep test gates it first.
  out.attempt();
  if (!adapter_check()) out.failed_op("adapter-test failed");
  const double plain_peak_mb = vm_hwm_mb();
  std::vector<Deployment> traced;
  EndToEnd e2e_traced;
  for (std::size_t i = 0; i < kTracedDeployments; ++i) {
    traced.push_back(run_deployment(deployment_seed(opt.seed, i), kLambda,
                                    kThreads, true));
    print_deployment(i, traced.back(), "traced");
    collect(traced.back(), e2e_traced);
    gate(traced.back(), &plain[i], out,
         "traced deployment " + std::to_string(i));
  }
  // The plain pass ran first, so the high-water mark after the traced
  // pass is max(plain, traced) peak.
  Result plain_e2e, traced_e2e;
  report_end_to_end(e2e, plain_peak_mb, plain_e2e);
  report_end_to_end(e2e_traced, vm_hwm_mb(), traced_e2e);
  add_overhead(plain_e2e, traced_e2e, out);

  SetupTimes setup;
  double cross = 0.0;
  for (const Deployment& d : traced) {
    setup.points_s += d.setup.points_s;
    setup.udg_s += d.setup.udg_s;
    setup.partition_s += d.setup.partition_s;
    setup.init_s += d.setup.init_s;
    cross += d.cross_shard_edge_frac;
  }
  const double dn = static_cast<double>(traced.size());
  out.add("topology.points_s", setup.points_s / dn, "s");
  out.add("topology.udg_s", setup.udg_s / dn, "s");
  out.add("graph.partition_s", setup.partition_s / dn, "s");
  out.add("core.init_s", setup.init_s / dn, "s");
  out.add("graph.cross_shard_edge_frac", cross / dn, "ratio");

  for (int p = 0; p < 3; ++p) {
    const std::string P = kPhaseNames[p];
    PhaseStats sum;
    std::vector<double> step_ms;
    for (const Deployment& d : traced) {
      const PhaseStats& ps = d.phase[p];
      sum.steps += ps.steps;
      sum.wall_s += ps.wall_s;
      sum.check_s += ps.check_s;
      sum.messages += ps.messages;
      sum.delta_rows += ps.delta_rows;
      sum.calls += ps.calls;
      for (unsigned k = 0; k < kKinds; ++k) sum.busy_s[k] += ps.busy_s[k];
      sum.self_s += ps.self_s;
      sum.idle_s += ps.idle_s;
      sum.thread_s += ps.thread_s;
      for (const double s : ps.step_s) step_ms.push_back(s * 1e3);
    }
    const CallCounts& c = sum.calls;
    out.add("sim.steps." + P, static_cast<double>(sum.steps), "count");
    out.add("sim.wall_s." + P, sum.wall_s, "s");
    out.add("sim.step_ms.p50." + P, median(step_ms), "ms");
    out.add("sim.step_ms.max." + P, quantile(step_ms, 1.0), "ms");
    out.add("sim.messages." + P, static_cast<double>(sum.messages), "count");
    out.add("sim.delta_rows." + P, static_cast<double>(sum.delta_rows), "count");
    out.add("sim.self_s." + P, sum.self_s, "s");
    out.add("sim.idle_frac." + P,
            sum.thread_s > 0 ? sum.idle_s / sum.thread_s : 0.0, "ratio");
    out.add("core.build_s." + P, sum.busy_s[kBuild], "s");
    out.add("core.deliver_s." + P, sum.busy_s[kDeliver], "s");
    out.add("core.tick_s." + P, sum.busy_s[kTick], "s");
    out.add("core.end_step_s." + P, sum.busy_s[kEndStep], "s");
    out.add("core.deliver_calls.full." + P, static_cast<double>(c.full), "count");
    out.add("core.deliver_calls.payload." + P, static_cast<double>(c.payload), "count");
    out.add("core.deliver_calls.delta." + P, static_cast<double>(c.delta), "count");
    out.add("core.deliver_calls.unchanged." + P, static_cast<double>(c.unchanged), "count");
    out.add("core.declined.payload." + P, static_cast<double>(c.declined_payload), "count");
    out.add("core.declined.delta." + P, static_cast<double>(c.declined_delta), "count");
    out.add("core.declined.unchanged." + P, static_cast<double>(c.declined_unchanged), "count");
    out.add("core.fastpath_hit_frac." + P,
            c.deliveries() ? static_cast<double>(c.payload + c.delta + c.unchanged) /
                                 static_cast<double>(c.deliveries())
                           : 0.0,
            "ratio");
    out.add("core.digests_delivered." + P, static_cast<double>(c.digests), "count");
    out.add("legit.check_s." + P, sum.check_s, "s");
    // Exactness: every completed delivery is one message of the engine.
    if (c.deliveries() != sum.messages) {
      out.fail("traced " + P + ": deliveries by path (" +
               std::to_string(c.deliveries()) + ") != engine messages (" +
               std::to_string(sum.messages) + ")");
    }
  }
  std::printf("engine-recover: %.1f s total\n", seconds_since(start));
}

}  // namespace perfbench
