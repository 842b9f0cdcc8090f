// campaign-mobility: the paper's §5 mobility experiment run as a batch
// through the in-process campaign runner.
//
// The spec sweeps uniform n = 1000 deployments (radius 0.05), the basic
// and full variants, random-direction movement at pedestrian and
// vehicular top speeds, and protocol_live = false/true: classic runs
// rebuild the topology and re-run the clustering oracle every window,
// live runs step sim::Network through incremental topology deltas.
// A user waits from plan to CSV/JSON; the campaign is timed from
// CampaignRunner::run to the report bytes (written to memory, so disk
// flush latency stays out of the number).
//
// Gates: every repeat's CSV/JSON bytes are identical; untraced runs
// replay a sample of slots on one thread, the traced run compares the
// bytes with a full one-thread CampaignRunner campaign. The traced run
// also executes the same plan through campaign::execute_run on 4
// threads (timing each run; results must equal the runner's bit for
// bit) and replays a sample of classic runs window by window through
// the calls execute_run makes — the replay must reproduce each run's
// cluster_count.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "core/clustering.hpp"
#include "core/dag_ids.hpp"
#include "metrics/delta.hpp"
#include "metrics/stability.hpp"
#include "mobility/mobility.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace ssmwn;

constexpr std::size_t kReplications = 16;
constexpr std::size_t kSampleStride = 16;  // one-thread replay sample
constexpr std::size_t kMinRepeats = 2;
constexpr std::size_t kSetupRepeats = 200;
constexpr std::size_t kReplaySample = 8;

std::string spec_text(std::uint64_t seed) {
  return "name            = perfbench-mobility\n"
         "topology        = uniform\n"
         "n               = 1000\n"
         "radius          = 0.05\n"
         "variant         = basic, full\n"
         "mobility        = random-direction\n"
         "speed_min       = 0\n"
         "speed_max       = 1.6, 10\n"
         "protocol_live   = false, true\n"
         "scheduler       = sync\n"
         "topology_update = incremental\n"
         "window_s        = 2\n"
         "steps           = 30\n"
         "live_horizon    = 48\n"
         "replications    = " +
         std::to_string(kReplications) +
         "\n"
         "seed_base       = " +
         std::to_string(seed % 1000000007ull) + "\n";
}

struct Report {
  std::string csv;
  std::string json;
};

Report report(const campaign::CampaignPlan& plan,
              const std::vector<campaign::RunMetrics>& results) {
  campaign::MetricsAggregator aggregator(plan.grid.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    aggregator.add(plan.runs[i].grid_index, results[i]);
  }
  const auto aggregates = aggregator.summarize();
  std::ostringstream csv, json;
  campaign::write_csv(csv, plan, aggregates);
  campaign::write_json(json, plan, aggregates);
  return {csv.str(), json.str()};
}

bool same_bits(const campaign::RunMetrics& a, const campaign::RunMetrics& b) {
  const double xa[] = {a.stability, a.delta, a.reaffiliation, a.cluster_count,
                       a.converge_time, a.messages, a.reconverge_time,
                       a.reconverge_messages, a.sync_steps, a.sync_messages};
  const double xb[] = {b.stability, b.delta, b.reaffiliation, b.cluster_count,
                       b.converge_time, b.messages, b.reconverge_time,
                       b.reconverge_messages, b.sync_steps, b.sync_messages};
  return std::memcmp(xa, xb, sizeof xa) == 0 && a.windows == b.windows;
}

core::ClusterOptions variant_options(campaign::Variant v) {
  switch (v) {
    case campaign::Variant::kBasic: return core::ClusterOptions::basic();
    case campaign::Variant::kDag: return core::ClusterOptions::with_dag();
    case campaign::Variant::kImproved: return core::ClusterOptions::improved();
    case campaign::Variant::kFull: return core::ClusterOptions::full();
  }
  return {};
}

struct ReplayTimes {
  std::vector<double> udg_ms, oracle_ms, diff_ms;
};

/// Replays one classic (non-live, sync, no churn, τ = 1) run's window
/// pipeline through the public calls campaign::execute_run makes, and
/// returns its mean cluster count.
double replay_classic(const campaign::ScenarioConfig& config,
                      std::uint64_t seed, ReplayTimes& t) {
  util::Rng rng(seed);
  auto points = topology::uniform_points(config.n, rng);
  const std::size_t n = points.size();
  const auto ids = topology::random_ids(n, rng);
  util::Rng mobility_rng = rng.split();
  util::Rng churn_rng = rng.split();
  util::Rng loss_rng = rng.split();
  util::Rng dag_rng = rng.split();
  (void)churn_rng;
  (void)loss_rng;
  mobility::RandomDirection mover(n, {config.speed_min, config.speed_max},
                                  config.world_m, mobility_rng);
  const core::ClusterOptions options = variant_options(config.variant);
  util::RunningStats clusters;
  std::vector<char> prev_heads;
  core::ClusteringResult previous;
  bool has_previous = false;
  for (std::size_t window = 0; window < config.steps; ++window) {
    auto t0 = Clock::now();
    const graph::Graph g = topology::unit_disk_graph(points, config.radius);
    t.udg_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    const std::span<const char> incumbents(prev_heads.data(), prev_heads.size());
    core::ClusteringResult result;
    if (options.use_dag_ids) {
      const auto dag = core::build_dag_ids(g, ids, {}, dag_rng);
      result = core::cluster_density(g, ids, options, dag.ids, incumbents);
    } else {
      result = core::cluster_density(g, ids, options, {}, incumbents);
    }
    t.oracle_ms.push_back(seconds_since(t0) * 1e3);
    clusters.add(static_cast<double>(result.cluster_count()));
    if (has_previous) {
      t0 = Clock::now();
      const double kept = metrics::reelection_ratio(
          incumbents,
          std::span<const char>(result.is_head.data(), result.is_head.size()));
      const auto diff = metrics::diff_clusterings(previous, result);
      t.diff_ms.push_back(seconds_since(t0) * 1e3);
      (void)kept;
      (void)diff;
    }
    prev_heads.assign(result.is_head.begin(), result.is_head.end());
    previous = std::move(result);
    has_previous = true;
    mover.step(points, config.window_s);
  }
  return clusters.mean();
}

struct Timed {
  std::vector<campaign::RunMetrics> results;
  std::vector<double> run_s;  // per plan slot
  double wall_s = 0.0;
  double busy_s = 0.0;
};

/// The traced execution: the plan's runs through campaign::execute_run
/// on `threads` workers pulling slots in plan order, each run timed.
Timed execute_timed(const campaign::CampaignPlan& plan, unsigned threads) {
  Timed out;
  out.results.resize(plan.runs.size());
  out.run_s.resize(plan.runs.size());
  std::atomic<std::size_t> next{0};
  std::vector<double> busy(threads, 0.0);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        campaign::RunWorkspace ws;
        for (std::size_t i = next++; i < plan.runs.size(); i = next++) {
          const auto& entry = plan.runs[i];
          const auto r0 = Clock::now();
          out.results[i] = campaign::execute_run(
              plan.grid[entry.grid_index].config, entry.seed, ws);
          out.run_s[i] = seconds_since(r0);
          busy[w] += out.run_s[i];
        }
      });
    }
  }
  out.wall_s = seconds_since(t0);
  out.busy_s = sum(busy);
  return out;
}

}  // namespace

void run_campaign_mobility(const Options& opt, Result& out) {
  const auto start = Clock::now();
  const std::string text = spec_text(opt.seed);

  // Setup: spec parse + expand, repeated; the median is reported.
  std::vector<double> parse_s, expand_s, setup_s;
  campaign::CampaignPlan plan;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    auto t0 = Clock::now();
    const campaign::CampaignSpec spec = campaign::parse_spec_text(text);
    const auto t1 = Clock::now();
    plan = campaign::expand(spec);
    const auto t2 = Clock::now();
    parse_s.push_back(seconds_between(t0, t1));
    expand_s.push_back(seconds_between(t1, t2));
    setup_s.push_back(seconds_between(t0, t2));
  }
  const double runs = static_cast<double>(plan.runs.size());

  // Measured: repeats of the whole campaign on kThreads threads.
  std::vector<double> campaign_ms, runs_per_s, report_s;
  std::vector<Report> reports;
  std::vector<campaign::RunMetrics> results;
  for (std::size_t rep = 0;
       rep < kMinRepeats || seconds_since(start) < opt.seconds; ++rep) {
    campaign::CampaignRunner runner(kThreads);
    const auto t0 = Clock::now();
    results = runner.run(plan);
    const auto t1 = Clock::now();
    reports.push_back(report(plan, results));
    const auto t2 = Clock::now();
    campaign_ms.push_back(seconds_between(t0, t2) * 1e3);
    runs_per_s.push_back(runs / seconds_between(t0, t2));
    report_s.push_back(seconds_between(t1, t2));
    std::printf("  campaign repeat %zu: %zu runs in %.3f s\n", rep,
                plan.runs.size(), seconds_between(t0, t2));
    if (opt.trace) break;
  }

  // Gates. Every repeat must produce the first repeat's bytes. Untraced
  // runs then replay every kSampleStride-th slot on one thread through
  // execute_run (one workspace, plan order, as CampaignRunner(1) does)
  // and require the runner's metrics bit for bit; the traced run
  // compares the CSV/JSON bytes against a full CampaignRunner(1)
  // campaign, which costs a whole single-core campaign.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    out.attempt();
    if (reports[i].csv != reports[0].csv || reports[i].json != reports[0].json) {
      out.failed_op("campaign repeat " + std::to_string(i) +
                    ": CSV/JSON differ from repeat 0");
    }
  }
  std::printf("  report fnv1a: csv %016llx json %016llx\n",
              static_cast<unsigned long long>(
                  fnv1a(reports[0].csv.data(), reports[0].csv.size())),
              static_cast<unsigned long long>(
                  fnv1a(reports[0].json.data(), reports[0].json.size())));
  Report reference;
  if (opt.trace) {
    campaign::CampaignRunner serial(1);
    reference = report(plan, serial.run(plan));
    out.attempt();
    if (reports[0].csv != reference.csv || reports[0].json != reference.json) {
      out.failed_op("CSV/JSON differ from the one-thread reference");
    }
  } else {
    campaign::RunWorkspace ws;
    for (std::size_t i = 0; i < plan.runs.size(); i += kSampleStride) {
      const auto& entry = plan.runs[i];
      out.attempt();
      const auto m = campaign::execute_run(plan.grid[entry.grid_index].config,
                                           entry.seed, ws);
      if (!same_bits(m, results[i])) {
        out.failed_op("slot " + std::to_string(i) +
                      " differs from its one-thread execution");
      }
    }
  }

  const auto end_to_end = [&](const std::vector<double>& ms,
                              const std::vector<double>& rps, double peak_mb,
                              Result& r) {
    r.add("setup_s", median(setup_s), "s");
    r.add("latency_p50_ms", median(ms), "ms");
    r.add("latency_p90_ms", quantile(ms, 0.9), "ms");
    r.add("throughput_per_s", median(rps), "1/s");
    r.add("peak_rss_mb", peak_mb, "MB");
    r.add("runs_per_s", median(rps), "1/s");
  };
  if (!opt.trace) {
    end_to_end(campaign_ms, runs_per_s, vm_hwm_mb(), out);
    return;
  }

  // Traced pass: per-run timings through execute_run.
  const double plain_peak_mb = vm_hwm_mb();
  const Timed timed = execute_timed(plan, kThreads);
  const auto t0 = Clock::now();
  const Report traced_report = report(plan, timed.results);
  const double traced_wall = timed.wall_s + seconds_since(t0);
  std::vector<double> classic_ms, live_ms;
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    out.attempt();
    if (!same_bits(timed.results[i], results[i])) {
      out.failed_op("execute_run slot " + std::to_string(i) +
                    " differs from the campaign runner");
    }
    const auto& config = plan.grid[plan.runs[i].grid_index].config;
    (config.protocol_live ? live_ms : classic_ms).push_back(timed.run_s[i] * 1e3);
  }
  if (traced_report.csv != reference.csv || traced_report.json != reference.json) {
    out.fail("traced execution's CSV/JSON differ from the reference");
  }

  // Window-pipeline replay of a sample of classic runs.
  ReplayTimes replay;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < plan.runs.size() && replayed < kReplaySample; ++i) {
    const auto& config = plan.grid[plan.runs[i].grid_index].config;
    if (config.protocol_live) continue;
    ++replayed;
    out.attempt();
    const double clusters = replay_classic(config, plan.runs[i].seed, replay);
    if (std::memcmp(&clusters, &results[i].cluster_count, sizeof clusters) != 0) {
      out.failed_op("classic replay of slot " + std::to_string(i) +
                    " did not reproduce cluster_count");
    }
  }

  const double traced_ms = traced_wall * 1e3;
  out.add("campaign.parse_s", median(parse_s), "s");
  out.add("campaign.expand_s", median(expand_s), "s");
  out.add("campaign.runs", runs, "count");
  out.add("campaign.run_ms.p50.classic", median(classic_ms), "ms");
  out.add("campaign.run_ms.p99.classic", quantile(classic_ms, 0.99), "ms");
  out.add("campaign.run_ms.p50.live", median(live_ms), "ms");
  out.add("campaign.run_ms.p99.live", quantile(live_ms, 0.99), "ms");
  out.add("campaign.busy_frac",
          timed.busy_s / (static_cast<double>(kThreads) * timed.wall_s), "ratio");
  out.add("campaign.report_s", median(report_s), "s");
  out.add("campaign.replayed_runs", static_cast<double>(replayed), "count");
  out.add("topology.udg_rebuild_ms", median(replay.udg_ms), "ms");
  out.add("cluster.oracle_ms", median(replay.oracle_ms), "ms");
  out.add("metrics.diff_ms", median(replay.diff_ms), "ms");
  // One plain and one traced campaign: the overhead of per-run timing.
  // Setup is untraced in both, so its overhead reads 0 by construction.
  Result plain_e2e, traced_e2e;
  end_to_end(campaign_ms, runs_per_s, plain_peak_mb, plain_e2e);
  end_to_end({traced_ms}, {runs / traced_wall}, vm_hwm_mb(), traced_e2e);
  add_overhead(plain_e2e, traced_e2e, out);
  std::printf("campaign-mobility: %.1f s total\n", seconds_since(start));
}

}  // namespace perfbench
