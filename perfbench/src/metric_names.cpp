#include "metric_names.hpp"

namespace perfbench {

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = [] {
    std::vector<MetricName> v = {
        {"topology.points_s", "s"},
        {"topology.udg_s", "s"},
        {"graph.partition_s", "s"},
        {"core.init_s", "s"},
        {"graph.cross_shard_edge_frac", "ratio"},
    };
    for (const char* phase : {"cold", "recover", "steady"}) {
      const std::string p = phase;
      for (const auto& [name, unit] : std::vector<MetricName>{
               {"sim.steps", "count"},
               {"sim.wall_s", "s"},
               {"sim.step_ms.p50", "ms"},
               {"sim.step_ms.max", "ms"},
               {"sim.messages", "count"},
               {"sim.delta_rows", "count"},
               {"sim.self_s", "s"},
               {"sim.idle_frac", "ratio"},
               {"core.build_s", "s"},
               {"core.deliver_s", "s"},
               {"core.tick_s", "s"},
               {"core.end_step_s", "s"},
               {"core.deliver_calls.full", "count"},
               {"core.deliver_calls.payload", "count"},
               {"core.deliver_calls.delta", "count"},
               {"core.deliver_calls.unchanged", "count"},
               {"core.declined.payload", "count"},
               {"core.declined.delta", "count"},
               {"core.declined.unchanged", "count"},
               {"core.fastpath_hit_frac", "ratio"},
               {"core.digests_delivered", "count"},
               {"legit.check_s", "s"},
           }) {
        v.push_back({name + "." + p, unit});
      }
    }
    for (const MetricName& m : std::vector<MetricName>{
             {"campaign.parse_s", "s"},
             {"campaign.expand_s", "s"},
             {"campaign.runs", "count"},
             {"campaign.run_ms.p50.classic", "ms"},
             {"campaign.run_ms.p99.classic", "ms"},
             {"campaign.run_ms.p50.live", "ms"},
             {"campaign.run_ms.p99.live", "ms"},
             {"campaign.busy_frac", "ratio"},
             {"campaign.report_s", "s"},
             {"campaign.replayed_runs", "count"},
             {"topology.udg_rebuild_ms", "ms"},
             {"cluster.oracle_ms", "ms"},
             {"metrics.diff_ms", "ms"},
             {"serve.requests", "count"},
             {"serve.failed", "count"},
             {"serve.open_latency_p50_ms", "ms"},
             {"serve.open_latency_p99_ms", "ms"},
             {"serve.first_result_ms.p50", "ms"},
             {"serve.first_result_ms.p99", "ms"},
             {"serve.gen_late_ms.p99", "ms"},
             {"serve.bytes_per_request", "bytes"},
             {"verify.trial_ms.p50", "ms"},
             {"verify.trial_ms.p99", "ms"},
             {"verify.sync_steps", "count"},
             {"verify.async_messages", "count"},
             {"trace.overhead.setup_s", "s"},
             {"trace.overhead.latency_p50_ms", "ms"},
             {"trace.overhead.latency_p90_ms", "ms"},
             {"trace.overhead.throughput_per_s", "1/s"},
             {"trace.overhead.peak_rss_mb", "MB"},
         }) {
      v.push_back(m);
    }
    return v;
  }();
  return names;
}

}  // namespace perfbench
