// perfbench — the repository benchmark's measuring binary.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1 [--cli PATH]
//   perfbench adapter-test
//
// Workloads: engine-recover, campaign-mobility, serve-verify (see
// perfbench/README.md). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set;
// each workload reports every name of the set, and a per-layer metric
// of a layer the workload does not drive reads 0. Exit code 0 means the
// run completed (its correctness verdict is in the JSON); 2 means bad
// arguments; 1 means the run could not complete.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "common.hpp"
#include "metric_names.hpp"

namespace perfbench {

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Result::add(std::string name, double value, std::string unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::move(unit);
      return;
    }
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Result::failed_op(const std::string& why) {
  ++failed_;
  fail(why);
}

double Result::value(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Result::print_table(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %18s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
}

std::string Result::json() const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

void add_overhead(const Result& plain, const Result& traced, Result& out) {
  for (const MetricName& m : end_to_end_metrics()) {
    out.add("trace.overhead." + m.name, traced.value(m.name) - plain.value(m.name),
            m.unit);
  }
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench <engine-recover|campaign-mobility|"
               "serve-verify> --seed N --seconds S --trace 0|1 [--cli PATH]\n"
               "       perfbench adapter-test\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    usage((std::string(flag) + ": expected a non-negative integer").c_str());
  }
  return v;
}

/// Keeps exactly the names of the requested set, in set order; a name
/// the workload did not measure reads 0 (per-layer set only — a missing
/// end-to-end metric is a harness bug).
Result project(const Result& full, bool trace) {
  Result out;
  out.take_verdict(full);
  const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricName& m : names) {
    out.add(m.name, full.value(m.name), m.unit);
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing workload");
  Options opt;
  opt.workload = argv[1];
  if (opt.workload == "adapter-test") {
    return adapter_check() ? 0 : 1;
  }
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const std::string_view value = argv[++i];
    if (flag == "--seed") {
      opt.seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64("--seconds", value));
      have_seconds = opt.seconds >= 1;
    } else if (flag == "--trace") {
      const auto t = parse_u64("--trace", value);
      if (t > 1) usage("--trace: expected 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (flag == "--cli") {
      opt.cli = value;
    } else {
      usage(("unknown flag " + std::string(flag)).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (>= 1) and --trace are required");
  }
  Result full;
  try {
    if (opt.workload == "engine-recover") {
      run_engine_recover(opt, full);
    } else if (opt.workload == "campaign-mobility") {
      run_campaign_mobility(opt, full);
    } else if (opt.workload == "serve-verify") {
      run_serve_verify(opt, full);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  full.print_table(opt.workload + (opt.trace ? " (traced run)" : ""));
  const Result out = project(full, opt.trace);
  std::fflush(stderr);
  std::printf("%s\n", out.json().c_str());
  return 0;
}
