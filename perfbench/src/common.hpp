// Shared plumbing of the repository benchmark: clocks, order
// statistics, the result object every workload fills, and the one-line
// JSON the harness prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

/// Median (mean of the two middle values for even counts).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// FNV-1a over raw bytes, chainable through `h`.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t len,
                                         std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Peak resident set (VmHWM) of a process in MB; 0 when unreadable.
[[nodiscard]] double vm_hwm_mb(const std::string& pid = "self");

/// Threads (or connections) every workload uses: the 4-core budget.
inline constexpr unsigned kThreads = 4;

/// Command line of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;  // path of the ssmwn binary (serve-verify)
};

/// What a workload run reports: the correctness verdict, the attempted
/// and failed operation counts, and named metrics with units. A failed
/// gate is recorded with `fail`, which also prints the reason.
class Result {
 public:
  void add(std::string name, double value, std::string unit);
  void fail(const std::string& why);
  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  void failed_op(const std::string& why);
  /// Copies another result's verdict and counts (no metrics).
  void take_verdict(const Result& o) {
    correct_ = o.correct_;
    attempted_ = o.attempted_;
    failed_ = o.failed_;
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Value of a metric added earlier (0 when absent).
  [[nodiscard]] double value(std::string_view name) const;

  /// Human-readable table of every metric (stdout, before the JSON).
  void print_table(const std::string& title) const;
  /// The harness's last line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Adds trace.overhead.<m> = traced − plain for every end-to-end
/// metric m of the two results.
void add_overhead(const Result& plain, const Result& traced, Result& out);

/// Shortest round-trip decimal text of `v` (JSON-safe: non-finite → 0).
[[nodiscard]] std::string format_number(double v);

// Workload entry points. With opt.trace unset a workload fills the
// end-to-end metrics; with it set, the per-layer metrics — it then
// measures the end-to-end metrics twice, plain and traced, and reports
// their difference as the tracing overhead.
void run_engine_recover(const Options& opt, Result& out);
void run_campaign_mobility(const Options& opt, Result& out);
void run_serve_verify(const Options& opt, Result& out);

/// The traced adapter's bit-identity test; returns true on success.
bool adapter_check();

}  // namespace perfbench
