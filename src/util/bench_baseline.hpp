// Bench-baseline regression gate (library half; the CLI driver is
// tools/bench_compare.cpp).
//
// Every bench binary emits a machine-readable BENCH_<name>.json
// (bench::JsonReport). Checked-in copies live under bench/baselines/;
// CI reruns the smoke benches and feeds both directories through
// compare_benchmarks, which fails the build when any *rate* metric
// (anything containing "/s": ticks/s, steps/s, updates/s) regressed by
// more than the tolerance, or when any *count* metric (metric "count":
// deterministic work counters such as rows reused or shards skipped)
// differs from its baseline at all. Other metrics (seconds, ratios) are
// cross-machine-noisy or not perf at all and are reported but never
// gated. The parser handles exactly the shape JsonReport writes — no
// external JSON dependency.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ssmwn::util {

/// One measured value from a BENCH_*.json report.
struct BenchRecord {
  std::string bench;   // the report's "bench" field
  std::string name;    // row name within the bench
  std::string metric;  // e.g. "ticks/s"
  std::size_t n = 0;
  unsigned threads = 1;
  double value = 0.0;
};

/// Records are matched across runs by everything except the value.
[[nodiscard]] bool same_series(const BenchRecord& a, const BenchRecord& b);

/// A rate metric — higher is better, eligible for gating.
[[nodiscard]] bool is_rate_metric(std::string_view metric);

/// A count metric ("count") — a deterministic work counter of a seeded
/// run, the same on every machine, so gated for exact equality.
[[nodiscard]] bool is_count_metric(std::string_view metric);

/// Parses one JsonReport-shaped document. Returns false (and sets
/// `error`) on malformed input; on success appends to `out`.
bool parse_bench_json(std::string_view text, std::vector<BenchRecord>& out,
                      std::string& error);

/// Loads every BENCH_*.json directly inside `dir`.
bool load_bench_dir(const std::string& dir, std::vector<BenchRecord>& out,
                    std::string& error);

struct BenchComparison {
  BenchRecord baseline;
  double candidate_value = 0.0;
  /// candidate / baseline; for rate metrics < 1 means slower.
  double ratio = 1.0;
  bool gated = false;       // rate or count metric, eligible to fail
  bool regression = false;  // rate: ratio < 1 - tolerance; count: differs
};

struct BenchCompareReport {
  std::vector<BenchComparison> compared;
  /// Baseline series with no matching candidate record. Non-rate series
  /// here are informational; rate series are duplicated into
  /// `missing_rates` and treated as integrity failures (see below).
  std::vector<BenchRecord> unmatched;
  /// *Rate* series in the baseline with no candidate record. A gate
  /// that silently skips the very series it exists to gate is a silent
  /// pass — an integrity failure unless the caller explicitly allows
  /// reduced coverage (a size-capped CI smoke run).
  std::vector<BenchRecord> missing_rates;
  /// Rate series in the candidate with no baseline record: perf data
  /// flowing past the gate ungated (typically a bench whose baseline
  /// was never committed). Integrity failure unless allowed — a capped
  /// smoke run may also measure points the full-scale baseline lacks.
  std::vector<BenchRecord> extra_rates;
  /// Count series in the baseline with no candidate record, and in the
  /// candidate with no baseline record: the same integrity failures as
  /// their rate counterparts, under the same `allow_missing` policy.
  std::vector<BenchRecord> missing_counts;
  std::vector<BenchRecord> extra_counts;
  /// Records (either side) whose value is NaN or infinite. Every ratio
  /// comparison against such a value is vacuously false, so a NaN
  /// candidate would sail through the regression gate; always an
  /// integrity failure, never allowed.
  std::vector<BenchRecord> non_finite;

  [[nodiscard]] std::size_t regressions() const;
  /// Count of integrity failures under the given policy: `non_finite`
  /// always counts; the missing and extra rate and count series only
  /// when `allow_missing` is false.
  [[nodiscard]] std::size_t integrity_failures(bool allow_missing) const;
};

/// Compares candidate against baseline at fractional `tolerance`
/// (0.10 = a rate metric may be up to 10% slower before it counts as a
/// regression; a count metric must match exactly).
[[nodiscard]] BenchCompareReport compare_benchmarks(
    const std::vector<BenchRecord>& baseline,
    const std::vector<BenchRecord>& candidate, double tolerance);

/// Human-readable summary (one line per comparison; regressions and
/// integrity failures marked, the latter downgraded to warnings where
/// `allow_missing` applies).
[[nodiscard]] std::string render_comparison(const BenchCompareReport& report,
                                            double tolerance,
                                            bool allow_missing = false);

/// The exit-code policy tools/bench_compare.cpp ships: 0 pass,
/// 1 regression (a slower rate or a changed count), 3 integrity failure
/// (missing/extra rate or count series unless allowed, non-finite
/// values always). Integrity outranks regression —
/// a gate that cannot trust its inputs must not report a mere slowdown.
/// (2 is reserved for usage / I/O errors, decided before comparison.)
[[nodiscard]] int compare_exit_code(const BenchCompareReport& report,
                                    bool allow_missing);

}  // namespace ssmwn::util
