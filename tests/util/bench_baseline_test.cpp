// The bench-baseline comparator's semantics, pinned as unit tests —
// including the acceptance scenario: a deliberate 20% ticks/s slowdown
// MUST fail the 10% gate. CI runs the same logic through
// tools/bench_compare; these tests are the permanent, machine-
// independent encoding of that check (the live CI gate necessarily runs
// with a looser tolerance because shared runners are noisy).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "util/bench_baseline.hpp"

namespace ssmwn {
namespace {

// Exactly the shape bench::JsonReport::write emits.
constexpr const char* kBaselineJson = R"({
  "bench": "dirty_stepping",
  "records": [
    {"name": "full", "n": 100000, "threads": 1, "metric": "ticks/s", "value": 120.5},
    {"name": "dirty", "n": 100000, "threads": 1, "metric": "ticks/s", "value": 2400},
    {"name": "dirty", "n": 100000, "threads": 1, "metric": "speedup", "value": 19.9}
  ]
})";

std::vector<util::BenchRecord> parse(const char* text) {
  std::vector<util::BenchRecord> out;
  std::string error;
  const bool ok = util::parse_bench_json(text, out, error);
  EXPECT_TRUE(ok) << error;
  return out;
}

std::vector<util::BenchRecord> scaled(double factor) {
  auto records = parse(kBaselineJson);
  for (auto& r : records) r.value *= factor;
  return records;
}

TEST(BenchBaseline, ParsesJsonReportShape) {
  const auto records = parse(kBaselineJson);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].bench, "dirty_stepping");
  EXPECT_EQ(records[0].name, "full");
  EXPECT_EQ(records[0].metric, "ticks/s");
  EXPECT_EQ(records[0].n, 100000u);
  EXPECT_EQ(records[0].threads, 1u);
  EXPECT_DOUBLE_EQ(records[0].value, 120.5);
  EXPECT_DOUBLE_EQ(records[1].value, 2400.0);
}

TEST(BenchBaseline, RejectsMalformedInput) {
  std::vector<util::BenchRecord> out;
  std::string error;
  EXPECT_FALSE(util::parse_bench_json("{\"records\": []}", out, error));
  EXPECT_FALSE(util::parse_bench_json(
      "{\"bench\": \"x\", \"records\": [{\"name\": \"a\"}]}", out, error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchBaseline, TwentyPercentSlowdownFailsTheTenPercentGate) {
  // The acceptance criterion, verbatim: a deliberately injected 20%
  // slowdown must trip the comparator at the default 10% tolerance.
  const auto baseline = parse(kBaselineJson);
  const auto report =
      util::compare_benchmarks(baseline, scaled(0.8), /*tolerance=*/0.10);
  // Both ticks/s series regressed; the "speedup" ratio is not a rate
  // metric and must stay informational.
  EXPECT_EQ(report.regressions(), 2u);
  for (const auto& c : report.compared) {
    EXPECT_EQ(c.regression, c.baseline.metric == "ticks/s");
    EXPECT_EQ(c.gated, c.baseline.metric == "ticks/s");
  }
}

TEST(BenchBaseline, SmallNoiseAndImprovementsPass) {
  const auto baseline = parse(kBaselineJson);
  EXPECT_EQ(util::compare_benchmarks(baseline, scaled(0.95), 0.10)
                .regressions(),
            0u);
  EXPECT_EQ(util::compare_benchmarks(baseline, scaled(1.5), 0.10)
                .regressions(),
            0u);
}

TEST(BenchBaseline, ToleranceOverrideLoosensTheGate) {
  // The CI knob (SSMWN_BENCH_TOLERANCE → the tool's tolerance argument):
  // at 25% the same 20% slowdown passes.
  const auto baseline = parse(kBaselineJson);
  EXPECT_EQ(util::compare_benchmarks(baseline, scaled(0.8), 0.25)
                .regressions(),
            0u);
}

TEST(BenchBaseline, MissingRateSeriesIsAnIntegrityFailure) {
  // Regression for the silent-pass case: dropping the very ticks/s
  // series the gate exists to watch used to warn and exit 0. It is now
  // an integrity failure (exit 3) unless --allow-missing says a
  // reduced-scale smoke run is expected to cover fewer points.
  const auto baseline = parse(kBaselineJson);
  std::vector<util::BenchRecord> candidate{baseline[0]};
  const auto report = util::compare_benchmarks(baseline, candidate, 0.10);
  EXPECT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.unmatched.size(), 2u);
  // Of the two unmatched series only "dirty ticks/s" is a rate; the
  // "speedup" ratio stays informational.
  ASSERT_EQ(report.missing_rates.size(), 1u);
  EXPECT_EQ(report.missing_rates[0].name, "dirty");
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.integrity_failures(/*allow_missing=*/false), 1u);
  EXPECT_EQ(report.integrity_failures(/*allow_missing=*/true), 0u);
  EXPECT_EQ(util::compare_exit_code(report, /*allow_missing=*/false), 3);
  EXPECT_EQ(util::compare_exit_code(report, /*allow_missing=*/true), 0);
}

TEST(BenchBaseline, ExtraCandidateRateSeriesIsAnIntegrityFailure) {
  // The vice-versa silent pass: a candidate rate series with no
  // baseline is perf data flowing past the gate ungated (a bench whose
  // baseline was never committed) — it used to be ignored entirely.
  const auto baseline = parse(kBaselineJson);
  auto candidate = baseline;
  candidate.push_back(parse(R"({
    "bench": "sharded_steps",
    "records": [
      {"name": "sharded", "n": 1000000, "threads": 4, "metric": "ticks/s", "value": 12.5}
    ]
  })")[0]);
  // A non-rate extra stays invisible to the gate.
  candidate.push_back(parse(R"({
    "bench": "sharded_steps",
    "records": [
      {"name": "sharded", "n": 1000000, "threads": 4, "metric": "boundary_fraction", "value": 0.03}
    ]
  })")[0]);
  const auto report = util::compare_benchmarks(baseline, candidate, 0.10);
  ASSERT_EQ(report.extra_rates.size(), 1u);
  EXPECT_EQ(report.extra_rates[0].bench, "sharded_steps");
  EXPECT_EQ(report.integrity_failures(false), 1u);
  EXPECT_EQ(report.integrity_failures(true), 0u);
  EXPECT_EQ(util::compare_exit_code(report, false), 3);
  EXPECT_EQ(util::compare_exit_code(report, true), 0);
}

TEST(BenchBaseline, NonFiniteValuesNeverPass) {
  // NaN poisons every ratio comparison into `false`, so a NaN candidate
  // used to sail through the regression gate as a pass. The parser
  // accepts the token (a bench that divided by zero writes it) and the
  // comparator must flag it regardless of --allow-missing.
  const auto baseline = parse(kBaselineJson);
  auto nan_candidate = parse(R"({
    "bench": "dirty_stepping",
    "records": [
      {"name": "full", "n": 100000, "threads": 1, "metric": "ticks/s", "value": nan},
      {"name": "dirty", "n": 100000, "threads": 1, "metric": "ticks/s", "value": 2400},
      {"name": "dirty", "n": 100000, "threads": 1, "metric": "speedup", "value": 19.9}
    ]
  })");
  ASSERT_EQ(nan_candidate.size(), 3u);
  const auto report = util::compare_benchmarks(baseline, nan_candidate, 0.10);
  // The NaN comparison itself must not read as a regression pass...
  EXPECT_EQ(report.regressions(), 0u);
  // ...because it reads as an integrity failure, even with the smoke
  // policy in force.
  ASSERT_EQ(report.non_finite.size(), 1u);
  EXPECT_EQ(report.non_finite[0].name, "full");
  EXPECT_EQ(util::compare_exit_code(report, /*allow_missing=*/true), 3);
  EXPECT_EQ(util::compare_exit_code(report, /*allow_missing=*/false), 3);

  // Infinities are just as poisonous, on either side.
  auto inf_baseline = baseline;
  inf_baseline[0].value = std::numeric_limits<double>::infinity();
  const auto rep2 =
      util::compare_benchmarks(inf_baseline, parse(kBaselineJson), 0.10);
  EXPECT_GE(rep2.non_finite.size(), 1u);
  EXPECT_EQ(util::compare_exit_code(rep2, true), 3);
}

TEST(BenchBaseline, IntegrityOutranksRegression) {
  // When the inputs are untrustworthy *and* slower, report the broken
  // gate (exit 3), not the slowdown (exit 1).
  const auto baseline = parse(kBaselineJson);
  auto candidate = scaled(0.5);
  candidate.pop_back();  // drop "speedup" (info — no integrity hit)
  candidate[1].value = std::numeric_limits<double>::quiet_NaN();
  const auto report = util::compare_benchmarks(baseline, candidate, 0.10);
  EXPECT_GT(report.regressions(), 0u);
  EXPECT_EQ(util::compare_exit_code(report, true), 3);
}

TEST(BenchBaseline, SeriesMatchingUsesAllKeyFields) {
  auto baseline = parse(kBaselineJson);
  auto candidate = baseline;
  candidate[0].threads = 8;  // different series now
  const auto report = util::compare_benchmarks(baseline, candidate, 0.10);
  ASSERT_EQ(report.unmatched.size(), 1u);
  EXPECT_EQ(report.unmatched[0].name, "full");
  // The 8-thread candidate row is itself an unmatched rate series.
  ASSERT_EQ(report.extra_rates.size(), 1u);
  EXPECT_EQ(report.extra_rates[0].threads, 8u);
}

// Work counters of a seeded run (rows reused, shards skipped, ...) are
// the same on every machine, so the gate holds them to exact equality:
// any change, up or down, is a mismatch — it means the engine did
// different work, which a rate tolerance must not hide.
constexpr const char* kCountJson = R"({
  "bench": "sharded_steps",
  "records": [
    {"name": "poisson/unsharded-rows-reused", "n": 10096, "threads": 1, "metric": "count", "value": 201502},
    {"name": "poisson/unsharded", "n": 10096, "threads": 1, "metric": "steps/s", "value": 1920.9}
  ]
})";

TEST(BenchBaseline, CountMetricsAreGatedForExactEquality) {
  const auto baseline = parse(kCountJson);
  auto same = baseline;
  same[1].value *= 0.95;  // rate noise inside the tolerance
  auto report = util::compare_benchmarks(baseline, same, 0.10);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_TRUE(report.compared[0].gated);
  EXPECT_EQ(util::compare_exit_code(report, false), 0);

  for (const double delta : {1.0, -1.0, 1000.0}) {
    auto changed = baseline;
    changed[0].value += delta;
    report = util::compare_benchmarks(baseline, changed, 0.10);
    EXPECT_EQ(report.regressions(), 1u) << "delta " << delta;
    EXPECT_TRUE(report.compared[0].regression) << "delta " << delta;
    EXPECT_EQ(util::compare_exit_code(report, true), 1) << "delta " << delta;
  }
  // Even a tolerance that waves every rate through leaves counts exact.
  auto changed = baseline;
  changed[0].value += 1.0;
  EXPECT_EQ(util::compare_benchmarks(baseline, changed, 0.99).regressions(),
            1u);
  EXPECT_NE(util::render_comparison(
                util::compare_benchmarks(baseline, changed, 0.10), 0.10)
                .find("MISMATCH"),
            std::string::npos);
}

TEST(BenchBaseline, MissingOrExtraCountSeriesFollowsAllowMissing) {
  const auto baseline = parse(kCountJson);
  const std::vector<util::BenchRecord> missing{baseline[1]};
  auto report = util::compare_benchmarks(baseline, missing, 0.10);
  ASSERT_EQ(report.missing_counts.size(), 1u);
  EXPECT_TRUE(report.missing_rates.empty());
  EXPECT_EQ(util::compare_exit_code(report, false), 3);
  EXPECT_EQ(util::compare_exit_code(report, true), 0);

  auto extra = baseline;
  extra.push_back(baseline[0]);
  extra.back().name = "poisson/unsharded-shards-skipped";
  report = util::compare_benchmarks(baseline, extra, 0.10);
  ASSERT_EQ(report.extra_counts.size(), 1u);
  EXPECT_TRUE(report.extra_rates.empty());
  EXPECT_EQ(util::compare_exit_code(report, false), 3);
  EXPECT_EQ(util::compare_exit_code(report, true), 0);
}

TEST(BenchBaseline, RateMetricDetection) {
  EXPECT_TRUE(util::is_rate_metric("ticks/s"));
  EXPECT_TRUE(util::is_rate_metric("updates/s"));
  EXPECT_FALSE(util::is_rate_metric("seconds"));
  EXPECT_FALSE(util::is_rate_metric("speedup"));
  EXPECT_FALSE(util::is_rate_metric("clusters"));
  EXPECT_TRUE(util::is_count_metric("count"));
  EXPECT_FALSE(util::is_count_metric("steps/s"));
  EXPECT_FALSE(util::is_count_metric("counts"));
}

}  // namespace
}  // namespace ssmwn
