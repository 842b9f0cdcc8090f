// CI regression gate over tracked bench baselines.
//
//   bench_compare <baseline_dir> <candidate_dir> [tolerance] [--allow-missing]
//
// Loads every BENCH_*.json from both directories, matches records by
// (bench, name, n, threads, metric), and exits nonzero when any rate
// metric ("/s") in the candidate run is more than `tolerance` slower
// than its baseline, or any count metric ("count": a seeded run's
// deterministic work counter) differs from its baseline at all. Tolerance defaults to 0.10 (10%); the positional
// argument or SSMWN_BENCH_TOLERANCE overrides it — CI machines are
// noisy, so the workflow passes a generous value while the unit tests
// (tests/util/bench_baseline_test.cpp) pin the comparison semantics
// exactly.
//
// Silent passes are integrity failures, not warnings: a rate or count
// series present in only one of the two runs, or any non-finite value, exits
// with its own code so CI can tell "slower" from "the gate didn't
// actually compare what it claims to". `--allow-missing` downgrades
// the one-sided cases for reduced-scale smoke runs (a size-capped run
// legitimately covers different n points than the full baseline);
// non-finite values are never allowed.
//
// Exit codes: 0 pass, 1 regression, 2 usage or I/O error,
// 3 integrity failure (missing/extra rate or count series, NaN/inf
// values).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/bench_baseline.hpp"
#include "util/env.hpp"

int main(int argc, char** argv) {
  using namespace ssmwn;
  bool allow_missing = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--allow-missing") == 0) {
      allow_missing = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline_dir> <candidate_dir> "
                 "[tolerance] [--allow-missing]\n");
    return 2;
  }
  double tolerance = 0.10;
  const std::string env = util::env_string("SSMWN_BENCH_TOLERANCE", "");
  if (!env.empty()) tolerance = std::strtod(env.c_str(), nullptr);
  if (positional.size() == 3) {
    tolerance = std::strtod(positional[2], nullptr);
  }
  if (!(tolerance > 0.0) || tolerance >= 1.0) {
    std::fprintf(stderr, "bench_compare: tolerance must be in (0, 1)\n");
    return 2;
  }

  std::vector<util::BenchRecord> baseline, candidate;
  std::string error;
  if (!util::load_bench_dir(positional[0], baseline, error)) {
    std::fprintf(stderr, "bench_compare: baseline: %s\n", error.c_str());
    return 2;
  }
  if (!util::load_bench_dir(positional[1], candidate, error)) {
    std::fprintf(stderr, "bench_compare: candidate: %s\n", error.c_str());
    return 2;
  }
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json under %s\n",
                 positional[0]);
    return 2;
  }

  const auto report = util::compare_benchmarks(baseline, candidate, tolerance);
  std::fputs(util::render_comparison(report, tolerance, allow_missing).c_str(),
             stdout);
  return util::compare_exit_code(report, allow_missing);
}
