#include "util/bench_baseline.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace ssmwn::util {
namespace {

/// Minimal scanner over the fixed JsonReport shape. Whitespace-tolerant,
/// order-sensitive (the writer always emits name, n, threads, metric,
/// value in that order).
struct Scanner {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  /// Consumes `"key":` (quotes included) at the cursor.
  bool key(std::string_view k) {
    skip_ws();
    const std::string want = "\"" + std::string(k) + "\"";
    if (text.substr(pos, want.size()) != want) return false;
    pos += want.size();
    return consume(':');
  }

  bool string_value(std::string& out) {
    if (!consume('"')) return false;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != '"') ++pos;
    if (pos >= text.size()) return false;
    out.assign(text.substr(start, pos - start));
    ++pos;  // closing quote
    return true;
  }

  bool number_value(double& out) {
    skip_ws();
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc{}) return false;
    pos = static_cast<std::size_t>(res.ptr - text.data());
    return true;
  }
};

}  // namespace

bool same_series(const BenchRecord& a, const BenchRecord& b) {
  return a.bench == b.bench && a.name == b.name && a.metric == b.metric &&
         a.n == b.n && a.threads == b.threads;
}

bool is_rate_metric(std::string_view metric) {
  return metric.find("/s") != std::string_view::npos;
}

bool is_count_metric(std::string_view metric) { return metric == "count"; }

bool parse_bench_json(std::string_view text, std::vector<BenchRecord>& out,
                      std::string& error) {
  Scanner s{text};
  std::string bench;
  if (!s.consume('{') || !s.key("bench") || !s.string_value(bench) ||
      !s.consume(',') || !s.key("records") || !s.consume('[')) {
    error = "malformed header (expected {\"bench\": ..., \"records\": [...)";
    return false;
  }
  s.skip_ws();
  if (s.consume(']')) return true;  // empty report
  do {
    BenchRecord r;
    r.bench = bench;
    double n = 0.0, threads = 0.0;
    if (!s.consume('{') || !s.key("name") || !s.string_value(r.name) ||
        !s.consume(',') || !s.key("n") || !s.number_value(n) ||
        !s.consume(',') || !s.key("threads") || !s.number_value(threads) ||
        !s.consume(',') || !s.key("metric") || !s.string_value(r.metric) ||
        !s.consume(',') || !s.key("value") || !s.number_value(r.value) ||
        !s.consume('}')) {
      error = "malformed record #" + std::to_string(out.size());
      return false;
    }
    r.n = static_cast<std::size_t>(n);
    r.threads = static_cast<unsigned>(threads);
    out.push_back(std::move(r));
  } while (s.consume(','));
  if (!s.consume(']')) {
    error = "unterminated records array";
    return false;
  }
  return true;
}

bool load_bench_dir(const std::string& dir, std::vector<BenchRecord>& out,
                    std::string& error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    error = dir + " is not a directory";
    return false;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("BENCH_") &&
        name.ends_with(".json")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    if (!in) {
      error = "cannot read " + path.string();
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string parse_error;
    if (!parse_bench_json(buffer.str(), out, parse_error)) {
      error = path.string() + ": " + parse_error;
      return false;
    }
  }
  return true;
}

std::size_t BenchCompareReport::regressions() const {
  std::size_t count = 0;
  for (const auto& c : compared) count += c.regression;
  return count;
}

std::size_t BenchCompareReport::integrity_failures(bool allow_missing) const {
  std::size_t count = non_finite.size();
  if (!allow_missing) {
    count += missing_rates.size() + extra_rates.size() +
             missing_counts.size() + extra_counts.size();
  }
  return count;
}

BenchCompareReport compare_benchmarks(
    const std::vector<BenchRecord>& baseline,
    const std::vector<BenchRecord>& candidate, double tolerance) {
  BenchCompareReport report;
  for (const BenchRecord& base : baseline) {
    if (!std::isfinite(base.value)) report.non_finite.push_back(base);
    const auto match =
        std::find_if(candidate.begin(), candidate.end(),
                     [&](const BenchRecord& c) { return same_series(c, base); });
    const bool rate = is_rate_metric(base.metric);
    const bool count = is_count_metric(base.metric);
    if (match == candidate.end()) {
      report.unmatched.push_back(base);
      if (rate) report.missing_rates.push_back(base);
      if (count) report.missing_counts.push_back(base);
      continue;
    }
    BenchComparison cmp;
    cmp.baseline = base;
    cmp.candidate_value = match->value;
    cmp.ratio = base.value != 0.0 ? match->value / base.value : 1.0;
    cmp.gated = (rate && base.value > 0.0) || count;
    cmp.regression = count ? match->value != base.value
                           : cmp.gated && cmp.ratio < 1.0 - tolerance;
    report.compared.push_back(std::move(cmp));
  }
  for (const BenchRecord& cand : candidate) {
    if (!std::isfinite(cand.value)) report.non_finite.push_back(cand);
    const bool rate = is_rate_metric(cand.metric);
    const bool count = is_count_metric(cand.metric);
    if (!rate && !count) continue;
    const auto match =
        std::find_if(baseline.begin(), baseline.end(),
                     [&](const BenchRecord& b) { return same_series(b, cand); });
    if (match != baseline.end()) continue;
    (rate ? report.extra_rates : report.extra_counts).push_back(cand);
  }
  return report;
}

std::string render_comparison(const BenchCompareReport& report,
                              double tolerance, bool allow_missing) {
  std::ostringstream out;
  out << "bench_compare: " << report.compared.size() << " series, tolerance "
      << tolerance * 100.0 << "%\n";
  const auto series = [&out](const BenchRecord& b) -> std::ostringstream& {
    out << b.bench << " / " << b.name << " [" << b.metric << ", n=" << b.n
        << ", threads=" << b.threads << "]";
    return out;
  };
  for (const auto& c : report.compared) {
    if (is_count_metric(c.baseline.metric)) {
      // Counts are exact: print every digit.
      out << (c.regression ? "  MISMATCH   " : "  ok         ");
      series(c.baseline) << ": " << std::setprecision(17) << c.baseline.value
                         << " -> " << c.candidate_value
                         << std::setprecision(6) << " (exact)\n";
      continue;
    }
    out << (c.regression ? "  REGRESSION " : (c.gated ? "  ok         "
                                                      : "  (info)     "));
    series(c.baseline) << ": " << c.baseline.value << " -> "
                       << c.candidate_value << " (" << c.ratio * 100.0
                       << "%)\n";
  }
  for (const auto& b : report.unmatched) {
    const bool gated = is_rate_metric(b.metric) || is_count_metric(b.metric);
    out << (gated ? (allow_missing ? "  missing-ok " : "  MISSING    ")
                  : "  (info)     ");
    series(b) << ": no candidate record"
              << (gated ? (allow_missing ? " (allowed by --allow-missing)"
                                         : " — gated series vanished")
                        : " (warn only)")
              << "\n";
  }
  const auto extra = [&](const std::vector<BenchRecord>& records,
                         const char* kind) {
    for (const auto& b : records) {
      out << (allow_missing ? "  extra-ok   " : "  EXTRA      ");
      series(b) << ": candidate " << kind << " series has no baseline"
                << (allow_missing
                        ? " (allowed by --allow-missing)"
                        : " — commit a baseline or drop the series")
                << "\n";
    }
  };
  extra(report.extra_rates, "rate");
  extra(report.extra_counts, "count");
  for (const auto& b : report.non_finite) {
    out << "  NON-FINITE ";
    series(b) << ": value " << b.value << " is not a number\n";
  }
  const std::size_t bad = report.regressions();
  const std::size_t broken = report.integrity_failures(allow_missing);
  if (broken > 0) {
    out << "FAIL: " << broken << " integrity failure(s) — the gate cannot "
        << "trust its inputs\n";
  } else if (bad > 0) {
    out << "FAIL: " << bad << " gated metric(s) regressed (rates beyond "
        << tolerance * 100.0 << "%, counts at all)\n";
  } else {
    out << "PASS: no rate regressed beyond " << tolerance * 100.0
        << "% and every count matched\n";
  }
  return out.str();
}

int compare_exit_code(const BenchCompareReport& report, bool allow_missing) {
  if (report.integrity_failures(allow_missing) > 0) return 3;
  return report.regressions() > 0 ? 1 : 0;
}

}  // namespace ssmwn::util
