// The benchmark's two metric sets, in report order. BENCHMARK.json at
// the repository root lists the same names and units.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricName {
  std::string name;
  std::string unit;
};

[[nodiscard]] const std::vector<MetricName>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench
