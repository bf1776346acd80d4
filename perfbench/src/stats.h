// Order statistics for the benchmark's step timings.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

double median(std::vector<double> samples);

// The highest sample percentile that still has at least `min_beyond`
// samples strictly above it in rank order: with n sorted samples this is
// the sample at index n - 1 - min_beyond. `percentile` is the share of
// samples at or below it, in percent. Empty when n <= min_beyond.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
std::optional<Tail> tail(std::vector<double> samples,
                         std::size_t min_beyond = 10);

}  // namespace perfbench
