#include "stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<Tail> tail(std::vector<double> samples, std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t i = n - 1 - min_beyond;
  Tail t;
  t.value = samples[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  t.samples = n;
  t.beyond = n - 1 - i;
  return t;
}

}  // namespace perfbench
