#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p * static_cast<double>(n);
  // A product within 1e-9 of an integer is that integer: p = 0.99 is stored
  // as 0.98999..., and its rank among 100 samples must still be 99.
  const double rounded = std::round(exact);
  const double rank =
      std::abs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

}  // namespace perfbench
