// Order statistics of the benchmark's latency samples.
//
// Percentile rule: nearest rank. The p-quantile of n samples is the
// ceil(p * n)-th smallest sample (1-based), so every reported value is a
// measured sample and never an interpolation between two. A percentile is
// "supported" when at least ten samples lie above its rank; the benchmark
// prints the count beside each percentile so an unsupported one is visible.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile `p` (0 < p <= 1) among `n` samples;
/// 0 when n == 0. Robust to the binary rounding of p * n (0.99 * 100 is one
/// ulp below 99 on some inputs).
std::size_t nearest_rank(std::size_t n, double p);

/// Nearest-rank quantile `p` of `samples` (any order; copied and sorted).
/// 0 for an empty input.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest rank of `p`: n - nearest_rank(n, p).
std::size_t samples_beyond(std::size_t n, double p);

}  // namespace perfbench
