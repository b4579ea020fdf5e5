/**
 * @file
 * Small shared helpers of the repository benchmark: clocks, process
 * resource usage, the percentile rule, a portable seeded generator and
 * the FNV-1a digest used for input and answer fingerprints.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
double nowS();

/// Process user + system CPU seconds so far (all threads).
double cpuS();

/// Peak resident set size of the process in MiB.
double peakRssMb();

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> samples, double p);

/// Median (percentile 0.5).
inline double median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/**
 * The highest of the percentiles 0.5, 0.9, 0.99 and 0.999 that has at
 * least ten samples beyond it in a set of @p n samples; 0 when even the
 * median has fewer than ten above it (n < 20).
 */
double highestReportablePercentile(std::size_t n);

/// Geometric mean of positive values (0 when empty or any value <= 0).
double geomean(const std::vector<double> &values);

/**
 * SplitMix64: the benchmark's input generator. Its output depends only
 * on the seed and the call sequence (no standard-library distribution
 * is involved), so a seed yields byte-identical inputs with any
 * compiler and standard library.
 */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /// Uniform integer in [0, n) (n > 0).
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /// Uniform double in [0, 1) with 53 random bits.
    double unit();

  private:
    std::uint64_t state_;
};

/// FNV-1a over a byte string, continuing from @p hash.
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t hash = 1469598103934665603ull);

/// 16-digit lowercase hex rendering of a 64-bit value.
std::string hex64(std::uint64_t value);

}  // namespace perfbench
