#ifndef EDGERT_COMMON_STATS_HH
#define EDGERT_COMMON_STATS_HH

/**
 * @file
 * Small statistics helpers used by the measurement harnesses.
 */

#include <cstddef>
#include <vector>

namespace edgert {

/**
 * Streaming mean / variance accumulator (Welford's algorithm).
 * Numerically stable; O(1) memory.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples seen. */
    std::size_t count() const { return n_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample standard deviation; 0 with <2 samples. */
    double stddev() const;

    /** Sample variance (unbiased). */
    double variance() const;

    double min() const { return min_; }
    double max() const { return max_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of a vector; 0 when empty. */
double mean(const std::vector<double> &xs);

/** Unbiased sample standard deviation; 0 with <2 samples. */
double stddev(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile.
 * @param xs  Samples (copied and sorted internally).
 * @param p   Percentile in [0, 100].
 */
double percentile(std::vector<double> xs, double p);

/**
 * percentile() of samples already sorted ascending: sort once, then
 * read several percentiles of the same sample.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Standard normal CDF. */
double normalCdf(double x);

/**
 * Standard normal quantile (inverse CDF), Acklam's approximation
 * refined with one Halley step; |error| < 1e-9 on (0, 1).
 */
double normalQuantile(double p);

} // namespace edgert

#endif // EDGERT_COMMON_STATS_HH
