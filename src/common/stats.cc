#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgert {

void
RunningStat::add(double x)
{
    n_++;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = max_ = x;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    std::size_t n = n_ + other.n_;
    double delta = other.mean_ - mean_;
    double mean = mean_ + delta * static_cast<double>(other.n_) /
                              static_cast<double>(n);
    m2_ = m2_ + other.m2_ +
          delta * delta * static_cast<double>(n_) *
              static_cast<double>(other.n_) / static_cast<double>(n);
    mean_ = mean;
    n_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    if (p <= 0.0 || p >= 1.0)
        fatal("normalQuantile: p must be in (0, 1), got ", p);

    // Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};

    const double p_low = 0.02425;
    double x;
    if (p < p_low) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
              c[4]) * q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r +
              a[4]) * r + a[5]) * q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r +
              b[4]) * r + 1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
               c[4]) * q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step.
    double e = normalCdf(x) - p;
    double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

double
percentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return percentileSorted(xs, p);
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        fatal("percentile of empty sample");
    if (p < 0.0 || p > 100.0)
        fatal("percentile p out of range: ", p);
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace edgert
