#ifndef EDGERT_OBS_METRICS_HH
#define EDGERT_OBS_METRICS_HH

/**
 * @file
 * MetricRegistry — thread-safe, label-aware counters, gauges and
 * histograms with a canonical JSON snapshot writer.
 *
 * Naming scheme: `subsystem.object.property[_unit]`, labels in
 * `{key=value}` form appended to the name to build the canonical
 * metric key (labels sorted by key, e.g.
 * `gpusim.memcpy.bytes{device=xavier-nx,dir=h2d}`).
 * Duration metrics are recorded in microseconds (`_us`), byte
 * counts in bytes, ratios in percent (`_pct`).
 *
 * The registry holds only values the simulation determines: counts,
 * simulated times and model outputs, fixed by (config, seed). Host
 * time (wall clock, worker scheduling) lives only in obs spans
 * (obs/trace.hh), so two processes given the same inputs write
 * byte-identical snapshots.
 *
 * Handles (Counter/Gauge/Histogram) are cheap value types pointing
 * into registry-owned cells; creating the same (name, labels) twice
 * returns a handle to the same cell. Cells live until the registry
 * dies — reset() zeroes values but never invalidates handles, so
 * long-lived instrumented objects (a GpuSim, a ThreadPool) can keep
 * their handles across snapshot/reset cycles.
 *
 * Determinism: counters and histogram bucket counts are
 * order-independent; histogram sums accumulate in call order, which
 * is simulation- or topological-order deterministic at every
 * instrumented seam. Snapshots are canonical (std::map-sorted keys,
 * shortest-round-trip number formatting), so equal metric state
 * always serializes to equal bytes.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace edgert::obs {

/** Metric labels: key=value pairs (any order; keys are sorted into
 *  the canonical metric key internally). */
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace metrics_detail {

struct CounterCell
{
    std::atomic<std::int64_t> value{0};
};

struct GaugeCell
{
    std::atomic<double> value{0.0};
};

/**
 * Fixed log-scale histogram: 8 buckets per decade from 1e-3 up to
 * ~7.5e8, plus an overflow bucket. Values <= the first upper bound
 * land in bucket 0. Percentiles are estimated as the geometric
 * midpoint of the bucket the rank falls in, clamped to the observed
 * min/max.
 */
struct HistogramCell
{
    static constexpr int kBuckets = 96;
    static constexpr double kFirstUpper = 1e-3;

    /** Up to this many samples the raw values are retained and
     *  percentiles are exact nearest-rank statistics; beyond it the
     *  reservoir is dropped and estimation falls back to the
     *  bucketed geometric midpoint. */
    static constexpr int kExactCap = 64;

    mutable std::mutex mu;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBuckets + 1> buckets{};
    std::vector<double> exact; //!< first kExactCap raw samples

    static double upperBound(int bucket);

    /** Bucket a finite @p v lands in: the first bucket whose upper
     *  bound is >= v (kBuckets for overflow), exactly what
     *  std::lower_bound over the bounds returns, found from the
     *  binary exponent of v and at most three bound compares. */
    static int bucketIndex(double v);

    /** Record each finite value of @p values in order, under one
     *  lock: the cell ends as after one record() call per value. */
    void record(std::span<const double> values);
    void reset();
    double percentileLocked(double p) const; //!< caller holds mu

    /** True while percentiles are exact (count <= kExactCap). */
    bool exactLocked() const
    {
        return count == exact.size();
    }

  private:
    void recordLocked(double v); //!< caller holds mu
};

} // namespace metrics_detail

/** Monotonic integer counter handle. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::int64_t delta = 1)
    {
        if (cell_)
            cell_->value.fetch_add(delta,
                                   std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return cell_ ? cell_->value.load(std::memory_order_relaxed)
                     : 0;
    }

  private:
    friend class MetricRegistry;
    explicit Counter(metrics_detail::CounterCell *cell)
        : cell_(cell)
    {}
    metrics_detail::CounterCell *cell_ = nullptr;
};

/** Last-value gauge handle. */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v)
    {
        if (cell_)
            cell_->value.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return cell_ ? cell_->value.load(std::memory_order_relaxed)
                     : 0.0;
    }

  private:
    friend class MetricRegistry;
    explicit Gauge(metrics_detail::GaugeCell *cell) : cell_(cell) {}
    metrics_detail::GaugeCell *cell_ = nullptr;
};

/** Log-scale-bucket distribution handle. */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(double v)
    {
        if (cell_)
            cell_->record({&v, 1});
    }

    /** Record a batch of values in order, taking the cell's lock
     *  once (hot loops buffer their samples and flush them here). */
    void
    recordBatch(std::span<const double> values)
    {
        if (cell_ && !values.empty())
            cell_->record(values);
    }

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;

    /** Estimated quantile, p in [0, 1] (e.g. 0.95). */
    double percentile(double p) const;

  private:
    friend class MetricRegistry;
    explicit Histogram(metrics_detail::HistogramCell *cell)
        : cell_(cell)
    {}
    metrics_detail::HistogramCell *cell_ = nullptr;
};

/**
 * Thread-safe registry of named metrics with canonical JSON
 * snapshots.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Get or create a metric. A name may only ever be used with
     *  one metric kind; reusing it across kinds is fatal(). */
    Counter counter(const std::string &name,
                    const Labels &labels = {});
    Gauge gauge(const std::string &name, const Labels &labels = {});
    Histogram histogram(const std::string &name,
                        const Labels &labels = {});

    /** Zero every metric; handles stay valid, keys stay listed. */
    void reset();

    /**
     * Merge another registry's current state into this one, key by
     * key, optionally prepending `prefix` to every metric *name*
     * (the sorted `{k=v,...}` label block is untouched, so merged
     * keys stay canonical and label ordering stays deterministic).
     * Counters add, gauges take the source value (last merge wins),
     * histograms combine count/sum/min/max and bucket counts; the
     * exact-percentile reservoir survives only while both sides are
     * exact and the combined count fits kExactCap, matching what a
     * replay of all record() calls would have retained. Missing
     * destination cells are created; reusing a merged key as a
     * different metric kind is fatal(), as in counter()/gauge()/
     * histogram(). The source is snapshotted before this registry
     * is locked, so merging a registry into itself under a prefix
     * is safe.
     */
    void mergeFrom(const MetricRegistry &src,
                   const std::string &prefix = "");

    /** Number of registered metric keys across all kinds. */
    std::size_t size() const;

    /**
     * Canonical JSON snapshot:
     * `{"counters":{...},"gauges":{...},"histograms":{...}}` with
     * sorted keys; histograms render
     * count/exact/sum/min/max/p50/p95/p99, where `exact` reports
     * whether the percentiles are nearest-rank statistics over the
     * retained raw samples (count <= HistogramCell::kExactCap)
     * rather than bucket-midpoint estimates.
     */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

    /** Write toJson() to a file; fatal() on I/O error. */
    void save(const std::string &path) const;

    /**
     * Prometheus text exposition (format 0.0.4): counters and
     * gauges as single samples, histograms as summaries (quantile
     * 0.5/0.95/0.99 plus `_sum`/`_count` series). Metric names are
     * sanitized (`.` and other invalid characters become `_`),
     * label values are escaped per the exposition spec, and each
     * family gets exactly one `# TYPE` line even when label sets
     * interleave with other families in canonical key order.
     */
    void writePromText(std::ostream &os) const;
    std::string toPromText() const;

    /** Write toPromText() to a file; fatal() on I/O error. */
    void savePromText(const std::string &path) const;

    /** The process-wide registry the built-in instrumentation
     *  records into. */
    static MetricRegistry &global();

    /** Canonical metric key: `name` or `name{k=v,...}`, keys
     *  sorted. Exposed for tests. */
    static std::string key(const std::string &name,
                           const Labels &labels);

  private:
    mutable std::mutex mu_;
    std::map<std::string,
             std::unique_ptr<metrics_detail::CounterCell>>
        counters_;
    std::map<std::string,
             std::unique_ptr<metrics_detail::GaugeCell>>
        gauges_;
    std::map<std::string,
             std::unique_ptr<metrics_detail::HistogramCell>>
        histograms_;
};

} // namespace edgert::obs

#endif // EDGERT_OBS_METRICS_HH
