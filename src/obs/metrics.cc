#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace edgert::obs {

namespace metrics_detail {

namespace {

/** Precomputed bucket upper bounds (8 per decade from 1e-3). */
const std::array<double, HistogramCell::kBuckets> &
bucketBounds()
{
    static const auto bounds = [] {
        std::array<double, HistogramCell::kBuckets> b{};
        for (int i = 0; i < HistogramCell::kBuckets; i++)
            b[static_cast<std::size_t>(i)] =
                HistogramCell::kFirstUpper *
                std::pow(10.0, i / 8.0);
        return b;
    }();
    return bounds;
}

// Binary exponents of values above kFirstUpper that can land
// below the overflow bucket: 2^-10 < 1e-3, and 2^30 is past the last
// bound.
constexpr int kMinExp = -10;
constexpr int kMaxExp = 30;

/** Per binary exponent k in [kMinExp, kMaxExp): the first bucket
 *  whose upper bound is >= 2^k. */
const std::array<int, kMaxExp - kMinExp> &
octaveStarts()
{
    static const auto starts = [] {
        std::array<int, kMaxExp - kMinExp> a{};
        const auto &bounds = bucketBounds();
        for (int k = kMinExp; k < kMaxExp; k++)
            a[static_cast<std::size_t>(k - kMinExp)] = static_cast<int>(
                std::lower_bound(bounds.begin(), bounds.end(),
                                 std::ldexp(1.0, k)) -
                bounds.begin());
        return a;
    }();
    return starts;
}

} // namespace

double
HistogramCell::upperBound(int bucket)
{
    return bucketBounds()[static_cast<std::size_t>(bucket)];
}

int
HistogramCell::bucketIndex(double v)
{
    // NaN compares false, and so lands in bucket 0 as it does under
    // std::lower_bound.
    if (!(v > kFirstUpper))
        return 0;
    // v lies in [2^k, 2^(k+1)), so its bucket is at or after the first
    // one whose bound is >= 2^k. An octave holds 8 log10(2) < 3
    // bounds, so at most three are stepped over from there. v is
    // normal here, so k is its biased exponent field less the bias;
    // +inf reads as 1024 and overflows.
    const int k =
        static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff) -
        1023;
    if (k >= kMaxExp)
        return kBuckets;
    const auto &bounds = bucketBounds();
    int i = octaveStarts()[static_cast<std::size_t>(k - kMinExp)];
    while (i < kBuckets && bounds[static_cast<std::size_t>(i)] < v)
        i++;
    return i;
}

void
HistogramCell::record(std::span<const double> values)
{
    std::lock_guard<std::mutex> lock(mu);
    for (double v : values)
        recordLocked(v);
}

void
HistogramCell::recordLocked(double v)
{
    if (!std::isfinite(v))
        return;
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    count++;
    sum += v;
    if (count <= kExactCap) {
        exact.push_back(v);
    } else if (!exact.empty()) {
        exact.clear();
        exact.shrink_to_fit();
    }
    buckets[static_cast<std::size_t>(bucketIndex(v))]++;
}

void
HistogramCell::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    count = 0;
    sum = 0.0;
    min = 0.0;
    max = 0.0;
    buckets.fill(0);
    exact.clear();
    exact.shrink_to_fit();
}

double
HistogramCell::percentileLocked(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count)));
    rank = std::max<std::uint64_t>(rank, 1);
    if (exactLocked()) {
        // Small sample: exact nearest-rank over the raw values.
        std::vector<double> sorted = exact;
        std::sort(sorted.begin(), sorted.end());
        return sorted[static_cast<std::size_t>(rank - 1)];
    }
    std::uint64_t cum = 0;
    for (int i = 0; i <= kBuckets; i++) {
        cum += buckets[static_cast<std::size_t>(i)];
        if (cum >= rank) {
            double rep;
            if (i >= kBuckets) {
                rep = max;
            } else {
                double ub = upperBound(i);
                double lb = i == 0 ? ub * 0.1 : upperBound(i - 1);
                rep = std::sqrt(lb * ub); // geometric midpoint
            }
            return std::clamp(rep, min, max);
        }
    }
    return max;
}

} // namespace metrics_detail

std::uint64_t
Histogram::count() const
{
    if (!cell_)
        return 0;
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->count;
}

double
Histogram::sum() const
{
    if (!cell_)
        return 0.0;
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->sum;
}

double
Histogram::min() const
{
    if (!cell_)
        return 0.0;
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->min;
}

double
Histogram::max() const
{
    if (!cell_)
        return 0.0;
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->max;
}

double
Histogram::percentile(double p) const
{
    if (!cell_)
        return 0.0;
    std::lock_guard<std::mutex> lock(cell_->mu);
    return cell_->percentileLocked(p);
}

std::string
MetricRegistry::key(const std::string &name, const Labels &labels)
{
    if (name.empty())
        fatal("MetricRegistry: empty metric name");
    if (labels.empty())
        return name;
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string k = name + "{";
    for (std::size_t i = 0; i < sorted.size(); i++) {
        if (i)
            k += ",";
        k += sorted[i].first + "=" + sorted[i].second;
    }
    k += "}";
    return k;
}

Counter
MetricRegistry::counter(const std::string &name,
                        const Labels &labels)
{
    std::string k = key(name, labels);
    std::lock_guard<std::mutex> lock(mu_);
    if (gauges_.count(k) || histograms_.count(k))
        fatal("metric '", k, "' already registered as another kind");
    auto it = counters_.find(k);
    if (it == counters_.end())
        it = counters_
                 .emplace(std::move(k),
                          std::make_unique<
                              metrics_detail::CounterCell>())
                 .first;
    return Counter(it->second.get());
}

Gauge
MetricRegistry::gauge(const std::string &name, const Labels &labels)
{
    std::string k = key(name, labels);
    std::lock_guard<std::mutex> lock(mu_);
    if (counters_.count(k) || histograms_.count(k))
        fatal("metric '", k, "' already registered as another kind");
    auto it = gauges_.find(k);
    if (it == gauges_.end())
        it = gauges_
                 .emplace(std::move(k),
                          std::make_unique<
                              metrics_detail::GaugeCell>())
                 .first;
    return Gauge(it->second.get());
}

Histogram
MetricRegistry::histogram(const std::string &name,
                          const Labels &labels)
{
    std::string k = key(name, labels);
    std::lock_guard<std::mutex> lock(mu_);
    if (counters_.count(k) || gauges_.count(k))
        fatal("metric '", k, "' already registered as another kind");
    auto it = histograms_.find(k);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(std::move(k),
                          std::make_unique<
                              metrics_detail::HistogramCell>())
                 .first;
    return Histogram(it->second.get());
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[k, cell] : counters_)
        cell->value.store(0, std::memory_order_relaxed);
    for (auto &[k, cell] : gauges_)
        cell->value.store(0.0, std::memory_order_relaxed);
    for (auto &[k, cell] : histograms_)
        cell->reset();
}

std::size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

namespace {

/** Value-type copy of a HistogramCell's state for lock staging. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t,
               metrics_detail::HistogramCell::kBuckets + 1>
        buckets{};
    std::vector<double> exact;
};

} // namespace

void
MetricRegistry::mergeFrom(const MetricRegistry &src,
                          const std::string &prefix)
{
    // Stage the source under its own lock only, so self-merges and
    // concurrent cross-merges cannot deadlock.
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> hists;
    {
        std::lock_guard<std::mutex> lock(src.mu_);
        counters.reserve(src.counters_.size());
        for (const auto &[k, cell] : src.counters_)
            counters.emplace_back(
                k, cell->value.load(std::memory_order_relaxed));
        gauges.reserve(src.gauges_.size());
        for (const auto &[k, cell] : src.gauges_)
            gauges.emplace_back(
                k, cell->value.load(std::memory_order_relaxed));
        hists.reserve(src.histograms_.size());
        for (const auto &[k, cell] : src.histograms_) {
            std::lock_guard<std::mutex> hlock(cell->mu);
            HistogramSnapshot snap;
            snap.count = cell->count;
            snap.sum = cell->sum;
            snap.min = cell->min;
            snap.max = cell->max;
            snap.buckets = cell->buckets;
            snap.exact = cell->exact;
            hists.emplace_back(k, std::move(snap));
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[k, v] : counters) {
        std::string key = prefix + k;
        if (gauges_.count(key) || histograms_.count(key))
            fatal("mergeFrom: metric '", key,
                  "' already registered as another kind");
        auto it = counters_.find(key);
        if (it == counters_.end())
            it = counters_
                     .emplace(std::move(key),
                              std::make_unique<
                                  metrics_detail::CounterCell>())
                     .first;
        it->second->value.fetch_add(v, std::memory_order_relaxed);
    }
    for (const auto &[k, v] : gauges) {
        std::string key = prefix + k;
        if (counters_.count(key) || histograms_.count(key))
            fatal("mergeFrom: metric '", key,
                  "' already registered as another kind");
        auto it = gauges_.find(key);
        if (it == gauges_.end())
            it = gauges_
                     .emplace(std::move(key),
                              std::make_unique<
                                  metrics_detail::GaugeCell>())
                     .first;
        it->second->value.store(v, std::memory_order_relaxed);
    }
    for (const auto &[k, snap] : hists) {
        std::string key = prefix + k;
        if (counters_.count(key) || gauges_.count(key))
            fatal("mergeFrom: metric '", key,
                  "' already registered as another kind");
        auto it = histograms_.find(key);
        if (it == histograms_.end())
            it = histograms_
                     .emplace(std::move(key),
                              std::make_unique<
                                  metrics_detail::HistogramCell>())
                     .first;
        metrics_detail::HistogramCell &cell = *it->second;
        std::lock_guard<std::mutex> hlock(cell.mu);
        bool dst_exact = cell.count == cell.exact.size();
        bool src_exact = snap.count == snap.exact.size();
        std::uint64_t combined = cell.count + snap.count;
        if (snap.count > 0) {
            if (cell.count == 0) {
                cell.min = snap.min;
                cell.max = snap.max;
            } else {
                cell.min = std::min(cell.min, snap.min);
                cell.max = std::max(cell.max, snap.max);
            }
        }
        cell.count = combined;
        cell.sum += snap.sum;
        for (std::size_t i = 0; i < cell.buckets.size(); i++)
            cell.buckets[i] += snap.buckets[i];
        if (dst_exact && src_exact &&
            combined <=
                metrics_detail::HistogramCell::kExactCap) {
            cell.exact.insert(cell.exact.end(),
                              snap.exact.begin(),
                              snap.exact.end());
        } else if (!cell.exact.empty()) {
            cell.exact.clear();
            cell.exact.shrink_to_fit();
        }
    }
}

void
MetricRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[k, cell] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(k)
           << "\": "
           << cell->value.load(std::memory_order_relaxed);
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"gauges\": {";
    first = true;
    for (const auto &[k, cell] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(k)
           << "\": "
           << jsonNumber(
                  cell->value.load(std::memory_order_relaxed));
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"histograms\": {";
    first = true;
    for (const auto &[k, cell] : histograms_) {
        std::lock_guard<std::mutex> hlock(cell->mu);
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(k)
           << "\": {\"count\": " << cell->count << ", \"exact\": "
           << (cell->exactLocked() ? "true" : "false")
           << ", \"sum\": " << jsonNumber(cell->sum)
           << ", \"min\": " << jsonNumber(cell->min)
           << ", \"max\": " << jsonNumber(cell->max)
           << ", \"p50\": "
           << jsonNumber(cell->percentileLocked(0.50))
           << ", \"p95\": "
           << jsonNumber(cell->percentileLocked(0.95))
           << ", \"p99\": "
           << jsonNumber(cell->percentileLocked(0.99)) << "}";
        first = false;
    }
    os << (first ? "}\n" : "\n  }\n") << "}\n";
}

std::string
MetricRegistry::toJson() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

void
MetricRegistry::save(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        fatal("MetricRegistry::save: cannot open '", path, "'");
    writeJson(f);
}

namespace {

/** A canonical key split back into its name and label parts. */
struct ParsedKey
{
    std::string name;
    Labels labels;
};

/**
 * Invert MetricRegistry::key(). Safe for every label this codebase
 * emits (model/device/pass names); a label *value* containing ','
 * or '=' would be mis-split, which key() never protects against
 * either.
 */
ParsedKey
parseKey(const std::string &key)
{
    ParsedKey out;
    std::size_t brace = key.find('{');
    if (brace == std::string::npos) {
        out.name = key;
        return out;
    }
    out.name = key.substr(0, brace);
    std::string body =
        key.substr(brace + 1, key.size() - brace - 2);
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        std::string item = body.substr(pos, comma - pos);
        std::size_t eq = item.find('=');
        if (eq != std::string::npos)
            out.labels.emplace_back(item.substr(0, eq),
                                    item.substr(eq + 1));
        pos = comma + 1;
    }
    return out;
}

/** Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') ||
                  (c >= 'A' && c <= 'Z') || c == '_' || c == ':' ||
                  (c >= '0' && c <= '9' && !out.empty());
        out += ok ? c : '_';
    }
    if (out.empty())
        out = "_";
    return out;
}

/** Label-value escaping per the text exposition spec. */
std::string
promEscape(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** `{k="v",...}` rendering; "" when there are no labels. */
std::string
promLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); i++) {
        if (i)
            out += ",";
        out += promName(labels[i].first) + "=\"" +
               promEscape(labels[i].second) + "\"";
    }
    out += "}";
    return out;
}

/**
 * Sample lines grouped per family so each family gets one `# TYPE`
 * header even though `name` and `name{...}` need not be adjacent
 * in canonical key order (e.g. `namex` sorts between them).
 */
using FamilyLines = std::map<std::string, std::vector<std::string>>;

void
emitFamilies(std::ostream &os, const FamilyLines &families,
             const char *type)
{
    for (const auto &[fam, lines] : families) {
        os << "# TYPE " << fam << " " << type << "\n";
        for (const std::string &line : lines)
            os << line << "\n";
    }
}

} // namespace

void
MetricRegistry::writePromText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);

    FamilyLines counter_fams;
    for (const auto &[k, cell] : counters_) {
        ParsedKey pk = parseKey(k);
        std::string fam = promName(pk.name);
        counter_fams[fam].push_back(
            fam + promLabels(pk.labels) + " " +
            std::to_string(
                cell->value.load(std::memory_order_relaxed)));
    }
    emitFamilies(os, counter_fams, "counter");

    FamilyLines gauge_fams;
    for (const auto &[k, cell] : gauges_) {
        ParsedKey pk = parseKey(k);
        std::string fam = promName(pk.name);
        gauge_fams[fam].push_back(
            fam + promLabels(pk.labels) + " " +
            jsonNumber(
                cell->value.load(std::memory_order_relaxed)));
    }
    emitFamilies(os, gauge_fams, "gauge");

    // Histograms export as summaries: our log-scale buckets do not
    // match Prometheus's cumulative `le` convention, but quantiles,
    // _sum and _count translate directly.
    FamilyLines summary_fams;
    for (const auto &[k, cell] : histograms_) {
        ParsedKey pk = parseKey(k);
        std::string fam = promName(pk.name);
        auto &lines = summary_fams[fam];
        std::lock_guard<std::mutex> hlock(cell->mu);
        static constexpr struct
        {
            const char *label;
            double p;
        } kQuantiles[] = {
            {"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}};
        for (const auto &q : kQuantiles) {
            Labels with_q = pk.labels;
            with_q.emplace_back("quantile", q.label);
            lines.push_back(
                fam + promLabels(with_q) + " " +
                jsonNumber(cell->percentileLocked(q.p)));
        }
        lines.push_back(fam + "_sum" + promLabels(pk.labels) + " " +
                        jsonNumber(cell->sum));
        lines.push_back(fam + "_count" + promLabels(pk.labels) +
                        " " + std::to_string(cell->count));
    }
    emitFamilies(os, summary_fams, "summary");
}

std::string
MetricRegistry::toPromText() const
{
    std::ostringstream oss;
    writePromText(oss);
    return oss.str();
}

void
MetricRegistry::savePromText(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        fatal("MetricRegistry::savePromText: cannot open '", path,
              "'");
    writePromText(f);
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

} // namespace edgert::obs
