#ifndef EDGERT_BENCH_REPORT_HH
#define EDGERT_BENCH_REPORT_HH

/**
 * @file
 * saveBenchReport(): the standard BENCH_*.json envelope every bench
 * writes, so results are comparable across commits:
 *
 *   { "bench": "<name>", <body fields...>, "metrics": <registry> }
 *
 * The body is filled through common/json's JsonWriter. The trailing
 * "metrics" key embeds the obs::MetricRegistry snapshot, so benches
 * that reset the registry before their study ship exactly that
 * study's counters.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace edgert::bench {

/**
 * Write the standard bench report envelope to `path`: the `body`
 * callback fills the top-level object after its "bench" field, and
 * the global metric snapshot lands in a trailing "metrics" key.
 */
inline void
saveBenchReport(const std::string &path, const std::string &bench,
                const std::function<void(JsonWriter &)> &body,
                bool with_metrics = true)
{
    JsonWriter w;
    w.beginObject();
    w.field("bench", bench);
    body(w);
    if (with_metrics)
        w.key("metrics").raw(
            obs::MetricRegistry::global().toJson());
    w.endObject();

    std::ofstream f(path);
    if (!f)
        fatal("saveBenchReport: cannot open '", path, "'");
    f << w.str() << "\n";
    std::printf("machine-readable results written to %s\n",
                path.c_str());
}

} // namespace edgert::bench

#endif // EDGERT_BENCH_REPORT_HH
