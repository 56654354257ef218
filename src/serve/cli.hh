#ifndef EDGERT_SERVE_CLI_HH
#define EDGERT_SERVE_CLI_HH

/**
 * @file
 * Command-line pieces the serving drivers (edgertserve, edgertfleet,
 * edgertstream) share: the `--model` spec grammar with its shared
 * keys, the kernel-trace flags and the report / metrics writers.
 * Each tool adds only its own keys and flags on top.
 *
 * A model spec is `name[@fp16|@int8|@mixed][:key=value]...`. Every
 * tool takes the engine keys (max_batch, timeout_us, instances,
 * calib_seed); the request-serving tools (serve, fleet) also take the
 * traffic keys (qps, slo_ms, arrival, burst_factor, period_s, duty).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "gpusim/sim.hh"
#include "nn/executor.hh"
#include "obs/trace.hh"
#include "serve/queue.hh"
#include "serve/workload.hh"

namespace edgert::serve {

struct ModelConfig;

/** Handles one `key=value` option; false for a key it does not know. */
using SpecKeyFn =
    std::function<bool(const std::string &key, const std::string &value)>;

/**
 * Split a --model spec: returns the model name, stores an `@precision`
 * suffix into `precision` and passes each option to `apply` in spec
 * order. fatal()s on an empty name, an option without `=` or a key
 * `apply` rejects.
 */
std::string splitModelSpec(const std::string &spec,
                           nn::Precision &precision,
                           const SpecKeyFn &apply);

/** Engine keys: max_batch, timeout_us, instances, calib_seed. */
bool applyEngineKey(const std::string &key, const std::string &value,
                    BatchPolicy &batching, int &instances,
                    std::uint64_t &calibration_seed);

/** Traffic keys: qps, slo_ms, arrival, burst_factor, period_s,
 *  duty. */
bool applyTrafficKey(const std::string &key, const std::string &value,
                     ArrivalConfig &arrivals, double &slo_ms);

/** edgertserve's --model spec: engine and traffic keys. */
ModelConfig parseModelSpec(const std::string &spec);

/** A comma-separated device list, e.g. "nx,agx" (parseDevice each). */
std::vector<gpusim::DeviceSpec> parseDevices(const std::string &list);

/**
 * Consume --duration-s, --seed, --ram-fraction or --sim-threads into
 * any serving config (serve, fleet or stream).
 */
template <class Config>
bool
parseRunFlag(FlagParser &flags, Config &cfg)
{
    if (flags.is("--duration-s"))
        cfg.duration_s = flags.numberValue();
    else if (flags.is("--seed"))
        cfg.seed = flags.unsignedValue();
    else if (flags.is("--ram-fraction"))
        cfg.ram_fraction = flags.numberValue();
    else if (flags.is("--sim-threads"))
        cfg.sim_threads = flags.positiveValue();
    else
        return false;
    return true;
}

/** --report-out, --metrics-out, --metrics-format and --quiet. */
struct OutputFlags
{
    std::string report_out;
    std::string metrics_out;
    std::string metrics_format = "json"; //!< json | prom

    /** Consume the current flag when it is one of the four; --quiet
     *  drops the log level to warnings and errors. */
    bool parse(FlagParser &flags);

    /**
     * Write the report and the global metric-registry snapshot where
     * requested, announcing each file (and a `--dump-trace` timeline
     * at `trace_out`) as "[<tool>] ..." progress lines.
     */
    void write(const char *tool, const std::string &report_json,
               const std::string &trace_out = "") const;
};

/** Parse a --trace-mode value: full | sampled | off. */
gpusim::TraceMode parseTraceMode(const std::string &mode);

/**
 * Consume --trace-mode, --trace-sample or --dump-trace into a serve
 * or stream config (trace_mode, trace_sample_every, trace_out);
 * --dump-trace also turns the host tracer on.
 */
template <class Config>
bool
parseTraceFlag(FlagParser &flags, Config &cfg)
{
    if (flags.is("--trace-mode"))
        cfg.trace_mode = parseTraceMode(flags.value());
    else if (flags.is("--trace-sample"))
        cfg.trace_sample_every = flags.positiveValue();
    else if (flags.is("--dump-trace")) {
        cfg.trace_out = flags.value();
        obs::Tracer::global().setEnabled(true);
    } else
        return false;
    return true;
}

/**
 * End a tool's flag loop on a flag no parser took: --list prints the
 * zoo models, --help / -h the usage, anything else is reported as an
 * unknown option followed by the usage. The tool then exits 0.
 */
void endFlags(const FlagParser &flags, void (*usage)());

/** Usage lines of the engine keys and of the traffic keys. */
extern const char kEngineKeysHelp[];
extern const char kTrafficKeysHelp[];

/** Usage lines of the flags parseTraceFlag takes. */
extern const char kTraceFlagsHelp[];

/** Usage lines of --sim-threads, the OutputFlags and endFlags. */
extern const char kOutputFlagsHelp[];

} // namespace edgert::serve

#endif // EDGERT_SERVE_CLI_HH
