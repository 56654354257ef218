#include "serve/cli.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"

namespace edgert::serve {

std::string
splitModelSpec(const std::string &spec, nn::Precision &precision,
               const SpecKeyFn &apply)
{
    auto parts = split(spec, ':');
    if (parts.empty() || parts[0].empty())
        fatal("empty --model spec");
    std::string model = parts[0];
    auto at = model.find('@');
    if (at != std::string::npos) {
        precision = nn::parsePrecisionName(model.substr(at + 1));
        model.resize(at);
        if (model.empty())
            fatal("empty model name in --model spec '", spec, "'");
    }
    for (std::size_t i = 1; i < parts.size(); i++) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos)
            fatal("bad --model option '", parts[i],
                  "' (expected key=value)");
        std::string k = parts[i].substr(0, eq);
        if (!apply(k, parts[i].substr(eq + 1)))
            fatal("unknown --model option '", k, "'");
    }
    return model;
}

bool
applyEngineKey(const std::string &k, const std::string &v,
               BatchPolicy &batching, int &instances,
               std::uint64_t &calibration_seed)
{
    if (k == "max_batch")
        batching.max_batch = optionInt(k, v);
    else if (k == "timeout_us")
        batching.timeout_us = optionNumber(k, v);
    else if (k == "instances")
        instances = optionInt(k, v);
    else if (k == "calib_seed")
        calibration_seed = optionUnsigned(k, v);
    else
        return false;
    return true;
}

bool
applyTrafficKey(const std::string &k, const std::string &v,
                ArrivalConfig &arrivals, double &slo_ms)
{
    if (k == "qps")
        arrivals.qps = optionNumber(k, v);
    else if (k == "slo_ms")
        slo_ms = optionNumber(k, v);
    else if (k == "arrival")
        arrivals.kind = parseArrivalKind(v);
    else if (k == "burst_factor")
        arrivals.burst_factor = optionNumber(k, v);
    else if (k == "period_s")
        arrivals.period_s = optionNumber(k, v);
    else if (k == "duty")
        arrivals.duty = optionNumber(k, v);
    else
        return false;
    return true;
}

ModelConfig
parseModelSpec(const std::string &spec)
{
    ModelConfig mc;
    mc.model = splitModelSpec(
        spec, mc.precision,
        [&](const std::string &k, const std::string &v) {
            return applyEngineKey(k, v, mc.batching,
                                  mc.instances_per_device,
                                  mc.calibration_seed) ||
                   applyTrafficKey(k, v, mc.arrivals, mc.slo_ms);
        });
    return mc;
}

std::vector<gpusim::DeviceSpec>
parseDevices(const std::string &list)
{
    std::vector<gpusim::DeviceSpec> out;
    for (const auto &d : split(list, ','))
        out.push_back(parseDevice(d));
    return out;
}

bool
OutputFlags::parse(FlagParser &flags)
{
    if (flags.is("--quiet"))
        setLogLevel(LogLevel::kWarn);
    else if (flags.is("--report-out"))
        report_out = flags.value();
    else if (flags.is("--metrics-out"))
        metrics_out = flags.value();
    else if (flags.is("--metrics-format")) {
        metrics_format = flags.value();
        if (metrics_format != "json" && metrics_format != "prom")
            fatal("invalid value '", metrics_format,
                  "' for --metrics-format: expected json|prom");
    } else
        return false;
    return true;
}

void
OutputFlags::write(const char *tool, const std::string &report_json,
                   const std::string &trace_out) const
{
    if (!report_out.empty()) {
        std::FILE *f = std::fopen(report_out.c_str(), "w");
        if (!f)
            fatal("cannot write '", report_out, "'");
        std::fwrite(report_json.data(), 1, report_json.size(), f);
        std::fclose(f);
        say("[%s] report written to %s\n", tool, report_out.c_str());
    }
    if (!metrics_out.empty()) {
        if (metrics_format == "prom")
            obs::MetricRegistry::global().savePromText(metrics_out);
        else
            obs::MetricRegistry::global().save(metrics_out);
        say("[%s] metrics written to %s (%s)\n", tool,
            metrics_out.c_str(), metrics_format.c_str());
    }
    if (!trace_out.empty())
        say("[%s] timeline written to %s (open in chrome://tracing)\n",
            tool, trace_out.c_str());
}

gpusim::TraceMode
parseTraceMode(const std::string &mode)
{
    if (mode == "full")
        return gpusim::TraceMode::kFull;
    if (mode == "sampled")
        return gpusim::TraceMode::kSampled;
    if (mode == "off")
        return gpusim::TraceMode::kOff;
    fatal("invalid value '", mode,
          "' for --trace-mode: expected full|sampled|off");
}

void
endFlags(const FlagParser &flags, void (*usage)())
{
    if (flags.is("--list")) {
        for (const auto &m : nn::zooModelNames())
            std::printf("%s\n", m.c_str());
        return;
    }
    if (!flags.is("--help") && !flags.is("-h"))
        std::fprintf(stderr, "unknown option: %s\n",
                     flags.arg().c_str());
    usage();
}

const char kEngineKeysHelp[] =
    "                        [:max_batch=N][:timeout_us=N]\n"
    "                        [:instances=N][:calib_seed=N]\n";

const char kTrafficKeysHelp[] =
    "                        [:qps=N][:slo_ms=N][:duty=N]\n"
    "                        [:arrival=poisson|bursty|replay]\n"
    "                        [:burst_factor=N][:period_s=N]\n";

const char kTraceFlagsHelp[] =
    "  --trace-mode <m>      kernel records in the --dump-trace\n"
    "                        timeline: full|sampled|off\n"
    "                        (default sampled)\n"
    "  --trace-sample <n>    keep 1 in n trace records when\n"
    "                        sampled (default 16)\n"
    "  --dump-trace <f>      write a merged chrome://tracing\n"
    "                        timeline (host spans + one process\n"
    "                        per device); without it the replay\n"
    "                        records no kernel trace\n";

const char kOutputFlagsHelp[] =
    "  --sim-threads <n>     replay worker threads (default 1;\n"
    "                        reports are byte-identical for any n)\n"
    "  --report-out <f>      write the report JSON\n"
    "  --metrics-out <f>     write the metric-registry snapshot\n"
    "  --metrics-format <f>  snapshot format: json (default) or\n"
    "                        prom (Prometheus text exposition)\n"
    "  --quiet               warnings and errors only\n"
    "  --list                list zoo models\n"
    "Options also accept --opt=value syntax.\n";

} // namespace edgert::serve
