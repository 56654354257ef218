#include "core/engine.hh"

#include <algorithm>
#include <set>

#include "common/binio.hh"
#include "common/framing.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace edgert::core {

namespace {

// Plan-size model constants, calibrated against Table II: a fixed
// header, one embedded cubin per distinct kernel, and per-step
// metadata (tensor bindings, tactic parameters).
constexpr std::int64_t kPlanHeaderBytes = 256 * 1024;
constexpr std::int64_t kCubinBytes = 100 * 1024;
constexpr std::int64_t kStepMetaBytes = 2 * 1024;

// Plan file format: "ERTE" magic. v1 was a bare body; v2 wraps the
// same body in the common integrity frame (size header + CRC32).
constexpr std::uint32_t kPlanMagic = 0x45545245; // "ERTE"
constexpr std::uint32_t kPlanVersion = 2;
constexpr std::uint32_t kPlanFramedSince = 2;

// Minimum serialized footprint of each variable-count element, used
// to validate untrusted counts before preallocating.
constexpr std::size_t kMinIoBytes = 4 + 5 * 8;
constexpr std::size_t kMinStepBytes = 4 + 1 + 4 + 1 + 8 + 4 + 4;
constexpr std::size_t kMinKernelBytes = 4 + 13 * 8 + 1;

} // namespace

Engine::Engine(std::string model_name, std::string device_name,
               nn::Precision precision, std::uint64_t build_id,
               std::vector<ExecutionStep> steps,
               std::vector<IoDesc> inputs, std::vector<IoDesc> outputs,
               std::uint64_t calibration_fingerprint)
    : model_name_(std::move(model_name)),
      device_name_(std::move(device_name)), precision_(precision),
      build_id_(build_id), steps_(std::move(steps)),
      inputs_(std::move(inputs)), outputs_(std::move(outputs)),
      calibration_fingerprint_(calibration_fingerprint)
{}

std::int64_t
Engine::kernelCount() const
{
    std::int64_t n = 0;
    for (const auto &s : steps_)
        n += static_cast<std::int64_t>(s.kernels.size());
    return n;
}

std::int64_t
Engine::weightBytes() const
{
    std::int64_t n = 0;
    for (const auto &s : steps_)
        n += s.weight_plan_bytes;
    return n;
}

int
Engine::weightTransfers() const
{
    int n = 0;
    for (const auto &s : steps_)
        n += s.weight_transfers;
    return n;
}

double
Engine::int8ComputeFraction() const
{
    double total = 0.0;
    double int8 = 0.0;
    for (const auto &s : steps_) {
        double flops = 0.0;
        for (const auto &k : s.kernels)
            flops += static_cast<double>(k.flops);
        total += flops;
        if (s.precision == nn::Precision::kInt8)
            int8 += flops;
    }
    return total > 0.0 ? int8 / total : 0.0;
}

std::int64_t
Engine::planSizeBytes() const
{
    // One embedded cubin per (kernel, launch shape) specialization —
    // TensorRT dedups compiled kernels at that granularity.
    std::set<std::pair<std::string, std::int64_t>> specializations;
    for (const auto &s : steps_)
        for (const auto &k : s.kernels)
            specializations.insert({k.name, k.grid_blocks});
    std::int64_t unique =
        static_cast<std::int64_t>(specializations.size());
    return kPlanHeaderBytes + unique * kCubinBytes +
           static_cast<std::int64_t>(steps_.size()) * kStepMetaBytes +
           weightBytes();
}

std::uint64_t
Engine::fingerprint() const
{
    std::uint64_t h = hashString(model_name_);
    h = hashCombine(h, static_cast<std::uint64_t>(precision_));
    h = hashCombine(h, calibration_fingerprint_);
    for (const auto &s : steps_) {
        h = hashCombine(h, hashString(s.tactic_name));
        for (const auto &k : s.kernels) {
            h = hashCombine(h, hashString(k.name));
            h = hashCombine(h,
                            static_cast<std::uint64_t>(k.grid_blocks));
        }
    }
    return h;
}

std::vector<std::uint8_t>
Engine::serialize() const
{
    BinWriter w;
    w.str(model_name_);
    w.str(device_name_);
    w.u8(static_cast<std::uint8_t>(precision_));
    w.u64(build_id_);
    w.u64(calibration_fingerprint_);

    auto writeIo = [&](const std::vector<IoDesc> &ios) {
        w.u32(static_cast<std::uint32_t>(ios.size()));
        for (const auto &io : ios) {
            w.str(io.name);
            w.i64(io.dims.n);
            w.i64(io.dims.c);
            w.i64(io.dims.h);
            w.i64(io.dims.w);
            w.i64(io.bytes);
        }
    };
    writeIo(inputs_);
    writeIo(outputs_);

    w.u32(static_cast<std::uint32_t>(steps_.size()));
    for (const auto &s : steps_) {
        w.str(s.node_name);
        w.u8(static_cast<std::uint8_t>(s.kind));
        w.str(s.tactic_name);
        w.u8(static_cast<std::uint8_t>(s.precision));
        w.i64(s.weight_plan_bytes);
        w.u32(static_cast<std::uint32_t>(s.weight_transfers));
        w.u32(static_cast<std::uint32_t>(s.kernels.size()));
        for (const auto &k : s.kernels) {
            w.str(k.name);
            w.i64(k.grid_blocks);
            w.i64(k.block_threads);
            w.i64(k.max_blocks_per_sm);
            w.i64(k.flops);
            w.i64(k.dram_bytes);
            w.u8(k.tensor_core);
            w.f64(k.efficiency);
            w.f64(k.tile_kb);
            w.i64(k.instructions);
            w.i64(k.ldg);
            w.i64(k.stg);
            w.i64(k.lds);
            w.i64(k.sts);
            w.i64(k.l1_hits);
            w.i64(k.l2_hits);
        }
    }
    return frameWrap(kPlanMagic, kPlanVersion, w.bytes());
}

Result<Engine>
Engine::deserialize(const std::vector<std::uint8_t> &bytes)
{
    auto framed = frameUnwrap(kPlanMagic, kPlanFramedSince,
                              kPlanVersion, bytes, "engine plan");
    if (!framed.ok())
        return framed.status().context("Engine::deserialize");

    // Plan files are untrusted: parse with a fallible reader, then
    // check its status once after the last field.
    BinReader r(framed->payload, BinReader::OnError::kStatus);

    std::string model = r.str();
    std::string device = r.str();
    std::uint8_t precision_raw = r.u8();
    std::uint64_t build_id = r.u64();
    std::uint64_t calib = r.u64();
    // Engine-level precision admits kMixed (a plan-level label);
    // per-step precisions below stay concrete (<= kInt8).
    if (precision_raw >
        static_cast<std::uint8_t>(nn::Precision::kMixed))
        return errorStatus(ErrorCode::kDataLoss,
                           "Engine::deserialize: invalid precision ",
                           static_cast<int>(precision_raw));
    auto precision = static_cast<nn::Precision>(precision_raw);

    auto readIo = [&]() {
        // count() bounds the prealloc by the bytes actually present.
        std::vector<IoDesc> ios(r.count(kMinIoBytes));
        for (auto &io : ios) {
            io.name = r.str();
            io.dims.n = r.i64();
            io.dims.c = r.i64();
            io.dims.h = r.i64();
            io.dims.w = r.i64();
            io.bytes = r.i64();
        }
        return ios;
    };
    auto inputs = readIo();
    auto outputs = readIo();

    std::vector<ExecutionStep> steps(r.count(kMinStepBytes));
    for (auto &s : steps) {
        s.node_name = r.str();
        std::uint8_t kind_raw = r.u8();
        if (kind_raw >
            static_cast<std::uint8_t>(FusedOpKind::kDetection))
            return errorStatus(
                ErrorCode::kDataLoss,
                "Engine::deserialize: invalid fused-op kind ",
                static_cast<int>(kind_raw), " in step '",
                s.node_name, "'");
        s.kind = static_cast<FusedOpKind>(kind_raw);
        s.tactic_name = r.str();
        std::uint8_t step_prec_raw = r.u8();
        if (step_prec_raw >
            static_cast<std::uint8_t>(nn::Precision::kInt8))
            return errorStatus(
                ErrorCode::kDataLoss,
                "Engine::deserialize: invalid step precision ",
                static_cast<int>(step_prec_raw), " in step '",
                s.node_name, "'");
        s.precision = static_cast<nn::Precision>(step_prec_raw);
        s.weight_plan_bytes = r.i64();
        s.weight_transfers = static_cast<int>(r.u32());
        s.kernels.resize(r.count(kMinKernelBytes));
        for (auto &k : s.kernels) {
            k.name = r.str();
            k.grid_blocks = r.i64();
            k.block_threads = r.i64();
            k.max_blocks_per_sm = r.i64();
            k.flops = r.i64();
            k.dram_bytes = r.i64();
            k.tensor_core = r.u8();
            k.efficiency = r.f64();
            k.tile_kb = r.f64();
            k.instructions = r.i64();
            k.ldg = r.i64();
            k.stg = r.i64();
            k.lds = r.i64();
            k.sts = r.i64();
            k.l1_hits = r.i64();
            k.l2_hits = r.i64();
        }
    }
    if (!r.ok())
        return r.status().context("Engine::deserialize");
    if (!r.atEnd())
        return errorStatus(ErrorCode::kDataLoss,
                           "Engine::deserialize: ", r.remaining(),
                           " trailing bytes after the last field");
    return Engine(std::move(model), std::move(device), precision,
                  build_id, std::move(steps), std::move(inputs),
                  std::move(outputs), calib);
}

} // namespace edgert::core
