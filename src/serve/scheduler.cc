#include "serve/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/context.hh"

namespace edgert::serve {

std::vector<int>
engineBatchLadder(int max_batch)
{
    std::vector<int> out;
    int b = 1;
    while (b < max_batch) {
        out.push_back(b);
        b *= 2;
    }
    out.push_back(b); // smallest power of two >= max_batch
    return out;
}

int
EngineSet::indexFor(int batch) const
{
    for (std::size_t i = 0; i < batches.size(); i++)
        if (batches[i] >= batch)
            return static_cast<int>(i);
    panic("no prebuilt engine fits batch ", batch, " (largest is ",
          batches.empty() ? 0 : batches.back(), ")");
}

std::int64_t
EngineSet::maxFootprintBytes() const
{
    std::int64_t max_fp = 0;
    for (const auto &eng : engines)
        max_fp = std::max(max_fp,
                          runtime::contextFootprintBytes(eng));
    return max_fp;
}

InstancePool::InstancePool(
    const std::vector<gpusim::DeviceSpec> &devices,
    double ram_fraction)
    : devices_(devices),
      ram_fraction_(ram_fraction),
      ram_used_(devices.size(), 0)
{
    if (!(ram_fraction > 0.0 && ram_fraction <= 1.0))
        fatal("RAM fraction must be in (0, 1] (got ", ram_fraction, ")");
}

int
InstancePool::place(int model, int device,
                    std::int64_t footprint_bytes, int want, int slot)
{
    if (static_cast<std::size_t>(model) >= by_model_.size())
        by_model_.resize(static_cast<std::size_t>(model) + 1);

    std::int64_t budget =
        ramBudgetBytes(device) - ram_used_[
            static_cast<std::size_t>(device)];
    int placed = 0;
    for (int i = 0; i < want; i++) {
        if (footprint_bytes > budget)
            break;
        budget -= footprint_bytes;
        ram_used_[static_cast<std::size_t>(device)] +=
            footprint_bytes;
        Instance inst;
        inst.model = model;
        inst.device = device;
        inst.slot = slot < 0 ? device : slot;
        by_model_[static_cast<std::size_t>(model)].push_back(
            static_cast<int>(instances_.size()));
        instances_.push_back(std::move(inst));
        placed++;
    }
    return placed;
}

const std::vector<int> &
InstancePool::instancesOf(int model) const
{
    static const std::vector<int> kNone;
    if (static_cast<std::size_t>(model) >= by_model_.size())
        return kNone;
    return by_model_[static_cast<std::size_t>(model)];
}

int
InstancePool::freeInstance(int model, double now_s) const
{
    int best = -1;
    double best_free = 0.0;
    for (int idx : instancesOf(model)) {
        const Instance &inst =
            instances_[static_cast<std::size_t>(idx)];
        if (inst.predicted_free_s > now_s + 1e-12)
            continue;
        if (best < 0 || inst.predicted_free_s < best_free) {
            best = idx;
            best_free = inst.predicted_free_s;
        }
    }
    return best;
}

std::int64_t
InstancePool::ramUsedBytes(int device) const
{
    return ram_used_.at(static_cast<std::size_t>(device));
}

std::int64_t
InstancePool::ramBudgetBytes(int device) const
{
    const auto &spec = devices_.at(static_cast<std::size_t>(device));
    double ram_bytes = spec.ram_gb * 1024.0 * 1024.0 * 1024.0;
    return static_cast<std::int64_t>(ram_bytes * ram_fraction_);
}

} // namespace edgert::serve
