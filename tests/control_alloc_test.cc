/**
 * @file
 * The serve, fleet and stream control planes make no heap allocation
 * per request or frame. This executable replaces the global
 * operator new and delete with counting versions, runs each
 * entrypoint end to end at two simulated durations, and bounds the
 * extra allocations per extra request (or frame). Builds,
 * calibration and placement cost the same at both durations, and
 * amortized vector growth adds only O(log n) blocks, so the bound
 * sees what scales with the traffic: per-request, per-dispatch and
 * per-eviction blocks.
 *
 * Sanitizer builds replace operator new themselves, so the suite is
 * not built under EDGERT_SANITIZE.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "stream/stream.hh"

namespace {

std::atomic<std::int64_t> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align *
                                                  align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, alignof(std::max_align_t));
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace edgert {
namespace {

/** Heap allocations `run` makes, and the requests (or frames) it
 *  reports, from a fresh metric registry. */
template <class Run>
std::pair<std::int64_t, std::int64_t>
counted(Run run)
{
    obs::MetricRegistry::global().reset();
    const std::int64_t before = g_allocs.load();
    const std::int64_t units = run();
    return {g_allocs.load() - before, units};
}

/**
 * Extra heap allocations per extra request between a run of
 * `short_s` and one of `long_s` simulated seconds. `run(duration)`
 * returns the requests (or frames) the run reports. A first short
 * run warms lazily built process state (registry families, logging)
 * and is not counted.
 */
template <class Run>
double
allocsPerUnit(const char *what, double short_s, double long_s, Run run)
{
    counted([&] { return run(short_s); });
    const auto [a_short, n_short] = counted([&] { return run(short_s); });
    const auto [a_long, n_long] = counted([&] { return run(long_s); });
    EXPECT_GT(n_long, n_short);
    const double per = static_cast<double>(a_long - a_short) /
                       static_cast<double>(n_long - n_short);
    std::printf("%s: %lld allocations for %lld units at %g s, %lld for "
                "%lld at %g s: %.4f per extra unit\n",
                what, static_cast<long long>(a_short),
                static_cast<long long>(n_short), short_s,
                static_cast<long long>(a_long),
                static_cast<long long>(n_long), long_s, per);
    return per;
}

// Sojourn routing and admission score four candidates and the
// chosen node per arrival; every predicted completion feeds the
// node's burn-rate tracker.
TEST(ControlAlloc, FleetAllocatesNothingPerRequest)
{
    fleet::FleetConfig cfg;
    cfg.groups.push_back(fleet::parseNodeGroup("nx:6"));
    cfg.groups.push_back(fleet::parseNodeGroup("agx:2"));
    fleet::FleetModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 100.0;
    mc.arrivals.qps = 3000.0;
    cfg.models.push_back(mc);
    cfg.route_policy = fleet::RoutePolicy::kLeastSojourn;
    cfg.seed = 7;
    const double per =
        allocsPerUnit("fleet", 1.0, 3.0, [&](double duration_s) {
            cfg.duration_s = duration_s;
            return fleet::runFleet(cfg).offered;
        });
    EXPECT_LT(per, 0.05);
}

TEST(ControlAlloc, ServeAllocatesNothingPerRequest)
{
    serve::ServeConfig cfg;
    serve::ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = 50.0;
    mc.arrivals.qps = 1500.0;
    cfg.models.push_back(mc);
    cfg.devices.push_back(serve::parseDevice("nx"));
    cfg.devices.push_back(serve::parseDevice("agx"));
    const double per =
        allocsPerUnit("serve", 1.0, 3.0, [&](double duration_s) {
            cfg.duration_s = duration_s;
            std::int64_t offered = 0;
            for (const auto &m : serve::runServer(cfg).models)
                offered += m.offered;
            return offered;
        });
    EXPECT_LT(per, 0.05);
}

// An overloaded skip_to_latest lane with batch-1 dispatches: nearly
// every frame is either evicted by the next push or dispatched on its
// own. What is left per frame is the queue's std::deque chunk churn
// (a 512-byte chunk per 21 frames and per 32 tickets in libstdc++,
// about 0.08 per frame), which the bound allows.
TEST(ControlAlloc, StreamAllocatesNothingPerFrame)
{
    stream::StreamConfig cfg;
    cfg.devices.push_back(serve::parseDevice("nx"));
    stream::StreamModelConfig mc;
    mc.model = "tiny-yolov3";
    mc.streams = 16;
    mc.fps = 30.0;
    mc.policy = stream::BackpressurePolicy::kSkipToLatest;
    mc.batching.max_batch = 1;
    cfg.models.push_back(mc);
    const double per =
        allocsPerUnit("stream", 4.0, 20.0, [&](double duration_s) {
            cfg.duration_s = duration_s;
            std::int64_t produced = 0;
            for (const auto &m : stream::runStreams(cfg).models)
                produced += m.freshness.produced;
            return produced;
        });
    EXPECT_LT(per, 0.105);
}

} // namespace
} // namespace edgert
