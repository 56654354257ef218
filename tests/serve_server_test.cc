/**
 * @file
 * End-to-end tests for the EdgeServe server: request conservation,
 * batching and admission behavior, multi-device placement, and the
 * determinism contract — two same-seed runs must produce
 * byte-identical reports and metric snapshots.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hh"
#include "serve/server.hh"

namespace edgert::serve {
namespace {

using obs::MetricRegistry;

ServeConfig
smallConfig(double qps, double slo_ms, bool batching)
{
    ServeConfig cfg;
    ModelConfig mc;
    mc.model = "alexnet";
    mc.slo_ms = slo_ms;
    mc.arrivals.qps = qps;
    mc.batching.max_batch = 4;
    cfg.models.push_back(mc);
    cfg.devices.push_back(parseDevice("nx"));
    cfg.duration_s = 0.5;
    cfg.dynamic_batching = batching;
    return cfg;
}

TEST(Server, ConservesRequestsAndOrdersPercentiles)
{
    ServeReport rep = runServer(smallConfig(200, 30, true));
    ASSERT_EQ(rep.models.size(), 1u);
    const ModelStats &m = rep.models.front();
    EXPECT_GT(m.offered, 0);
    EXPECT_EQ(m.offered, m.completed + m.shed);
    EXPECT_GT(m.completed, 0);
    EXPECT_GE(m.mean_batch, 1.0);
    EXPECT_LE(m.p50_ms, m.p95_ms);
    EXPECT_LE(m.p95_ms, m.p99_ms);
    EXPECT_LE(m.p99_ms, m.max_ms);
    EXPECT_GT(m.goodput_qps, 0.0);

    ASSERT_EQ(rep.devices.size(), 1u);
    const DeviceStats &d = rep.devices.front();
    EXPECT_GE(d.instances, 1);
    EXPECT_GT(d.sm_util_pct, 0.0);
    EXPECT_GT(d.ram_used_bytes, 0);
    EXPECT_LE(d.ram_used_bytes, d.ram_budget_bytes);
}

TEST(Server, DynamicBatchingCoalescesUnderLoad)
{
    ServeReport batched = runServer(smallConfig(400, 50, true));
    ServeReport fifo = runServer(smallConfig(400, 50, false));
    EXPECT_GT(batched.models.front().mean_batch, 1.2);
    EXPECT_DOUBLE_EQ(fifo.models.front().mean_batch, 1.0);
}

TEST(Server, AdmissionControlBoundsTailPastTheKnee)
{
    // 900 qps is far past alexnet's batch-1 capacity on NX
    // (~200 qps), so the unprotected queue diverges for the whole
    // window while admission sheds its way to a bounded tail.
    ServeConfig protected_cfg = smallConfig(900, 10, false);
    ServeConfig open_cfg = protected_cfg;
    open_cfg.admission_control = false;

    ServeReport prot = runServer(protected_cfg);
    ServeReport open = runServer(open_cfg);
    const ModelStats &mp = prot.models.front();
    const ModelStats &mo = open.models.front();

    EXPECT_GT(mp.shed, 0);
    EXPECT_EQ(mo.shed, 0);
    EXPECT_LT(mp.p99_ms, 2.0 * mp.slo_ms);
    EXPECT_GT(mo.p99_ms, 5.0 * mo.slo_ms);
    EXPECT_GT(mp.goodput_qps, mo.goodput_qps);
}

TEST(Server, MultiDevicePlacementUsesEveryDevice)
{
    ServeConfig cfg = smallConfig(300, 30, true);
    cfg.devices.push_back(parseDevice("agx"));
    ServeReport rep = runServer(cfg);
    ASSERT_EQ(rep.devices.size(), 2u);
    for (const DeviceStats &d : rep.devices) {
        EXPECT_GE(d.instances, 1);
        EXPECT_GT(d.sm_util_pct, 0.0);
    }
}

/** One full serve run on the host clock; returns report JSON and
 *  the global metric snapshot. */
std::pair<std::string, std::string>
seededRun()
{
    MetricRegistry::global().reset();
    ServeReport rep = runServer(smallConfig(250, 25, true));
    return {rep.toJson(), MetricRegistry::global().toJson()};
}

TEST(Server, SameSeedRunsAreByteIdentical)
{
    auto [report_a, metrics_a] = seededRun();
    auto [report_b, metrics_b] = seededRun();
    EXPECT_EQ(report_a, report_b);
    EXPECT_EQ(metrics_a, metrics_b);
    EXPECT_FALSE(report_a.empty());
    EXPECT_FALSE(metrics_a.empty());
}

// The per-model request and batch metrics agree with the report:
// an overloaded run sheds, so every counter is exercised.
TEST(Server, RegistryCountersMatchTheReport)
{
    MetricRegistry::global().reset();
    ServeConfig cfg = smallConfig(900, 10, true);
    cfg.devices.push_back(parseDevice("agx"));
    ServeReport rep = runServer(cfg);
    MetricRegistry &reg = MetricRegistry::global();
    const ModelStats &m = rep.models.front();
    const obs::Labels ml = {{"model", m.model}};
    ASSERT_GT(m.shed, 0);
    EXPECT_EQ(reg.counter("serve.request.offered", ml).value(), m.offered);
    EXPECT_EQ(reg.counter("serve.request.shed", ml).value(), m.shed);
    EXPECT_EQ(reg.counter("serve.request.completed", ml).value(),
              m.completed);
    EXPECT_EQ(reg.counter("serve.request.slo_violations", ml).value(),
              m.slo_violations);
    EXPECT_EQ(reg.counter("serve.batch.dispatched", ml).value(),
              m.batches);
    EXPECT_EQ(reg.histogram("serve.batch.size", ml).count(),
              static_cast<std::uint64_t>(m.batches));
}

TEST(Server, SeedChangesTheWorkload)
{
    ServeConfig cfg = smallConfig(250, 25, true);
    ServeReport a = runServer(cfg);
    cfg.seed = 2;
    ServeReport b = runServer(cfg);
    EXPECT_NE(a.models.front().offered, b.models.front().offered);
}

} // namespace
} // namespace edgert::serve
