/**
 * @file
 * Tests for the EdgeServe request queue and the dynamic batcher's
 * dispatch decision (the SLO-admission sojourn predictor is tested
 * with the serving core, serve_core_test).
 */

#include <gtest/gtest.h>

#include "serve/batcher.hh"
#include "serve/queue.hh"

namespace edgert::serve {
namespace {

TEST(RequestQueue, FifoCutOrder)
{
    RequestQueue q;
    q.push(10, 0.1);
    q.push(11, 0.2);
    q.push(12, 0.3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.frontId(), 10);
    EXPECT_DOUBLE_EQ(q.oldestArrivalSeconds(), 0.1);
    // A cut appends to the caller's pool; what the pool held stays.
    std::vector<std::int64_t> ids = {7};
    q.cut(2, ids);
    EXPECT_EQ(ids, (std::vector<std::int64_t>{7, 10, 11}));
    EXPECT_EQ(q.frontId(), 12);
    EXPECT_FALSE(q.empty());
    q.cut(1, ids);
    EXPECT_EQ(ids, (std::vector<std::int64_t>{7, 10, 11, 12}));
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, EwmaRateConvergesToArrivalRate)
{
    RequestQueue q;
    // 200 Hz arrivals for 8 simulated seconds — 16 EWMA time
    // constants, so the estimate has fully converged.
    for (int i = 0; i < 1600; i++)
        q.observeArrival(i * 0.005);
    EXPECT_NEAR(q.rateHz(), 200.0, 1.0);
}

TEST(Batcher, DispatchesFullBatchImmediately)
{
    DynamicBatcher b({4, 5000.0});
    EXPECT_EQ(b.decide(4, 1.0, 1.0), 4);
    EXPECT_EQ(b.decide(9, 1.0, 1.0), 4);
}

TEST(Batcher, WaitsForTimeoutThenFlushesPartial)
{
    DynamicBatcher b({8, 2000.0});
    // Oldest queued at t=1.0 s; timeout fires at 1.002 s.
    EXPECT_EQ(b.decide(3, 1.0, 1.0010), 0);
    EXPECT_EQ(b.decide(3, 1.0, 1.0020), 3);
    EXPECT_EQ(b.decide(3, 1.0, 1.5), 3);
}

} // namespace
} // namespace edgert::serve
