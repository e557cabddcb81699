#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <thread>

#include "support/check.h"
#include "support/config.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace xrl {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIndexCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_index(5)];
    for (const int c : counts) EXPECT_GT(c, 700); // roughly uniform
}

TEST(Rng, NormalHasExpectedMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.1);
    EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, SampleWeightsPrefersHeavyEntries)
{
    Rng rng(19);
    std::vector<double> weights = {0.0, 1.0, 9.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 10000; ++i) ++counts[rng.sample_weights(weights)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1] * 5);
}

TEST(Rng, SampleWeightsRejectsEmptyAndNegative)
{
    Rng rng(3);
    EXPECT_THROW(rng.sample_weights({}), Contract_violation);
    EXPECT_THROW(rng.sample_weights({1.0, -0.5}), Contract_violation);
    EXPECT_THROW(rng.sample_weights({0.0, 0.0}), Contract_violation);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng child = a.split();
    EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Check, ExpectsThrowsOnViolation)
{
    EXPECT_THROW(XRL_EXPECTS(false), Contract_violation);
    EXPECT_NO_THROW(XRL_EXPECTS(true));
}

TEST(Check, EnsuresThrowsOnViolation)
{
    EXPECT_THROW(XRL_ENSURES(1 == 2), Contract_violation);
}

TEST(Check, MessageNamesLocation)
{
    try {
        XRL_EXPECTS(false);
        FAIL() << "should have thrown";
    } catch (const Contract_violation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Expects"), std::string::npos);
        EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
    }
}

TEST(Config, EnvOrFallsBack)
{
    ::unsetenv("XRLFLOW_TEST_UNSET");
    EXPECT_EQ(env_or("XRLFLOW_TEST_UNSET", "dflt"), "dflt");
    ::setenv("XRLFLOW_TEST_SET", "value", 1);
    EXPECT_EQ(env_or("XRLFLOW_TEST_SET", "dflt"), "value");
}

TEST(Config, EnvOrIntParsesAndRejects)
{
    ::setenv("XRLFLOW_TEST_INT", "123", 1);
    EXPECT_EQ(env_or_int("XRLFLOW_TEST_INT", 9), 123);
    ::setenv("XRLFLOW_TEST_INT", "bogus", 1);
    EXPECT_EQ(env_or_int("XRLFLOW_TEST_INT", 9), 9);
    ::unsetenv("XRLFLOW_TEST_INT");
    EXPECT_EQ(env_or_int("XRLFLOW_TEST_INT", -4), -4);
}

TEST(Config, ScaleParses)
{
    ::setenv("XRLFLOW_SCALE", "paper", 1);
    EXPECT_EQ(scale_from_env(), Scale::paper);
    ::setenv("XRLFLOW_SCALE", "smoke", 1);
    EXPECT_EQ(scale_from_env(), Scale::smoke);
    ::unsetenv("XRLFLOW_SCALE");
    EXPECT_EQ(scale_from_env(), Scale::smoke);
}

TEST(Thread_pool, PostedTaskRunsBeforeHelpingAPendingBatch)
{
    // A worker that frees up while a batch is pending and a task is posted
    // takes the posted task first: the batch's caller drains the batch on
    // its own, the posted task has only the workers. The synchronisation
    // state is declared before the pool so it outlives the pool's threads.
    std::promise<void> worker_busy;
    std::promise<void> free_worker;
    std::promise<void> caller_in_batch;
    std::promise<void> free_batch;
    std::promise<void> posted_ran;
    std::atomic<bool> batch_started{false};
    const std::shared_future<void> worker_gate = free_worker.get_future().share();
    const std::shared_future<void> batch_gate = free_batch.get_future().share();
    std::future<void> posted = posted_ran.get_future();

    Thread_pool pool(1);
    pool.post([&] {
        worker_busy.set_value();
        worker_gate.wait();
    });
    worker_busy.get_future().wait();

    // The caller claims index 0 and blocks in it; index 1 stays unclaimed.
    std::thread caller([&] {
        pool.run(2, [&](std::size_t) {
            if (!batch_started.exchange(true)) caller_in_batch.set_value();
            batch_gate.wait();
        });
    });
    caller_in_batch.get_future().wait();

    pool.post([&] { posted_ran.set_value(); });
    free_worker.set_value();
    // Helping the batch first would park the worker in index 1 until the
    // batch gate opens, so the posted task could not run before it.
    const bool ran_first = posted.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    free_batch.set_value();
    caller.join();
    posted.wait();
    EXPECT_TRUE(ran_first);
}

} // namespace
} // namespace xrl
