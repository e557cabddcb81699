// Tests for the annotated synchronisation layer (support/sync.h) and the
// lock-rank deadlock detector behind it.
//
// The wrapper-semantics tests run in every build. The detector tests are
// death tests: they deliberately commit lock-order crimes and assert the
// process aborts naming both locks. In builds where the detector is
// compiled out (plain Release), those tests instead prove the inverse —
// the same crimes go unpunished, i.e. the checks really cost nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/sync.h"

namespace xrl {
namespace {

// ---------------------------------------------------------------------------
// Wrapper semantics (all builds)
// ---------------------------------------------------------------------------

TEST(Sync, MutexLocksAndUnlocks)
{
    Mutex m("test_leaf", Lock_rank::leaf);
    m.lock();
    EXPECT_FALSE(m.try_lock()) << "a held std::mutex must not be re-acquirable";
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
    EXPECT_STREQ(m.name(), "test_leaf");
    EXPECT_EQ(m.rank(), static_cast<int>(Lock_rank::leaf));
}

TEST(Sync, LockGuardProvidesMutualExclusion)
{
    Mutex m("test_counter", Lock_rank::leaf);
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                const Lock_guard lock(m);
                ++counter;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(counter, 4000);
}

TEST(Sync, UniqueLockUnlocksMidScopeAndRelocks)
{
    Mutex m("test_unique", Lock_rank::leaf);
    Unique_lock lock(m);
    EXPECT_TRUE(lock.owns_lock());
    lock.unlock();
    EXPECT_FALSE(lock.owns_lock());
    EXPECT_TRUE(m.try_lock()); // really released
    m.unlock();
    lock.lock();
    EXPECT_TRUE(lock.owns_lock());
}

TEST(Sync, TryLockScopeReportsOwnership)
{
    Mutex m("test_try", Lock_rank::leaf);
    {
        const Try_lock first(m);
        ASSERT_TRUE(first.owns_lock());
        const Try_lock second(m);
        EXPECT_FALSE(second.owns_lock());
    }
    const Try_lock after(m); // both scopes released correctly
    EXPECT_TRUE(after.owns_lock());
}

TEST(Sync, SharedMutexAllowsConcurrentReaders)
{
    // Recursive same-thread lock_shared is UB (and the detector rejects it),
    // so the second reader is a real second thread.
    Shared_mutex m("test_shared", Lock_rank::leaf);
    m.lock_shared();
    std::thread other([&] {
        const Shared_lock reader(m); // must not block on the first reader
    });
    other.join();
    m.unlock_shared();
    {
        const Writer_lock writer(m);
    }
    const Shared_lock reader(m); // writer released exclusivity
}

TEST(Sync, WriterExcludesReaders)
{
    Shared_mutex m("test_rw", Lock_rank::leaf);
    int value = 0;
    std::atomic<bool> torn{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                const Writer_lock lock(m);
                ++value;
                ++value; // readers must never observe an odd value
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                const Shared_lock lock(m);
                if (value % 2 != 0) torn.store(true);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_FALSE(torn.load());
    EXPECT_EQ(value, 2000);
}

TEST(Sync, CondVarProducerConsumer)
{
    Mutex m("test_cv", Lock_rank::leaf);
    Cond_var cv;
    std::vector<int> queue;
    bool done = false;

    std::thread consumer([&] {
        int received = 0;
        Unique_lock lock(m);
        while (true) {
            cv.wait(lock, [&]() XRL_REQUIRES(m) { return !queue.empty() || done; });
            received += static_cast<int>(queue.size());
            queue.clear();
            if (done) break;
        }
        EXPECT_EQ(received, 100);
    });

    for (int i = 0; i < 100; ++i) {
        const Lock_guard lock(m);
        queue.push_back(i);
        cv.notify_one();
    }
    {
        const Lock_guard lock(m);
        done = true;
        cv.notify_one();
    }
    consumer.join();
}

TEST(Sync, CondVarWaitForTimesOut)
{
    Mutex m("test_cv_timeout", Lock_rank::leaf);
    Cond_var cv;
    Unique_lock lock(m);
    const bool signalled =
        cv.wait_for(lock, std::chrono::milliseconds(10), [] { return false; });
    EXPECT_FALSE(signalled);
    EXPECT_TRUE(lock.owns_lock()) << "wait_for must return with the lock held";
}

// ---------------------------------------------------------------------------
// Lock-rank detector (death tests where enabled, silence proofs where not)
// ---------------------------------------------------------------------------

TEST(SyncDetector, CorrectOrderIsSilent)
{
    // The full blessed chain from the hierarchy, in one thread. If the
    // detector mis-fired on legal nesting, every test in the repo would die.
    Mutex admin("daemon_admin", Lock_rank::daemon_admin);
    Shared_mutex membership("router_membership", Lock_rank::router_membership);
    Mutex server("server", Lock_rank::server);
    Mutex job("job", Lock_rank::job);
    Mutex metrics("metrics_registry", Lock_rank::metrics);

    const Lock_guard l0(admin);
    const Shared_lock l1(membership);
    const Lock_guard l2(server);
    const Lock_guard l3(job);
    const Lock_guard l4(metrics);
    SUCCEED();
}

TEST(SyncDetector, OutOfOrderReleaseIsFine)
{
    // Release is not required to be LIFO — only acquisition order is ranked.
    Mutex low("test_low", Lock_rank::server);
    Mutex high("test_high", Lock_rank::shard_health);
    low.lock();
    high.lock();
    low.unlock(); // released before the lock above it on the stack
    high.unlock();
    low.lock(); // stack stayed consistent
    low.unlock();
    SUCCEED();
}

TEST(SyncDetector, SameRankNeverNests)
{
    // Two locks sharing a rank may be held by *different* threads but must
    // never nest in one. Holding just one of them is always fine.
    Mutex policy_writer("test_policy_writer", Lock_rank::state_store_writer);
    Mutex memo_writer("test_memo_writer", Lock_rank::state_store_writer);
    {
        const Lock_guard a(policy_writer);
    }
    {
        const Lock_guard b(memo_writer);
    }
    SUCCEED();
}

TEST(SyncDetectorDeath, InversionAbortsNamingBothLocks)
{
    if (!sync_checks_enabled()) GTEST_SKIP() << "detector compiled out";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex high("test_high_first", Lock_rank::shard_health);
    Mutex low("test_low_second", Lock_rank::server);
    const auto invert = [&] {
        const Lock_guard a(high);
        const Lock_guard b(low); // rank 40 under rank 110: inversion
    };
    EXPECT_DEATH(invert(),
                 "lock-order violation.*test_low_second.*test_high_first");
}

TEST(SyncDetectorDeath, RecursiveAcquisitionAborts)
{
    if (!sync_checks_enabled()) GTEST_SKIP() << "detector compiled out";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex m("test_recursive", Lock_rank::leaf);
    const auto recurse = [&] {
        m.lock();
        m.lock(); // self-deadlock without the detector
    };
    EXPECT_DEATH(recurse(), "recursive acquisition.*test_recursive");
}

TEST(SyncDetectorDeath, SameRankNestingAborts)
{
    if (!sync_checks_enabled()) GTEST_SKIP() << "detector compiled out";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex a("test_same_rank_a", Lock_rank::state_store_writer);
    Mutex b("test_same_rank_b", Lock_rank::state_store_writer);
    const auto nest = [&] {
        const Lock_guard la(a);
        const Lock_guard lb(b); // equal rank: ranks must strictly increase
    };
    EXPECT_DEATH(nest(), "lock-order violation.*test_same_rank_b.*test_same_rank_a");
}

TEST(SyncDetector, TryLockIsRankExempt)
{
    // A failed try_lock cannot deadlock, so taking one against rank order is
    // legal (the daemon's admin gate relies on this). A successful try still
    // records, so later blocking acquisitions are checked against it.
    Mutex high("test_exempt_high", Lock_rank::shard_health);
    Mutex low("test_exempt_low", Lock_rank::daemon_admin);
    const Lock_guard held(high);
    const Try_lock attempt(low); // below held rank — allowed for try
    EXPECT_TRUE(attempt.owns_lock());
}

TEST(SyncDetector, DisabledBuildToleratesInversion)
{
    // The inverse proof: without the detector, the same inversion is
    // undetected (and, being single-threaded, harmless) — demonstrating the
    // checks are truly compiled out rather than merely quiet.
    if (sync_checks_enabled()) GTEST_SKIP() << "detector active in this build";
    Mutex high("test_off_high", Lock_rank::shard_health);
    Mutex low("test_off_low", Lock_rank::server);
    const Lock_guard a(high);
    const Lock_guard b(low);
    SUCCEED();
}

} // namespace
} // namespace xrl
