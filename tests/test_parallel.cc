/**
 * @file
 * Tests for the deterministic parallel experiment runner: ordered
 * result collection, serial-path inlining, exception propagation,
 * dynamic task groups, and bit-identical parallel vs serial workload
 * capture.
 */

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

namespace casim {
namespace {

StudyConfig
tinyStudy()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.02;
    config.workload.seed = 11;
    config.hierarchy.numCores = 4;
    config.hierarchy.l1 = CacheGeometry{4 * 1024, 4, kBlockBytes};
    config.llcSmallBytes = 64 * 1024;
    config.llcLargeBytes = 128 * 1024;
    config.llcWays = 8;
    return config;
}

TEST(ParallelRunner, MapCollectsResultsInIndexOrder)
{
    ParallelRunner runner(4);
    const auto out = runner.map<int>(
        100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelRunner, SingleJobRunsInlineInIndexOrder)
{
    // jobs <= 1 must be the exact serial code path: no worker threads,
    // tasks executed on the caller in ascending index order.
    for (const unsigned jobs : {0u, 1u}) {
        ParallelRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), 1u);
        std::vector<std::size_t> order;
        runner.run(8, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(),
                      std::this_thread::get_id());
            order.push_back(i);
        });
        ASSERT_EQ(order.size(), 8u);
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(ParallelRunner, SingleJobStaysOnCallerThread)
{
    ParallelRunner runner(1);
    const auto caller = std::this_thread::get_id();
    runner.run(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelRunner, PropagatesFirstTaskException)
{
    ParallelRunner runner(4);
    std::atomic<unsigned> executed{0};
    EXPECT_THROW(
        runner.run(32,
                   [&](std::size_t i) {
                       ++executed;
                       if (i == 7)
                           throw std::runtime_error("cell 7 failed");
                   }),
        std::runtime_error);
    // The batch drains fully before the error is rethrown, so the
    // runner is reusable afterwards.
    EXPECT_EQ(executed.load(), 32u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, SerialExceptionDrainsWholeBatch)
{
    // jobs == 1 must share the parallel path's semantics: the whole
    // batch drains before the first exception is rethrown, so the
    // task counters agree across jobs values.
    ParallelRunner runner(1);
    unsigned executed = 0;
    EXPECT_THROW(
        runner.run(32,
                   [&](std::size_t i) {
                       ++executed;
                       if (i == 7)
                           throw std::runtime_error("cell 7 failed");
                   }),
        std::runtime_error);
    EXPECT_EQ(executed, 32u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, NestedRunExecutesInline)
{
    // A task that fans out on its own runner (a sharded replay inside
    // an experiment cell) must not enqueue into the batch it is part
    // of: the nested run() executes inline on the worker.
    ParallelRunner runner(4);
    std::atomic<unsigned> inner{0};
    runner.run(4, [&](std::size_t) {
        const auto worker = std::this_thread::get_id();
        runner.run(8, [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), worker);
            ++inner;
        });
    });
    EXPECT_EQ(inner.load(), 32u);
    const auto *reentries = dynamic_cast<const stats::Counter *>(
        runner.stats().find("runner.reentries"));
    ASSERT_NE(reentries, nullptr);
    EXPECT_EQ(reentries->value(), 4u);
}

TEST(ParallelRunner, NestedRunWorksWithSingleJob)
{
    ParallelRunner runner(1);
    unsigned inner = 0;
    std::vector<std::size_t> order;
    runner.run(3, [&](std::size_t i) {
        order.push_back(i);
        runner.run(2, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner, 6u);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.back(), 2u);
}

TEST(ParallelRunner, NestedRunPropagatesExceptions)
{
    ParallelRunner runner(4);
    std::atomic<unsigned> inner{0};
    EXPECT_THROW(runner.run(2,
                            [&](std::size_t) {
                                runner.run(4, [&](std::size_t i) {
                                    ++inner;
                                    if (i == 1)
                                        throw std::runtime_error("x");
                                });
                            }),
                 std::runtime_error);
    // The nested batches drain fully before rethrowing, and the outer
    // batch drains its remaining tasks, so the runner stays reusable.
    EXPECT_EQ(inner.load(), 8u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, ConcurrentTopLevelRunsShareThePool)
{
    // Several threads submitting batches to one runner at the same
    // time (concurrent daemon batches do this): every batch completes
    // with every task executed exactly once.
    ParallelRunner runner(4);
    std::atomic<int> total{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t)
        submitters.emplace_back([&] {
            for (int round = 0; round < 8; ++round)
                runner.run(16, [&](std::size_t) { ++total; });
        });
    for (auto &thread : submitters)
        thread.join();
    EXPECT_EQ(total.load(), 3 * 8 * 16);
}

TEST(ParallelRunner, ConcurrentRunsKeepErrorsPerBatch)
{
    // A throwing batch from one submitter must not poison another
    // submitter's concurrent batches: errors belong to the batch that
    // raised them.
    ParallelRunner runner(4);
    std::thread thrower([&] {
        for (int round = 0; round < 16; ++round)
            EXPECT_THROW(runner.run(8,
                                    [](std::size_t i) {
                                        if (i == 3)
                                            throw std::runtime_error(
                                                "poisoned batch");
                                    }),
                         std::runtime_error);
    });
    for (int round = 0; round < 16; ++round) {
        const auto out = runner.map<int>(
            8, [](std::size_t i) { return static_cast<int>(i); });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i));
    }
    thrower.join();
}

TEST(ParallelRunner, TaskGroupWaitsForTasksSpawnedByTasks)
{
    // A parent task releases children the moment it finishes, as a
    // queue warm releases its cells; wait() covers both generations.
    // With one job every spawn runs inline on the caller.
    for (const unsigned jobs : {1u, 4u}) {
        ParallelRunner runner(jobs);
        const auto caller = std::this_thread::get_id();
        std::atomic<int> parents{0};
        std::atomic<int> children{0};
        std::atomic<int> off_caller{0};
        ParallelRunner::TaskGroup group(runner);
        group.spawn(8, [&](std::size_t) {
            ++parents;
            // The burst outlives this task's frame.
            group.spawn(4, [&](std::size_t) {
                ++children;
                if (std::this_thread::get_id() != caller)
                    ++off_caller;
            });
        });
        group.wait();
        EXPECT_EQ(parents.load(), 8) << jobs;
        EXPECT_EQ(children.load(), 32) << jobs;
        if (jobs == 1) {
            EXPECT_EQ(off_caller.load(), 0);
        }
        const auto tasks = stats::counterValue(
            runner.stats().find("runner.tasks"));
        ASSERT_TRUE(tasks.has_value());
        EXPECT_EQ(*tasks, 40u) << jobs;
    }
}

TEST(ParallelRunner, StatsSnapshotRendersLikeTheLiveGroup)
{
    for (const unsigned jobs : {1u, 4u}) {
        ParallelRunner runner(jobs);
        ParallelRunner::TaskGroup group(runner);
        group.spawn(12, [](std::size_t) {});
        group.wait();
        std::ostringstream live;
        std::ostringstream copy;
        runner.stats().dumpJson(live);
        runner.statsSnapshot().dumpJson(copy);
        EXPECT_EQ(copy.str(), live.str()) << jobs;
        EXPECT_NE(live.str().find("\"runner.queue_wait_seconds\""),
                  std::string::npos);
    }
}

TEST(ParallelRunner, TaskGroupDrainsThenRethrowsFirstError)
{
    for (const unsigned jobs : {1u, 4u}) {
        ParallelRunner runner(jobs);
        std::atomic<int> ran{0};
        ParallelRunner::TaskGroup group(runner);
        group.spawn(16, [&](std::size_t i) {
            ++ran;
            if (i == 5)
                throw std::runtime_error("group task failed");
        });
        EXPECT_THROW(group.wait(), std::runtime_error) << jobs;
        EXPECT_EQ(ran.load(), 16) << jobs;
        // The runner stays usable after a failed group.
        EXPECT_EQ(runner.map<int>(3, [](std::size_t i) {
                      return static_cast<int>(i);
                  }).back(),
                  2);
    }
}

TEST(ParallelRunner, SmallBatchIsNotQueuedBehindALargeBatch)
{
    // The pool serves in-flight batches round-robin, so a 2-task batch
    // submitted behind a 64-task backlog gets every other pop instead
    // of waiting for the whole backlog.  Every large task holds its
    // worker until the small batch has returned, which makes the
    // schedule observable: round-robin pops at most kJobs large tasks
    // before the small batch drains.  A FIFO pool would park every
    // worker in a large task with the small batch unstarted; the large
    // tasks detect that state (`starved`) and let go, so the failure
    // is an assertion, not a hang.  No sleep or timeout decides it.
    constexpr unsigned kJobs = 4;
    constexpr std::size_t kLarge = 64;
    ParallelRunner runner(kJobs);

    std::mutex mutex;
    std::condition_variable changed;
    unsigned parked = 0;
    bool released = false;
    bool small_queued = false;
    unsigned small_ran = 0;
    unsigned large_held = 0;
    std::size_t large_started = 0;
    std::size_t started_at_return = 0;
    bool small_returned = false;
    bool starved = false;
    const auto await = [&](std::unique_lock<std::mutex> &lock,
                           auto ready) {
        changed.notify_all();
        changed.wait(lock, ready);
    };

    ParallelRunner::TaskGroup large(runner);
    large.spawn(kJobs, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ++parked;
        await(lock, [&] { return released; });
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        await(lock, [&] { return parked == kJobs; });
    }
    large.spawn(kLarge, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ++large_started;
        if (++large_held == kJobs && small_ran < 2)
            starved = true;
        await(lock, [&] { return small_returned || starved; });
        --large_held;
    });

    std::thread submitter([&] {
        ParallelRunner::TaskGroup small(runner);
        small.spawn(2, [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            ++small_ran;
        });
        {
            std::unique_lock<std::mutex> lock(mutex);
            small_queued = true;
            changed.notify_all();
        }
        small.wait();
        std::unique_lock<std::mutex> lock(mutex);
        started_at_return = large_started;
        small_returned = true;
        changed.notify_all();
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return small_queued; });
        released = true;
        changed.notify_all();
    }
    submitter.join();
    large.wait();

    EXPECT_FALSE(starved) << "every worker held by the large batch "
                             "while the small batch waited";
    EXPECT_LE(started_at_return, kJobs);
    EXPECT_LT(started_at_return, kLarge);
    EXPECT_EQ(large_started, kLarge);
    EXPECT_EQ(small_ran, 2u);
}

TEST(ParallelRunner, RunnerIsReusableAcrossBatches)
{
    ParallelRunner runner(3);
    for (int batch = 0; batch < 5; ++batch) {
        std::atomic<int> sum{0};
        runner.run(10, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 45);
    }
}

TEST(ParallelRunner, ParallelCaptureMatchesSerial)
{
    // The tentpole guarantee: fanning the capture of all workloads out
    // to a pool yields bit-identical results to the serial loop.
    const StudyConfig config = tinyStudy();
    CaptureCache serial_cache;
    const auto serial = captureAllWorkloads(config, serial_cache);

    ParallelRunner runner(4);
    CaptureCache parallel_cache;
    const auto parallel =
        captureAllWorkloads(config, parallel_cache, runner);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t w = 0; w < serial.size(); ++w) {
        const CapturedWorkload &a = serial[w];
        const CapturedWorkload &b = parallel[w];
        EXPECT_EQ(b.stream.name(), a.stream.name());
        EXPECT_EQ(b.demandAccesses, a.demandAccesses);
        EXPECT_EQ(b.hierarchy.llcMisses, a.hierarchy.llcMisses);
        EXPECT_EQ(b.hierarchy.llcHits, a.hierarchy.llcHits);
        EXPECT_EQ(b.hierarchy.sharing.sharedHits,
                  a.hierarchy.sharing.sharedHits);
        ASSERT_EQ(b.stream.size(), a.stream.size());
        for (std::size_t i = 0; i < a.stream.size(); i += 61) {
            ASSERT_EQ(b.stream[i].addr, a.stream[i].addr);
            ASSERT_EQ(b.stream[i].core, a.stream[i].core);
        }
    }
}

} // namespace
} // namespace casim
