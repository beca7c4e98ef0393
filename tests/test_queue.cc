/**
 * @file
 * Tests for the ExperimentQueue: batches must dedupe identical cells,
 * produce the same numbers as direct cell execution, warm each capture
 * identity exactly once under its lease, overlap concurrent batches
 * without changing a single result byte, and reject invalid requests
 * with the clean validate() diagnostics.
 */

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/capture_cache.hh"
#include "sim/queue.hh"

namespace casim {
namespace {

/** Read a named counter out of a stat group; fails the test if absent. */
std::uint64_t
counterValue(const stats::StatGroup &group, const std::string &name)
{
    const auto value = stats::counterValue(group.find(name));
    EXPECT_TRUE(value.has_value()) << name;
    return value.value_or(0);
}

/** A fast study configuration for queue tests. */
StudyConfig
testConfig()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.01;
    config.hierarchy.numCores = 4;
    return config;
}

TEST(Queue, BatchDedupesIdenticalCells)
{
    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue queue(cache, runner);

    ExperimentRequest lru;
    lru.workload = "canneal";
    lru.config = testConfig();
    ExperimentRequest opt = lru;
    opt.policy = "opt";

    const auto results = queue.runBatch({lru, opt, lru});
    ASSERT_EQ(results.size(), 3u);
    // The duplicate slot carries the shared cell's numbers.
    EXPECT_EQ(results[0].misses, results[2].misses);
    EXPECT_EQ(results[0].streamRefs, results[2].streamRefs);
    EXPECT_GT(results[0].misses, 0u);
    // OPT can only do better than LRU.
    EXPECT_LE(results[1].misses, results[0].misses);

    EXPECT_EQ(counterValue(queue.stats(), "queue.submitted"), 3u);
    EXPECT_EQ(counterValue(queue.stats(), "queue.executed"), 2u);
    EXPECT_EQ(counterValue(queue.stats(), "queue.dedup_hits"), 1u);
    EXPECT_EQ(counterValue(queue.stats(), "queue.batches"), 1u);
}

TEST(Queue, BatchMatchesDirectCellExecution)
{
    const StudyConfig config = testConfig();

    ExperimentRequest request;
    request.workload = "streamcluster";
    request.labeler = "oracle";
    request.config = config;

    // Direct path: capture + executeCell by hand.
    CaptureCache direct_cache;
    const auto workload =
        direct_cache.capture("streamcluster", config);
    const ExperimentResult direct =
        executeCell(request, *workload, nullptr);

    // Queue path.
    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue queue(cache, runner);
    const auto results = queue.runBatch({request});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].misses, direct.misses);
    EXPECT_EQ(results[0].streamRefs, direct.streamRefs);
    EXPECT_EQ(results[0].toRows(), direct.toRows());
}

TEST(Queue, BatchCapturesEachIdentityOnce)
{
    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue queue(cache, runner);

    // Four cells, two capture identities (same workload at two thread
    // counts); the warm phase must capture each exactly once.
    ExperimentRequest lru;
    lru.workload = "canneal";
    lru.config = testConfig();
    ExperimentRequest srrip = lru;
    srrip.policy = "srrip";
    ExperimentRequest lru2 = lru;
    lru2.config.workload.threads = 2;
    lru2.config.hierarchy.numCores = 2;
    ExperimentRequest srrip2 = lru2;
    srrip2.policy = "srrip";

    queue.runBatch({lru, srrip, lru2, srrip2});
    // The warm phase groups the four cells into two capture
    // identities and calls capture() once per group: no repeat
    // lookups yet.
    EXPECT_EQ(counterValue(cache.stats(), "capture_cache.memo_hits"),
              0u);
    EXPECT_EQ(counterValue(queue.stats(), "queue.executed"), 4u);
    // One cold warm per identity, and both are resident.
    EXPECT_EQ(counterValue(queue.stats(), "queue.lease_warms"), 2u);
    EXPECT_EQ(cache.residentCounter("entries"), 2u);

    // A second batch over the same identities resolves both from the
    // resident store — no further cold warms.
    queue.runBatch({lru, srrip2});
    EXPECT_EQ(counterValue(cache.stats(), "capture_cache.memo_hits"),
              2u);
    EXPECT_EQ(counterValue(queue.stats(), "queue.lease_warms"), 2u);
}

TEST(Queue, SequentialBatchesAreDeterministic)
{
    CaptureCache cache;
    ParallelRunner runner(4);
    ExperimentQueue queue(cache, runner);

    ExperimentRequest request;
    request.workload = "dedup";
    request.config = testConfig();
    request.labeler = "oracle";

    const auto first = queue.runBatch({request});
    const auto second = queue.runBatch({request});
    EXPECT_EQ(first[0].toRows(), second[0].toRows());
}

TEST(Queue, ConcurrentBatchesMatchSerialExecution)
{
    // Three submitters with overlapping (canneal) and disjoint (dedup)
    // capture identities.  Concurrent batches must produce the exact
    // rows serial execution does, warm each identity exactly once
    // across all of them, and actually overlap (the queue no longer
    // serializes whole batches behind one mutex).
    ExperimentRequest canneal;
    canneal.workload = "canneal";
    canneal.config = testConfig();
    ExperimentRequest canneal_srrip = canneal;
    canneal_srrip.policy = "srrip";
    ExperimentRequest dedup;
    dedup.workload = "dedup";
    dedup.config = testConfig();

    const std::vector<std::vector<ExperimentRequest>> batches = {
        {canneal, canneal_srrip}, // identity A
        {canneal_srrip, canneal}, // identity A again (lease shared)
        {dedup},                  // identity B (disjoint)
    };
    constexpr int kRounds = 4;

    // Serial reference rows, one queue, one batch at a time.
    std::vector<std::vector<std::vector<std::string>>> expected;
    {
        CaptureCache cache;
        ParallelRunner runner(4);
        ExperimentQueue queue(cache, runner);
        for (const auto &batch : batches)
            for (const auto &result : queue.runBatch(batch))
                expected.push_back(result.toRows());
    }

    // A few attempts guard against a pathological schedule where the
    // submitters never overlap; real capture work makes one attempt
    // all but certain to.
    std::uint64_t concurrent = 0;
    for (int attempt = 0; attempt < 5 && concurrent == 0; ++attempt) {
        CaptureCache cache;
        ParallelRunner runner(4);
        ExperimentQueue queue(cache, runner);

        std::atomic<int> ready{0};
        std::vector<std::thread> submitters;
        for (std::size_t b = 0; b < batches.size(); ++b) {
            submitters.emplace_back([&, b] {
                ++ready;
                while (ready.load() < 3) // start together
                    std::this_thread::yield();
                for (int round = 0; round < kRounds; ++round) {
                    const auto results = queue.runBatch(batches[b]);
                    std::size_t slot = 0;
                    for (std::size_t i = 0; i < b; ++i)
                        slot += batches[i].size();
                    ASSERT_EQ(results.size(), batches[b].size());
                    for (std::size_t i = 0; i < results.size(); ++i)
                        EXPECT_EQ(results[i].toRows(),
                                  expected[slot + i])
                            << "batch " << b << " slot " << i;
                }
            });
        }
        for (auto &thread : submitters)
            thread.join();

        EXPECT_EQ(counterValue(queue.stats(), "queue.batches"),
                  batches.size() * kRounds);
        // Exactly one cold warm per capture identity, ever: the lease
        // makes later holders wait instead of re-capturing.
        EXPECT_EQ(counterValue(queue.stats(), "queue.lease_warms"), 2u);
        EXPECT_EQ(cache.residentCounter("entries"), 2u);
        EXPECT_EQ(cache.residentCounter("evictions"), 0u);
        EXPECT_GE(counterValue(queue.stats(), "queue.lease_holders_max"),
                  1u);
        concurrent =
            counterValue(queue.stats(), "queue.concurrent_batches");
    }
    EXPECT_GT(concurrent, 0u);
}

/** Study-cold style cells over several capture identities: capture
 * numbers, plain and OPT replay, an oracle-labeled replay (label
 * planes in the warm) and a sharded replay (nested fan-out). */
std::vector<ExperimentRequest>
multiIdentityBatch(const std::vector<std::string> &workloads)
{
    std::vector<ExperimentRequest> cells;
    for (const std::string &name : workloads) {
        ExperimentRequest capture;
        capture.kind = "capture";
        capture.workload = name;
        capture.config = testConfig();
        cells.push_back(capture);
        ExperimentRequest lru = capture;
        lru.kind = "replay";
        cells.push_back(lru);
        ExperimentRequest opt = lru;
        opt.policy = "opt";
        cells.push_back(opt);
        ExperimentRequest oracle = lru;
        oracle.labeler = "oracle";
        cells.push_back(oracle);
        ExperimentRequest sharded = lru;
        sharded.policy = "srrip";
        sharded.shards = 2;
        cells.push_back(sharded);
    }
    return cells;
}

TEST(Queue, PipelinedBatchMatchesSerialRunner)
{
    // Each identity's cells start as soon as its own warm publishes,
    // interleaving with other identities' warms; results must not
    // depend on that schedule.
    const std::vector<ExperimentRequest> cells = multiIdentityBatch(
        {"canneal", "dedup", "ocean", "streamcluster", "swim_omp"});
    std::vector<std::vector<std::vector<std::string>>> rows[2];
    const unsigned jobs[2] = {1, 4};
    for (int r = 0; r < 2; ++r) {
        CaptureCache cache;
        ParallelRunner runner(jobs[r]);
        ExperimentQueue queue(cache, runner);
        for (const ExperimentResult &result : queue.runBatch(cells))
            rows[r].push_back(result.toRows());
        EXPECT_EQ(counterValue(queue.stats(), "queue.lease_warms"), 5u);
        EXPECT_EQ(counterValue(queue.stats(), "queue.lease_waits"), 0u);
        // One warm task per identity plus one task per cell.
        const auto tasks =
            stats::counterValue(runner.stats().find("runner.tasks"));
        ASSERT_TRUE(tasks.has_value());
        EXPECT_GE(*tasks, 5u + cells.size());
    }
    ASSERT_EQ(rows[0].size(), cells.size());
    EXPECT_EQ(rows[0], rows[1]);
}

TEST(Queue, ConcurrentBatchesSharingIdentitiesWarmEachOnce)
{
    // Three submitters whose batches pairwise share identities, so each
    // batch owns some warms and borrows others (waiting, then topping
    // up label planes) while its owned identities' cells already run.
    const std::vector<std::vector<std::string>> names = {
        {"canneal", "dedup"}, {"dedup", "ocean"}, {"ocean", "canneal"}};
    std::vector<std::vector<ExperimentRequest>> batches;
    for (const auto &pair : names)
        batches.push_back(multiIdentityBatch(pair));

    using Rows = std::vector<std::vector<std::string>>;
    std::vector<std::vector<Rows>> expected(batches.size());
    {
        CaptureCache cache;
        ParallelRunner runner(1);
        ExperimentQueue queue(cache, runner);
        for (std::size_t b = 0; b < batches.size(); ++b)
            for (const auto &result : queue.runBatch(batches[b]))
                expected[b].push_back(result.toRows());
    }

    CaptureCache cache;
    ParallelRunner runner(4);
    ExperimentQueue queue(cache, runner);
    std::atomic<int> ready{0};
    std::vector<std::thread> submitters;
    for (std::size_t b = 0; b < batches.size(); ++b)
        submitters.emplace_back([&, b] {
            ++ready;
            while (ready.load() < 3) // start together
                std::this_thread::yield();
            for (int round = 0; round < 3; ++round) {
                std::vector<Rows> rows;
                for (const auto &result : queue.runBatch(batches[b]))
                    rows.push_back(result.toRows());
                EXPECT_EQ(rows, expected[b]) << "batch " << b;
            }
        });
    for (auto &thread : submitters)
        thread.join();

    // Every identity warmed exactly once, however the batches overlap.
    EXPECT_EQ(counterValue(queue.stats(), "queue.lease_warms"),
              cache.residentCounter("entries"));
    EXPECT_EQ(cache.residentCounter("entries"), 3u);
    EXPECT_EQ(cache.residentCounter("evictions"), 0u);
}

TEST(Queue, QuiesceBlocksNewBatchesUntilReleased)
{
    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue queue(cache, runner);

    ExperimentRequest request;
    request.workload = "canneal";
    request.config = testConfig();
    const auto expected = queue.runBatch({request})[0].toRows();

    std::atomic<bool> finished{false};
    std::thread submitter;
    {
        const auto drained = queue.quiesce();
        submitter = std::thread([&] {
            EXPECT_EQ(queue.runBatch({request})[0].toRows(), expected);
            finished.store(true);
        });
        // The batch must not complete while the queue is quiesced.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(finished.load());
    }
    submitter.join();
    EXPECT_TRUE(finished.load());
}

TEST(Queue, InvalidRequestIsFatalWithTheFieldName)
{
    CaptureCache cache;
    ParallelRunner runner(1);
    ExperimentQueue queue(cache, runner);

    ExperimentRequest bad;
    bad.workload = "canneal";
    bad.labeler = "orcle";
    EXPECT_DEATH(queue.runBatch({bad}),
                 "invalid experiment request: unknown labeler 'orcle'");
}

} // namespace
} // namespace casim
