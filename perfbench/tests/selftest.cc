/**
 * @file
 * Self-tests of the benchmark's own arithmetic: median, the quartiles
 * (against values Python's statistics.quantiles(values, n=4) gives),
 * the tail-percentile rule, interval coverage, span self time, and the
 * span recorder's per-layer totals.
 */

#include <gtest/gtest.h>

#include <thread>

#include "spans.hh"
#include "stats_math.hh"

using namespace perfbench;

TEST(PerfbenchMath, MedianOddEvenAndUnsorted)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchMath, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q10[0], 2.75);
    EXPECT_DOUBLE_EQ(q10[1], 5.5);
    EXPECT_DOUBLE_EQ(q10[2], 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const auto q2 = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q2[0], 0.75);
    EXPECT_DOUBLE_EQ(q2[1], 1.5);
    EXPECT_DOUBLE_EQ(q2[2], 2.25);
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    const auto q5 = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q5[0], 1.5);
    EXPECT_DOUBLE_EQ(q5[1], 3.0);
    EXPECT_DOUBLE_EQ(q5[2], 4.5);
    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(PerfbenchMath, TailKeepsTenSamplesBeyondIt)
{
    std::vector<double> values;
    for (int i = 1000; i >= 1; --i)
        values.push_back(i);
    // p99 of 1000 leaves exactly 10 above it.
    Tail tail = tailLatency(values);
    EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
    EXPECT_DOUBLE_EQ(tail.value, 990.0);

    values.assign(200, 0.0);
    for (int i = 0; i < 200; ++i)
        values[i] = i + 1;
    tail = tailLatency(values); // p95 leaves 10 of 200 above it
    EXPECT_DOUBLE_EQ(tail.percentile, 95.0);
    EXPECT_DOUBLE_EQ(tail.value, 190.0);

    values.resize(25); // p60: 15 of 25, then 10 above
    tail = tailLatency(values);
    EXPECT_DOUBLE_EQ(tail.percentile, 60.0);
    EXPECT_DOUBLE_EQ(tail.value, 15.0);

    values.resize(20); // the lowest count with a tail: p50
    tail = tailLatency(values);
    EXPECT_DOUBLE_EQ(tail.percentile, 50.0);
    EXPECT_DOUBLE_EQ(tail.value, 10.0);
}

TEST(PerfbenchMath, TailFallsBackToTheMedianBelowTwentySamples)
{
    const std::vector<double> values = {12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6};
    const Tail tail = tailLatency(values);
    EXPECT_DOUBLE_EQ(tail.percentile, 50.0);
    EXPECT_DOUBLE_EQ(tail.value, 6.5);
    EXPECT_THROW(tailLatency({}), std::invalid_argument);
}

TEST(PerfbenchMath, CoveredLengthMergesAndClips)
{
    EXPECT_DOUBLE_EQ(coveredLength({}, 0, 10), 0.0);
    EXPECT_DOUBLE_EQ(coveredLength({{1, 3}, {2, 5}, {7, 8}}, 0, 10), 5.0);
    // Clipped to the parent window, and a child touching its end.
    EXPECT_DOUBLE_EQ(coveredLength({{-2, 1}, {9, 12}}, 0, 10), 2.0);
    // Nested and identical intervals count once.
    EXPECT_DOUBLE_EQ(coveredLength({{1, 9}, {2, 3}, {1, 9}}, 0, 10), 8.0);
    // Adjacent intervals join without double counting.
    EXPECT_DOUBLE_EQ(coveredLength({{1, 2}, {2, 3}}, 0, 10), 2.0);
}

TEST(PerfbenchMath, SelfTimeSubtractsParallelChildrenOnce)
{
    // A 10 s batch with four overlapping worker tasks covering [1, 8).
    EXPECT_DOUBLE_EQ(
        selfTime({0, 10}, {{1, 5}, {1, 6}, {2, 8}, {3, 4}}), 3.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {}), 10.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{0, 10}}), 0.0);
}

TEST(PerfbenchSpans, LayerTimesUseParentLinksAcrossThreads)
{
    std::vector<SpanRecord> spans(4);
    spans[0] = {"batch", 0.0, 10.0, -1, 0, "", "timed", {}};
    spans[1] = {"cell", 1.0, 4.0, 0, 1, "a", "timed", {{"refs", 30}}};
    spans[2] = {"cell", 2.0, 6.0, 0, 2, "b", "timed", {{"refs", 10}}};
    spans[3] = {"gen", 0.0, 1.0, -1, 0, "", "prep", {}};
    const auto all = layerTimes(spans);
    EXPECT_EQ(all.at("cell").count, 2u);
    EXPECT_DOUBLE_EQ(all.at("cell").busy, 7.0);
    EXPECT_DOUBLE_EQ(all.at("cell").counts.at("refs"), 40.0);
    EXPECT_DOUBLE_EQ(all.at("batch").self, 5.0);
    EXPECT_EQ(all.count("gen"), 1u);
    const auto timed = layerTimes(spans, "timed");
    EXPECT_EQ(timed.count("gen"), 0u);
}

TEST(PerfbenchSpans, RecorderNestsOnOneThreadAndLinksExplicitly)
{
    SpanRecorder recorder;
    recorder.setPhase("timed");
    int outer_id = -1;
    {
        Span outer(&recorder, "outer");
        outer_id = outer.id();
        {
            Span inner(&recorder, "inner");
            inner.count("refs", 5);
        }
        std::thread worker([&] {
            Span task(&recorder, "task", "cell", outer_id);
        });
        worker.join();
    }
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].parent, outer_id);
    EXPECT_EQ(spans[2].parent, outer_id);
    EXPECT_NE(spans[2].track, spans[0].track);
    EXPECT_EQ(spans[1].phase, "timed");
    EXPECT_DOUBLE_EQ(spans[1].counts.at("refs"), 5.0);
    for (const SpanRecord &span : spans)
        EXPECT_GE(span.end, span.begin);
}

TEST(PerfbenchSpans, NullRecorderIsANoOp)
{
    Span span(nullptr, "nothing");
    span.count("refs", 1);
    EXPECT_EQ(span.id(), -1);
}
