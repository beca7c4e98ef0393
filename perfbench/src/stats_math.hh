/**
 * @file
 * Order statistics and span arithmetic the benchmark reports with.
 *
 * Header-only so the self-test links it without the simulator.  The
 * quartiles follow Python's statistics.quantiles(values, n=4) (the
 * default "exclusive" method), because the benchmark's run-to-run
 * spread is judged with that function; keeping one definition means the
 * in-run spread printed here reads the same way.
 */

#ifndef CASIM_PERFBENCH_STATS_MATH_HH
#define CASIM_PERFBENCH_STATS_MATH_HH

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/** Median of `values` (mean of the middle two for an even count). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * The three cut points of statistics.quantiles(values, n=4) with the
 * exclusive method: positions i*(n+1)/4, linearly interpolated and
 * clamped to the data.  Needs at least two values.
 */
inline std::vector<double>
quartiles(std::vector<double> values)
{
    const std::size_t ld = values.size();
    if (ld < 2)
        throw std::invalid_argument("quartiles need at least two values");
    std::sort(values.begin(), values.end());
    const std::size_t m = ld + 1;
    std::vector<double> cuts;
    for (std::size_t i = 1; i < 4; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        cuts.push_back((values[j - 1] * (4.0 - delta) +
                        values[j] * delta) /
                       4.0);
    }
    return cuts;
}

/** A tail latency together with the percentile it was taken at. */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
};

/**
 * The highest percentile that still has `beyond` samples above it, so
 * a tail is never read off a handful of samples: the sample with
 * exactly `beyond` samples after it in sorted order, at percentile
 * 100 * (n - beyond) / n.  With fewer than 2 * beyond samples that
 * would lie below the median, so the median is reported (p50); the
 * value moves continuously as the sample count crosses that point.
 */
inline Tail
tailLatency(const std::vector<double> &values, std::size_t beyond = 10)
{
    if (values.empty())
        throw std::invalid_argument("tail of no values");
    const std::size_t n = values.size();
    if (n < 2 * beyond)
        return {50.0, median(values)};
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return {100.0 * static_cast<double>(n - beyond) / static_cast<double>(n),
            sorted[n - beyond - 1]};
}

/** A closed-open time interval [begin, end), in seconds. */
using Interval = std::pair<double, double>;

/**
 * Total length of the union of `intervals` clipped to [lo, hi).
 * Overlapping children (parallel tasks under one batch span) are
 * counted once.
 */
inline double
coveredLength(std::vector<Interval> intervals, double lo, double hi)
{
    for (Interval &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (const Interval &iv : intervals) {
        if (iv.second <= iv.first)
            continue;
        if (!open || iv.first > run_end) {
            if (open)
                covered += run_end - run_begin;
            run_begin = iv.first;
            run_end = iv.second;
            open = true;
        } else {
            run_end = std::max(run_end, iv.second);
        }
    }
    if (open)
        covered += run_end - run_begin;
    return covered;
}

/**
 * Self time of a span: its duration minus the part of it that its
 * child spans cover.
 */
inline double
selfTime(const Interval &span, const std::vector<Interval> &children)
{
    const double length = span.second - span.first;
    return length - coveredLength(children, span.first, span.second);
}

} // namespace perfbench

#endif // CASIM_PERFBENCH_STATS_MATH_HH
