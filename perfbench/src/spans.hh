/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span brackets one call into a simulator layer (trace generation,
 * the hierarchy capture, a next-use build, one replay cell, a casimd
 * round trip, ...).  Spans are kept in memory with their name, start,
 * end, parent, thread track, cell and run phase, and written out once
 * at the end as a Chrome trace-event file that Perfetto or
 * chrome://tracing opens offline.  Recording takes one mutex per open
 * and close, which is negligible next to the millisecond-scale calls
 * being bracketed; the untraced run never constructs a recorder.
 */

#ifndef CASIM_PERFBENCH_SPANS_HH
#define CASIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** One finished (or still open, end < 0) span. */
struct SpanRecord
{
    std::string name;
    double begin = 0.0; // seconds since the recorder was created
    double end = -1.0;
    int parent = -1;    // index of the parent span, -1 for a root
    int track = 0;      // thread track the span ran on
    std::string cell;   // the experiment cell or op it belongs to
    std::string phase;  // run phase: prep, setup, timed or check

    /** Work the call did, by unit (e.g. "refs"), summed per layer. */
    std::map<std::string, double> counts;
};

/** Thread-safe span store; one per traced run. */
class SpanRecorder
{
  public:
    /** Parent argument meaning "the innermost span open on this thread". */
    static constexpr int kInherit = -2;

    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span; returns its id for close() and as a parent. */
    int open(const std::string &name, const std::string &cell,
             int parent);

    /** Close span `id` (must be open, on the thread that opened it). */
    void close(int id);

    /** Add `value` to count `key` of span `id`. */
    void count(int id, const std::string &key, double value);

    /** Label the calling thread's track (e.g. "client small-1"). */
    void nameTrack(const std::string &label);

    /** Phase stamped onto spans opened from now on. */
    void setPhase(const std::string &phase);

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /**
     * Write all spans as Chrome trace-event JSON to `path`, with one
     * track per thread and `metadata` (flat string pairs) under
     * "otherData".  Returns false on an I/O error.
     */
    bool writeChromeTrace(
        const std::string &path,
        const std::map<std::string, std::string> &metadata) const;

  private:
    /** Seconds since the recorder was created. */
    double now() const;

    int trackOfLocked(std::thread::id thread);

    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::map<std::thread::id, int> tracks_;
    std::vector<std::string> trackNames_;
    std::string phase_;
};

/**
 * RAII span; a null recorder makes it a no-op, so the traced and
 * untraced code paths are the same code.
 */
class Span
{
  public:
    Span(SpanRecorder *recorder, const std::string &name,
         const std::string &cell = "",
         int parent = SpanRecorder::kInherit)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->open(name, cell, parent)
                                  : -1)
    {
    }

    ~Span()
    {
        if (recorder_ != nullptr)
            recorder_->close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Span id, for explicit parent links from other threads. */
    int id() const { return id_; }

    /** Add `value` to the span's count `key`. */
    void count(const std::string &key, double value)
    {
        if (recorder_ != nullptr)
            recorder_->count(id_, key, value);
    }

  private:
    SpanRecorder *recorder_;
    int id_;
};

/** Per-name totals over a set of spans. */
struct LayerTime
{
    std::size_t count = 0;
    double busy = 0.0; // summed durations
    double self = 0.0; // summed durations minus child coverage

    /** Summed span counts by key. */
    std::map<std::string, double> counts;
};

/**
 * Busy and self time per span name, over the closed spans whose phase
 * is `phase` (every phase when empty).
 */
std::map<std::string, LayerTime>
layerTimes(const std::vector<SpanRecord> &spans,
           const std::string &phase = "");

} // namespace perfbench

#endif // CASIM_PERFBENCH_SPANS_HH
