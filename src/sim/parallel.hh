/**
 * @file
 * Deterministic parallel fan-out of independent simulation cells.
 *
 * Every bench binary sweeps a grid of (workload, policy, capacity)
 * cells, and each cell owns its whole simulation state (StreamSim,
 * Cache, policy instance), so the cells are embarrassingly parallel.
 * ParallelRunner is the one concurrency primitive the experiment layer
 * uses: a fixed-size worker pool that executes indexed tasks and
 * collects their results into deterministically ordered slots, making
 * parallel output bit-identical to the serial path regardless of
 * scheduling.
 *
 * Scheduling is FIFO within a batch and round-robin across batches:
 * every TaskGroup keeps its own queue of spawned tasks, and a worker
 * takes the oldest task of the batch at the front of a ring of batches
 * with queued work, then moves that batch to the back.  A small batch
 * submitted beside a large backlog (a casimd request beside a sweep)
 * therefore waits for one task per other batch, not for the backlog;
 * a batch running alone gets exactly the FIFO schedule.
 *
 * Isolation rule: a task must only touch state it owns (plus read-only
 * shared inputs such as captured traces and next-use indices).  Nothing
 * in the simulator uses mutable global state, so this rule is purely
 * local to the task lambdas the benches write.
 */

#ifndef CASIM_SIM_PARALLEL_HH
#define CASIM_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "common/timer.hh"

namespace casim {

/** Fixed-size worker pool executing indexed tasks deterministically. */
class ParallelRunner
{
    /** One task spawned to the pool and not yet started. */
    struct Job
    {
        std::function<void()> fn;
        PhaseTimer spawned;
    };

    /**
     * What one TaskGroup (and so one run() call) owns: its queue of
     * spawned tasks, oldest first, the undone-task count and the first
     * exception of that batch, so concurrent top-level batches never
     * touch each other's state.  All fields are guarded by the runner
     * mutex.  The runner's ring points at a batch only while it has
     * queued tasks, and so pending work that keeps its group's wait()
     * or destructor blocked.
     */
    struct Batch
    {
        std::deque<Job> queued;
        std::size_t pending = 0;
        std::exception_ptr firstError;
    };

  public:
    /**
     * @param jobs Worker count; 0 and 1 both mean "no threads": tasks
     *             run inline on the caller in index order, which is the
     *             exact serial code path.  Otherwise the workers start
     *             when the first job is queued to the pool.
     */
    explicit ParallelRunner(unsigned jobs);

    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Worker count this runner executes with (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute task(0) ... task(n-1), each exactly once, and return when
     * all have finished.  With jobs() == 1 the tasks run inline in
     * index order; otherwise they are fanned out to the pool and may
     * run in any order, so tasks must be independent (see the isolation
     * rule above).  Every path drains the whole batch and rethrows the
     * first task exception afterwards, so `tasks`/`task_seconds` stats
     * are consistent across jobs values and the runner stays reusable.
     *
     * Concurrent top-level calls are safe: every run() owns its own
     * batch (task queue, pending count, first error), so independent
     * callers — e.g. casimd connection threads executing overlapping
     * experiment batches — share one pool, served round-robin, each
     * returning when its own batch drains and rethrowing only its own
     * batch's first exception.
     *
     * Nesting is also safe: a task that calls run() on its own runner
     * (e.g. a sharded replay inside an experiment cell) is detected
     * through a thread-local marker and executed inline on the worker,
     * because a worker blocking on its own pool would deadlock it.
     *
     * run() is a TaskGroup (below) of n tasks spawned up front; a
     * single task runs on the caller.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &task);

    /**
     * Map fn over [0, n), collecting results into slot i of the
     * returned vector — deterministically ordered regardless of which
     * worker computed which cell.  Result must be default-constructible
     * and movable.
     */
    template <typename Result>
    std::vector<Result>
    map(std::size_t n, const std::function<Result(std::size_t)> &fn)
    {
        std::vector<Result> out(n);
        run(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * A dynamic batch: tasks are spawned in bursts — also from inside
     * running tasks of the same group — and wait() returns once every
     * spawned task has finished, rethrowing the group's first
     * exception.  spawn() never blocks, so a task can release follow-up
     * work the moment its inputs exist (the experiment queue's warm
     * task spawns its identity's cells) instead of the caller fanning
     * out in barrier-separated phases.
     *
     * With jobs() == 1, or when the group is created on a thread that
     * is running one of this runner's tasks, spawn() runs the task
     * inline before returning (a nested pool wait could deadlock, as
     * for run()).  Either way the group counts as one batch.
     */
    class TaskGroup
    {
      public:
        explicit TaskGroup(ParallelRunner &runner);

        /**
         * Waits for spawned tasks (dropping their error) if wait() was
         * not called, so no task outlives the state it captured.
         */
        ~TaskGroup();

        TaskGroup(const TaskGroup &) = delete;
        TaskGroup &operator=(const TaskGroup &) = delete;

        /**
         * Queue task(0) ... task(n-1) on the pool in one hand-off (or
         * run them inline in index order, see above).
         */
        void spawn(std::size_t n, std::function<void(std::size_t)> task);

        /**
         * Run `fn` as a task of this group on the calling thread, now.
         * For a lone task a pool hand-off would only make it wait for
         * a worker busy with other batches' tasks; tasks it spawns
         * still go to the pool.
         */
        void runHere(std::function<void()> fn);

        /**
         * Block until every spawned task, including tasks spawned by
         * tasks, has finished; rethrow the first exception.  Call it
         * once, after the caller's last spawn().
         */
        void wait();

      private:
        ParallelRunner &runner_;
        Batch batch_;
        bool inline_;
        bool waited_ = false;
    };

    /**
     * Execution counters: batches and tasks run, per-task wall time,
     * per-task queue wait, the worker count and the deepest queue
     * observed.  Counter and distribution updates are serialized on
     * the runner mutex; read the values after the runs of interest
     * have completed, or through statsSnapshot().
     */
    const stats::StatGroup &stats() const { return stats_; }

    /**
     * A copy of stats() with the same names and values, taken under
     * the runner mutex, so it can be read while batches are running
     * (the casimd stats op).  Workers wait only for the copy, not for
     * whatever renders it.
     */
    stats::StatGroup statsSnapshot();

  private:
    /** Worker main loop: pop tasks until asked to stop. */
    void workerLoop();

    /**
     * Run one task of `batch` on the calling thread (a worker, or the
     * spawner of an inline group) and retire it: keep the batch's first
     * exception, sample per-task stats, signal a drained batch.
     */
    void execute(const std::function<void()> &fn, Batch &batch);

    /** The sampled statistics of a runner group, see addStats(). */
    struct StatRefs
    {
        stats::Counter &tasks;
        stats::Counter &batches;
        stats::Counter &reentries;
        stats::Distribution &taskSeconds;
        stats::Distribution &queueWaitSeconds;
    };

    /**
     * Register the runner statistics on `group`, always in the same
     * order (so a snapshot pairs with the live group in mergeFrom());
     * the formulas evaluate `jobs` and `maxQueueDepth`.
     */
    static StatRefs addStats(stats::StatGroup &group,
                             std::function<double()> jobs,
                             std::function<double()> maxQueueDepth);

    // Layout note: perfbench's study-cold times the allocation of a
    // CaptureCache, a ParallelRunner and an ExperimentQueue as one
    // block of 1032 bytes, exactly glibc's largest tcache size.  Any
    // 8 or more bytes added to one of those classes moves the block
    // off the tcache and raises study-cold setup_s about 1.9x with no
    // constructor getting slower (FOUND line on ColdQueue in
    // CHANGES.md).  Keep sizeof(ParallelRunner) at 360 bytes until
    // that benchmark stops measuring allocator state.
    unsigned jobs_;
    /** Starts workers_ once, on the first job queued to the pool. */
    std::once_flag startWorkers_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable batchDone_;
    /** Batches with queued tasks, in the order they are served. */
    std::deque<Batch *> ring_;
    std::size_t maxQueueDepth_ = 0;
    bool stopping_ = false;

    stats::StatGroup stats_;
    StatRefs sampled_;
};

} // namespace casim

#endif // CASIM_SIM_PARALLEL_HH
