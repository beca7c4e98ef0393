/**
 * @file
 * Implementation of the deterministic parallel runner.
 */

#include "sim/parallel.hh"

#include <algorithm>
#include <memory>

#include "common/timer.hh"

namespace casim {

namespace {

/**
 * The runner whose batch the current thread is executing a task of,
 * if any.  run() consults it to detect re-entry: a nested fan-out
 * would block this worker on its own pool (deadlocking once every
 * worker does it), so nested calls execute inline instead.
 */
thread_local const ParallelRunner *tls_active_runner = nullptr;

} // namespace

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs == 0 ? 1 : jobs), stats_("runner"),
      sampled_(addStats(
          stats_, [this] { return static_cast<double>(jobs_); },
          [this] { return static_cast<double>(maxQueueDepth_); }))
{
}

ParallelRunner::StatRefs
ParallelRunner::addStats(stats::StatGroup &group,
                         std::function<double()> jobs,
                         std::function<double()> maxQueueDepth)
{
    StatRefs refs{
        group.addCounter("tasks", "simulation cells executed"),
        group.addCounter("batches", "run() fan-outs issued"),
        group.addCounter("reentries", "nested run() calls executed inline"),
        group.addDistribution("task_seconds",
                              "wall time of each simulation cell"),
        group.addDistribution("queue_wait_seconds",
                              "time from spawn to start of each pool task"),
    };
    group.addFormula("jobs", "worker count", std::move(jobs));
    group.addFormula("max_queue_depth",
                     "most tasks queued at once, over all batches",
                     std::move(maxQueueDepth));
    return refs;
}

stats::StatGroup
ParallelRunner::statsSnapshot()
{
    stats::StatGroup snapshot("runner");
    std::lock_guard<std::mutex> lock(mutex_);
    const double jobs = jobs_;
    const double depth = static_cast<double>(maxQueueDepth_);
    addStats(snapshot, [jobs] { return jobs; }, [depth] { return depth; });
    snapshot.mergeFrom(stats_);
    return snapshot;
}

ParallelRunner::~ParallelRunner()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ParallelRunner::workerLoop()
{
    for (;;) {
        Batch *batch = nullptr;
        std::function<void()> fn;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !ring_.empty();
            });
            if (ring_.empty())
                return; // stopping and drained
            // The oldest task of the front batch; the batch then goes
            // to the back of the ring if it has more queued.
            batch = ring_.front();
            ring_.pop_front();
            Job &job = batch->queued.front();
            sampled_.queueWaitSeconds.sample(job.spawned.seconds());
            fn = std::move(job.fn);
            batch->queued.pop_front();
            if (!batch->queued.empty())
                ring_.push_back(batch);
        }
        tls_active_runner = this;
        execute(fn, *batch);
        tls_active_runner = nullptr;
    }
}

void
ParallelRunner::execute(const std::function<void()> &fn, Batch &batch)
{
    PhaseTimer timer;
    std::exception_ptr error;
    try {
        fn();
    } catch (...) {
        error = std::current_exception();
    }
    // Stats updates take the mutex even inline: workers of an outer
    // batch may be sampling concurrently when this is a nested group.
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !batch.firstError)
        batch.firstError = error;
    sampled_.taskSeconds.sample(timer.seconds());
    ++sampled_.tasks;
    if (--batch.pending == 0)
        batchDone_.notify_all();
}

ParallelRunner::TaskGroup::TaskGroup(ParallelRunner &runner)
    : runner_(runner),
      inline_(runner.jobs_ == 1 || tls_active_runner == &runner)
{
    std::lock_guard<std::mutex> lock(runner_.mutex_);
    ++runner_.sampled_.batches;
    if (tls_active_runner == &runner_)
        ++runner_.sampled_.reentries;
}

ParallelRunner::TaskGroup::~TaskGroup()
{
    if (waited_)
        return;
    std::unique_lock<std::mutex> lock(runner_.mutex_);
    runner_.batchDone_.wait(lock,
                            [this] { return batch_.pending == 0; });
}

void
ParallelRunner::TaskGroup::spawn(std::size_t n,
                                 std::function<void(std::size_t)> task)
{
    if (inline_) {
        for (std::size_t i = 0; i < n; ++i)
            runHere([&task, i] { task(i); });
        return;
    }
    if (n == 0)
        return;
    // The queued jobs share one copy of the task: a spawning task's
    // own frame may be gone before they run.
    const auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(
            std::move(task));
    // The pool starts with its first queued job, so building a runner
    // stays cheap and one that only ever runs inline spawns no threads.
    // Started outside the mutex: the new workers park on workReady_
    // instead of queueing on a lock the spawner holds.
    std::call_once(runner_.startWorkers_, [&runner = runner_] {
        runner.workers_.reserve(runner.jobs_);
        for (unsigned w = 0; w < runner.jobs_; ++w)
            runner.workers_.emplace_back([&runner] { runner.workerLoop(); });
    });
    const PhaseTimer spawned;
    {
        std::lock_guard<std::mutex> lock(runner_.mutex_);
        batch_.pending += n;
        // A batch joins the back of the ring when it gets queued work;
        // one already in the ring keeps its place.
        if (batch_.queued.empty())
            runner_.ring_.push_back(&batch_);
        for (std::size_t i = 0; i < n; ++i)
            batch_.queued.push_back({[shared, i] { (*shared)(i); }, spawned});
        std::size_t queued = 0;
        for (const Batch *batch : runner_.ring_)
            queued += batch->queued.size();
        runner_.maxQueueDepth_ = std::max(runner_.maxQueueDepth_, queued);
    }
    if (n == 1)
        runner_.workReady_.notify_one();
    else
        runner_.workReady_.notify_all();
}

void
ParallelRunner::TaskGroup::runHere(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(runner_.mutex_);
        ++batch_.pending;
    }
    runner_.execute(fn, batch_);
}

void
ParallelRunner::TaskGroup::wait()
{
    waited_ = true;
    std::unique_lock<std::mutex> lock(runner_.mutex_);
    runner_.batchDone_.wait(lock,
                            [this] { return batch_.pending == 0; });
    if (batch_.firstError)
        std::rethrow_exception(batch_.firstError);
}

void
ParallelRunner::run(std::size_t n,
                    const std::function<void(std::size_t)> &task)
{
    if (n == 0)
        return;
    // Each run() owns its group's Batch record, so concurrent top-level
    // callers interleave on the one pool without touching each other's
    // completion accounting or error slot.
    TaskGroup group(*this);
    if (n == 1)
        group.runHere([&task] { task(0); });
    else
        group.spawn(n, task);
    group.wait();
}

} // namespace casim
