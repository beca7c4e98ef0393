/**
 * @file
 * Implementation of the deterministic parallel runner.
 */

#include "sim/parallel.hh"

#include <algorithm>

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
      tasks_(stats_.addCounter("tasks", "simulation cells executed")),
      batches_(stats_.addCounter("batches", "run() fan-outs issued")),
      reentries_(stats_.addCounter(
          "reentries", "nested run() calls executed inline")),
      taskSeconds_(stats_.addDistribution(
            "task_seconds", "wall time of each simulation cell"))
{
    stats_.addFormula("jobs", "worker count",
                      [this] { return static_cast<double>(jobs_); });
    stats_.addFormula("max_queue_depth",
                      "deepest job queue observed", [this] {
                          return static_cast<double>(maxQueueDepth_);
                      });
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
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        tls_active_runner = this;
        execute(job);
        tls_active_runner = nullptr;
    }
}

void
ParallelRunner::execute(const Job &job)
{
    PhaseTimer timer;
    std::exception_ptr error;
    try {
        job.fn();
    } catch (...) {
        error = std::current_exception();
    }
    // Stats updates take the mutex even inline: workers of an outer
    // batch may be sampling concurrently when this is a nested group.
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !job.batch->firstError)
        job.batch->firstError = error;
    taskSeconds_.sample(timer.seconds());
    ++tasks_;
    if (--job.batch->pending == 0)
        batchDone_.notify_all();
}

ParallelRunner::TaskGroup::TaskGroup(ParallelRunner &runner)
    : runner_(runner), batch_(std::make_shared<Batch>()),
      inline_(runner.jobs_ == 1 || tls_active_runner == &runner)
{
    std::lock_guard<std::mutex> lock(runner_.mutex_);
    ++runner_.batches_;
    if (tls_active_runner == &runner_)
        ++runner_.reentries_;
}

ParallelRunner::TaskGroup::~TaskGroup()
{
    if (waited_)
        return;
    std::unique_lock<std::mutex> lock(runner_.mutex_);
    runner_.batchDone_.wait(lock,
                            [this] { return batch_->pending == 0; });
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
    {
        std::lock_guard<std::mutex> lock(runner_.mutex_);
        batch_->pending += n;
        for (std::size_t i = 0; i < n; ++i)
            runner_.queue_.push_back(
                {[shared, i] { (*shared)(i); }, batch_});
        runner_.maxQueueDepth_ =
            std::max(runner_.maxQueueDepth_, runner_.queue_.size());
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
        ++batch_->pending;
    }
    runner_.execute({std::move(fn), batch_});
}

void
ParallelRunner::TaskGroup::wait()
{
    waited_ = true;
    std::unique_lock<std::mutex> lock(runner_.mutex_);
    runner_.batchDone_.wait(lock,
                            [this] { return batch_->pending == 0; });
    if (batch_->firstError)
        std::rethrow_exception(batch_->firstError);
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
