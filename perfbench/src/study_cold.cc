/**
 * @file
 * study-cold: one in-process ExperimentQueue batch over every workload
 * with a fresh CaptureCache and no capture directory.  Each workload
 * runs few cells (its capture numbers, then lru, opt and lru+oracle at
 * 4 MiB), so cold capture (wgen + the MESI hierarchy), the next-use
 * build and the label-plane build do most of the work and replay does
 * little: the capture-side counterpart of any replay change.
 */

#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "stats_math.hh"
#include "trace/next_use.hh"
#include "util.hh"
#include "warm.hh"

namespace perfbench {

using casim::CaptureCache;
using casim::ExperimentQueue;
using casim::ExperimentRequest;
using casim::ExperimentResult;
using casim::ParallelRunner;

namespace {

constexpr std::uint64_t kStudyBytes = 4ull * 1024 * 1024;

/** One queue batch's worth of state, built fresh per iteration. */
struct ColdQueue
{
    explicit ColdQueue(unsigned jobs) : runner(jobs), queue(cache, runner) {}

    CaptureCache cache;
    ParallelRunner runner;
    ExperimentQueue queue;
};

std::vector<ExperimentRequest>
studyCells(const casim::StudyConfig &config)
{
    std::vector<ExperimentRequest> cells;
    for (const std::string &name : workloadNames()) {
        cells.push_back(makeCell("capture", name, "", 0, config));
        for (const char *policy : {"lru", "opt", "lru+oracle"})
            cells.push_back(
                makeCell("replay", name, policy, kStudyBytes, config));
    }
    return cells;
}

/** Simulated demand refs and replayed LLC refs one batch covers. */
std::pair<double, double>
batchWork(const std::vector<ExperimentRequest> &cells,
          const ResultBook &book)
{
    double demand = 0.0;
    double replayed = 0.0;
    for (const ExperimentRequest &cell : cells) {
        const ExperimentResult *result = book.find(cell);
        if (result == nullptr)
            continue;
        if (cell.kind == "capture")
            demand += static_cast<double>(result->demandAccesses);
        else
            replayed += static_cast<double>(result->streamRefs);
    }
    return {demand, replayed};
}

void
reportPaperLine(const std::vector<ExperimentRequest> &cells,
                const ResultBook &book, Report &report)
{
    char text[240];
    std::snprintf(text, sizeof(text),
                  "model (unvalidated, no error figure): mean lru+oracle "
                  "miss reduction over lru at 4MiB = %.2f%%; paper: 6%% at "
                  "4 MB, 10%% at 8 MB",
                  100.0 * meanOracleReduction(cells, book, kStudyBytes));
    report.line(text);
}

} // namespace

void
runStudyCold(const Settings &settings, Report &report, Checks &checks)
{
    const Sizes sizes = sizesFor(settings);
    const casim::StudyConfig config = studyConfig(
        sizes.coldScale, settings.seed, kStudyBytes, 2 * kStudyBytes);
    const std::vector<ExperimentRequest> cells = studyCells(config);
    ResultBook book;
    report.line("study-cold: " + std::to_string(cells.size()) +
                " cells, scale " + std::to_string(sizes.coldScale) +
                ", jobs " + std::to_string(settings.jobs));

    // One fresh queue per batch: set-up is building the cache, the pool
    // and the queue, which is all a cold study needs before it runs.
    std::vector<double> setups;
    const auto fresh = [&] {
        const double t0 = monoSeconds();
        auto state = std::make_unique<ColdQueue>(settings.jobs);
        setups.push_back(monoSeconds() - t0);
        return state;
    };
    const auto queueBatch = [&](double *wall) {
        auto state = fresh();
        const std::vector<ExperimentRequest> requests = cells;
        const double t0 = monoSeconds();
        const auto results = state->queue.runBatch(requests);
        *wall = monoSeconds() - t0;
        book.recordBatch(cells, results, "queue", checks);
        return state;
    };

    double wall = 0.0;
    queueBatch(&wall); // warm-up: reference results, lazy process set-up
    setups.clear();

    if (!settings.trace) {
        std::vector<double> batches;
        const double start = monoSeconds();
        while (batches.empty() || monoSeconds() - start < settings.seconds) {
            queueBatch(&wall);
            batches.push_back(wall);
        }
        const double timed_wall = monoSeconds() - start;
        // More set-ups than batches, so the median set-up is steady.
        while (setups.size() < 101)
            fresh();
        book.checkOptBound(cells, checks);
        reportPaperLine(cells, book, report);
        const auto [demand, replayed] = batchWork(cells, book);
        reportInProcess(report, setups, batches, demand, replayed,
                        timed_wall, checks);
        return;
    }

    // Traced run: alternate untraced queue batches with traced pipeline
    // batches that perform the queue's steps one public call at a time.
    SpanRecorder recorder;
    recorder.nameTrack("main");
    LayerCounts counts;
    counts.jobs = settings.jobs;
    counts.minCap = counts.maxCap = kStudyBytes;
    std::vector<double> untraced;
    std::vector<double> traced;
    CaptureSet last;
    std::unique_ptr<ColdQueue> queue_state;
    const double start = monoSeconds();
    while (traced.empty() || monoSeconds() - start < settings.seconds) {
        queue_state = queueBatch(&wall);
        untraced.push_back(wall);

        recorder.setPhase("timed");
        ParallelRunner runner(settings.jobs);
        CaptureSet captures;
        const double builds = casim::labelPlaneCounter("builds");
        const double hits = casim::labelPlaneCounter("memo_hits");
        const double t0 = monoSeconds();
        const auto results =
            pipelineBatch(&recorder, runner, cells, captures);
        traced.push_back(monoSeconds() - t0);
        counts.planeBuilds += casim::labelPlaneCounter("builds") - builds;
        counts.planeMemoHits +=
            casim::labelPlaneCounter("memo_hits") - hits;
        book.recordBatch(cells, results, "traced pipeline", checks);
        last = std::move(captures);
    }
    counts.timedIterations = static_cast<unsigned>(traced.size());
    counts.planeBuilds /= static_cast<double>(traced.size());
    counts.planeMemoHits /= static_cast<double>(traced.size());
    counts.planesFrom = "label_plane counters around each traced batch";
    counts.traceOverhead = median(traced) / median(untraced) - 1.0;
    report.timing("untraced batch", untraced, "ms", 1e3);
    report.timing("traced batch", traced, "ms", 1e3);

    readQueueCounters(queue_state->queue, queue_state->cache, counts);

    // Check phase: cold vs warm bundles, then the daemon path.
    recorder.setPhase("check");
    casim::StudyConfig warm_config = config;
    warm_config.captureDir = settings.runDir + "/bundles";
    std::filesystem::create_directories(warm_config.captureDir);
    {
        CaptureCache save_cache;
        ParallelRunner runner(settings.jobs);
        const std::vector<std::string> names = workloadNames();
        runner.run(names.size(), [&](std::size_t i) {
            checks.attempt();
            if (!saveBundle(&recorder, save_cache, names[i], warm_config,
                            *last.at(names[i])))
                checks.fail("cannot save bundle of " + names[i]);
        });
        CaptureCache load_cache;
        CaptureSet loaded =
            loadAll(settings, &recorder, warm_config, load_cache, checks);
        counts.bytesMapped =
            static_cast<double>(load_cache.counter("bytes_mapped"));
        if (loaded.size() == names.size()) {
            const auto results =
                pipelineBatch(&recorder, runner, cells, loaded);
            book.recordBatch(cells, results, "warm bundles", checks);
        }
    }
    daemonCrossCheck(settings, &recorder, warm_config, cells, book, checks,
                     counts);
    book.checkOptBound(cells, checks);
    reportPaperLine(cells, book, report);
    reportLayers(recorder.spans(), counts, report);
    writeTrace(settings, recorder, report);
    reportFailures(report, checks);
}

} // namespace perfbench
