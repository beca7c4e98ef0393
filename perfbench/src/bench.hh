/**
 * @file
 * Shared pieces of the casim benchmark: run settings, the experiment
 * cells each workload submits, output checks, the metric report, and
 * the layer-by-layer pipeline the traced run drives.
 *
 * The benchmark reaches the simulator only through its public calls:
 * makeWorkloadTrace (wgen), runHierarchy (mem), NextUseIndex and its
 * label planes (trace, core), CaptureCache::capture/save/load (sim and
 * trace bundle I/O), executeCell and ExperimentQueue::runBatch (sim
 * replay, queue, parallel), the ExperimentRequest/ExperimentResult JSON
 * forms (sim request) and the casimd wire protocol (sim daemon).
 */

#ifndef CASIM_PERFBENCH_BENCH_HH
#define CASIM_PERFBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/capture_cache.hh"
#include "sim/parallel.hh"
#include "sim/queue.hh"
#include "sim/request.hh"
#include "spans.hh"

namespace perfbench {

/** Command-line settings of one benchmark run. */
struct Settings
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Tiny inputs: every workload and check in seconds. */
    bool smoke = false;

    /** Worker-pool width: the CPUs this process may run on. */
    unsigned jobs = 1;

    /** Scratch directory of this run (bundles, socket, trace file). */
    std::string runDir;

    /** The casimd binary built beside the benchmark. */
    std::string casimd;

    /** Where the traced run writes its Chrome trace. */
    std::string traceOut;

    /** Where and how the numbers were made (commit, CPU, ISA, ...). */
    std::map<std::string, std::string> provenance;
};

/** Input sizes: the benchmark's fixed scale and capacity choices. */
struct Sizes
{
    /** Workload scale of study-cold. */
    double coldScale;

    /** Workload scale of sweep-warm and daemon-mixed. */
    double warmScale;

    /** Replay capacity most captures overflow (eviction-dominated). */
    std::uint64_t evictBytes;

    /** Replay capacity every capture fits in (hit-dominated). */
    std::uint64_t fitBytes;
};

/** The sizes a run uses (smoke mode shrinks everything). */
Sizes sizesFor(const Settings &settings);

/** Every registered workload name, in suite order. */
std::vector<std::string> workloadNames();

/** The study configuration of a run: its scale, seed and capacities. */
casim::StudyConfig studyConfig(double scale, std::uint64_t seed,
                               std::uint64_t small_bytes,
                               std::uint64_t large_bytes);

/**
 * One experiment cell.  `policy` may carry a "+oracle" suffix, which
 * selects the oracle labeler around the base policy.
 */
casim::ExperimentRequest makeCell(const std::string &kind,
                                  const std::string &workload,
                                  const std::string &policy,
                                  std::uint64_t llc_bytes,
                                  const casim::StudyConfig &config);

/** Short human label of a cell, e.g. "canneal lru+oracle @256KiB". */
std::string cellLabel(const casim::ExperimentRequest &cell);

/** A byte count in KiB/MiB for labels. */
std::string bytesLabel(std::uint64_t bytes);

/** FNV-1a digest over every field of a result (its JSON rows). */
std::uint64_t resultDigest(const casim::ExperimentResult &result);

/**
 * Failure accounting: operations attempted and failed, plus the
 * messages of the first failures.  Thread-safe.
 */
class Checks
{
  public:
    /** Count one attempted operation (a batch, request or check). */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failure with its reason. */
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const { return failed_.load(); }

    /** The first recorded failure messages. */
    std::vector<std::string> messages() const;

  private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    mutable std::mutex mutex_;
    std::vector<std::string> messages_;
};

/**
 * The results a run has seen, keyed by the cell's canonical JSON.  The
 * first result of a cell is its reference; every later result of the
 * same cell, from another iteration or another path (queue, traced
 * pipeline, daemon), must have the same digest.
 */
class ResultBook
{
  public:
    /** Record one result; a digest mismatch is a failed check. */
    void record(const casim::ExperimentRequest &cell,
                const casim::ExperimentResult &result,
                const std::string &path, Checks &checks);

    /** The reference result of a cell, or null if never seen. */
    const casim::ExperimentResult *
    find(const casim::ExperimentRequest &cell) const;

    /**
     * Record a whole batch (slot i answers cells[i]); a short batch is
     * a failure.  Counts one attempted operation.
     */
    void recordBatch(const std::vector<casim::ExperimentRequest> &cells,
                     const std::vector<casim::ExperimentResult> &results,
                     const std::string &path, Checks &checks);

    /**
     * OPT misses must not exceed any other policy's misses for the
     * same (workload, capacity).  Counts one check per group.
     */
    void checkOptBound(const std::vector<casim::ExperimentRequest> &cells,
                       Checks &checks) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, casim::ExperimentResult> results_;
    std::map<std::string, std::uint64_t> digests_;
};

/**
 * Mean LRU+oracle miss reduction over LRU at one capacity across the
 * workloads whose LRU replay misses (the paper's figure of merit).
 */
double meanOracleReduction(const std::vector<casim::ExperimentRequest> &cells,
                           const ResultBook &book, std::uint64_t llc_bytes);

/**
 * Number of workloads at `llc_bytes` where at least one policy's misses
 * differ from LRU's, and the number of workloads looked at.
 */
std::pair<std::size_t, std::size_t>
workloadsWherePoliciesDiffer(const std::vector<casim::ExperimentRequest> &cells,
                             const ResultBook &book, std::uint64_t llc_bytes);

/** Metrics and human-readable lines of one run. */
class Report
{
  public:
    /** Record a metric for the final JSON line and print it. */
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");

    /** Print one human-readable line (before the JSON line). */
    void line(const std::string &text);

    /** Print a timing summary: median, quartiles, sample count. */
    void timing(const std::string &what, const std::vector<double> &values,
                const std::string &unit, double scale);

    /** Print the final JSON result line. */
    void finish(const Checks &checks) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

/** Captured workloads by name, as the traced pipeline holds them. */
using CaptureSet =
    std::map<std::string, std::shared_ptr<const casim::CapturedWorkload>>;

/**
 * The experiment queue's steps, performed one public call at a time so
 * each can carry a span: validate, encode (the dedupe key), warm each
 * capture identity (generate -> hierarchy capture -> next-use index ->
 * label planes, or adopt the resident capture), then execute every
 * unique cell with executeCell on the same runner.  `captures` supplies
 * resident workloads; any workload it lacks is captured cold and added.
 * Results are in request order, as runBatch returns them.
 */
std::vector<casim::ExperimentResult>
pipelineBatch(SpanRecorder *recorder, casim::ParallelRunner &runner,
              const std::vector<casim::ExperimentRequest> &requests,
              CaptureSet &captures);

/**
 * Capture one workload cold through the layers (wgen, mem), with spans
 * when `recorder` is set.  The result matches CaptureCache::capture.
 */
std::shared_ptr<const casim::CapturedWorkload>
captureCold(SpanRecorder *recorder, const std::string &name,
            const casim::StudyConfig &config);

/** (window, near-window) keys of oracle label planes. */
using PlanePairs = std::vector<std::pair<casim::SeqNo, casim::SeqNo>>;

/** The label plane a cell's oracle queries (none without an oracle). */
PlanePairs planesFor(const casim::ExperimentRequest &cell);

/**
 * Build (or adopt) a capture's next-use index and the given label
 * planes, with spans when `recorder` is set.
 */
void warmIndex(SpanRecorder *recorder, const casim::CapturedWorkload &workload,
               const PlanePairs &planes);

/**
 * Write a capture's bundle (stream, next-use chain and study label
 * planes) under config.captureDir via CaptureCache::save.
 */
bool saveBundle(SpanRecorder *recorder, casim::CaptureCache &cache,
                const std::string &name, const casim::StudyConfig &config,
                const casim::CapturedWorkload &workload);

/**
 * Warm-load a workload's bundle via CaptureCache::load; null (with
 * *why) when the bundle is missing, stale or corrupt.
 */
std::shared_ptr<const casim::CapturedWorkload>
loadBundle(SpanRecorder *recorder, casim::CaptureCache &cache,
           const std::string &name, const casim::StudyConfig &config,
           std::string *why);

/**
 * Per-layer inputs the spans do not carry: counter deltas read from the
 * library or from casimd stats replies, daemon round trips, and the
 * tracing overhead.  Each `*From` names where a value was read.
 */
struct LayerCounts
{
    /** Traced batches in the timed phase (per-batch normalization). */
    unsigned timedIterations = 1;
    unsigned jobs = 1;

    /** Smallest and largest replay capacity of the workload. */
    std::uint64_t minCap = 0;
    std::uint64_t maxCap = 0;

    double planeBuilds = 0.0;
    double planeMemoHits = 0.0;
    std::string planesFrom;

    double captureHitRatio = 0.0;
    double residentBytes = 0.0;
    double bytesMapped = 0.0;
    std::string cacheFrom;

    double leaseWaits = 0.0;
    double concurrentBatches = 0.0;
    std::string queueFrom;

    std::vector<double> batchRttMs;
    std::vector<double> sweepRttMs;
    std::vector<double> statsRttMs;
    std::vector<double> overheadMs;
    std::string daemonFrom;

    /** Traced / untraced time of the same work, minus one. */
    double traceOverhead = 0.0;
};

/**
 * Fill the queue and capture-cache fields of `counts` from the untraced
 * queue of an in-process traced run: lease waits, overlapping batches,
 * the capture hit ratio ((disk + memo hits) / lookups) and resident
 * bytes.
 */
void readQueueCounters(const casim::ExperimentQueue &queue,
                       const casim::CaptureCache &cache,
                       LayerCounts &counts);

/**
 * Print every layer's busy and self time per phase, then emit every
 * per-layer metric.  A layer is measured over the timed phase (per
 * traced batch); when the timed phase bypasses it, over the run's prep,
 * setup and check phases instead, which the printed note says.
 */
void reportLayers(const std::vector<SpanRecord> &spans,
                  const LayerCounts &counts, Report &report);

/**
 * Boot a casimd on config.captureDir, send some of `cells` as batch and
 * sweep ops plus stats ops, check every reply against `book`, and shut
 * the daemon down, recording round trips into `counts`.  Used by the
 * in-process workloads' traced runs as their daemon cross-path check.
 */
void daemonCrossCheck(const Settings &settings, SpanRecorder *recorder,
                      const casim::StudyConfig &config,
                      const std::vector<casim::ExperimentRequest> &cells,
                      ResultBook &book, Checks &checks,
                      LayerCounts &counts);

/**
 * Emit the end-to-end metrics of an in-process workload from its timed
 * batches: set-up times, batch wall times, the simulated demand and
 * replayed LLC references one batch covers, and the timed wall clock.
 */
void reportInProcess(Report &report, const std::vector<double> &setups,
                     const std::vector<double> &batches,
                     double demand_refs, double replay_refs,
                     double timed_wall, const Checks &checks);

/** Print failed_ratio and the first failure messages. */
void reportFailures(Report &report, const Checks &checks);

/** reportFailures, then emit ok_ratio = 1 - failed_ratio. */
void reportOkRatio(Report &report, const Checks &checks);

/** Write the traced run's Chrome trace under the run directory. */
void writeTrace(const Settings &settings, const SpanRecorder &recorder,
                Report &report);

/** Entry points of the three workloads; each fills `report`. */
void runStudyCold(const Settings &settings, Report &report, Checks &checks);
void runSweepWarm(const Settings &settings, Report &report, Checks &checks);
void runDaemonMixed(const Settings &settings, Report &report,
                    Checks &checks);

} // namespace perfbench

#endif // CASIM_PERFBENCH_BENCH_HH
