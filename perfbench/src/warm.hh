/**
 * @file
 * Pieces the two warm workloads share: the bundle directory written
 * before timing, the warm start that is their set-up, the traced bundle
 * loads (study-cold's check phase uses them too), and the capacity
 * checks of their results.
 */

#ifndef CASIM_PERFBENCH_WARM_HH
#define CASIM_PERFBENCH_WARM_HH

#include "bench.hh"

namespace perfbench {

/**
 * The warm workloads' study configuration: the warm scale, the run's
 * seed, the eviction-dominated capacity as the small (capture) LLC, the
 * hit-dominated one as the large LLC, so the bundles carry the label
 * planes of both, and the run's bundle directory.
 */
casim::StudyConfig warmConfig(const Settings &settings);

/**
 * Capture every workload cold and write its bundle under
 * config.captureDir (spans in the "prep" phase when tracing).
 */
void writeBundles(const Settings &settings, SpanRecorder *recorder,
                  const casim::StudyConfig &config, Checks &checks);

/**
 * A fresh CaptureCache, pool and queue with every capture warm-started
 * from its bundle (stream, adopted next-use index and label planes).
 */
struct WarmStart
{
    WarmStart(const casim::StudyConfig &config, unsigned jobs);

    casim::CaptureCache cache;
    casim::ParallelRunner runner;
    casim::ExperimentQueue queue;

    /** Simulated demand references of the suite (bundle metadata). */
    double demandRefs = 0.0;
};

/** Every capture of a warm start must have come from its bundle. */
void checkWarmStart(const WarmStart &warm, Checks &checks);

/**
 * Warm-load every bundle with spans, adopting the index and planes, for
 * the traced pipeline.
 */
CaptureSet loadAll(const Settings &settings, SpanRecorder *recorder,
                   const casim::StudyConfig &config,
                   casim::CaptureCache &cache, Checks &checks);

/**
 * Print and check what the capacities are for: most workloads' policies
 * differ from lru at the eviction-dominated capacity; then the mean
 * lru+oracle reduction at each capacity beside the paper's figures.
 */
void reportCapacityChecks(const std::vector<casim::ExperimentRequest> &cells,
                          const ResultBook &book, const Sizes &sizes,
                          Report &report, Checks &checks);

} // namespace perfbench

#endif // CASIM_PERFBENCH_WARM_HH
